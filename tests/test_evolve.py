"""Recognition semantics: evolution, measurement, the recognize loop."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpakit import zoo
from qpakit.evolve import (
    Configuration,
    NotWellFormedError,
    RecognitionResult,
    Superposition,
    TapeContext,
    TapeOverrunError,
    _fold,
    apply_evolution,
    decide,
    measure,
    recognize,
    trace,
)
from qpakit.model import Direction, QpaError, STACK_BASE
from qpakit.wellformed import as_general

from conftest import initial_superposition, make_spec
import evolve_oracle as oracle


Z = STACK_BASE


def _tape(spec, word):
    return TapeContext.from_word(spec, word)


def _over(spec, word, amplitudes):
    return Superposition.over(spec, _tape(spec, word), amplitudes)


class TestTapeContext:
    def test_a_copy_is_checked(self):
        tape = TapeContext(("#", "a", "$"))
        assert tape._replace(symbols=("#", "b", "$")) == TapeContext(("#", "b", "$"))
        with pytest.raises(ValueError, match="both end markers"):
            tape._replace(symbols=("a",))


class TestInitialSuperposition:
    def test_single_configuration(self):
        spec = zoo.l1_rpa().spec
        psi = initial_superposition(spec, "1")
        assert psi.amplitudes == {Configuration("q0", 0, (Z,)): 1.0 + 0.0j}

    def test_empty_word(self):
        spec = zoo.l2_rpa().spec
        psi = initial_superposition(spec, "")
        assert list(psi.amplitudes) == [Configuration("q0", 0, (Z,))]

    def test_illegal_symbol(self):
        spec = zoo.l2_rpa().spec
        with pytest.raises(QpaError):
            initial_superposition(spec, "ax")


class TestApplyEvolution:
    def test_l2_single_push_step(self):
        spec = zoo.l2_rpa().spec
        tape = _tape(spec, "ab")
        psi = Superposition.over(spec, tape, {Configuration("q0", 1, (Z,)): 1.0 + 0.0j})
        out = apply_evolution(spec, tape, psi)
        # the first a opens the x-surplus counter in the up state q1
        assert out.amplitudes == {Configuration("q1", 2, (Z, "1")): 1.0 + 0.0j}

    def test_empty_superposition(self):
        spec = zoo.l2_rpa().spec
        out = apply_evolution(spec, _tape(spec, "ab"), _over(spec, "ab", {}))
        assert out.amplitudes == {}

    def test_l5_marker_split_three_branches(self):
        spec = zoo.l5_qpa().spec
        tape = _tape(spec, "abc")
        out = apply_evolution(spec, tape, initial_superposition(spec, "abc"))
        assert len(out) == 3
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)
        amps = {c.state: a for c, a in out.amplitudes.items()}
        assert amps["A0"].real == pytest.approx(math.sqrt(2 / 7))
        assert amps["C0"].real == pytest.approx(-math.sqrt(2 / 7))
        assert amps["uacc"].real == pytest.approx(math.sqrt(3 / 7))

    def test_overrun_raises(self):
        spec = zoo.nonunitary_example()
        tape = _tape(spec, "1")
        psi = initial_superposition(spec, "1")
        psi = apply_evolution(spec, tape, psi)
        psi = apply_evolution(spec, tape, psi)
        with pytest.raises(TapeOverrunError):
            apply_evolution(spec, tape, psi)

    def test_norm_preserved_on_random_superpositions(self):
        import numpy as np
        rng = np.random.default_rng(11)
        spec = zoo.l2_rpa().spec
        tape = _tape(spec, "ab")
        stacks = [(Z,), (Z, "1"), (Z, "2"), (Z, "1", "1"), (Z, "2", "2")]
        configs = [
            Configuration(q, h, s)
            for q in sorted(spec.states)
            for h in range(len(tape) - 1)  # keep the one-step image on-tape
            for s in stacks
        ]
        for _ in range(20):
            picks = rng.choice(len(configs), size=6, replace=False)
            vec = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            vec /= np.linalg.norm(vec)
            psi = Superposition.over(spec, tape, {configs[i]: complex(vec[k]) for k, i in enumerate(picks)})
            out = apply_evolution(spec, tape, psi)
            assert out.norm_squared() == pytest.approx(1.0, abs=1e-9)

    def test_linearity_on_disjoint_supports(self):
        spec = zoo.l2_rpa().spec
        tape = _tape(spec, "ab")
        c1 = Configuration("q0", 1, (Z,))
        c2 = Configuration("q3", 2, (Z, "1"))
        a, b = complex(0.6, 0.1), complex(-0.3, 0.7)
        combined = apply_evolution(spec, tape, Superposition.over(spec, tape, {c1: a, c2: b}))
        out1 = apply_evolution(spec, tape, Superposition.over(spec, tape, {c1: 1.0}))
        out2 = apply_evolution(spec, tape, Superposition.over(spec, tape, {c2: 1.0}))
        expect = {}
        for c, v in out1.amplitudes.items():
            expect[c] = expect.get(c, 0j) + a * v
        for c, v in out2.amplitudes.items():
            expect[c] = expect.get(c, 0j) + b * v
        assert set(combined.amplitudes) == set(expect)
        for c in expect:
            assert combined.amplitudes[c] == pytest.approx(expect[c], abs=1e-12)


def _states_spec(*states):
    """A table with no entries over ``states``: enough to hold configurations to measure."""
    return make_spec(sigma={"a"}, t=(), states=set(states), q0=states[0], q_acc=(), q_rej=(),
                     entries=[])


class TestMeasure:
    def test_pure_accept(self):
        psi = _over(_states_spec("q5"), "", {Configuration("q5", 1, (Z,)): 1.0 + 0.0j})
        acc, rej, res = measure(psi, frozenset({"q5"}), frozenset({"q4"}))
        assert (acc, rej) == (1.0, 0.0)
        assert len(res) == 0

    def test_no_halting_states_is_identity(self):
        psi = _over(_states_spec("a", "b"), "", {
            Configuration("a", 0, (Z,)): 0.6 + 0.0j,
            Configuration("b", 1, (Z,)): 0.8 + 0.0j,
        })
        acc, rej, res = measure(psi, frozenset({"x"}), frozenset({"y"}))
        assert (acc, rej) == (0.0, 0.0)
        assert res.amplitudes == psi.amplitudes

    def test_split_outcome(self):
        psi = _over(_states_spec("acc", "rej", "mid"), "", {
            Configuration("acc", 0, (Z,)): complex(math.sqrt(1 / 3), 0),
            Configuration("rej", 0, (Z,)): complex(-math.sqrt(1 / 3), 0),
            Configuration("mid", 0, (Z,)): complex(0, math.sqrt(1 / 3)),
        })
        acc, rej, res = measure(psi, frozenset({"acc"}), frozenset({"rej"}))
        assert acc == pytest.approx(1 / 3)
        assert rej == pytest.approx(1 / 3)
        assert res.norm_squared() == pytest.approx(1 / 3)

    def test_l3_reject_branch_collapses_first(self):
        # the third branch of the marker split halts immediately, so the
        # first observation measures exactly its third of the mass
        steps = trace(zoo.l3_qpa().spec, "abc")
        assert steps[0].p_reject_inc == pytest.approx(1 / 3, abs=1e-12)
        assert steps[0].p_accept_inc == 0.0


class TestRecognize:
    def test_l1_single_one(self):
        r = recognize(zoo.l1_rpa().spec, "1")
        assert r.p_accept == pytest.approx(1.0, abs=1e-9)
        assert r.halted

    def test_l2_verdicts(self):
        spec = zoo.l2_rpa().spec
        assert recognize(spec, "ab").p_accept == pytest.approx(1.0, abs=1e-9)
        assert recognize(spec, "aab").p_reject == pytest.approx(1.0, abs=1e-9)

    def test_l3_two_thirds(self):
        r = recognize(zoo.l3_qpa().spec, "abc")
        assert r.p_accept == pytest.approx(2 / 3, abs=1e-9)

    def test_refuses_non_well_formed(self):
        with pytest.raises(NotWellFormedError):
            recognize(zoo.nonunitary_example(), "1")

    def test_force_propagates_overrun(self):
        with pytest.raises(TapeOverrunError):
            recognize(zoo.nonunitary_example(), "1", force=True)

    def test_nonhalting_run_reports_residual(self, stay_copy_spec):
        r = recognize(stay_copy_spec, "x", max_steps=17)
        assert not r.halted
        assert r.steps == 17
        assert r.p_nonhalt == pytest.approx(1.0)

    def test_default_step_budget_scales_with_word(self, stay_copy_spec):
        r = recognize(stay_copy_spec, "x")
        assert r.steps == 20 * (1 + 2)
        r = recognize(stay_copy_spec, "xxx")
        assert r.steps == 20 * (3 + 2)

    def test_lossy_table_without_force_refused(self, lossy_spec):
        with pytest.raises(NotWellFormedError):
            recognize(lossy_spec, "x")

    @settings(max_examples=40, deadline=None)
    @given(st.text(alphabet="ab", max_size=10))
    def test_conservation_on_l2(self, word):
        steps = trace(zoo.l2_rpa().spec, word)
        for s in steps:
            total = s.p_accept + s.p_reject + s.residual_norm_squared
            assert total == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.text(alphabet="abc", max_size=8))
    def test_conservation_on_l5(self, word):
        steps = trace(zoo.l5_qpa().spec, word)
        for s in steps:
            total = s.p_accept + s.p_reject + s.residual_norm_squared
            assert total == pytest.approx(1.0, abs=1e-9)


class TestDecide:
    def test_plain_accept(self):
        r = recognize(zoo.l1_rpa().spec, "01")
        assert decide(r, 0.99) == "accepted"

    def test_two_thirds_clears_point_six(self):
        r = recognize(zoo.l3_qpa().spec, "abc")
        assert decide(r, 0.6) == "accepted"

    def test_inconclusive_tuple(self):
        r = RecognitionResult(p_accept=3 / 7, p_reject=0.0, p_nonhalt=4 / 7,
                              steps=5, halted=False)
        assert decide(r, 0.55) == "inconclusive"

    def test_threshold_validation(self):
        r = recognize(zoo.l1_rpa().spec, "1")
        for bad in (0.5, 0.0, 1.2, -1.0):
            with pytest.raises(ValueError):
                decide(r, bad)


class TestTrace:
    def test_l1_probabilities_conserved_each_step(self):
        steps = trace(zoo.l1_rpa().spec, "1", max_steps=6)
        assert steps
        for s in steps:
            assert s.p_accept + s.p_reject + s.residual_norm_squared == pytest.approx(1.0, abs=1e-9)

    def test_l2_empty_word_accepts(self):
        steps = trace(zoo.l2_rpa().spec, "")
        assert steps[-1].p_accept == pytest.approx(1.0, abs=1e-9)
        assert steps[-1].residual_norm_squared < 1e-12

    def test_forced_lossy_table_drifts(self, lossy_spec):
        steps = trace(lossy_spec, "x", max_steps=3, force=True)
        totals = [s.p_accept + s.p_reject + s.residual_norm_squared for s in steps]
        assert totals[0] == pytest.approx(0.5)
        assert totals[-1] == pytest.approx(0.125)

    def test_entries_sorted(self):
        steps = trace(zoo.l5_qpa().spec, "ab")
        for s in steps:
            assert list(s.entries) == sorted(s.entries, key=lambda kv: kv[0])

    def test_stack_base_invariant_holds_everywhere(self):
        for entry in zoo.entries().values():
            for word in ("", "".join(sorted(entry.spec.alphabets.sigma)[:2])):
                for s in trace(entry.spec, word):
                    for c, _ in s.entries:
                        assert c.stack[0] == Z
                        assert Z not in c.stack[1:]


class TestRunLoop:
    def test_negative_max_steps_is_a_value_error(self):
        spec = zoo.l2_rpa().spec
        for fn in (recognize, trace, _fold):
            with pytest.raises(ValueError, match="max_steps"):
                fn(spec, "ab", max_steps=-1)

    def test_traced_result_equals_recognize(self):
        spec = zoo.l5_qpa().spec
        for word, max_steps in (("abc", None), ("aabbcc", 3), ("", 0), ("ab", 1)):
            steps = []
            result = _fold(spec, word, max_steps=max_steps, trace_out=steps)
            assert result == recognize(spec, word, max_steps=max_steps)
            assert steps == trace(spec, word, max_steps=max_steps)
            assert result.steps == len(steps)

    def test_view_has_tuple_stacks_and_length(self):
        spec = zoo.l2_rpa().spec
        tape = _tape(spec, "aab")
        psi = initial_superposition(spec, "aab")
        for _ in range(3):
            psi = apply_evolution(spec, tape, psi)
        assert len(psi) == len(psi.amplitudes) == 1
        (config,) = psi.amplitudes
        assert config == Configuration("q1", 3, (Z, "1", "2"))
        assert psi.amplitudes.get(config, 0.0) == 1.0
        assert psi == _over(spec, "aab", {config: 1.0 + 0.0j})

    def test_view_of_a_run_is_read_only(self):
        spec = zoo.l2_rpa().spec
        psi = apply_evolution(spec, _tape(spec, "ab"), initial_superposition(spec, "ab"))
        (config,) = psi.amplitudes
        with pytest.raises(TypeError):
            psi.amplitudes[config] = 0.5
        with pytest.raises(TypeError):
            psi.amplitudes[Configuration("q0", 1, (Z,))] = 1.0
        assert dict(psi.amplitudes) == {config: 1.0 + 0.0j} and len(psi) == 1

    def test_stack_ids_are_shared(self):
        # a push followed by its pop lands on the stack id it started from
        spec = zoo.l2_rpa().spec
        tape = _tape(spec, "abab")
        psi = initial_superposition(spec, "abab")
        (start,) = psi._packed
        keys = []
        for _ in range(5):
            psi = apply_evolution(spec, tape, psi)
            keys.extend(psi._packed)
        run = psi._run
        assert [run.config(k).stack for k in keys][:4] == [(Z,), (Z, "1"), (Z,), (Z, "1")]
        sids = [k >> run.hshift for k in keys]
        assert sids[0] == sids[2] == start >> run.hshift
        assert sids[1] == sids[3]

    def test_measure_other_halting_sets_on_a_run(self):
        spec = zoo.l5_qpa().spec
        psi = apply_evolution(spec, _tape(spec, "abc"), initial_superposition(spec, "abc"))
        acc, rej, res = measure(psi, frozenset({"A0"}), frozenset({"C0", "uacc"}))
        want = oracle.measure(oracle.Superposition(dict(psi.amplitudes)), frozenset({"A0"}),
                              frozenset({"C0", "uacc"}))
        assert (acc, rej, res.amplitudes) == (want[0], want[1], want[2].amplitudes)
        assert acc == pytest.approx(2 / 7) and rej == pytest.approx(5 / 7)
        assert measure(psi, spec.q_accept, spec.q_reject)[0] == pytest.approx(3 / 7)

    def test_foreign_configuration_is_refused(self):
        spec = zoo.l2_rpa().spec
        tape = _tape(spec, "ab")
        for bad in (Configuration("nope", 1, (Z,)), Configuration("q0", 9, (Z,)),
                    Configuration("q0", 1, ()), Configuration("q0", 1, (Z, "x")),
                    Configuration("q0", 1, ("1",)), Configuration("q0", 1, (Z, Z)),
                    Configuration("q0", 1, ("1", Z))):
            with pytest.raises(QpaError):
                Superposition.over(spec, tape, {bad: 1.0})


def _hex_items(psi):
    return [(c, a.real.hex(), a.imag.hex()) for c, a in psi.sorted_items()]


class TestOtherRuns:
    """A superposition of another run steps and measures as on the native run, bit for bit.

    Under an equal tape it keeps its own run; the general view is another
    spec object, so ``apply_evolution`` packs it again (``Superposition.over``).
    """

    @pytest.mark.parametrize("other", ["equal tape", "general view"])
    def test_same_amplitudes_as_the_native_path(self, other):
        spec = zoo.l5_qpa().spec
        tape, twin = _tape(spec, "aabbcc"), _tape(spec, "aabbcc")
        assert twin == tape and twin is not tape
        psi = initial_superposition(spec, "aabbcc")
        for _ in range(6):
            if other == "equal tape":
                foreign = Superposition.over(spec, twin, psi.amplitudes)
                got = apply_evolution(spec, tape, foreign)
                assert got._run is foreign._run
            else:
                got = apply_evolution(as_general(spec), tape, psi)
                assert got._run.spec is not spec
            want = apply_evolution(spec, tape, psi)
            m_got, m_want = (measure(x, spec.q_accept, spec.q_reject) for x in (got, want))
            assert _hex_items(got) == _hex_items(want) and _hex_items(m_got[2]) == _hex_items(m_want[2])
            assert (m_got[0].hex(), m_got[1].hex()) == (m_want[0].hex(), m_want[1].hex())
            psi = m_want[2]

    def test_configurations_of_another_spec_are_refused(self):
        l5, l2 = zoo.l5_qpa().spec, zoo.l2_rpa().spec
        psi = apply_evolution(l5, _tape(l5, "ab"), initial_superposition(l5, "ab"))
        with pytest.raises(QpaError, match="not a configuration of this automaton"):
            apply_evolution(l2, _tape(l2, "ab"), psi)


def _base_losing_spec():
    # popping the base without re-pushing it: structurally invalid, run with force
    return make_spec(sigma={"x"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
                     entries=[("q", "#", Z, "q", Direction.STAY, (), 1.0)])


class TestStackBaseCheck:
    def test_losing_the_base_is_a_qpa_error(self):
        with pytest.raises(QpaError, match="without its Z0 base") as info:
            recognize(_base_losing_spec(), "x", force=True)
        assert "Configuration(state='q', head=0, stack=('Z0',))" in str(info.value)
        assert not isinstance(info.value, TapeOverrunError)

    def test_lost_base_wins_over_an_overrun(self):
        # the same configuration both overruns and loses its base: the
        # base is reported, as the tuple loop's assertion did
        spec = make_spec(sigma={"x"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(), entries=[
            ("q", "#", Z, "q", Direction.STAY, (Z,), 1.0),
            ("q", "$", Z, "q", Direction.ADVANCE, (Z,), 0.6),
            ("q", "$", Z, "q", Direction.STAY, (), 0.8),
        ])
        tape = _tape(spec, "")
        psi = Superposition.over(spec, tape, {Configuration("q", 1, (Z,)): 1.0})
        with pytest.raises(QpaError, match="without its Z0 base"):
            apply_evolution(spec, tape, psi)

    def test_check_survives_optimized_mode(self):
        _assert_refused_under_optimization("from qpakit.evolve import recognize",
                                           "recognize(_base_losing_spec(), 'x', force=True)")

    def test_window_check_is_a_qpa_error(self):
        from qpakit.matrixlab import enumerate_window
        with pytest.raises(QpaError, match="without its Z0 base") as info:
            enumerate_window(_base_losing_spec(), "x", 2)
        assert "Configuration(state='q', head=0, stack=('Z0',))" in str(info.value)

    def test_window_check_survives_optimized_mode(self):
        _assert_refused_under_optimization("from qpakit.matrixlab import enumerate_window",
                                           "enumerate_window(_base_losing_spec(), 'x', 2)")


def _assert_refused_under_optimization(setup: str, call: str):
    """Run ``call`` under ``python -O``: it must raise the lost-base QpaError."""
    import os
    import subprocess
    import sys
    from pathlib import Path
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from test_evolve import _base_losing_spec\n"
        f"{setup}\n"
        "from qpakit.model import QpaError\n"
        "try:\n"
        f"    {call}\n"
        "except QpaError as exc:\n"
        "    print('refused:', exc)\n"
    )
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", code, str(tests)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("refused:") and "Z0 base" in out.stdout
