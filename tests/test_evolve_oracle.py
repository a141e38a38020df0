"""The integer run loop against the tuple-stack loop of ``evolve_oracle``, exactly.

Probabilities are compared by ``float.hex``, so a changed summation order
or a lost signed zero fails; steps, halting and every trace entry (its
configuration and both amplitude parts) must match in order.  Runs that
raise must raise the same exception type with the same message.
"""
import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpakit import evolve, zoo
from qpakit.dfa2rpa import compile_dfa
from qpakit.evolve import Configuration, Superposition
from qpakit.model import Alphabets, Direction

from conftest import enumerate_push_words, make_spec, random_total_dfa, words_up_to
import evolve_oracle as oracle

ZOO = zoo.fixture_specs()


_hex = float.hex


def result_key(r):
    return (_hex(r.p_accept), _hex(r.p_reject), _hex(r.p_nonhalt), r.steps, r.halted)


def entries_key(entries):
    return tuple((c.state, c.head, c.stack, _hex(a.real), _hex(a.imag)) for c, a in entries)


def trace_key(steps):
    return [(s.step, _hex(s.p_accept_inc), _hex(s.p_reject_inc), _hex(s.p_accept),
             _hex(s.p_reject), _hex(s.residual_norm_squared), entries_key(s.entries))
            for s in steps]


def outcome(fn, *args, **kwargs):
    """A call's value, or the type and message of what it raised."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:    # compared, not swallowed: both sides must agree
        return "raised", (type(exc), str(exc))


def assert_same_run(spec, word, **kw):
    for ours, theirs, key in ((evolve.recognize, oracle.recognize, result_key),
                              (evolve.trace, oracle.trace, trace_key)):
        got = outcome(ours, spec, word, **kw)
        want = outcome(theirs, spec, word, **kw)
        assert got[0] == want[0], (word, got, want)
        if got[0] == "raised":
            assert got[1] == want[1]
        else:
            assert key(got[1]) == key(want[1]), word


def words(alphabet, max_len):
    return words_up_to(sorted(alphabet), max_len)


@pytest.mark.parametrize("name", ["l1", "l2", "l3", "l5"])
def test_zoo_words_up_to_six(name):
    spec = ZOO[name]
    for word in words(spec.alphabets.sigma, 6):
        assert_same_run(spec, word)


@pytest.mark.parametrize("max_steps", [0, 1, 3])
def test_zoo_step_budgets(max_steps):
    for name in ("l2", "l5"):
        for word in ("", "ab", "abcabc"[: 2 if name == "l2" else 6]):
            assert_same_run(ZOO[name], word, max_steps=max_steps)


@pytest.mark.parametrize("max_steps", [0, 1])
def test_loose_halting_threshold(max_steps):
    assert_same_run(ZOO["l2"], "ab", max_steps=max_steps, halt_eps=2.0)


@settings(max_examples=40, deadline=None)
@given(n_states=st.integers(2, 6), alphabet=st.sampled_from(["01", "abc"]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_compiled_random_dfas(n_states, alphabet, seed, data):
    spec = compile_dfa(random_total_dfa(n_states, alphabet, np.random.default_rng(seed)))
    word = data.draw(st.text(alphabet=alphabet, max_size=12))
    assert_same_run(spec, word)


def test_l2_deep_word():
    assert_same_run(ZOO["l2"], "a" * 1200 + "b" * 1200)


@pytest.mark.parametrize("counts", [(800, 800, 800), (800, 799, 801)])
def test_l5_deep_word(counts):
    word = "".join(sym * n for sym, n in zip("abc", counts))
    assert len(word) == 2400
    assert_same_run(ZOO["l5"], word)


@pytest.mark.parametrize("word", ["", "0", "1", "01", "0110"])
@pytest.mark.parametrize("max_steps", [None, 1, 2, 3])
def test_forced_nonunitary(word, max_steps):
    assert_same_run(zoo.nonunitary_example(), word, force=True, max_steps=max_steps)


def test_forced_nonunitary_raises_like_the_oracle():
    got = outcome(evolve.recognize, zoo.nonunitary_example(), "1", force=True)
    assert got[0] == "raised" and got[1][0] is evolve.TapeOverrunError
    assert got == outcome(oracle.recognize, zoo.nonunitary_example(), "1", force=True)


def test_refused_nonunitary_raises_like_the_oracle():
    got = outcome(evolve.recognize, zoo.nonunitary_example(), "1")
    assert got[0] == "raised" and got[1][0] is evolve.NotWellFormedError
    assert got == outcome(oracle.recognize, zoo.nonunitary_example(), "1")


def test_forced_lossy_and_nonhalting_tables(lossy_spec, stay_copy_spec):
    for word in ("", "x", "xxx"):
        assert_same_run(lossy_spec, word, force=True, max_steps=30)
        assert_same_run(stay_copy_spec, word, max_steps=17)


@settings(max_examples=30, deadline=None)
@given(phases=st.lists(st.floats(0, 2 * cmath.pi), min_size=1, max_size=6),
       scale=st.floats(0.5, 1.0), word=st.text(alphabet="abc", max_size=7))
def test_forced_perturbed_l5(phases, scale, word):
    """Rotated and shrunk entries: interference and pruning off the exact values."""
    spec = ZOO["l5"]
    keys = spec.sorted_keys()
    delta = dict(spec.delta)
    for i, phase in enumerate(phases):
        k = keys[(i * 37) % len(keys)]
        delta[k] = scale * delta[k] * cmath.exp(1j * phase)
    assert_same_run(spec.replace(delta=delta), word, force=True)


STATES = ("p", "q", "r")


@st.composite
def random_tables(draw):
    """Small forced tables with up to four entries per source: wide, interfering supports."""
    al = Alphabets(sigma=frozenset({"x"}), t=frozenset({"1", "2"}))
    entries = []
    for q1 in STATES:
        for sigma in ("#", "x", "$"):
            for tau in sorted(al.delta_alpha):
                pushes = enumerate_push_words(tau, al)
                for _ in range(draw(st.integers(0, 4))):
                    d = Direction.STAY if sigma == "$" else draw(st.sampled_from(list(Direction)))
                    amp = cmath.rect(draw(st.floats(0.05, 0.9)), draw(st.floats(0, 2 * cmath.pi)))
                    entries.append((q1, sigma, tau, draw(st.sampled_from(STATES)), d,
                                    draw(st.sampled_from(pushes)), amp))
    return make_spec(sigma={"x"}, t={"1", "2"}, states=set(STATES), q0="p",
                     q_acc={"r"}, q_rej=(), entries=entries)


@settings(max_examples=60, deadline=None)
@given(spec=random_tables(), n=st.integers(0, 4), max_steps=st.integers(1, 9))
def test_forced_random_tables(spec, n, max_steps):
    assert_same_run(spec, "x" * n, force=True, max_steps=max_steps)


def _norm_configs(spec, tape):
    stacks = [("Z0",), ("Z0", "1"), ("Z0", "2"), ("Z0", "1", "1"), ("Z0", "2", "1", "2")]
    return [Configuration(q, h, s) for q in sorted(spec.states)
            for h in range(len(tape)) for s in stacks]


@pytest.mark.parametrize("prune_eps", [evolve.PRUNE_EPS, 0.0, 0.3])
def test_apply_evolution_on_configuration_keyed_superposition(prune_eps):
    spec = ZOO["l2"]
    tape = evolve.TapeContext.from_word(spec, "aabb")
    configs = _norm_configs(spec, tape)
    rng = np.random.default_rng(5)
    for _ in range(30):
        picks = rng.choice(len(configs), size=7, replace=False)
        amps = {configs[i]: complex(*rng.standard_normal(2)) for i in picks}
        got = outcome(evolve.apply_evolution, spec, tape, Superposition.over(spec, tape, amps), prune_eps)
        want = outcome(oracle.apply_evolution, spec, tape, oracle.Superposition(dict(amps)), prune_eps)
        assert got[0] == want[0]
        if got[0] == "raised":
            assert got[1] == want[1]
            continue
        assert entries_key(got[1].amplitudes.items()) == entries_key(want[1].amplitudes.items())
        assert _hex(got[1].norm_squared()) == _hex(want[1].norm_squared())
        # measuring the result agrees too, on the run's packed form
        m_got = evolve.measure(got[1], spec.q_accept, spec.q_reject)
        m_want = oracle.measure(want[1], spec.q_accept, spec.q_reject)
        assert (_hex(m_got[0]), _hex(m_got[1])) == (_hex(m_want[0]), _hex(m_want[1]))
        assert entries_key(m_got[2].amplitudes.items()) == entries_key(m_want[2].amplitudes.items())


@pytest.mark.parametrize("bad", [complex("nan"), complex(0.5, float("nan")), complex("inf"), 1e308])
@pytest.mark.parametrize("name", ["l2", "l5"])
def test_forced_non_finite_entries(name, bad):
    """A NaN amplitude is pruned as the tuple loop prunes it, wherever it lands in a step.

    One table puts the bad value on the first entry of the initial source, so
    the first amplitude summed in step 1 is bad; the others put it further in.
    An overflowing entry turns into inf and then NaN a few steps later.
    """
    spec = ZOO[name]
    keys = spec.sorted_keys()
    first = next(k for k in keys if (k.q1, k.sigma, k.tau) == (spec.q0, "#", "Z0"))
    for k in (first, keys[len(keys) // 3], keys[-1]):
        delta = dict(spec.delta)
        delta[k] = bad
        forced = spec.replace(delta=delta)
        for word in words(spec.alphabets.sigma, 3):
            assert_same_run(forced, word, force=True, max_steps=12)
