"""Condition checks: bundled machines pass, engineered counterexamples fail."""
import math

import pytest

from qpakit import zoo
from qpakit.dfa2rpa import compile_dfa
from qpakit.model import DfaSpec, Direction, StructureError, validate_structure
from qpakit.wellformed import (
    MissingDirectionError,
    as_general,
    check_all,
    check_column_orthogonality,
    check_local_probability,
    check_row_norm,
    check_separability,
    check_simplified,
)

from conftest import ADV, make_spec


class TestLocalProbability:
    def test_l2_clean(self):
        assert check_local_probability(zoo.l2_rpa().spec) == []

    def test_half_column_reports_half(self):
        spec = make_spec(
            sigma={"a"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
            entries=[("q", "a", "1", "q", ADV, ("1",), math.sqrt(0.5))],
        )
        reports = check_local_probability(spec)
        by_witness = {r.witness: r.residual for r in reports}
        assert by_witness[("q", "a", "1")] == pytest.approx(0.5)

    def test_nonunitary_example_clean(self):
        assert check_local_probability(zoo.nonunitary_example()) == []

    def test_empty_table_fails_every_triple(self):
        spec = make_spec(
            sigma={"a"}, t={"1"}, states={"p", "q"}, q0="q", q_acc=(), q_rej=(),
            entries=[],
        )
        reports = check_local_probability(spec)
        # 2 states x 3 tape symbols x 2 stack symbols
        assert len(reports) == 12
        assert all(r.residual == pytest.approx(1.0) for r in reports)


class TestColumnOrthogonality:
    def test_l1_clean(self):
        assert check_column_orthogonality(zoo.l1_rpa().spec) == []

    def test_coinciding_unit_columns(self):
        spec = make_spec(
            sigma={"a"}, t={"1", "2"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
            entries=[
                ("q", "a", "1", "q", ADV, ("1",), 1.0),
                ("q", "a", "2", "q", ADV, ("1",), 1.0),
            ],
        )
        reports = check_column_orthogonality(spec)
        assert len(reports) == 1
        assert reports[0].residual == pytest.approx(1.0)
        assert reports[0].witness == ("q", "a", "1", "q", "2")

    def test_compiled_three_state_dfa_clean(self):
        dfa = DfaSpec(
            states=frozenset({"s0", "s1", "s2"}), sigma=frozenset({"0", "1"}),
            q0="s0", finals=frozenset({"s2"}),
            trans={
                ("s0", "0"): "s1", ("s0", "1"): "s2",
                ("s1", "0"): "s2", ("s1", "1"): "s0",
                ("s2", "0"): "s2", ("s2", "1"): "s1",
            },
        )
        assert check_column_orthogonality(compile_dfa(dfa)) == []


class TestRowNorm:
    def test_l2_clean(self):
        assert check_row_norm(zoo.l2_rpa().spec) == []

    def test_nonunitary_example_residual_one(self):
        reports = check_row_norm(zoo.nonunitary_example())
        assert reports, "expected vanished rows"
        assert all(r.residual == pytest.approx(1.0) for r in reports)
        # exactly the rows whose target stack ends at the base symbol
        assert all(r.witness[-1] == "Z0" for r in reports)

    def test_single_state_copy_machine_clean(self, advance_copy_spec):
        # hand evaluation: for each row tuple the popped-and-repushed
        # entry with the row's top symbol contributes exactly 1
        assert check_row_norm(as_general(advance_copy_spec)) == []


class TestSeparability:
    def test_l2_clean(self):
        assert check_separability(as_general(zoo.l2_rpa().spec)) == []

    def test_all_advance_spec_vacuous_mixed_conditions(self):
        reports = check_separability(zoo.nonunitary_example())
        assert [r for r in reports if r.condition_id in ("SEP2", "SEP3a", "SEP3b")] == []

    def test_pop_against_push_collision(self):
        # one triple pops bare, the other pushes one net symbol into the
        # same target: their columns meet on stack-shifted configurations
        spec = make_spec(
            sigma={"a"}, t={"1", "2"}, states={"q", "s1", "s2"}, q0="q",
            q_acc=(), q_rej=(),
            entries=[
                ("s1", "a", "1", "q", ADV, (), 1.0),
                ("s2", "a", "2", "q", ADV, ("1",), 1.0),
            ],
        )
        reports = check_separability(spec)
        sep1a = [r for r in reports if r.condition_id == "SEP1a"]
        assert len(sep1a) == 1
        assert sep1a[0].residual == pytest.approx(1.0)
        assert sep1a[0].witness == ("s1", "a", "1", "s2", "2", "1")


class TestSimplifiedSuite:
    def test_l1_clean(self):
        assert check_simplified(zoo.l1_rpa().spec) == []

    def test_l2_clean(self):
        assert check_simplified(zoo.l2_rpa().spec) == []

    def test_compiled_ends_in_one_clean(self, ends_in_one_dfa):
        assert check_simplified(compile_dfa(ends_in_one_dfa)) == []

    def test_requires_direction_function(self):
        with pytest.raises(MissingDirectionError):
            check_simplified(zoo.nonunitary_example())


class TestCheckAll:
    def test_zoo_passes(self):
        for entry in zoo.entries().values():
            summary = check_all(entry.spec)
            assert summary.passed, entry.name
            assert summary.worst_residual < 1e-9

    def test_nonunitary_fails_only_row_norm(self):
        summary = check_all(zoo.nonunitary_example())
        assert not summary.passed
        for result in summary.results:
            if result.condition_id == "RVN":
                assert not result.passed
                assert result.worst_residual == pytest.approx(1.0)
            else:
                assert result.passed, result.condition_id

    def test_empty_table_fails_local_probability(self):
        spec = make_spec(
            sigma={"a"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
            entries=[],
        )
        summary = check_all(spec)
        assert not summary.passed
        lpc = summary.result("LPC")
        assert lpc.violations == 6

    def test_suites_agree_on_simplified_specs(self):
        subjects = [e.spec for e in zoo.entries().values()]
        subjects.append(compile_dfa(DfaSpec(
            states=frozenset({"s0"}), sigma=frozenset({"0"}), q0="s0",
            finals=frozenset({"s0"}), trans={("s0", "0"): "s0"},
        )))
        for spec in subjects:
            simplified = check_all(spec)
            general = check_all(as_general(spec))
            assert simplified.passed == general.passed

    def test_suites_agree_on_a_broken_simplified_spec(self):
        spec = make_spec(
            sigma={"a"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
            entries=[("q", "a", "1", "q", ADV, ("1",), math.sqrt(0.5))],
            kind="simplified", directions={"q": ADV},
        )
        assert check_all(spec).passed == check_all(as_general(spec)).passed == False

    def test_deterministic_reports(self):
        spec = zoo.nonunitary_example()
        a = check_all(spec)
        b = check_all(spec)
        assert a == b

    def test_tolerance_is_configurable(self):
        # complete copy machine with slightly lossy amplitudes: every
        # residual is 1e-6, so the verdict flips with the tolerance
        amp = math.sqrt(1.0 - 1e-6)
        spec = make_spec(
            sigma={"a"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
            entries=[
                ("q", s, tau, "q", ADV, (tau,), amp)
                for s in ("#", "$", "a")
                for tau in ("Z0", "1")
            ],
        )
        assert not check_all(spec).passed
        assert check_all(spec, tol=1e-3).passed

    def test_report_cap(self):
        spec = make_spec(
            sigma={"a", "b", "c"}, t={"1", "2"}, states={f"q{i}" for i in range(4)},
            q0="q0", q_acc=(), q_rej=(), entries=[],
        )
        summary = check_all(spec, max_reports=5)
        lpc = summary.result("LPC")
        assert lpc.violations == 4 * 5 * 3
        assert len(lpc.reports) == 5


class TestToleranceValidation:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-12])
    @pytest.mark.parametrize("check", [
        check_all, check_local_probability, check_column_orthogonality,
        check_row_norm, check_separability, check_simplified,
    ])
    def test_rejected(self, check, tol):
        with pytest.raises(ValueError, match="tolerance"):
            check(zoo.l2_rpa().spec, tol=tol)

    def test_zero_accepted(self):
        # an exact table passes at tolerance 0; the nonunitary one fails
        assert check_all(zoo.l2_rpa().spec, tol=0.0).passed
        assert not check_all(zoo.nonunitary_example(), tol=0).passed


class TestNonFiniteAmplitudes:
    def _copy_machine(self, amp):
        return make_spec(
            sigma={"a"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
            entries=[("q", s, tau, "q", ADV, (tau,), amp if (s, tau) == ("a", "1") else 1.0)
                     for s in ("#", "$", "a") for tau in ("Z0", "1")],
        )

    def test_clean_copy_machine_passes(self):
        assert check_all(self._copy_machine(1.0)).passed

    @pytest.mark.parametrize("amp", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                     complex(math.inf, 0.0)])
    def test_non_finite_entry_fails(self, amp):
        summary = check_all(self._copy_machine(amp))
        assert not summary.passed
        lpc = summary.result("LPC")
        assert lpc.violations == 1
        assert lpc.reports[0].witness == ("q", "a", "1")

    def test_nan_residual_is_a_violation_at_any_tolerance(self):
        reports = check_local_probability(self._copy_machine(complex(math.nan, 0.0)), tol=1e6)
        assert len(reports) == 1 and math.isnan(reports[0].residual)


class TestSuiteArgument:
    def test_default_is_the_kind_suite(self):
        spec = zoo.l2_rpa().spec
        assert check_all(spec).suite == "simplified"
        assert check_all(spec, suite="simplified") is check_all(spec)
        assert check_all(as_general(spec)).suite == "general"

    def test_general_suite_on_a_simplified_spec(self):
        spec = zoo.l3_qpa().spec
        forced = check_all(spec, suite="general")
        assert forced.suite == "general"
        assert forced == check_all(as_general(spec))

    def test_general_view_keeps_the_compiled_table(self):
        spec = zoo.l5_qpa().spec
        view = as_general(spec)
        assert view.compiled() is spec.compiled()
        assert check_all(view) == check_all(spec, suite="general")
        with pytest.raises(MissingDirectionError):
            check_all(view, suite="simplified")

    def test_simplified_suite_needs_directions(self):
        with pytest.raises(MissingDirectionError):
            check_all(zoo.nonunitary_example(), suite="simplified")

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="suite"):
            check_all(zoo.l2_rpa().spec, suite="partial")

    def test_check_simplified_lists_the_summary_reports(self):
        spec = make_spec(
            sigma={"a"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
            entries=[("q", "a", "1", "q", ADV, ("1",), math.sqrt(0.5))],
            kind="simplified", directions={"q": ADV},
        )
        summary = check_all(spec, max_reports=3, suite="simplified")
        reports = check_simplified(spec, max_reports=3)
        assert reports == [rep for r in summary.results for rep in r.reports]
        assert len(reports) < summary.total_violations


def test_memo_keeps_int_and_float_tolerances_apart():
    spec = zoo.nonunitary_example()
    assert check_all(spec, tol=0).tolerance == 0
    assert type(check_all(spec, tol=0.0).tolerance) is float
    assert type(check_all(spec, tol=0).tolerance) is int


class TestUndeclaredSource:
    """A table built in code may store entries the loader would refuse."""

    @pytest.mark.parametrize("source", [("u", "x", "1"), ("p", "y", "1"), ("p", "x", "9")],
                             ids=["state", "tape-symbol", "popped-symbol"])
    @pytest.mark.parametrize("suite", ["general", "simplified"])
    def test_check_all_raises_the_structure_violations(self, source, suite):
        spec = make_spec(
            sigma={"x"}, t={"1"}, states={"p"}, q0="p", q_acc=(), q_rej=(),
            entries=[(*source, "p", Direction.STAY, ("1",), 1.0)],
            kind="simplified", directions={"p": Direction.STAY},
        )
        with pytest.raises(StructureError) as err:
            check_all(spec, suite=suite)
        assert err.value.violations == validate_structure(spec)
        assert err.value.violations
