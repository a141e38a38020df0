"""Well-formedness conditions: finite algebraic checks equivalent to unitarity.

Each condition is an exhaustive finite sum over transition-table entries.
The general suite checks a plain table; the simplified suite applies when
every target state fixes the head direction, which makes the two mixed
direction conditions vacuous and collapses the row scan to one tape
symbol.

Condition identifiers
    general     LPC, OCV, RVN, SEP1a, SEP1b, SEP2, SEP3a, SEP3b
    simplified  LPC2, OCV2, RVN2, SEP_a, SEP_b

Both lists come from one table per suite (``_SUITES``): each scan with
the ids of the conditions it fills, in report order.  ``check_all`` and
the four public ``check_*`` functions build their collectors from it, and
judge residuals against ``model.DEFAULT_TOL`` by default, as the matrix lab does.

LPC asks each source column to carry unit probability; OCV asks columns
sharing a tape symbol to be orthogonal; RVN asks each target row to
carry unit probability; the separability conditions rule out collisions
between entries whose push words differ in length, which is where
stack-shifted configurations could otherwise meet.

The row scan quantifies over all ordered pairs of stack symbols,
including repeated ones; the degenerate tuples are well defined and are
deliberately not skipped.

The scans read the spec's compiled table (``QpaSpec.compiled``): its
entries grouped by source, keyed by ids.  Each scan builds only the maps
it sums over.  Compiled ids follow sorted names, so id order is the
exhaustive loop's order.  An entry whose source uses an undeclared state, tape
symbol or popped symbol has no place in the loop, and one that pushes
more than two symbols has none in the sums, so ``check_all`` raises
``StructureError`` with the structure check's violations.
"""
from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import product

from .model import (
    ADVANCE_ID,
    DEFAULT_TOL,
    DIRECTIONS,
    KIND_GENERAL,
    KIND_REVERSIBLE,
    KIND_SIMPLIFIED,
    CompiledTable,
    QpaError,
    QpaSpec,
    STAY_ID,
    StructureError,
    cached_on,
    check_tolerance,
    validate_structure,
)

DEFAULT_MAX_REPORTS = 100

# direction ids as the compiled table numbers them
_SAME = {ADVANCE_ID: ADVANCE_ID, STAY_ID: STAY_ID}
_MIXED = ((STAY_ID, ADVANCE_ID), (ADVANCE_ID, STAY_ID))     # (first column's, partner's), SEP3 order


class MissingDirectionError(QpaError):
    """The simplified suite needs a total direction function."""


class ConditionReport(namedtuple("ConditionReport", "condition_id witness residual")):
    """One violated quantifier instance: which tuple, and how far off."""

    __slots__ = ()


ConditionResult = namedtuple("ConditionResult", "condition_id passed worst_residual violations reports")


class ConditionSummary(namedtuple("ConditionSummary",
                                  "suite tolerance results passed worst_residual total_violations")):
    __slots__ = ()

    def result(self, condition_id: str) -> ConditionResult:
        for r in self.results:
            if r.condition_id == condition_id:
                return r
        raise KeyError(condition_id)


class _Collector:
    """Accumulates residuals for one condition; reports are capped, counts are not.

    A residual is a violation when it exceeds ``tol`` or is NaN.  The
    tolerance must be finite and non-negative: only then is a tuple with
    residual 0 never a violation, which the scans rely on when they skip
    such tuples.
    """

    def __init__(self, condition_id: str, tol: float, max_reports: int):
        self.condition_id = condition_id
        self.tol = check_tolerance(tol)
        self.max_reports = max_reports
        self.reports: list[ConditionReport] = []
        self.violations = 0
        self.worst = 0.0

    def add(self, witness: tuple, residual: float) -> None:
        if residual > self.worst:
            self.worst = residual
        if not residual <= self.tol:
            self.violations += 1
            if len(self.reports) < self.max_reports:
                self.reports.append(ConditionReport(self.condition_id, witness, residual))

    def result(self) -> ConditionResult:
        return ConditionResult(
            condition_id=self.condition_id,
            passed=self.violations == 0,
            worst_residual=self.worst,
            violations=self.violations,
            reports=tuple(self.reports),
        )


def _names(table: CompiledTable, ids: tuple[int, int, int]) -> tuple[str, str, str]:
    q1, sigma, tau = ids
    return table.states[q1], table.tapes[sigma], table.syms[tau]


def _by_sigma(table: CompiledTable) -> list[list[tuple]]:
    """The table's ``(ids, group)`` sources, in table order, split by tape symbol id."""
    out: list[list[tuple]] = [[] for _ in table.tapes]
    for ids, group in table.sources.items():
        out[ids[1]].append((ids, group))
    return out


def _dot(a: dict, b: dict) -> complex:
    """Inner product of two sparse columns, conjugating the first."""
    if len(b) < len(a):
        return sum(a[k].conjugate() * v for k, v in b.items() if k in a)
    return sum(v.conjugate() * b[k] for k, v in a.items() if k in b)


# --- condition scans ----------------------------------------------------------
#
# A quantifier tuple whose sum has no term has residual 0, which no
# collector counts.  OCV, SEP2 and the push-shift conditions therefore
# index stored entries by the key a partner must match and visit only the
# tuples with a colliding pair.  Each collector is fed those tuples sorted
# by their place in the exhaustive loop, every sum taken in the order the
# loop would take it, so witnesses, counts, capping and residuals are the
# loop's to the bit.

def _feed(col: _Collector, sums: dict, witness) -> None:
    for key in sorted(sums):
        col.add(witness(*key), abs(sums[key]))


def _colliding_dots(left: list[tuple[int, dict]], right: list[tuple[int, dict]],
                    upper: bool = False) -> dict:
    """``{(i, j): _dot(a, b)}`` for the numbered columns ``(i, a)``, ``(j, b)`` that share a key.

    With ``upper``, only the pairs with ``j > i``.
    """
    index: dict = {}
    for j, col in right:
        for k in col:
            index.setdefault(k, []).append(j)
    cols = dict(right)
    return {(i, j): _dot(col, cols[j])
            for i, col in left
            for j in {j for k in col for j in index.get(k, ()) if j > i or not upper}}


def _shift_sums(srcs: list[tuple], declared: list, turns: list[dict]) -> list[tuple[dict, dict]]:
    """Stack-shift inner products between the ``(ids, group)`` sources ``srcs``, by their ids.

    The first column pushes one symbol fewer than its partner, which pushes
    the declared stack symbol ``t3`` on top.  Part a pairs single against
    two-symbol pushes and empty against single pushes; part b pairs empty
    pushes against two-symbol pushes that re-push the partner's popped
    symbol.  A turn maps the direction of a first-column entry to the
    direction its partner must have.  Returns, per turn, part a and part b
    as ``{(i1, i2, t3): sum}``.
    """
    by_last: dict = {}   # (q, d, last symbol) -> [(i2, t3, amp)] of two-symbol pushes
    by_qd: dict = {}     # (q, d) -> [(i2, t3, amp)] of single pushes
    by_tau2: dict = {}   # (q, d) -> [(i2, t3, amp)] of two-symbol pushes over tau2
    for i2, group in srcs:
        for _, _, tau2, q, d, omega, b, _ in group:
            if len(omega) == 1 and declared[omega[0]]:
                by_qd.setdefault((q, d), []).append((i2, omega[0], b))
            elif len(omega) == 2:
                s0, s1 = omega
                if declared[s0]:
                    by_last.setdefault((q, d, s1), []).append((i2, s0, b))
                if s0 == tau2 and declared[s1]:
                    by_tau2.setdefault((q, d), []).append((i2, s1, b))

    def accumulate(part: dict, i1: int, a: complex, partners) -> None:
        ca = a.conjugate()
        for i2, t3, b in partners:
            key = (i1, i2, t3)
            part[key] = part.get(key, 0j) + ca * b

    out = []
    for turn in turns:
        part_a: dict = {}
        part_b: dict = {}
        for i1, group in srcs:
            # a source's single pushes before its empty ones, as the exhaustive loop adds them
            for _, _, _, q, d, omega, a, _ in group:
                if len(omega) == 1 and d in turn:
                    accumulate(part_a, i1, a, by_last.get((q, turn[d], omega[0]), ()))
            for _, _, _, q, d, omega, a, _ in group:
                if not omega and d in turn:
                    accumulate(part_a, i1, a, by_qd.get((q, turn[d]), ()))
                    accumulate(part_b, i1, a, by_tau2.get((q, turn[d]), ()))
        out.append((part_a, part_b))
    return out


def _declared(flags: list) -> list[int]:
    return [i for i, ok in enumerate(flags) if ok]


def _scan_local_probability(tab: CompiledTable, col: _Collector) -> None:
    norms = {ids: sum(abs(e[6]) ** 2 for e in group) for ids, group in tab.sources.items()}
    states, gam, dl = _declared(tab.state_ok), _declared(tab.tape_ok), _declared(tab.sym_ok)
    names = product([tab.states[q] for q in states], [tab.tapes[s] for s in gam], [tab.syms[y] for y in dl])
    for src, key in zip(names, product(states, gam, dl)):
        col.add(src, abs(norms.get(key, 0) - 1.0))


def _scan_column_orthogonality(tab: CompiledTable, col: _Collector) -> None:
    for srcs in _by_sigma(tab):
        cols = [(ids, {e[3:6]: e[6] for e in group}) for ids, group in srcs]
        _feed(col, _colliding_dots(cols, cols, upper=True), lambda i, j: _names(tab, i) + _names(tab, j)[::2])


def _scan_row_norm(tab: CompiledTable, col: _Collector, simplified: bool = False) -> None:
    """RVN over every (advancing, staying) tape symbol pair; RVN2 (``simplified``) over equal ones.

    A row sums the empty, single and double push terms of its advancing
    sources, then those of its staying sources.  The advancing half is
    summed once per (state, tape symbol) and the staying terms are added
    to it one by one, which is the order the row sum has always used.
    """
    adv_in: dict = {}    # (q, sigma) -> {omega: sum |amp|^2}
    stay_in: dict = {}   # (q, sigma) -> {omega: sum |amp|^2}
    for _, sigma, _, q, d, omega, amp, _ in tab.entries:
        bucket = (stay_in if d == STAY_ID else adv_in).setdefault((q, sigma), {})
        bucket[omega] = bucket.get(omega, 0.0) + abs(amp) ** 2
    states, tapes, syms = tab.states, tab.tapes, tab.syms
    gam, dl = _declared(tab.tape_ok), _declared(tab.sym_ok)
    taus = [(syms[tau1], syms[tau2]) for tau1 in dl for tau2 in dl]
    pushes = [((), (tau2,), (tau1, tau2)) for tau1 in dl for tau2 in dl]
    zeros = [(0.0, 0.0, 0.0)] * len(taus)

    def terms(b: dict | None) -> list[tuple[float, float, float]]:
        if not b:
            return zeros
        return [(b.get(w0, 0.0), b.get(w1, 0.0), b.get(w2, 0.0)) for w0, w1, w2 in pushes]

    for q in _declared(tab.state_ok):
        stay = {s: terms(stay_in.get((q, s))) for s in gam}
        for s1 in gam:
            adv = [a0 + a1 + a2 for a0, a1, a2 in terms(adv_in.get((q, s1)))]
            for s2 in (s1,) if simplified else gam:
                head = (states[q], tapes[s1]) if simplified else (states[q], tapes[s1], tapes[s2])
                for tt, a, (b0, b1, b2) in zip(taus, adv, stay[s2]):
                    r = abs(a + b0 + b1 + b2 - 1.0)
                    if r:
                        col.add(head + tt, r)


def _scan_sep_shared_sigma(tab: CompiledTable, col_a: _Collector, col_b: _Collector) -> None:
    """Stack-shift collisions between columns that read the same tape symbol.

    Part a pairs single pushes against two-symbol pushes and empty pushes
    against single pushes; part b pairs empty pushes against two-symbol
    pushes.  Ordered pairs, self-pairs included: the paired columns stand
    for configurations whose stacks differ in depth, which one table
    triple can realize on its own.
    """
    for srcs in _by_sigma(tab):
        for col, part in zip((col_a, col_b), _shift_sums(srcs, tab.sym_ok, [_SAME])[0]):
            _feed(col, part, lambda i1, i2, t3: _names(tab, i1) + _names(tab, i2)[::2] + (tab.syms[t3],))


def _scan_sep_mixed(tab: CompiledTable, col2: _Collector, col3a: _Collector, col3b: _Collector) -> None:
    """Collisions between a staying source and an advancing source.

    SEP2 pairs equal push words; SEP3a/SEP3b pair push words that differ
    by one net symbol, in both direction assignments.
    """
    # SEP2 pairs a staying entry with an advancing one to the same (q, omega)
    srcs = list(tab.sources.items())
    halves = [[(ids, {(e[3], e[5]): e[6] for e in group if e[4] == want}) for ids, group in srcs]
              for want in (STAY_ID, ADVANCE_ID)]
    _feed(col2, _colliding_dots(*halves), lambda i, j: _names(tab, i) + _names(tab, j))
    by_pair = _shift_sums(srcs, tab.sym_ok, [{d1: d2} for d1, d2 in _MIXED])
    for part, col in enumerate((col3a, col3b)):
        sums = {key + (k,): v for k, pair in enumerate(by_pair) for key, v in pair[part].items()}
        _feed(col, sums, lambda i1, i2, t3, k:
              _names(tab, i1) + _names(tab, i2) + (tab.syms[t3], DIRECTIONS[_MIXED[k][0]].value))


# Each suite's scans in report order, each with the ids of the conditions it fills
_SUITES = {
    "general": ((_scan_local_probability, "LPC"), (_scan_column_orthogonality, "OCV"),
                (_scan_row_norm, "RVN"), (_scan_sep_shared_sigma, "SEP1a", "SEP1b"),
                (_scan_sep_mixed, "SEP2", "SEP3a", "SEP3b")),
    "simplified": ((_scan_local_probability, "LPC2"), (_scan_column_orthogonality, "OCV2"),
                   (partial(_scan_row_norm, simplified=True), "RVN2"),
                   (_scan_sep_shared_sigma, "SEP_a", "SEP_b")),
}
GENERAL_CONDITIONS = tuple(i for _, *ids in _SUITES["general"] for i in ids)
SIMPLIFIED_CONDITIONS = tuple(i for _, *ids in _SUITES["simplified"] for i in ids)


def _require_direction(spec: QpaSpec) -> None:
    if spec.kind == KIND_GENERAL or spec.direction_fn is None:
        raise MissingDirectionError("simplified conditions need a total direction function")
    missing = spec.states - set(spec.direction_fn)
    if missing:
        raise MissingDirectionError(f"direction undefined for {sorted(missing)}")


def _collect(spec: QpaSpec, tol: float, max_reports: int, suite: str,
             scans=None) -> list[_Collector]:
    """Run the suite's scans, or those of them in ``scans``; their collectors in suite order."""
    if suite == "simplified":
        _require_direction(spec)
    tab = spec.compiled()
    if any(not (tab.state_ok[q1] and tab.tape_ok[sigma] and tab.sym_ok[tau]) or len(omega) > 2
           for q1, sigma, tau, _, _, omega, _, _ in tab.entries):
        raise StructureError(validate_structure(spec))
    out = []
    for scan, *ids in _SUITES[suite]:
        if scans is None or scan in scans:
            cols = [_Collector(i, tol, max_reports) for i in ids]
            scan(tab, *cols)
            out += cols
    return out


# --- public checks ------------------------------------------------------------

def _reports(spec: QpaSpec, tol: float, max_reports: int, *scans) -> list[ConditionReport]:
    return [rep for c in _collect(spec, tol, max_reports, "general", scans) for rep in c.reports]


def check_local_probability(spec: QpaSpec, tol: float = DEFAULT_TOL,
                            max_reports: int = DEFAULT_MAX_REPORTS) -> list[ConditionReport]:
    """Each (state, tape symbol, popped symbol) column sums to probability 1."""
    return _reports(spec, tol, max_reports, _scan_local_probability)


def check_column_orthogonality(spec: QpaSpec, tol: float = DEFAULT_TOL,
                               max_reports: int = DEFAULT_MAX_REPORTS) -> list[ConditionReport]:
    """Distinct columns reading the same tape symbol are orthogonal."""
    return _reports(spec, tol, max_reports, _scan_column_orthogonality)


def check_row_norm(spec: QpaSpec, tol: float = DEFAULT_TOL,
                   max_reports: int = DEFAULT_MAX_REPORTS) -> list[ConditionReport]:
    """Each target row carries unit probability.

    A row is indexed by a target state, the tape symbol consumed by its
    advancing sources, the tape symbol read by its staying sources, and
    the last two symbols of the target stack.
    """
    return _reports(spec, tol, max_reports, _scan_row_norm)


def check_separability(spec: QpaSpec, tol: float = DEFAULT_TOL,
                       max_reports: int = DEFAULT_MAX_REPORTS) -> list[ConditionReport]:
    """All five separability sums for a general table."""
    return _reports(spec, tol, max_reports, _scan_sep_shared_sigma, _scan_sep_mixed)


def check_all(spec: QpaSpec, tol: float = DEFAULT_TOL,
              max_reports: int = DEFAULT_MAX_REPORTS,
              suite: str | None = None) -> ConditionSummary:
    """Run one suite and fold it into one summary.

    ``suite`` is ``"general"`` or ``"simplified"``; by default it is the
    spec kind's (simplified for simplified and reversible tables).  The
    tolerance must be finite and non-negative.  Summaries are immutable
    and memoized on the spec per ``(tol, max_reports, suite)``, like the
    tables they are computed from.
    """
    if suite is None:
        suite = "simplified" if spec.kind in (KIND_SIMPLIFIED, KIND_REVERSIBLE) else "general"
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    memo = cached_on(spec, "_wf_summaries", lambda _: {})
    key = (type(tol), tol, max_reports, suite)     # 0 and 0.0 print differently
    if key not in memo:
        results = tuple(c.result() for c in _collect(spec, tol, max_reports, suite))
        total = sum(r.violations for r in results)
        memo[key] = ConditionSummary(
            suite=suite, tolerance=tol, results=results, passed=total == 0,
            worst_residual=max((r.worst_residual for r in results), default=0.0),
            total_violations=total,
        )
    return memo[key]


def as_general(spec: QpaSpec) -> QpaSpec:
    """View a simplified table as a plain one for the general suite.

    The view shares the spec's compiled table, which does not depend on
    the kind; summaries are memoized per view.
    """
    view = spec.replace(kind=KIND_GENERAL)
    object.__setattr__(view, "_compiled", spec.compiled())
    return view


def summary_to_dict(summary: ConditionSummary) -> dict:
    return {
        "suite": summary.suite,
        "tolerance": summary.tolerance,
        "passed": summary.passed,
        "worst_residual": summary.worst_residual,
        "total_violations": summary.total_violations,
        "conditions": [
            {
                "condition": r.condition_id,
                "passed": r.passed,
                "worst_residual": r.worst_residual,
                "violations": r.violations,
                "witnesses": [
                    {"condition": rep.condition_id, "witness": list(rep.witness),
                     "residual": rep.residual}
                    for rep in r.reports
                ],
            }
            for r in summary.results
        ],
    }
