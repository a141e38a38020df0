"""Well-formedness conditions: finite algebraic checks equivalent to unitarity.

Each condition is an exhaustive finite sum over transition-table entries.
The general suite checks a plain table; the simplified suite applies when
every target state fixes the head direction, which makes the two mixed
direction conditions vacuous and collapses the row scan to one tape
symbol.

Condition identifiers
    general     LPC, OCV, RVN, SEP1a, SEP1b, SEP2, SEP3a, SEP3b
    simplified  LPC2, OCV2, RVN2, SEP_a, SEP_b

LPC asks each source column to carry unit probability; OCV asks columns
sharing a tape symbol to be orthogonal; RVN asks each target row to
carry unit probability; the separability conditions rule out collisions
between entries whose push words differ in length, which is where
stack-shifted configurations could otherwise meet.

The row scan quantifies over all ordered pairs of stack symbols,
including repeated ones; the degenerate tuples are well defined and are
deliberately not skipped.

The scans read indexes built from the spec's compiled table
(``QpaSpec.compiled``), keyed by its ids and made for the sources that
have entries only.  An entry whose source uses an undeclared state, tape
symbol or popped symbol has no place in the loop, so ``check_all``
raises ``StructureError`` with the structure check's violations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import product

from .model import (
    ADVANCE_ID,
    DIRECTIONS,
    KIND_GENERAL,
    KIND_REVERSIBLE,
    KIND_SIMPLIFIED,
    QpaError,
    QpaSpec,
    STAY_ID,
    StructureError,
    cached_on,
    validate_structure,
)

DEFAULT_TOL = 1e-9
DEFAULT_MAX_REPORTS = 100

GENERAL_CONDITIONS = ("LPC", "OCV", "RVN", "SEP1a", "SEP1b", "SEP2", "SEP3a", "SEP3b")
SIMPLIFIED_CONDITIONS = ("LPC2", "OCV2", "RVN2", "SEP_a", "SEP_b")

# direction ids as the compiled table numbers them
_SAME = {ADVANCE_ID: ADVANCE_ID, STAY_ID: STAY_ID}
_MIXED = ((STAY_ID, ADVANCE_ID), (ADVANCE_ID, STAY_ID))     # (first column's, partner's), SEP3 order


class MissingDirectionError(QpaError):
    """The simplified suite needs a total direction function."""


@dataclass(frozen=True)
class ConditionReport:
    """One violated quantifier instance: which tuple, and how far off."""

    condition_id: str
    witness: tuple
    residual: float


@dataclass(frozen=True)
class ConditionResult:
    condition_id: str
    passed: bool
    worst_residual: float
    violations: int
    reports: tuple[ConditionReport, ...]


@dataclass(frozen=True)
class ConditionSummary:
    suite: str
    tolerance: float
    results: tuple[ConditionResult, ...]
    passed: bool
    worst_residual: float
    total_violations: int

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
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
        self.condition_id = condition_id
        self.tol = tol
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


@dataclass
class _Source:
    """A source with entries; ``ids`` are its compiled ``(q1, sigma, tau)``."""

    ids: tuple[int, int, int]
    full: dict = field(default_factory=dict)      # (q, d, omega) -> amp
    singles: dict = field(default_factory=dict)   # (q, d, sym) -> amp
    doubles: dict = field(default_factory=dict)   # (q, d, s0, s1) -> amp
    eps: dict = field(default_factory=dict)       # (q, d) -> amp


class _Index:
    """The suite's indexes, keyed by compiled ids (``d`` a place in ``DIRECTIONS``).

    Only sources with entries are indexed, in table order.  Every indexed
    source is declared, and compiled ids follow sorted names, so id order
    is the exhaustive loop's order.  ``declared[s]`` says whether stack id
    ``s`` is a declared stack symbol.
    """

    def __init__(self, spec: QpaSpec):
        self.table = table = spec.compiled()
        al = spec.alphabets
        self.states = sorted(spec.states)
        self.gam = al.gamma_sorted()
        self.dl = al.delta_sorted()
        self.declared = [s in al.delta_alpha for s in table.syms]
        self.sources: list[_Source] = []
        self.by_sigma: list[list[_Source]] = [[] for _ in table.tapes]
        self.adv_in: dict = {}    # (q, sigma) -> {omega: sum |amp|^2}
        self.stay_in: dict = {}   # (q, sigma) -> {omega: sum |amp|^2}
        for ids, group in table.sources.items():
            q1, sigma, tau = ids
            if not (table.states[q1] in spec.states and table.tapes[sigma] in al.gamma
                    and self.declared[tau]):
                raise StructureError(validate_structure(spec))
            src = _Source(ids)
            self.sources.append(src)
            self.by_sigma[sigma].append(src)
            for _, _, _, q, d, omega, amp, _ in group:
                src.full[(q, d, omega)] = amp
                if len(omega) == 0:
                    src.eps[(q, d)] = amp
                elif len(omega) == 1:
                    src.singles[(q, d, omega[0])] = amp
                else:
                    src.doubles[(q, d, omega[0], omega[1])] = amp
                bucket = (self.stay_in if d == STAY_ID else self.adv_in).setdefault((q, sigma), {})
                bucket[omega] = bucket.get(omega, 0.0) + abs(amp) ** 2

    def names(self, ids: tuple[int, int, int]) -> tuple[str, str, str]:
        q1, sigma, tau = ids
        return self.table.states[q1], self.table.tapes[sigma], self.table.syms[tau]


def _index(spec: QpaSpec) -> _Index:
    return cached_on(spec, "_wf_index", _Index)


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


def _shift_sums(srcs: list[_Source], declared: list, turns: list[dict]) -> list[tuple[dict, dict]]:
    """Stack-shift inner products between the sources ``srcs``, by their ids.

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
    for src in srcs:
        i2 = src.ids
        for (q, d, sym), b in src.singles.items():
            if declared[sym]:
                by_qd.setdefault((q, d), []).append((i2, sym, b))
        for (q, d, s0, s1), b in src.doubles.items():
            if declared[s0]:
                by_last.setdefault((q, d, s1), []).append((i2, s0, b))
            if s0 == i2[2] and declared[s1]:
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
        for src in srcs:
            i1 = src.ids
            for (q, d, sym), a in src.singles.items():
                if d in turn:
                    accumulate(part_a, i1, a, by_last.get((q, turn[d], sym), ()))
            for (q, d), a in src.eps.items():
                if d in turn:
                    accumulate(part_a, i1, a, by_qd.get((q, turn[d]), ()))
                    accumulate(part_b, i1, a, by_tau2.get((q, turn[d]), ()))
        out.append((part_a, part_b))
    return out


def _scan_local_probability(spec: QpaSpec, tol: float, max_reports: int,
                            condition_id: str) -> _Collector:
    t = _index(spec)
    col = _Collector(condition_id, tol, max_reports)
    norms = {src.ids: sum(abs(a) ** 2 for a in src.full.values()) for src in t.sources}
    tab = t.table
    ids = product([tab.state_id[q] for q in t.states], [tab.tape_id[s] for s in t.gam],
                  [tab.sym_id[s] for s in t.dl])
    for src, key in zip(product(t.states, t.gam, t.dl), ids):
        col.add(src, abs(norms.get(key, 0) - 1.0))
    return col


def _scan_column_orthogonality(spec: QpaSpec, tol: float, max_reports: int,
                               condition_id: str) -> _Collector:
    t = _index(spec)
    col = _Collector(condition_id, tol, max_reports)
    for srcs in t.by_sigma:
        cols = [(src.ids, src.full) for src in srcs]
        _feed(col, _colliding_dots(cols, cols, upper=True), lambda i, j: t.names(i) + t.names(j)[::2])
    return col


def _scan_row_norm(spec: QpaSpec, tol: float, max_reports: int,
                   condition_id: str) -> _Collector:
    """RVN over every (advancing, staying) tape symbol pair; RVN2 over equal ones.

    A row sums the empty, single and double push terms of its advancing
    sources, then those of its staying sources.  The advancing half is
    summed once per (state, tape symbol) and the staying terms are added
    to it one by one, which is the order the row sum has always used.
    """
    t = _index(spec)
    col = _Collector(condition_id, tol, max_reports)
    tape_id = t.table.tape_id
    simplified = condition_id == "RVN2"
    ids = t.table.sym_id
    taus = [(tau1, tau2) for tau1 in t.dl for tau2 in t.dl]
    pushes = [((), (ids[tau2],), (ids[tau1], ids[tau2])) for tau1, tau2 in taus]
    zeros = [(0.0, 0.0, 0.0)] * len(taus)

    def terms(b: dict | None) -> list[tuple[float, float, float]]:
        if not b:
            return zeros
        return [(b.get(w0, 0.0), b.get(w1, 0.0), b.get(w2, 0.0)) for w0, w1, w2 in pushes]

    for q1 in t.states:
        q = t.table.state_id[q1]
        stay = {s: terms(t.stay_in.get((q, tape_id[s]))) for s in t.gam}
        for s1 in t.gam:
            adv = [a0 + a1 + a2 for a0, a1, a2 in terms(t.adv_in.get((q, tape_id[s1])))]
            for s2 in (s1,) if simplified else t.gam:
                head = (q1, s1) if simplified else (q1, s1, s2)
                for tt, a, (b0, b1, b2) in zip(taus, adv, stay[s2]):
                    r = abs(a + b0 + b1 + b2 - 1.0)
                    if r:
                        col.add(head + tt, r)
    return col


def _scan_sep_shared_sigma(spec: QpaSpec, tol: float, max_reports: int,
                           id_a: str, id_b: str) -> tuple[_Collector, _Collector]:
    """Stack-shift collisions between columns that read the same tape symbol.

    Part a pairs single pushes against two-symbol pushes and empty pushes
    against single pushes; part b pairs empty pushes against two-symbol
    pushes.  Ordered pairs, self-pairs included: the paired columns stand
    for configurations whose stacks differ in depth, which one table
    triple can realize on its own.
    """
    t = _index(spec)
    col_a = _Collector(id_a, tol, max_reports)
    col_b = _Collector(id_b, tol, max_reports)
    for srcs in t.by_sigma:
        for col, part in zip((col_a, col_b), _shift_sums(srcs, t.declared, [_SAME])[0]):
            _feed(col, part, lambda i1, i2, t3: t.names(i1) + t.names(i2)[::2] + (t.table.syms[t3],))
    return col_a, col_b


def _scan_sep_mixed(spec: QpaSpec, tol: float, max_reports: int
                    ) -> tuple[_Collector, _Collector, _Collector]:
    """Collisions between a staying source and an advancing source.

    SEP2 pairs equal push words; SEP3a/SEP3b pair push words that differ
    by one net symbol, in both direction assignments.
    """
    t = _index(spec)
    col2 = _Collector("SEP2", tol, max_reports)
    col3a = _Collector("SEP3a", tol, max_reports)
    col3b = _Collector("SEP3b", tol, max_reports)
    # SEP2 pairs a staying entry with an advancing one to the same (q, omega)
    halves = [[(s.ids, {(q, w): a for (q, d, w), a in s.full.items() if d == want}) for s in t.sources]
              for want in (STAY_ID, ADVANCE_ID)]
    dots = _colliding_dots(*halves)
    _feed(col2, dots, lambda i, j: t.names(i) + t.names(j))
    by_pair = _shift_sums(t.sources, t.declared, [{d1: d2} for d1, d2 in _MIXED])
    for part, col in enumerate((col3a, col3b)):
        sums = {key + (k,): v for k, pair in enumerate(by_pair) for key, v in pair[part].items()}
        _feed(col, sums, lambda i1, i2, t3, k:
              t.names(i1) + t.names(i2) + (t.table.syms[t3], DIRECTIONS[_MIXED[k][0]].value))
    return col2, col3a, col3b


# --- public checks ------------------------------------------------------------

def check_local_probability(spec: QpaSpec, tol: float = DEFAULT_TOL,
                            max_reports: int = DEFAULT_MAX_REPORTS) -> list[ConditionReport]:
    """Each (state, tape symbol, popped symbol) column sums to probability 1."""
    return list(_scan_local_probability(spec, tol, max_reports, "LPC").reports)


def check_column_orthogonality(spec: QpaSpec, tol: float = DEFAULT_TOL,
                               max_reports: int = DEFAULT_MAX_REPORTS) -> list[ConditionReport]:
    """Distinct columns reading the same tape symbol are orthogonal."""
    return list(_scan_column_orthogonality(spec, tol, max_reports, "OCV").reports)


def check_row_norm(spec: QpaSpec, tol: float = DEFAULT_TOL,
                   max_reports: int = DEFAULT_MAX_REPORTS) -> list[ConditionReport]:
    """Each target row carries unit probability.

    A row is indexed by a target state, the tape symbol consumed by its
    advancing sources, the tape symbol read by its staying sources, and
    the last two symbols of the target stack.
    """
    return list(_scan_row_norm(spec, tol, max_reports, "RVN").reports)


def check_separability(spec: QpaSpec, tol: float = DEFAULT_TOL,
                       max_reports: int = DEFAULT_MAX_REPORTS) -> list[ConditionReport]:
    """All five separability sums for a general table."""
    cols = (*_scan_sep_shared_sigma(spec, tol, max_reports, "SEP1a", "SEP1b"),
            *_scan_sep_mixed(spec, tol, max_reports))
    return [rep for c in cols for rep in c.reports]


def _require_direction(spec: QpaSpec) -> None:
    if spec.kind == KIND_GENERAL or spec.direction_fn is None:
        raise MissingDirectionError("simplified conditions need a total direction function")
    missing = spec.states - set(spec.direction_fn)
    if missing:
        raise MissingDirectionError(f"direction undefined for {sorted(missing)}")


def check_simplified(spec: QpaSpec, tol: float = DEFAULT_TOL,
                     max_reports: int = DEFAULT_MAX_REPORTS) -> list[ConditionReport]:
    """The five-condition suite for direction-per-state tables, as one report list."""
    summary = check_all(spec, tol, max_reports, suite="simplified")
    return [rep for r in summary.results for rep in r.reports]


def _collectors(spec: QpaSpec, tol: float, max_reports: int, suite: str) -> list[_Collector]:
    if suite == "simplified":
        _require_direction(spec)
        return [_scan_local_probability(spec, tol, max_reports, "LPC2"),
                _scan_column_orthogonality(spec, tol, max_reports, "OCV2"),
                _scan_row_norm(spec, tol, max_reports, "RVN2"),
                *_scan_sep_shared_sigma(spec, tol, max_reports, "SEP_a", "SEP_b")]
    return [_scan_local_probability(spec, tol, max_reports, "LPC"),
            _scan_column_orthogonality(spec, tol, max_reports, "OCV"),
            _scan_row_norm(spec, tol, max_reports, "RVN"),
            *_scan_sep_shared_sigma(spec, tol, max_reports, "SEP1a", "SEP1b"),
            *_scan_sep_mixed(spec, tol, max_reports)]


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
    if suite not in ("general", "simplified"):
        raise ValueError(f"unknown suite {suite!r}")
    memo = cached_on(spec, "_wf_summaries", lambda _: {})
    key = (type(tol), tol, max_reports, suite)     # 0 and 0.0 print differently
    if key not in memo:
        results = tuple(c.result() for c in _collectors(spec, tol, max_reports, suite))
        total = sum(r.violations for r in results)
        memo[key] = ConditionSummary(
            suite=suite, tolerance=tol, results=results, passed=total == 0,
            worst_residual=max((r.worst_residual for r in results), default=0.0),
            total_violations=total,
        )
    return memo[key]


def as_general(spec: QpaSpec) -> QpaSpec:
    """View a simplified table as a plain one for the general suite.

    The view keeps the spec's compiled table, run rows and suite index,
    none of which depends on the kind; summaries are memoized per view.
    """
    spec.compiled()
    view = replace(spec, kind=KIND_GENERAL)
    for attr in ("_compiled", "_int_table", "_wf_index"):
        if attr in spec.__dict__:
            object.__setattr__(view, attr, spec.__dict__[attr])
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
