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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .model import (
    Direction,
    KIND_GENERAL,
    KIND_REVERSIBLE,
    KIND_SIMPLIFIED,
    QpaError,
    QpaSpec,
)

DEFAULT_TOL = 1e-9
DEFAULT_MAX_REPORTS = 100

GENERAL_CONDITIONS = ("LPC", "OCV", "RVN", "SEP1a", "SEP1b", "SEP2", "SEP3a", "SEP3b")
SIMPLIFIED_CONDITIONS = ("LPC2", "OCV2", "RVN2", "SEP_a", "SEP_b")

_STAY = Direction.STAY
_ADV = Direction.ADVANCE
_SAME = {_STAY: _STAY, _ADV: _ADV}


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
class _Tables:
    """Per-source and per-target index maps over the stored entries."""

    sources: list[tuple[str, str, str]] = field(default_factory=list)
    full: dict = field(default_factory=dict)      # src -> {(q,d,omega): amp}
    singles: dict = field(default_factory=dict)   # src -> {(q,d,sym): amp}
    doubles: dict = field(default_factory=dict)   # src -> {(q,d,s0,s1): amp}
    eps: dict = field(default_factory=dict)       # src -> {(q,d): amp}
    stay_w: dict = field(default_factory=dict)    # src -> {(q,omega): amp}
    adv_w: dict = field(default_factory=dict)     # src -> {(q,omega): amp}
    adv_in: dict = field(default_factory=dict)    # (q1,sigma) -> {omega: sum |amp|^2}
    stay_in: dict = field(default_factory=dict)   # (q1,sigma) -> {omega: sum |amp|^2}


def _build_tables(spec: QpaSpec) -> _Tables:
    t = _Tables()
    al = spec.alphabets
    t.sources = [
        (q, s, tau)
        for q in sorted(spec.states)
        for s in al.gamma_sorted()
        for tau in al.delta_sorted()
    ]
    for src in t.sources:
        t.full[src] = {}
        t.singles[src] = {}
        t.doubles[src] = {}
        t.eps[src] = {}
        t.stay_w[src] = {}
        t.adv_w[src] = {}
    for key in spec.sorted_keys():
        amp = spec.delta[key]
        src = (key.q1, key.sigma, key.tau)
        t.full[src][(key.q, key.d, key.omega)] = amp
        if len(key.omega) == 0:
            t.eps[src][(key.q, key.d)] = amp
        elif len(key.omega) == 1:
            t.singles[src][(key.q, key.d, key.omega[0])] = amp
        else:
            t.doubles[src][(key.q, key.d, key.omega[0], key.omega[1])] = amp
        (t.stay_w if key.d is _STAY else t.adv_w)[src][(key.q, key.omega)] = amp
        into = t.adv_in if key.d is _ADV else t.stay_in
        bucket = into.setdefault((key.q, key.sigma), {})
        bucket[key.omega] = bucket.get(key.omega, 0.0) + abs(amp) ** 2
    return t


def _tables(spec: QpaSpec) -> _Tables:
    cached = getattr(spec, "_wf_tables", None)
    if cached is None:
        cached = _build_tables(spec)
        object.__setattr__(spec, "_wf_tables", cached)
    return cached


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


def _colliding_dots(left: list[dict], right: list[dict]) -> dict:
    """``{(i, j): _dot(left[i], right[j])}`` for the column pairs that share a key."""
    index: dict = {}
    for j, col in enumerate(right):
        for k in col:
            index.setdefault(k, []).append(j)
    return {(i, j): _dot(col, right[j])
            for i, col in enumerate(left)
            for j in {j for k in col for j in index.get(k, ())}}


def _shift_sums(t: _Tables, srcs: list, dl: tuple, turns: list[dict]) -> list[tuple[dict, dict]]:
    """Stack-shift inner products between the columns of ``srcs``.

    The first column pushes one symbol fewer than its partner, which pushes
    ``dl[t3]`` on top.  Part a pairs single against two-symbol pushes and
    empty against single pushes; part b pairs empty pushes against
    two-symbol pushes that re-push the partner's popped symbol.  A turn
    maps the direction of a first-column entry to the direction its
    partner must have.  Returns, per turn, part a and part b as
    ``{(i1, i2, t3): sum}``.
    """
    t3_of = {tau: k for k, tau in enumerate(dl)}
    by_last: dict = {}   # (q, d, last symbol) -> [(i2, t3, amp)] of two-symbol pushes
    by_qd: dict = {}     # (q, d) -> [(i2, t3, amp)] of single pushes
    by_tau2: dict = {}   # (q, d) -> [(i2, t3, amp)] of two-symbol pushes over tau2
    for i2, src in enumerate(srcs):
        for (q, d, sym), b in t.singles[src].items():
            if sym in t3_of:
                by_qd.setdefault((q, d), []).append((i2, t3_of[sym], b))
        for (q, d, s0, s1), b in t.doubles[src].items():
            if s0 in t3_of:
                by_last.setdefault((q, d, s1), []).append((i2, t3_of[s0], b))
            if s0 == src[2] and s1 in t3_of:
                by_tau2.setdefault((q, d), []).append((i2, t3_of[s1], b))

    def accumulate(part: dict, i1: int, a: complex, partners) -> None:
        ca = a.conjugate()
        for i2, t3, b in partners:
            key = (i1, i2, t3)
            part[key] = part.get(key, 0j) + ca * b

    out = []
    for turn in turns:
        part_a: dict = {}
        part_b: dict = {}
        for i1, src in enumerate(srcs):
            for (q, d, sym), a in t.singles[src].items():
                if d in turn:
                    accumulate(part_a, i1, a, by_last.get((q, turn[d], sym), ()))
            for (q, d), a in t.eps[src].items():
                if d in turn:
                    accumulate(part_a, i1, a, by_qd.get((q, turn[d]), ()))
                    accumulate(part_b, i1, a, by_tau2.get((q, turn[d]), ()))
        out.append((part_a, part_b))
    return out


def _scan_local_probability(spec: QpaSpec, tol: float, max_reports: int,
                            condition_id: str) -> _Collector:
    t = _tables(spec)
    col = _Collector(condition_id, tol, max_reports)
    for src in t.sources:
        s = sum(abs(a) ** 2 for a in t.full[src].values())
        col.add(src, abs(s - 1.0))
    return col


def _scan_column_orthogonality(spec: QpaSpec, tol: float, max_reports: int,
                               condition_id: str) -> _Collector:
    t = _tables(spec)
    col = _Collector(condition_id, tol, max_reports)
    al = spec.alphabets
    pairs = [(q, tau) for q in sorted(spec.states) for tau in al.delta_sorted()]
    for sigma in al.gamma_sorted():
        cols = [t.full[(q, sigma, tau)] for q, tau in pairs]
        dots = _colliding_dots(cols, cols)
        _feed(col, {(i, j): v for (i, j), v in dots.items() if j > i},
              lambda i, j: (pairs[i][0], sigma, pairs[i][1]) + pairs[j])
    return col


def _scan_row_norm(spec: QpaSpec, tol: float, max_reports: int,
                   condition_id: str) -> _Collector:
    """RVN over every (advancing, staying) tape symbol pair; RVN2 over equal ones.

    A row sums the empty, single and double push terms of its advancing
    sources, then those of its staying sources.  The advancing half is
    summed once per (state, tape symbol) and the staying terms are added
    to it one by one, which is the order the row sum has always used.
    """
    t = _tables(spec)
    col = _Collector(condition_id, tol, max_reports)
    al = spec.alphabets
    gam = al.gamma_sorted()
    dl = al.delta_sorted()
    simplified = condition_id == "RVN2"

    taus = [(tau1, tau2) for tau1 in dl for tau2 in dl]
    zeros = [(0.0, 0.0, 0.0)] * len(taus)

    def terms(b: dict | None) -> list[tuple[float, float, float]]:
        if not b:
            return zeros
        return [(b.get((), 0.0), b.get((tau2,), 0.0), b.get((tau1, tau2), 0.0))
                for tau1, tau2 in taus]

    for q1 in sorted(spec.states):
        stay = {s: terms(t.stay_in.get((q1, s))) for s in gam}
        for s1 in gam:
            adv = [a0 + a1 + a2 for a0, a1, a2 in terms(t.adv_in.get((q1, s1)))]
            for s2 in (s1,) if simplified else gam:
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
    t = _tables(spec)
    col_a = _Collector(id_a, tol, max_reports)
    col_b = _Collector(id_b, tol, max_reports)
    al = spec.alphabets
    states = sorted(spec.states)
    dl = al.delta_sorted()
    for sigma in al.gamma_sorted():
        srcs = [(q, sigma, tau) for q in states for tau in dl]
        for col, sums in zip((col_a, col_b), _shift_sums(t, srcs, dl, [_SAME])[0]):
            _feed(col, sums, lambda i1, i2, t3:
                  (srcs[i1][0], sigma, srcs[i1][2], srcs[i2][0], srcs[i2][2], dl[t3]))
    return col_a, col_b


def _scan_sep_mixed(spec: QpaSpec, tol: float, max_reports: int
                    ) -> tuple[_Collector, _Collector, _Collector]:
    """Collisions between a staying source and an advancing source.

    SEP2 pairs equal push words; SEP3a/SEP3b pair push words that differ
    by one net symbol, in both direction assignments.
    """
    t = _tables(spec)
    col2 = _Collector("SEP2", tol, max_reports)
    col3a = _Collector("SEP3a", tol, max_reports)
    col3b = _Collector("SEP3b", tol, max_reports)
    dl = spec.alphabets.delta_sorted()
    srcs = t.sources
    dots = _colliding_dots([t.stay_w[s] for s in srcs], [t.adv_w[s] for s in srcs])
    _feed(col2, dots, lambda i, j: srcs[i] + srcs[j])
    dir_pairs = ((_STAY, _ADV), (_ADV, _STAY))
    by_pair = _shift_sums(t, srcs, dl, [{d1: d2} for d1, d2 in dir_pairs])
    for part, col in enumerate((col3a, col3b)):
        sums = {key + (k,): v for k, pair in enumerate(by_pair) for key, v in pair[part].items()}
        _feed(col, sums, lambda i1, i2, t3, k:
              srcs[i1] + srcs[i2] + (dl[t3], dir_pairs[k][0].value))
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
    memo = getattr(spec, "_wf_summaries", None)
    if memo is None:
        memo = {}
        object.__setattr__(spec, "_wf_summaries", memo)
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
    """View a simplified table as a plain one for the general suite."""
    return replace(spec, kind=KIND_GENERAL)


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
