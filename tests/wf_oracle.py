"""Reference condition suite: the exhaustive quantifier loops.

``qpakit.wellformed`` visits only the tuples whose sums have a term, on
indexes built from the spec's compiled table.  This module keeps the
scans that visit every tuple, so tests can compare the two summaries byte
for byte.  The scans are the loops the package used before its sparse
join, unchanged, and so are the dense, string-keyed tables they read
(``_Tables``, built for every declared source, in ``sorted(spec.delta)``
order so that neither their entry order nor their summation order comes
from the compiled table); only the collector they feed is local.  That
collector is written out independently of the package's and serves several
``(tol, max_reports)`` settings from one scan, which keeps the exhaustive
loops affordable in a test run.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from qpakit.model import Direction, QpaSpec
from qpakit.wellformed import (
    ConditionReport,
    ConditionResult,
    ConditionSummary,
    _require_direction,
)

_STAY = Direction.STAY
_ADV = Direction.ADVANCE


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
        for s in tuple(sorted(al.gamma))
        for tau in tuple(sorted(al.delta_alpha))
    ]
    for src in t.sources:
        t.full[src] = {}
        t.singles[src] = {}
        t.doubles[src] = {}
        t.eps[src] = {}
        t.stay_w[src] = {}
        t.adv_w[src] = {}
    for key in sorted(spec.delta):
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
    cached = getattr(spec, "_wf_oracle_tables", None)
    if cached is None:
        cached = _build_tables(spec)
        object.__setattr__(spec, "_wf_oracle_tables", cached)
    return cached


class _Collector:
    """Folds one condition's residuals for every ``(tol, max_reports)`` setting.

    The scans pass their ``tol`` argument straight through to here; the
    oracle passes the list of settings in its place.  A residual counts as
    a violation when it exceeds the tolerance or is NaN; the worst residual
    is the largest one that compares.
    """

    def __init__(self, condition_id: str, settings: list, _unused=None):
        self.condition_id = condition_id
        self.settings = settings
        self.cap = max(m for _, m in settings)
        self.tols = sorted({tol for tol, _ in settings})
        self.reports = {tol: [] for tol in self.tols}
        self.violations = dict.fromkeys(self.tols, 0)
        self.worst = 0.0

    def add(self, witness: tuple, residual: float) -> None:
        if residual > self.worst:
            self.worst = residual
        for tol in self.tols:
            if not residual <= tol:
                self.violations[tol] += 1
                if len(self.reports[tol]) < self.cap:
                    self.reports[tol].append(ConditionReport(self.condition_id, witness, residual))

    def result(self, tol: float, max_reports: int) -> ConditionResult:
        return ConditionResult(
            condition_id=self.condition_id,
            passed=self.violations[tol] == 0,
            worst_residual=self.worst,
            violations=self.violations[tol],
            reports=tuple(self.reports[tol][:max_reports]),
        )


def _dot(a: dict, b: dict) -> complex:
    """Inner product of two sparse columns, conjugating the first."""
    if len(b) < len(a):
        return sum(a[k].conjugate() * v for k, v in b.items() if k in a)
    return sum(v.conjugate() * b[k] for k, v in a.items() if k in b)


def _omega_set(tau1: str, tau2: str) -> tuple[tuple[str, ...], ...]:
    return ((), (tau2,), (tau1, tau2))


# --- condition scans, as the package ran them ----------------------------------

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
    pairs = [(q, tau) for q in sorted(spec.states) for tau in tuple(sorted(al.delta_alpha))]
    for sigma in tuple(sorted(al.gamma)):
        for i in range(len(pairs)):
            q1, tau1 = pairs[i]
            f1 = t.full[(q1, sigma, tau1)]
            for j in range(i + 1, len(pairs)):
                q2, tau2 = pairs[j]
                if not f1:
                    col.add((q1, sigma, tau1, q2, tau2), 0.0)
                    continue
                f2 = t.full[(q2, sigma, tau2)]
                inner = _dot(f1, f2) if f2 else 0.0
                col.add((q1, sigma, tau1, q2, tau2), abs(inner))
    return col


def _row_sum(t: _Tables, q1: str, sigma_adv: str, sigma_stay: str,
             tau1: str, tau2: str) -> float:
    omegas = _omega_set(tau1, tau2)
    a = t.adv_in.get((q1, sigma_adv))
    b = t.stay_in.get((q1, sigma_stay))
    s = 0.0
    if a:
        for w in omegas:
            s += a.get(w, 0.0)
    if b:
        for w in omegas:
            s += b.get(w, 0.0)
    return s


def _scan_row_norm(spec: QpaSpec, tol: float, max_reports: int) -> _Collector:
    t = _tables(spec)
    col = _Collector("RVN", tol, max_reports)
    al = spec.alphabets
    gam = tuple(sorted(al.gamma))
    dl = tuple(sorted(al.delta_alpha))
    for q1 in sorted(spec.states):
        for s1 in gam:
            for s2 in gam:
                for tau1 in dl:
                    for tau2 in dl:
                        s = _row_sum(t, q1, s1, s2, tau1, tau2)
                        col.add((q1, s1, s2, tau1, tau2), abs(s - 1.0))
    return col


def _scan_row_norm_simplified(spec: QpaSpec, tol: float, max_reports: int) -> _Collector:
    t = _tables(spec)
    col = _Collector("RVN2", tol, max_reports)
    al = spec.alphabets
    for q1 in sorted(spec.states):
        for s1 in tuple(sorted(al.gamma)):
            for tau1 in tuple(sorted(al.delta_alpha)):
                for tau2 in tuple(sorted(al.delta_alpha)):
                    s = _row_sum(t, q1, s1, s1, tau1, tau2)
                    col.add((q1, s1, tau1, tau2), abs(s - 1.0))
    return col


def _scan_sep_shared_sigma(spec: QpaSpec, tol: float, max_reports: int,
                           id_a: str, id_b: str) -> tuple[_Collector, _Collector]:
    t = _tables(spec)
    col_a = _Collector(id_a, tol, max_reports)
    col_b = _Collector(id_b, tol, max_reports)
    al = spec.alphabets
    states = sorted(spec.states)
    dl = tuple(sorted(al.delta_alpha))
    for sigma in tuple(sorted(al.gamma)):
        srcs = [(q, sigma, tau) for q in states for tau in dl]
        for src1 in srcs:
            singles1 = t.singles[src1]
            eps1 = t.eps[src1]
            for src2 in srcs:
                doubles2 = t.doubles[src2]
                singles2 = t.singles[src2]
                tau2 = src2[2]
                for tau3 in dl:
                    wit = (src1[0], sigma, src1[2], src2[0], src2[2], tau3)
                    s = 0.0 + 0.0j
                    if singles1 and doubles2:
                        for (q, d, sym), amp in singles1.items():
                            other = doubles2.get((q, d, tau3, sym))
                            if other is not None:
                                s += amp.conjugate() * other
                    if eps1 and singles2:
                        for (q, d), amp in eps1.items():
                            other = singles2.get((q, d, tau3))
                            if other is not None:
                                s += amp.conjugate() * other
                    col_a.add(wit, abs(s))
                    sb = 0.0 + 0.0j
                    if eps1 and doubles2:
                        for (q, d), amp in eps1.items():
                            other = doubles2.get((q, d, tau2, tau3))
                            if other is not None:
                                sb += amp.conjugate() * other
                    col_b.add(wit, abs(sb))
    return col_a, col_b


def _scan_sep_mixed(spec: QpaSpec, tol: float, max_reports: int
                    ) -> tuple[_Collector, _Collector, _Collector]:
    t = _tables(spec)
    col2 = _Collector("SEP2", tol, max_reports)
    col3a = _Collector("SEP3a", tol, max_reports)
    col3b = _Collector("SEP3b", tol, max_reports)
    dl = tuple(sorted(spec.alphabets.delta_alpha))
    srcs = t.sources
    for src1 in srcs:
        stay1 = t.stay_w[src1]
        for src2 in srcs:
            if stay1:
                adv2 = t.adv_w[src2]
                inner = _dot(stay1, adv2) if adv2 else 0.0
                col2.add(src1 + src2, abs(inner))
            else:
                col2.add(src1 + src2, 0.0)
    dir_pairs = ((_STAY, _ADV), (_ADV, _STAY))
    for src1 in srcs:
        singles1 = t.singles[src1]
        eps1 = t.eps[src1]
        quiet = not singles1 and not eps1
        for src2 in srcs:
            doubles2 = t.doubles[src2]
            singles2 = t.singles[src2]
            tau2 = src2[2]
            for tau3 in dl:
                for d1, d2 in dir_pairs:
                    wit = src1 + src2 + (tau3, d1.value)
                    if quiet:
                        col3a.add(wit, 0.0)
                        col3b.add(wit, 0.0)
                        continue
                    s = 0.0 + 0.0j
                    if singles1 and doubles2:
                        for (q, d, sym), amp in singles1.items():
                            if d is not d1:
                                continue
                            other = doubles2.get((q, d2, tau3, sym))
                            if other is not None:
                                s += amp.conjugate() * other
                    if eps1 and singles2:
                        for (q, d), amp in eps1.items():
                            if d is not d1:
                                continue
                            other = singles2.get((q, d2, tau3))
                            if other is not None:
                                s += amp.conjugate() * other
                    col3a.add(wit, abs(s))
                    sb = 0.0 + 0.0j
                    if eps1 and doubles2:
                        for (q, d), amp in eps1.items():
                            if d is not d1:
                                continue
                            other = doubles2.get((q, d2, tau2, tau3))
                            if other is not None:
                                sb += amp.conjugate() * other
                    col3b.add(wit, abs(sb))
    return col2, col3a, col3b


# --- summaries ------------------------------------------------------------------

def _collectors(spec: QpaSpec, suite: str, settings: list) -> list[_Collector]:
    if suite == "simplified":
        _require_direction(spec)
        a, b = _scan_sep_shared_sigma(spec, settings, None, "SEP_a", "SEP_b")
        return [
            _scan_local_probability(spec, settings, None, "LPC2"),
            _scan_column_orthogonality(spec, settings, None, "OCV2"),
            _scan_row_norm_simplified(spec, settings, None),
            a,
            b,
        ]
    a, b = _scan_sep_shared_sigma(spec, settings, None, "SEP1a", "SEP1b")
    c2, c3a, c3b = _scan_sep_mixed(spec, settings, None)
    return [
        _scan_local_probability(spec, settings, None, "LPC"),
        _scan_column_orthogonality(spec, settings, None, "OCV"),
        _scan_row_norm(spec, settings, None),
        a,
        b,
        c2,
        c3a,
        c3b,
    ]


def oracle_summaries(spec: QpaSpec, suite: str, settings: list) -> dict:
    """``{(tol, max_reports): ConditionSummary}`` from one exhaustive scan."""
    collectors = _collectors(spec, suite, settings)
    out = {}
    for tol, max_reports in settings:
        results = tuple(c.result(tol, max_reports) for c in collectors)
        total = sum(r.violations for r in results)
        out[(tol, max_reports)] = ConditionSummary(
            suite=suite, tolerance=tol, results=results, passed=total == 0,
            worst_residual=max((r.worst_residual for r in results), default=0.0),
            total_violations=total,
        )
    return out
