"""Configuration-space simulation with measure-many observation.

A configuration is (state, head position, stack word) over a framed
input tape ``# x $``.  One computation step applies the evolution
operator to the current sparse superposition and then observes it
against the accept / reject / non-halting decomposition: halting mass
is accumulated into probabilities and removed, and the residual is
never renormalized, so the three numbers stay additive.

Probabilities come from exact path summation over the sparse amplitude
map, not sampling; for the bounded runs this package targets the
reachable configuration sets are small.

Runs work on integers.  The spec is compiled once into integer rows,
each run interns its stacks in a trie (hash-consing: a pop is the
parent node, a push a child lookup) and a configuration is one int
packing (stack id, head, state), so a step costs the same at any stack
depth.  A ``Superposition`` is always a run's packed map, and
``Superposition.over`` packs configurations into one.  ``Configuration``
and ``Superposition.amplitudes`` are the public view, built only when
asked for.  The matrix lab steps its windows on the same compiled rows
(``_table``), as arrays over a window's layout.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from types import MappingProxyType

from .io import tokenize_word
from .model import (
    LEFT_MARKER,
    RIGHT_MARKER,
    STACK_BASE,
    ADVANCE_ID,
    QpaError,
    QpaSpec,
    _Record,
    cached_on,
)
from .wellformed import ConditionSummary, check_all

PRUNE_EPS = 1e-15
HALT_EPS = 1e-12


class TapeOverrunError(QpaError):
    """A live branch tried to advance past the right end marker."""


class NotWellFormedError(QpaError):
    """Recognition refused because the table fails its conditions."""

    def __init__(self, summary: ConditionSummary):
        self.summary = summary
        failed = [r.condition_id for r in summary.results if not r.passed]
        super().__init__(f"table is not well-formed; failing conditions: {failed}")


class TapeContext(_Record, namedtuple("TapeContext", "symbols")):
    """The framed input word; immutable for the duration of a run.  ``len`` counts its symbols, markers included."""

    __slots__ = ()

    def __new__(cls, symbols: tuple[str, ...]):
        if len(symbols) < 2 or symbols[0] != LEFT_MARKER or symbols[-1] != RIGHT_MARKER:
            raise ValueError("tape must be a framed word with both end markers")
        return super().__new__(cls, symbols)

    @classmethod
    def from_word(cls, spec: QpaSpec, word: str) -> "TapeContext":
        return cls((LEFT_MARKER, *tokenize_word(spec.alphabets, word), RIGHT_MARKER))

    def __len__(self) -> int:
        return len(self.symbols)


Configuration = namedtuple("Configuration", "state head stack")


class _Table:
    """A spec's compiled table (``ids``) as integer rows; built once and cached on the spec.

    ``rows[tape id][state id]`` maps a top-of-stack id to the entries
    ``(advance << qbits | target id, pops, pushed ids, amplitude, keeps
    base)``, in table order.  A push word that starts with the popped
    symbol leaves that symbol in place and pushes the rest.
    ``keeps base`` says whether the entry leaves a stack that starts
    with the base symbol with that prefix and no second base symbol.
    """

    def __init__(self, spec: QpaSpec):
        self.ids = ids = spec.compiled()
        self.qbits = (len(ids.states) - 1).bit_length()
        self.sym_bits = len(ids.syms).bit_length()
        self.tape_id = {s: i for s, i in ids.tape_id.items() if ids.tape_ok[i]}
        self.rows = [[None] * (1 << self.qbits) for _ in ids.tapes]
        for (q1, sigma, tau), group in ids.sources.items():
            if self.rows[sigma][q1] is None:
                self.rows[sigma][q1] = {}
            self.rows[sigma][q1][tau] = tuple(self._entry(tau, ids.base, *e[3:7]) for e in group)

    def _entry(self, tau, base, q, d, omega, amp):
        keeps = bool(omega) and omega[0] == tau
        if tau == base:
            based = bool(omega) and omega[0] == base and base not in omega[1:]
        else:
            based = base not in omega
        return ((d == ADVANCE_ID) << self.qbits) | q, not keeps, omega[keeps:], amp, based


def _table(spec: QpaSpec) -> _Table:
    return cached_on(spec, "_int_table", _Table)


class _Run:
    """One spec on one tape: row lookup by packed (head, state) and the stack store.

    A key (``pack``) is ``stack id << hshift | head << qbits | state id``.  The
    stack store is a trie over interned stacks: node 0 is the empty
    stack, ``parent``/``top`` give a node's stack minus its top and the
    top's symbol id, and ``child`` maps ``node << sym_bits | symbol`` to
    the node one symbol higher.  Nodes are never freed during a run, so
    a key stays valid after its superposition is gone.
    """

    def __init__(self, spec: QpaSpec, tape: TapeContext):
        self.spec = spec
        self.tape = tape
        self.table = table = _table(spec)
        self.qbits = table.qbits
        self.hshift = table.qbits + len(tape).bit_length()
        self.hq_max = ((len(tape) - 1) << table.qbits) | ((1 << table.qbits) - 1)
        rows = []
        no_rows = [None] * (1 << table.qbits)
        for s in tape.symbols:
            tid = table.tape_id.get(s)
            rows += no_rows if tid is None else table.rows[tid]
        self.parent = [-1]
        self.top = [-1]
        self.child: dict[int, int] = {}
        self._tuples: dict[int, tuple[str, ...]] = {0: ()}
        hq_mask = (1 << self.hshift) - 1
        # everything apply_evolution reads, unpacked once per step
        self.step_ctx = (rows, self.top, self.parent, self.child, self.hshift, self.hq_max,
                         table.sym_bits, hq_mask, hq_mask & ~((1 << table.qbits) - 1))
        self.set_halting(spec.q_accept, spec.q_reject)

    def set_halting(self, q_accept, q_reject) -> None:
        """Classify state ids for ``measure``: 1 accepting, 2 rejecting, 0 non-halting."""
        self.q_accept = q_accept
        self.q_reject = q_reject
        # accepting wins an overlap
        self.by_state = [1 if q in q_accept else 2 if q in q_reject else 0
                         for q in self.table.ids.states]

    def push(self, sid: int, sym: int) -> int:
        k = (sid << self.table.sym_bits) | sym
        c = self.child.get(k)
        if c is None:
            c = self.child[k] = len(self.parent)
            self.parent.append(sid)
            self.top.append(sym)
        return c

    def stack(self, sid: int) -> tuple[str, ...]:
        path = []
        t = self._tuples.get(sid)
        while t is None:
            path.append(sid)
            sid = self.parent[sid]
            t = self._tuples.get(sid)
        for s in reversed(path):
            t = self._tuples[s] = t + (self.table.ids.syms[self.top[s]],)
        return t

    def key(self, config: Configuration) -> int:
        ids = self.table.ids
        q = ids.state_id.get(config.state)
        if q is None or not 0 <= config.head < len(self.tape):
            raise QpaError(f"{config} is not a configuration of this automaton on this tape")
        if not config.stack or config.stack[0] != STACK_BASE or STACK_BASE in config.stack[1:]:
            raise QpaError(f"{config} does not hold exactly one {STACK_BASE}, at the bottom")
        sid = 0
        for s in config.stack:
            if s not in ids.sym_id:
                raise QpaError(f"{config} holds {s!r}, which is not a stack symbol")
            sid = self.push(sid, ids.sym_id[s])
        return self.pack(sid, config.head, q)

    def pack(self, sid: int, head: int, q: int) -> int:
        return (sid << self.hshift) | (head << self.qbits) | q

    def config(self, key: int) -> Configuration:
        return Configuration(self.table.ids.states[key & ((1 << self.qbits) - 1)],
                             (key & ((1 << self.hshift) - 1)) >> self.qbits,
                             self.stack(key >> self.hshift))

    def step_error(self, key: int, alpha: complex | None, entries) -> QpaError:
        """The error of a configuration whose entries overrun the tape or lose the base."""
        hb = key & ((1 << self.hshift) - 1) & ~((1 << self.qbits) - 1)
        amp = "" if alpha is None else f" (amplitude {alpha!r})"
        if all(based or hb + dhq > self.hq_max for dhq, _, _, _, based in entries):
            return TapeOverrunError(f"advance past the end marker from {self.config(key)}{amp}")
        return QpaError(f"a transition from {self.config(key)} leaves a stack without "
                        f"its {STACK_BASE} base{amp}")


class Superposition:
    """Sparse complex amplitude map over the configurations of one run.

    Keys are the run's packed integers; ``over`` packs a
    ``{Configuration: amplitude}`` dict.  ``amplitudes`` is a read-only
    configuration view, built once on first use.
    """

    __slots__ = ("_run", "_packed", "_view")

    def __init__(self, run: _Run, packed: dict[int, complex]):
        self._run = run
        self._packed = packed
        self._view = None

    @classmethod
    def over(cls, spec: QpaSpec, tape: TapeContext,
             amplitudes: Mapping[Configuration, complex]) -> "Superposition":
        """Pack configurations of ``spec`` on ``tape``; a foreign one is a ``QpaError``."""
        run = _Run(spec, tape)
        return cls(run, {run.key(c): a for c, a in amplitudes.items()})

    @property
    def amplitudes(self) -> Mapping[Configuration, complex]:
        if self._view is None:
            self._view = MappingProxyType(
                {self._run.config(k): a for k, a in self._packed.items()})
        return self._view

    def norm_squared(self) -> float:
        return sum((abs(a) ** 2 for a in self._packed.values()), 0.0)

    def sorted_items(self) -> list[tuple[Configuration, complex]]:
        return sorted(self.amplitudes.items(), key=lambda kv: kv[0])

    def __len__(self) -> int:
        return len(self._packed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Superposition):
            return NotImplemented
        return self.amplitudes == other.amplitudes

    def __repr__(self) -> str:
        return f"Superposition(amplitudes={dict(self.amplitudes)!r})"


RecognitionResult = namedtuple("RecognitionResult", "p_accept p_reject p_nonhalt steps halted")


class TraceStep(namedtuple("TraceStep", "step entries p_accept_inc p_reject_inc p_accept p_reject "
                                        "residual_norm_squared")):
    """One evolution step and its observation.

    ``entries`` is the superposition right after the evolution operator
    and before the observation, so interference on halting
    configurations is visible; the increments and the residual norm
    describe the observation that follows.
    """

    __slots__ = ()


def _initial(run: _Run) -> Superposition:
    key = run.key(Configuration(run.spec.q0, 0, (STACK_BASE,)))
    return Superposition(run, {key: 1.0 + 0.0j})


def apply_evolution(spec: QpaSpec, tape: TapeContext, psi: Superposition,
                    prune_eps: float = PRUNE_EPS) -> Superposition:
    """One application of the evolution operator, by linear extension.

    Amplitudes arriving at the same configuration are summed, which is
    where interference happens; entries below ``prune_eps`` are dropped.
    A ``psi`` of another spec or tape is first packed into a run of
    ``spec`` on ``tape``; it must use the spec's states and stack symbols.
    """
    run = psi._run
    if run.spec is not spec or (run.tape is not tape and run.tape != tape):
        psi = Superposition.over(spec, tape, psi.amplitudes)
        run = psi._run
    rows, top, parent, child, hshift, hq_max, sym_bits, hq_mask, head_mask = run.step_ctx
    out: dict[int, complex] = {}
    get = out.get
    for key, alpha in psi._packed.items():
        sid = key >> hshift
        by_top = rows[key & hq_mask]
        if by_top is None:
            continue
        entries = by_top.get(top[sid])
        if entries is None:
            continue
        hb = key & head_mask
        for dhq, pops, pushed, amp, based in entries:
            hq = hb + dhq
            if hq > hq_max or not based:
                raise run.step_error(key, alpha, entries)
            s = parent[sid] if pops else sid
            for sym in pushed:
                c = child.get((s << sym_bits) | sym)
                s = run.push(s, sym) if c is None else c
            target = (s << hshift) | hq
            out[target] = get(target, 0.0 + 0.0j) + alpha * amp
    if prune_eps > 0.0:
        out = {c: a for c, a in out.items() if abs(a) >= prune_eps}
    return Superposition(run, out)


def measure(psi: Superposition, q_accept: frozenset[str], q_reject: frozenset[str]
            ) -> tuple[float, float, Superposition]:
    """Observe against the accept / reject / non-halting decomposition.

    Returns the probability mass measured into each halting outcome and
    the unrenormalized residual supported on non-halting states.
    """
    run = psi._run
    if q_accept is not run.q_accept or q_reject is not run.q_reject:
        run.set_halting(q_accept, q_reject)
    by_state = run.by_state
    mask = (1 << run.qbits) - 1
    p_acc = 0.0
    p_rej = 0.0
    residual = {}
    for key, alpha in psi._packed.items():
        outcome = by_state[key & mask]
        if outcome == 1:
            p_acc += abs(alpha) ** 2
        elif outcome == 2:
            p_rej += abs(alpha) ** 2
        else:
            residual[key] = alpha
    return p_acc, p_rej, Superposition(run, residual)


def default_max_steps(word_length: int) -> int:
    return 20 * (word_length + 2)


def _fold(spec: QpaSpec, word: str, max_steps: int | None = None, halt_eps: float = HALT_EPS,
          force: bool = False, trace_out: list[TraceStep] | None = None) -> RecognitionResult:
    """The one recognition loop; with ``trace_out``, it also collects its steps there.

    It stops after the step whose residual drops below ``halt_eps`` or
    after ``max_steps`` steps.  The evolution and the observation are
    looked up as module globals on every step.  ``recognize`` and
    ``trace`` call it; ``run --trace`` calls it directly to get both from
    one run.
    """
    check_max_steps(max_steps)
    if not force:
        summary = check_all(spec)
        if not summary.passed:
            raise NotWellFormedError(summary)
    tape = TapeContext.from_word(spec, word)
    if max_steps is None:
        max_steps = default_max_steps(len(tape) - 2)
    psi = _initial(_Run(spec, tape))
    step, p_acc, p_rej, residual = 0, 0.0, 0.0, 1.0
    for step in range(1, max_steps + 1):
        evolved = apply_evolution(spec, tape, psi)
        acc_inc, rej_inc, psi = measure(evolved, spec.q_accept, spec.q_reject)
        p_acc += acc_inc
        p_rej += rej_inc
        residual = psi.norm_squared()
        if trace_out is not None:
            trace_out.append(TraceStep(step, tuple(evolved.sorted_items()), acc_inc, rej_inc,
                                       p_acc, p_rej, residual))
        if residual < halt_eps:
            break
    return RecognitionResult(p_accept=p_acc, p_reject=p_rej, p_nonhalt=residual,
                             steps=step, halted=step > 0 and residual < halt_eps)


def recognize(spec: QpaSpec, word: str, max_steps: int | None = None,
              halt_eps: float = HALT_EPS, force: bool = False) -> RecognitionResult:
    """Run the measure-many recognition loop on one input word.

    Stops once the residual mass drops below ``halt_eps`` (halted) or
    after ``max_steps`` evolution steps (not halted); the leftover mass
    is reported as the non-halting probability.  A negative
    ``max_steps`` is a ``ValueError``.
    """
    return _fold(spec, word, max_steps, halt_eps, force)


def trace(spec: QpaSpec, word: str, max_steps: int | None = None,
          halt_eps: float = HALT_EPS, force: bool = False) -> list[TraceStep]:
    """Like recognize, but snapshots every step's pre-observation state."""
    steps: list[TraceStep] = []
    _fold(spec, word, max_steps, halt_eps, force, steps)
    return steps


def check_max_steps(max_steps: int | None) -> None:
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")


def check_threshold(threshold: float) -> None:
    if not (0.5 < threshold <= 1.0):
        raise ValueError(f"threshold must lie in (0.5, 1], got {threshold}")


def decide(result: RecognitionResult, threshold: float) -> str:
    """Map probabilities to a verdict using a strict-majority cutoff."""
    check_threshold(threshold)
    if result.p_accept >= threshold:
        return "accepted"
    if result.p_reject >= threshold:
        return "rejected"
    return "inconclusive"


def trace_to_dict(steps: list[TraceStep]) -> list[dict]:
    """Each step's fields in record order, its ``entries`` as the ``superposition`` list last."""
    return [{**{k: v for k, v in s._asdict().items() if k != "entries"},
             "superposition": [{"state": c.state, "head": c.head, "stack": list(c.stack), "re": a.real, "im": a.imag}
                               for c, a in s.entries]}
            for s in steps]
