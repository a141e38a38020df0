"""Executable fixture automata with embedded language oracles.

Four recognizers ship here, plus one deliberately broken table:

* ``l1``: reversible, words over {0,1} ending in 1, probability 1
* ``l2``: reversible, equal counts of a and b, probability 1
* ``l3``: equal counts of a, b and c, probability 2/3
* ``l5``: count of a equals exactly one of count(b), count(c), 4/7
* ``nonunitary``: an always-push table whose columns are orthonormal
  while whole rows of the evolution matrix vanish

``l2`` and the two probabilistic machines share a counting comparator: a
five-state reversible unit that scans for two designated symbols, tracks
their difference on the stack, treats everything else as a
stack-preserving pass, and resolves at the right end marker.  Pushes and
pops both advance the head, so a comparator reaches the end marker after
exactly one step per symbol, whatever the word.  The probabilistic split
on the left marker is one column of a real orthogonal block; the block's
other columns are parked on auxiliary states that no run ever enters but
that the unitarity conditions require.

In ``l5`` the two comparators do not accept on their own.  Their success
configurations feed a shared two-by-two rotation onto a common accept
state and a common reject state, with signs arranged so that when both
comparisons succeed the accept amplitudes cancel and the whole branch
mass lands on the reject side.  Both comparators reach the marker at the
same step on every word, which is what makes the cancellation exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .model import (
    Alphabets,
    Direction,
    KIND_GENERAL,
    KIND_REVERSIBLE,
    KIND_SIMPLIFIED,
    LEFT_MARKER,
    RIGHT_MARKER,
    STACK_BASE,
    QpaError,
    QpaSpec,
    TransitionKey,
    parse_amplitude,
)

_ADV = Direction.ADVANCE
_STAY = Direction.STAY

_Z = STACK_BASE
_STACK_SYMS = ("1", "2")


@dataclass(frozen=True)
class ZooEntry:
    name: str
    spec: QpaSpec
    language_oracle: Callable[[str], bool]
    claimed_probability: float
    description: str


@dataclass(frozen=True)
class ComparatorTable:
    """Reversible sub-table comparing the counts of two symbols.

    ``scan`` is the balanced state; ``up`` holds a surplus of ``x`` as
    the stack ``Z0 1 2 2 ...`` and ``down`` a surplus of ``y`` as
    ``Z0 2 1 1 ...``.  All three advance, so every symbol of the word
    costs exactly one step.  ``accept`` and ``reject`` are the staying
    end-marker outcomes for balanced and unbalanced counters.  Symbols in
    ``ignore`` pass through without touching the stack.
    """

    x: str
    y: str
    ignore: tuple[str, ...]
    scan: str
    up: str
    down: str
    accept: str
    reject: str
    entries: tuple[tuple[str, str, str, str, tuple[str, ...]], ...]
    directions: dict[str, Direction]

    @property
    def states(self) -> tuple[str, str, str, str, str]:
        return (self.scan, self.up, self.down, self.accept, self.reject)

    def as_rpa(self, name: str = "") -> QpaSpec:
        """Standalone recognizer for equal counts of ``x`` and ``y``."""
        return _spec_from_rows(
            name=name or f"compare-{self.x}-{self.y}",
            sigma=(self.x, self.y, *self.ignore),
            states=self.states,
            q0=self.scan,
            q_accept=(self.accept,),
            q_reject=(self.reject,),
            kind=KIND_REVERSIBLE,
            directions=self.directions,
            rows=[(*row, "1") for row in self.entries],
        )


def _counting_rows(sym, scan, grow, shrink, mark, other):
    """Rows on one compared symbol: push ``mark`` in ``grow``, pop in ``shrink``.

    The bottom counter symbol differs from the ones above it, so the pop
    that empties the counter can return to ``scan``.  The last four rows
    are never reached by a run but make the map a bijection.
    """
    return [
        (scan, sym, _Z, grow, (_Z, mark)),
        (grow, sym, mark, grow, (mark, other)),
        (grow, sym, other, grow, (other, other)),
        (shrink, sym, mark, shrink, ()),
        (shrink, sym, other, scan, ()),
        (scan, sym, mark, grow, (mark, mark)),
        (scan, sym, other, grow, (other, mark)),
        (shrink, sym, _Z, grow, (_Z, other)),
        (grow, sym, _Z, grow, (_Z,)),
    ]


def comparator_gadget(x_symbol: str, y_symbol: str, ignore_symbols=(), prefix: str = "q"
                      ) -> ComparatorTable:
    """Build the five-state counting comparator over fresh state names."""
    x, y = x_symbol, y_symbol
    ignore = tuple(sorted(ignore_symbols))
    if x == y:
        raise QpaError("compared symbols must differ")
    if x in ignore or y in ignore:
        raise QpaError("ignored symbols overlap the compared pair")
    scan, up, down, acc, rej = states = tuple(f"{prefix}{i}" for i in range(5))
    rows = _counting_rows(x, scan, up, down, "1", "2")
    rows += _counting_rows(y, scan, down, up, "2", "1")
    rows += [
        (scan, RIGHT_MARKER, _Z, acc, (_Z,)),
        (acc, RIGHT_MARKER, _Z, scan, (_Z,)),
        (rej, RIGHT_MARKER, "1", up, ()),
        (rej, RIGHT_MARKER, "2", down, ()),
        (rej, RIGHT_MARKER, _Z, rej, (_Z,)),
    ]
    for tau in (_Z, *_STACK_SYMS):
        rows.append((up, RIGHT_MARKER, tau, rej, (tau, "1")))
        rows.append((down, RIGHT_MARKER, tau, rej, (tau, "2")))
        for q in states:
            rows.append((q, LEFT_MARKER, tau, q, (tau,)))
            for z in ignore:
                rows.append((q, z, tau, q, (tau,)))
        for q in (acc, rej):
            rows.append((q, x, tau, q, (tau,)))
            rows.append((q, y, tau, q, (tau,)))
    for tau in _STACK_SYMS:
        rows.append((scan, RIGHT_MARKER, tau, scan, (tau,)))
        rows.append((acc, RIGHT_MARKER, tau, acc, (tau,)))
    directions = {scan: _ADV, up: _ADV, down: _ADV, acc: _STAY, rej: _STAY}
    return ComparatorTable(
        x=x, y=y, ignore=ignore,
        scan=scan, up=up, down=down, accept=acc, reject=rej,
        entries=tuple(rows), directions=directions,
    )


def _spec_from_rows(name, sigma, states, q0, q_accept, q_reject, kind,
                    directions, rows, stack_syms=_STACK_SYMS) -> QpaSpec:
    """rows: (q1, sigma, tau, q, omega, amplitude-literal)."""
    delta = {}
    literals = {}
    for q1, s, tau, q, om, lit in rows:
        key = TransitionKey(q1=q1, sigma=s, tau=tau, q=q,
                            d=directions[q], omega=om)
        if key in delta:
            raise QpaError(f"duplicate zoo entry {key}")
        delta[key] = parse_amplitude(lit)
        literals[key] = lit
    return QpaSpec(
        alphabets=Alphabets(sigma=frozenset(sigma), t=frozenset(stack_syms)),
        states=frozenset(states),
        q0=q0,
        q_accept=frozenset(q_accept),
        q_reject=frozenset(q_reject),
        delta=delta,
        kind=kind,
        direction_fn=dict(directions),
        amp_literals=literals,
        name=name,
    )


# --- the regular example -------------------------------------------------------


@lru_cache(maxsize=None)
def l1_rpa() -> ZooEntry:
    """Reversible recognizer for binary words ending in 1.

    The scanning pair q0/q1 mirrors the two-state DFA and records each
    step on the stack; q4/q5 are the end-marker verdict states.  q2 and
    q3 are unreachable but complete the table to a bijection on
    configurations.
    """
    taus = (_Z, "0", "1")
    rows = []
    for q in ("q0", "q1", "q2", "q3", "q4", "q5"):
        for tau in taus:
            rows.append((q, LEFT_MARKER, tau, q, (tau,), "1"))
    for tau in taus:
        rows += [
            ("q0", "0", tau, "q0", (tau, "0"), "1"),
            ("q1", "0", tau, "q0", (tau, "1"), "1"),
            ("q0", "1", tau, "q1", (tau, "0"), "1"),
            ("q1", "1", tau, "q1", (tau, "1"), "1"),
            ("q0", RIGHT_MARKER, tau, "q4", (tau,), "1"),
            ("q1", RIGHT_MARKER, tau, "q5", (tau,), "1"),
            ("q2", "1", tau, "q0", (tau,), "1"),
            ("q3", "0", tau, "q1", (tau,), "1"),
            ("q2", RIGHT_MARKER, tau, "q2", (tau,), "1"),
            ("q3", RIGHT_MARKER, tau, "q3", (tau,), "1"),
            ("q4", "0", tau, "q4", (tau,), "1"),
            ("q4", "1", tau, "q4", (tau,), "1"),
            ("q5", "0", tau, "q5", (tau,), "1"),
            ("q5", "1", tau, "q5", (tau,), "1"),
            ("q4", RIGHT_MARKER, tau, "q0", (tau,), "1"),
            ("q5", RIGHT_MARKER, tau, "q1", (tau,), "1"),
        ]
    rows += [
        ("q2", "0", _Z, "q0", (_Z,), "1"),
        ("q3", "1", _Z, "q1", (_Z,), "1"),
        ("q2", "0", "0", "q2", (), "1"),
        ("q2", "0", "1", "q3", (), "1"),
        ("q3", "1", "0", "q2", (), "1"),
        ("q3", "1", "1", "q3", (), "1"),
    ]
    directions = {
        "q0": _ADV, "q1": _ADV,
        "q2": _STAY, "q3": _STAY, "q4": _STAY, "q5": _STAY,
    }
    spec = _spec_from_rows(
        name="l1",
        sigma=("0", "1"),
        states=("q0", "q1", "q2", "q3", "q4", "q5"),
        q0="q0",
        q_accept=("q5",),
        q_reject=("q4",),
        kind=KIND_REVERSIBLE,
        directions=directions,
        rows=rows,
        stack_syms=("0", "1"),
    )
    return ZooEntry(
        name="l1",
        spec=spec,
        language_oracle=lambda w: len(w) > 0 and w.endswith("1"),
        claimed_probability=1.0,
        description="binary words ending in 1 (probability 1)",
    )


@lru_cache(maxsize=None)
def l2_rpa() -> ZooEntry:
    """Reversible recognizer for equal counts of a and b."""
    gadget = comparator_gadget("a", "b", prefix="q")
    spec = gadget.as_rpa(name="l2")
    return ZooEntry(
        name="l2",
        spec=spec,
        language_oracle=lambda w: w.count("a") == w.count("b"),
        claimed_probability=1.0,
        description="equal numbers of a and b (probability 1)",
    )


# --- probabilistic machines -----------------------------------------------------


def _frame_rows(frame_states, sigma_all, block_sources, taus):
    """Self-loop columns for the glue states, skipping the block sources."""
    rows = []
    for s in frame_states:
        for sym in sigma_all:
            for tau in taus:
                if (s, sym, tau) in block_sources:
                    continue
                rows.append((s, sym, tau, s, (tau,), "1"))
    return rows


def _gadget_rows(gadget: ComparatorTable, skip=()):
    skip = set(skip)
    return [
        (q1, s, tau, q, om, "1")
        for q1, s, tau, q, om in gadget.entries
        if (q1, s, tau) not in skip
    ]


@lru_cache(maxsize=None)
def l3_qpa() -> ZooEntry:
    """Equal counts of a, b and c, recognized with probability 2/3.

    Reading the left marker splits the run into an a-vs-b comparator, a
    b-vs-c comparator, and an immediate reject, each with squared
    amplitude 1/3.  Members therefore accept with exactly 2/3; a word
    failing a comparison adds that comparator's mass to the reject side.
    """
    ab = comparator_gadget("a", "b", ignore_symbols=("c",), prefix="A")
    bc = comparator_gadget("b", "c", ignore_symbols=("a",), prefix="B")
    taus = (_Z, *_STACK_SYMS)
    sigma_all = (LEFT_MARKER, RIGHT_MARKER, "a", "b", "c")
    frame = ("q0", "u1", "u2", "r")
    block_sources = {(s, LEFT_MARKER, _Z) for s in frame}

    rows = []
    rows += _gadget_rows(ab, skip={(ab.scan, LEFT_MARKER, _Z)})
    rows += _gadget_rows(bc, skip={(bc.scan, LEFT_MARKER, _Z)})
    rows += _frame_rows(frame, sigma_all, block_sources, taus)
    # orthogonal three-way split on the left marker; columns u1, u2 are
    # the unreachable completions of the q0 column
    rows += [
        ("q0", LEFT_MARKER, _Z, ab.scan, (_Z,), "sqrt(1/3)"),
        ("q0", LEFT_MARKER, _Z, bc.scan, (_Z,), "sqrt(1/3)"),
        ("q0", LEFT_MARKER, _Z, "r", (_Z,), "sqrt(1/3)"),
        ("u1", LEFT_MARKER, _Z, ab.scan, (_Z,), "sqrt(1/2)"),
        ("u1", LEFT_MARKER, _Z, bc.scan, (_Z,), "-sqrt(1/2)"),
        ("u2", LEFT_MARKER, _Z, ab.scan, (_Z,), "sqrt(1/6)"),
        ("u2", LEFT_MARKER, _Z, bc.scan, (_Z,), "sqrt(1/6)"),
        ("u2", LEFT_MARKER, _Z, "r", (_Z,), "-sqrt(2/3)"),
        (ab.scan, LEFT_MARKER, _Z, "q0", (_Z,), "1"),
        (bc.scan, LEFT_MARKER, _Z, "u1", (_Z,), "1"),
        ("r", LEFT_MARKER, _Z, "u2", (_Z,), "1"),
    ]
    # the r row above replaces its frame self-loop on (marker, base)
    directions = {**ab.directions, **bc.directions,
                  "q0": _ADV, "u1": _STAY, "u2": _STAY, "r": _STAY}
    spec = _spec_from_rows(
        name="l3",
        sigma=("a", "b", "c"),
        states=(*ab.states, *bc.states, *frame),
        q0="q0",
        q_accept=(ab.accept, bc.accept),
        q_reject=("r", ab.reject, bc.reject),
        kind=KIND_SIMPLIFIED,
        directions=directions,
        rows=rows,
    )
    oracle = lambda w: w.count("a") == w.count("b") == w.count("c")
    return ZooEntry(
        name="l3",
        spec=spec,
        language_oracle=oracle,
        claimed_probability=2.0 / 3.0,
        description="equal numbers of a, b, c (probability 2/3)",
    )


@lru_cache(maxsize=None)
def l5_qpa() -> ZooEntry:
    """Count of a equals exactly one of count(b), count(c); probability 4/7.

    The marker split carries amplitudes sqrt(2/7) (a-vs-b), -sqrt(2/7)
    (a-vs-c) and sqrt(3/7) (unconditional accept).  Both comparators
    resolve through a shared rotation onto one accept and one reject
    state; opposite signs make the accept amplitudes annihilate when both
    comparisons succeed, so such words accept with 3/7 and members with
    exactly 1/7 + 3/7 = 4/7.  The annihilation needs both branches on the
    rotation at once: every comparator step advances, so both arrive at
    step len(word) + 1 however the symbols are interleaved.
    """
    ab = comparator_gadget("a", "b", ignore_symbols=("c",), prefix="A")
    ac = comparator_gadget("a", "c", ignore_symbols=("b",), prefix="C")
    taus = (_Z, *_STACK_SYMS)
    sigma_all = (LEFT_MARKER, RIGHT_MARKER, "a", "b", "c")
    frame = ("q0", "u1", "u2", "uacc", "acc", "rx")
    block_sources = {(s, LEFT_MARKER, _Z) for s in ("q0", "u1", "u2", "uacc")}
    block_sources |= {("acc", RIGHT_MARKER, _Z), ("rx", RIGHT_MARKER, _Z)}

    rows = []
    rows += _gadget_rows(ab, skip={(ab.scan, LEFT_MARKER, _Z),
                                   (ab.scan, RIGHT_MARKER, _Z)})
    rows += _gadget_rows(ac, skip={(ac.scan, LEFT_MARKER, _Z),
                                   (ac.scan, RIGHT_MARKER, _Z)})
    rows += _frame_rows(frame, sigma_all, block_sources, taus)
    rows += [
        # marker split and its orthogonal completions
        ("q0", LEFT_MARKER, _Z, ab.scan, (_Z,), "sqrt(2/7)"),
        ("q0", LEFT_MARKER, _Z, ac.scan, (_Z,), "-sqrt(2/7)"),
        ("q0", LEFT_MARKER, _Z, "uacc", (_Z,), "sqrt(3/7)"),
        ("u1", LEFT_MARKER, _Z, ab.scan, (_Z,), "sqrt(1/2)"),
        ("u1", LEFT_MARKER, _Z, ac.scan, (_Z,), "sqrt(1/2)"),
        ("u2", LEFT_MARKER, _Z, ab.scan, (_Z,), "-sqrt(3/14)"),
        ("u2", LEFT_MARKER, _Z, ac.scan, (_Z,), "sqrt(3/14)"),
        ("u2", LEFT_MARKER, _Z, "uacc", (_Z,), "sqrt(4/7)"),
        (ab.scan, LEFT_MARKER, _Z, "q0", (_Z,), "1"),
        (ac.scan, LEFT_MARKER, _Z, "u1", (_Z,), "1"),
        ("uacc", LEFT_MARKER, _Z, "u2", (_Z,), "1"),
        # shared end-marker rotation: balanced comparators meet here
        (ab.scan, RIGHT_MARKER, _Z, "acc", (_Z,), "sqrt(1/2)"),
        (ab.scan, RIGHT_MARKER, _Z, "rx", (_Z,), "sqrt(1/2)"),
        (ac.scan, RIGHT_MARKER, _Z, "acc", (_Z,), "sqrt(1/2)"),
        (ac.scan, RIGHT_MARKER, _Z, "rx", (_Z,), "-sqrt(1/2)"),
        ("acc", RIGHT_MARKER, _Z, ab.accept, (_Z,), "1"),
        ("rx", RIGHT_MARKER, _Z, ac.accept, (_Z,), "1"),
    ]
    directions = {**ab.directions, **ac.directions,
                  "q0": _ADV, "u1": _STAY, "u2": _STAY,
                  "uacc": _STAY, "acc": _STAY, "rx": _STAY}
    spec = _spec_from_rows(
        name="l5",
        sigma=("a", "b", "c"),
        states=(*ab.states, *ac.states, *frame),
        q0="q0",
        q_accept=("uacc", "acc"),
        q_reject=("rx", ab.reject, ac.reject),
        kind=KIND_SIMPLIFIED,
        directions=directions,
        rows=rows,
    )
    oracle = lambda w: (w.count("a") == w.count("b")) != (w.count("a") == w.count("c"))
    return ZooEntry(
        name="l5",
        spec=spec,
        language_oracle=oracle,
        claimed_probability=4.0 / 7.0,
        description="count(a) equals exactly one of count(b), count(c) (probability 4/7)",
    )


@lru_cache(maxsize=None)
def nonunitary_example() -> QpaSpec:
    """Always-push table: orthonormal columns, vanishing base-stack rows.

    Every move advances and grows the stack, so nothing ever maps back
    onto a configuration whose stack is just the base symbol.  Those rows
    of the evolution matrix have norm 0 and the row-norm condition fails
    with residual 1 while every other condition holds.
    """
    delta = {}
    literals = {}
    for sym in (LEFT_MARKER, "1", RIGHT_MARKER):
        for tau, omega in ((_Z, (_Z, "1")), ("1", ("1", "1"))):
            key = TransitionKey(q1="q", sigma=sym, tau=tau, q="q", d=_ADV, omega=omega)
            delta[key] = 1.0 + 0.0j
            literals[key] = "1"
    return QpaSpec(
        alphabets=Alphabets(sigma=frozenset({"1"}), t=frozenset({"1"})),
        states=frozenset({"q"}),
        q0="q",
        q_accept=frozenset(),
        q_reject=frozenset(),
        delta=delta,
        kind=KIND_GENERAL,
        direction_fn=None,
        amp_literals=literals,
        name="nonunitary",
    )


def entries() -> dict[str, ZooEntry]:
    return {e.name: e for e in (l1_rpa(), l2_rpa(), l3_qpa(), l5_qpa())}


def fixture_specs() -> dict[str, QpaSpec]:
    """Everything exportable by name, broken fixture included."""
    out = {name: entry.spec for name, entry in entries().items()}
    out["nonunitary"] = nonunitary_example()
    return out
