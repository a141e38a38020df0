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
that the unitarity conditions require.  ``l3`` and ``l5`` are one
construction, ``_split_machine``, with different split blocks.

In ``l5`` the two comparators do not accept on their own.  Their success
configurations feed a shared two-by-two rotation onto a common accept
state and a common reject state, with signs arranged so that when both
comparisons succeed the accept amplitudes cancel and the whole branch
mass lands on the reject side.  Both comparators reach the marker at the
same step on every word, which is what makes the cancellation exact.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

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
    spec_from_rows,
)

_ADV = Direction.ADVANCE
_STAY = Direction.STAY

_Z = STACK_BASE
_STACK_SYMS = ("1", "2")


# ``language_oracle`` maps a word to its membership
ZooEntry = namedtuple("ZooEntry", "name spec language_oracle claimed_probability description")


class ComparatorTable(namedtuple("ComparatorTable", "x y ignore scan up down accept reject entries directions")):
    """Reversible sub-table comparing the counts of two symbols.

    ``scan`` is the balanced state; ``up`` holds a surplus of ``x`` as
    the stack ``Z0 1 2 2 ...`` and ``down`` a surplus of ``y`` as
    ``Z0 2 1 1 ...``.  All three advance, so every symbol of the word
    costs exactly one step.  ``accept`` and ``reject`` are the staying
    end-marker outcomes for balanced and unbalanced counters.  Symbols in
    ``ignore`` pass through without touching the stack.  ``entries`` are
    rows ``(q1, sigma, tau, q, omega)`` and ``directions`` maps each state
    to its direction.
    """

    __slots__ = ()

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
    """``model.spec_from_rows`` on rows ``(q1, sigma, tau, q, omega, literal)``, given their targets' directions;
    a general kind has no direction function."""
    return spec_from_rows(((q1, s, tau, q, directions[q], om, lit) for q1, s, tau, q, om, lit in rows),
                          Alphabets(sigma=frozenset(sigma), t=frozenset(stack_syms)), states, q0, q_accept, q_reject,
                          kind, None if kind == KIND_GENERAL else dict(directions), name)


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

_SPLIT_SOURCES = ("q0", "u1", "u2")


def _split_machine(name, g1: ComparatorTable, g2: ComparatorTable, third, split, frame,
                   q_accept, q_reject, end_rows=()) -> QpaSpec:
    """Two comparators behind an orthogonal split on the left marker.

    Row ``i`` of ``split`` holds the amplitude literals from
    ``_SPLIT_SOURCES[i]`` on ``(#, Z0)`` onto ``g1.scan``, ``g2.scan`` and
    ``third`` (``None`` for no entry); each target returns to the source of
    its place.  The split, its returns and ``end_rows`` replace the
    comparators' rows and the ``frame`` states' self-loops on their
    sources.  Every frame state stays except ``q0``, which advances.
    """
    targets = (g1.scan, g2.scan, third)
    block = [(src, LEFT_MARKER, _Z, q, (_Z,), lit)
             for src, lits in zip(_SPLIT_SOURCES, split)
             for q, lit in zip(targets, lits) if lit]
    block += [(q, LEFT_MARKER, _Z, src, (_Z,), "1") for q, src in zip(targets, _SPLIT_SOURCES)]
    block += end_rows
    replaced = {row[:3] for row in block}
    rows = [(*row, "1") for g in (g1, g2) for row in g.entries if row[:3] not in replaced]
    for s in frame:
        for sym in (LEFT_MARKER, RIGHT_MARKER, "a", "b", "c"):
            for tau in (_Z, *_STACK_SYMS):
                if (s, sym, tau) not in replaced:
                    rows.append((s, sym, tau, s, (tau,), "1"))
    return _spec_from_rows(
        name=name,
        sigma=("a", "b", "c"),
        states=(*g1.states, *g2.states, *frame),
        q0="q0",
        q_accept=q_accept,
        q_reject=q_reject,
        kind=KIND_SIMPLIFIED,
        directions={**g1.directions, **g2.directions, **{s: _STAY for s in frame}, "q0": _ADV},
        rows=rows + block,
    )


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
    # the q0 row is the split; rows u1 and u2 are its unreachable completions
    split = [("sqrt(1/3)", "sqrt(1/3)", "sqrt(1/3)"),
             ("sqrt(1/2)", "-sqrt(1/2)", None),
             ("sqrt(1/6)", "sqrt(1/6)", "-sqrt(2/3)")]
    spec = _split_machine("l3", ab, bc, "r", split, frame=("q0", "u1", "u2", "r"),
                          q_accept=(ab.accept, bc.accept), q_reject=("r", ab.reject, bc.reject))
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
    split = [("sqrt(2/7)", "-sqrt(2/7)", "sqrt(3/7)"),
             ("sqrt(1/2)", "sqrt(1/2)", None),
             ("-sqrt(3/14)", "sqrt(3/14)", "sqrt(4/7)")]
    # shared end-marker rotation: balanced comparators meet here
    rotation = [
        (ab.scan, RIGHT_MARKER, _Z, "acc", (_Z,), "sqrt(1/2)"),
        (ab.scan, RIGHT_MARKER, _Z, "rx", (_Z,), "sqrt(1/2)"),
        (ac.scan, RIGHT_MARKER, _Z, "acc", (_Z,), "sqrt(1/2)"),
        (ac.scan, RIGHT_MARKER, _Z, "rx", (_Z,), "-sqrt(1/2)"),
        ("acc", RIGHT_MARKER, _Z, ab.accept, (_Z,), "1"),
        ("rx", RIGHT_MARKER, _Z, ac.accept, (_Z,), "1"),
    ]
    spec = _split_machine("l5", ab, ac, "uacc", split, frame=("q0", "u1", "u2", "uacc", "acc", "rx"),
                          q_accept=("uacc", "acc"), q_reject=("rx", ab.reject, ac.reject),
                          end_rows=rotation)
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
    rows = [("q", sym, tau, "q", omega, "1")
            for sym in (LEFT_MARKER, "1", RIGHT_MARKER)
            for tau, omega in ((_Z, (_Z, "1")), ("1", ("1", "1")))]
    return _spec_from_rows(name="nonunitary", sigma=("1",), states=("q",), q0="q", q_accept=(),
                           q_reject=(), kind=KIND_GENERAL, directions={"q": _ADV}, rows=rows,
                           stack_syms=("1",))


def entries() -> dict[str, ZooEntry]:
    return {e.name: e for e in (l1_rpa(), l2_rpa(), l3_qpa(), l5_qpa())}


def fixture_specs() -> dict[str, QpaSpec]:
    """Everything exportable by name, broken fixture included."""
    out = {name: entry.spec for name, entry in entries().items()}
    out["nonunitary"] = nonunitary_example()
    return out
