"""Shared fixtures: broken tables, word generators, tiny DFAs, table readers."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from qpakit.model import (
    Alphabets,
    DfaSpec,
    Direction,
    KIND_GENERAL,
    KIND_SIMPLIFIED,
    STACK_BASE,
    QpaSpec,
    SymbolError,
    TransitionKey,
)

ADV = Direction.ADVANCE
STAY = Direction.STAY


def words_up_to(alphabet: str, max_len: int):
    for n in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield "".join(tup)


def make_spec(sigma, t, states, q0, q_acc, q_rej, entries, kind=KIND_GENERAL, directions=None):
    """entries: (q1, sigma, tau, q, direction, omega, amplitude)."""
    delta = {}
    for q1, s, tau, q, d, om, amp in entries:
        delta[TransitionKey(q1=q1, sigma=s, tau=tau, q=q, d=d, omega=tuple(om))] = complex(amp)
    return QpaSpec(
        alphabets=Alphabets(sigma=frozenset(sigma), t=frozenset(t)),
        states=frozenset(states),
        q0=q0,
        q_accept=frozenset(q_acc),
        q_reject=frozenset(q_rej),
        delta=delta,
        kind=kind,
        direction_fn=directions,
    )


def enumerate_push_words(tau: str, alphabets: Alphabets) -> list[tuple[str, ...]]:
    """The legal push words after popping ``tau``, sorted: empty, single symbols, then pairs."""
    if tau not in alphabets.delta_alpha:
        raise SymbolError(f"{tau!r} is not a stack symbol")
    ts = alphabets.t_sorted()
    if tau == STACK_BASE:
        return [(STACK_BASE,)] + [(STACK_BASE, t) for t in ts]
    return [()] + [(t,) for t in ts] + [(tau, t) for t in ts]


def sources_by_name(spec: QpaSpec) -> dict[tuple[str, str, str], list[tuple[str, Direction, tuple[str, ...], complex]]]:
    """The compiled table's ``sources`` with names for ids: ``{(q1, sigma, tau): [(q, d, omega, amp)]}``."""
    t = spec.compiled()
    return {(t.states[q1], t.tapes[sigma], t.syms[tau]): [(k.q, k.d, k.omega, amp) for *_, amp, k in group]
            for (q1, sigma, tau), group in t.sources.items()}


@pytest.fixture(scope="session")
def ends_in_one_dfa() -> DfaSpec:
    return DfaSpec(
        states=frozenset({"q0", "q1"}),
        sigma=frozenset({"0", "1"}),
        q0="q0",
        finals=frozenset({"q1"}),
        trans={("q0", "0"): "q0", ("q0", "1"): "q1",
               ("q1", "0"): "q0", ("q1", "1"): "q1"},
    )


def random_total_dfa(n_states: int, alphabet: str, rng: np.random.Generator) -> DfaSpec:
    states = [f"s{i}" for i in range(n_states)]
    trans = {
        (q, a): states[int(rng.integers(0, n_states))]
        for q in states for a in alphabet
    }
    finals = frozenset(q for q in states if rng.random() < 0.5)
    return DfaSpec(
        states=frozenset(states), sigma=frozenset(alphabet),
        q0="s0", finals=finals, trans=trans,
    )


@pytest.fixture(scope="session")
def stay_copy_spec() -> QpaSpec:
    """Well-formed single-state table that stays put forever: never halts."""
    entries = [
        ("q", s, tau, "q", STAY, (tau,), 1.0)
        for s in ("#", "$", "x")
        for tau in ("Z0", "1")
    ]
    return make_spec(
        sigma={"x"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
        entries=entries, kind=KIND_SIMPLIFIED, directions={"q": STAY},
    )


@pytest.fixture(scope="session")
def advance_copy_spec() -> QpaSpec:
    """Well-formed single-state table that advances copying the stack top."""
    entries = [
        ("q", s, tau, "q", ADV, (tau,), 1.0)
        for s in ("#", "$", "x")
        for tau in ("Z0", "1")
    ]
    return make_spec(
        sigma={"x"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
        entries=entries, kind=KIND_SIMPLIFIED, directions={"q": ADV},
    )


@pytest.fixture(scope="session")
def lossy_spec() -> QpaSpec:
    """Structurally legal table that leaks probability: one 1/sqrt2 entry per column.

    Stays in place, so the leak compounds forever without running off the tape.
    """
    amp = 2.0 ** -0.5
    entries = [
        ("q", s, tau, "q", STAY, (tau,), amp)
        for s in ("#", "$", "x")
        for tau in ("Z0", "1")
    ]
    return make_spec(
        sigma={"x"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
        entries=entries, kind=KIND_GENERAL,
    )
