"""Compile a total DFA into a reversible pushdown automaton.

The construction doubles the state set with primed twins and uses the
decimal index of each DFA state, zero-padded to one width so that every
push word splits one way only, as a stack symbol.  Scanning states
advance and push the index of the state they leave, so the stack records
the path; primed states stay put and either unwind that record or hand
control back.  Only the end-marker hop into a primed state is live, but
the unwinding rules are what make the table a bijection on
configurations, hence reversible.  The rules are rows for
``model.spec_from_rows``, each with the amplitude literal ``1.0``, so a
compiled spec keeps the literals its export writes.

Rule summary, for DFA states q_i with Ind(q_i) = i:

1. (q_i, a, tau)   -> step to the DFA successor, push i under the top
2. (q'_j, a, i)    -> if the DFA maps q_i to q_j on a: pop, go to q'_i
3. (q'_j, a, i)    -> otherwise: keep i, go to q_j
4. (q'_j, a, base) -> keep the base, go to q_j
5. (q, '#', tau)   -> keep everything, stay in q
6. (q_i, '$', tau) -> go to the primed twin q'_i
7. (q'_i, '$', tau)-> go back to q_i
"""
from __future__ import annotations

from .model import (
    Alphabets,
    DfaSpec,
    Direction,
    KIND_REVERSIBLE,
    LEFT_MARKER,
    RIGHT_MARKER,
    STACK_BASE,
    QpaError,
    QpaSpec,
    spec_from_rows,
)


def _primed_name(name: str, taken: set[str]) -> str:
    primed = name + "'"
    if primed in taken:
        raise QpaError(f"cannot derive a fresh primed name for {name!r}")
    return primed


def compile_dfa(dfa: DfaSpec) -> QpaSpec:
    """Emit the reversible pushdown automaton simulating ``dfa``.

    Accepting states are the primed twins of DFA finals; every other
    primed state rejects, so the run halts right after the end marker.
    ``dfa.validate`` refuses an empty DFA: its initial state is undeclared.
    """
    dfa.validate()

    plain = sorted(dfa.states)
    taken = set(plain)
    primed = {q: _primed_name(q, taken) for q in plain}
    width = len(str(len(plain) - 1))
    index = {q: str(i).zfill(width) for i, q in enumerate(plain)}
    of_index = {v: k for k, v in index.items()}

    sigma = frozenset(dfa.sigma)
    t_syms = frozenset(index.values())
    alphabets = Alphabets(sigma=sigma, t=t_syms)
    delta_syms = sorted(t_syms | {STACK_BASE})

    direction = {**{q: Direction.ADVANCE for q in plain}, **{primed[q]: Direction.STAY for q in plain}}
    states = frozenset(direction)

    rows = []

    def put(q1: str, sigma_sym: str, tau: str, q: str, omega: tuple[str, ...]) -> None:
        rows.append((q1, sigma_sym, tau, q, direction[q], omega, "1.0"))

    for a in sorted(sigma):
        for q in plain:
            for tau in delta_syms:
                put(q, a, tau, dfa.trans[(q, a)], (tau, index[q]))
        for qj in plain:
            for i_sym in sorted(t_syms):
                qi = of_index[i_sym]
                if dfa.trans[(qi, a)] == qj:
                    put(primed[qj], a, i_sym, primed[qi], ())
                else:
                    put(primed[qj], a, i_sym, qj, (i_sym,))
            put(primed[qj], a, STACK_BASE, qj, (STACK_BASE,))

    for q in sorted(states):
        for tau in delta_syms:
            put(q, LEFT_MARKER, tau, q, (tau,))
    for q in plain:
        for tau in delta_syms:
            put(q, RIGHT_MARKER, tau, primed[q], (tau,))
            put(primed[q], RIGHT_MARKER, tau, q, (tau,))

    finals_primed = frozenset(primed[q] for q in sorted(dfa.finals))
    return spec_from_rows(rows, alphabets, states, dfa.q0, finals_primed, frozenset(primed.values()) - finals_primed,
                          KIND_REVERSIBLE, direction, "compiled-rpa")
