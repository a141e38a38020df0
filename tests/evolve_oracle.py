"""The tuple-stack recognition loop, kept as the reference for ``qpakit.evolve``.

This is the simulator as it was before stacks were interned: every
configuration carries its stack as a tuple and every step rebuilds it.
``tests/test_evolve_oracle.py`` runs both and requires bit-identical
probabilities, the same step counts and the same trace entries in order.
The data classes and errors that are unchanged public API are imported
from ``qpakit.evolve``, so exceptions compare by type.
"""
from __future__ import annotations

from dataclasses import dataclass

from qpakit.evolve import (
    HALT_EPS,
    PRUNE_EPS,
    Configuration,
    NotWellFormedError,
    RecognitionResult,
    TapeContext,
    TapeOverrunError,
    TraceStep,
    default_max_steps,
)
from qpakit.model import Direction, STACK_BASE, QpaError, QpaSpec, cached_on
from qpakit.wellformed import check_all

from io_oracle import by_source


@dataclass
class Superposition:
    """Sparse complex amplitude map over configurations."""

    amplitudes: dict[Configuration, complex]

    def norm_squared(self) -> float:
        return sum((abs(a) ** 2 for a in self.amplitudes.values()), 0.0)

    def sorted_items(self) -> list[tuple[Configuration, complex]]:
        return sorted(self.amplitudes.items(), key=lambda kv: kv[0])

    def amplitude(self, config: Configuration) -> complex:
        return self.amplitudes.get(config, 0.0 + 0.0j)

    def __len__(self) -> int:
        return len(self.amplitudes)


def initial_superposition(spec: QpaSpec, word) -> Superposition:
    """Unit mass on (initial state, head on the left marker, base stack)."""
    TapeContext.from_word(spec, word)
    return Superposition({Configuration(spec.q0, 0, (STACK_BASE,)): 1.0 + 0.0j})


def step_targets(spec: QpaSpec, tape: TapeContext, config: Configuration
                 ) -> tuple[list[tuple[Configuration, complex]], bool]:
    """Successors of one configuration with amplitudes, plus an overrun flag.

    The flag is set when a nonzero entry advances off the right end of
    the tape; such branches have no target configuration.
    """
    sigma = tape.symbols[config.head]
    tau = config.stack[-1]
    entries = cached_on(spec, "_oracle_by_source", by_source).get((config.state, sigma, tau))
    if not entries:
        return [], False
    last = len(tape) - 1
    out = []
    overran = False
    for q, d, omega, amp in entries:
        if d is Direction.ADVANCE:
            if config.head == last:
                overran = True
                continue
            head = config.head + 1
        else:
            head = config.head
        stack = config.stack[:-1] + omega
        if not stack or stack[0] != STACK_BASE or STACK_BASE in stack[1:]:
            raise QpaError(f"a transition from {config} leaves a stack without its {STACK_BASE} base")
        out.append((Configuration(q, head, stack), amp))
    return out, overran


def apply_evolution(spec: QpaSpec, tape: TapeContext, psi: Superposition,
                    prune_eps: float = PRUNE_EPS) -> Superposition:
    """One application of the evolution operator, by linear extension.

    Amplitudes arriving at the same configuration are summed, which is
    where interference happens; entries below ``prune_eps`` are dropped.
    """
    out: dict[Configuration, complex] = {}
    for config, alpha in psi.amplitudes.items():
        targets, overran = step_targets(spec, tape, config)
        if overran:
            raise TapeOverrunError(
                f"advance past the end marker from {config} (amplitude {alpha!r})")
        for target, amp in targets:
            out[target] = out.get(target, 0.0 + 0.0j) + alpha * amp
    if prune_eps > 0.0:
        out = {c: a for c, a in out.items() if abs(a) >= prune_eps}
    return Superposition(out)


def measure(psi: Superposition, q_accept: frozenset[str], q_reject: frozenset[str]
            ) -> tuple[float, float, Superposition]:
    """Observe against the accept / reject / non-halting decomposition.

    Returns the probability mass measured into each halting outcome and
    the unrenormalized residual supported on non-halting states.
    """
    p_acc = 0.0
    p_rej = 0.0
    residual: dict[Configuration, complex] = {}
    for config, alpha in psi.amplitudes.items():
        if config.state in q_accept:
            p_acc += abs(alpha) ** 2
        elif config.state in q_reject:
            p_rej += abs(alpha) ** 2
        else:
            residual[config] = alpha
    return p_acc, p_rej, Superposition(residual)


def _ensure_well_formed(spec: QpaSpec, force: bool) -> None:
    if force:
        return
    summary = check_all(spec)
    if not summary.passed:
        raise NotWellFormedError(summary)


def recognize(spec: QpaSpec, word, max_steps: int | None = None,
              halt_eps: float = HALT_EPS, force: bool = False) -> RecognitionResult:
    """Run the measure-many recognition loop on one input word.

    Stops once the residual mass drops below ``halt_eps`` (halted) or
    after ``max_steps`` evolution steps (not halted); the leftover mass
    is reported as the non-halting probability.
    """
    _ensure_well_formed(spec, force)
    tape = TapeContext.from_word(spec, word)
    if max_steps is None:
        max_steps = default_max_steps(len(tape) - 2)
    psi = initial_superposition(spec, word)
    p_acc = 0.0
    p_rej = 0.0
    steps = 0
    halted = False
    while steps < max_steps:
        psi = apply_evolution(spec, tape, psi)
        steps += 1
        acc_inc, rej_inc, psi = measure(psi, spec.q_accept, spec.q_reject)
        p_acc += acc_inc
        p_rej += rej_inc
        if psi.norm_squared() < halt_eps:
            halted = True
            break
    return RecognitionResult(
        p_accept=p_acc,
        p_reject=p_rej,
        p_nonhalt=psi.norm_squared(),
        steps=steps,
        halted=halted,
    )


def trace(spec: QpaSpec, word, max_steps: int | None = None,
          halt_eps: float = HALT_EPS, force: bool = False) -> list[TraceStep]:
    """Like recognize, but snapshots every step's pre-observation state."""
    _ensure_well_formed(spec, force)
    tape = TapeContext.from_word(spec, word)
    if max_steps is None:
        max_steps = default_max_steps(len(tape) - 2)
    psi = initial_superposition(spec, word)
    p_acc = 0.0
    p_rej = 0.0
    out: list[TraceStep] = []
    for step in range(1, max_steps + 1):
        psi = apply_evolution(spec, tape, psi)
        pre_observation = tuple(psi.sorted_items())
        acc_inc, rej_inc, psi = measure(psi, spec.q_accept, spec.q_reject)
        p_acc += acc_inc
        p_rej += rej_inc
        residual = psi.norm_squared()
        out.append(TraceStep(
            step=step,
            entries=pre_observation,
            p_accept_inc=acc_inc,
            p_reject_inc=rej_inc,
            p_accept=p_acc,
            p_reject=p_rej,
            residual_norm_squared=residual,
        ))
        if residual < halt_eps:
            break
    return out
