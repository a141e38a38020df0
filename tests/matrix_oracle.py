"""The tuple-stack matrix lab, kept as the reference for ``qpakit.matrixlab``.

This is window enumeration and matrix building as they were before the
lab stepped the run's compiled rows: every configuration is stepped as
a tuple with ``evolve_oracle.step_targets``, once for the interior
columns and once more for the matrix, stacks come from
``itertools.product`` and configurations from a sort, and interior rows
come from inverting the transition relation.  ``tests/test_matrix_oracle.py``
requires the same windows, interior sets and triplet arrays, element for
element, and the same error on tables that lose the stack base.
"""
from __future__ import annotations

from itertools import product

from qpakit.evolve import Configuration, TapeContext
from qpakit.matrixlab import (
    WINDOW_CAP,
    ConfigWindow,
    TruncatedMatrix,
    WindowCapError,
    _count_stacks,
    _matrix_from_triplets,
)
from qpakit.model import Direction, STACK_BASE, QpaSpec

from evolve_oracle import step_targets


def enumerate_window(spec: QpaSpec, word, radius: int, cap: int = WINDOW_CAP) -> ConfigWindow:
    """Rectangular window: all stacks up to depth ``radius + 2`` over the tape."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    tape = TapeContext.from_word(spec, word)
    stack_limit = radius + 2
    n_states = len(spec.states)
    n_stacks = _count_stacks(len(spec.alphabets.t), stack_limit)
    predicted = n_states * len(tape) * n_stacks
    if predicted > cap:
        raise WindowCapError(
            f"window of {predicted} configurations exceeds the cap of {cap}")

    stacks = _enumerate_stacks(spec.alphabets.t_sorted(), stack_limit)
    configs = sorted(
        Configuration(q, h, s)
        for q in spec.states
        for h in range(len(tape))
        for s in stacks
    )
    index = {c: i for i, c in enumerate(configs)}

    interior_cols = set()
    for i, c in enumerate(configs):
        targets, overran = step_targets(spec, tape, c)
        if overran:
            continue
        if all(t in index for t, _ in targets):
            interior_cols.add(i)

    by_target = _predecessor_index(spec)
    interior_rows = set()
    for i, c in enumerate(configs):
        if c.head == 0:
            continue
        if _preds_inside(spec, tape, c, by_target, stack_limit):
            interior_rows.add(i)

    return ConfigWindow(
        tape=tape,
        configs=tuple(configs),
        index=index,
        interior_cols=frozenset(interior_cols),
        interior_rows=frozenset(interior_rows),
        stack_limit=stack_limit,
    )


def _enumerate_stacks(t_symbols: tuple[str, ...], stack_limit: int) -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    for depth in range(stack_limit):
        for tail in product(t_symbols, repeat=depth):
            out.append((STACK_BASE, *tail))
    return out


def _predecessor_index(spec: QpaSpec):
    """(target state, tape symbol, direction) -> [(source state, popped, push word, amp)]."""
    by_target = {}
    for k in spec.sorted_keys():
        by_target.setdefault((k.q, k.sigma, k.d), []).append(
            (k.q1, k.tau, k.omega, spec.delta[k]))
    return by_target


def predecessors(spec: QpaSpec, tape: TapeContext, config: Configuration
                 ) -> list[tuple[Configuration, complex]]:
    """All configurations that reach ``config`` in one step, with amplitudes.

    Inverts the transition relation: a push word must be a suffix of the
    target stack, and the source stack is the remaining prefix with the
    popped symbol back on top.
    """
    by_target = _predecessor_index(spec)
    out: list[tuple[Configuration, complex]] = []
    for d, head in ((Direction.STAY, config.head), (Direction.ADVANCE, config.head - 1)):
        if head < 0:
            continue
        sigma = tape.symbols[head]
        for q1, tau, omega, amp in by_target.get((config.state, sigma, d), ()):
            n = len(omega)
            if n and config.stack[len(config.stack) - n:] != omega:
                continue
            base = config.stack[:len(config.stack) - n]
            if (tau == STACK_BASE) != (len(base) == 0):
                continue
            source = Configuration(q1, head, base + (tau,))
            out.append((source, amp))
    return out


def _preds_inside(spec, tape, config, by_target, stack_limit) -> bool:
    for d, head in ((Direction.STAY, config.head), (Direction.ADVANCE, config.head - 1)):
        if head < 0:
            continue
        sigma = tape.symbols[head]
        for q1, tau, omega, amp in by_target.get((config.state, sigma, d), ()):
            n = len(omega)
            if n and config.stack[len(config.stack) - n:] != omega:
                continue
            base = config.stack[:len(config.stack) - n]
            if (tau == STACK_BASE) != (len(base) == 0):
                continue
            if len(base) + 1 > stack_limit or q1 not in spec.states or tau not in spec.alphabets.delta_alpha:
                return False
    return True


def build_matrix(spec: QpaSpec, window: ConfigWindow) -> TruncatedMatrix:
    """Entry (r, c): amplitude with which configuration c maps to r in one step."""
    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []
    for c_idx, config in enumerate(window.configs):
        targets, _ = step_targets(spec, window.tape, config)
        for target, amp in targets:
            r_idx = window.index.get(target)
            if r_idx is not None:
                rows.append(r_idx)
                cols.append(c_idx)
                vals.append(amp)
    return _matrix_from_triplets(
        len(window.configs), rows, cols, vals,
        window.interior_cols, window.interior_rows)
