"""Truncated evolution matrices over finite configuration windows.

The configuration space of a pushdown automaton is countable, so matrix
claims are checked on finite rectangular truncations: every
configuration whose stack is at most ``radius + 2`` symbols deep, over
every head position of a fixed framed tape.  Claims are only asserted on
interior indices, where truncation cannot fake or hide a deviation:

* a column is interior when every one-step successor of its
  configuration lies inside the window and no branch runs off the right
  end of the tape;
* a row is interior when every one-step predecessor lies inside the
  window and the head is not on the leftmost cell, a tape edge where
  configurations can lack advancing predecessors for structural
  reasons, as off-tape successors are a right-edge artifact.  The
  window holds every state, head and stack up to its depth, so a
  predecessor lies outside only by an entry into a full-depth row that
  pops a non-base symbol and pushes nothing.

The lab reads a spec's transitions only through its compiled table: its
ids, run rows (the columns) and entries (the interior rows).  A table
that holds an undeclared name (``CompiledTable.declared``) is refused
with ``StructureError`` and the structure check's violations, as
``check_all`` refuses it.  A window holds only its layout (sorted states, the tape's
heads, the stacks, enumerated once in sorted order), and its columns are
stepped as arrays over that layout: a configuration's successor is index
arithmetic on its position.  The ``configs`` and ``index`` views are built
on first access, and nothing on the way to the matrix and its check reads
them.  Deviations are judged against the condition suite's tolerance,
``model.DEFAULT_TOL`` by default, so a table and its windows get one
verdict, but for the tape ends: head-0 rows and branches past ``$`` are
boundary, so a defect in an entry on ``#`` or advancing off ``$`` can
fail the suite and pass every window.  Documentation elsewhere labels rows
and columns 1-based; all indices in this module are 0-based.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import product

import numpy as np

from .evolve import Configuration, TapeContext, _Run, _table
from .model import (ADVANCE_ID, DEFAULT_TOL, STAY_ID, QpaError, QpaSpec, StructureError, _Record, cached_on,
                    check_tolerance, validate_structure)

WINDOW_CAP = 10 ** 6
TEXT_MAX_DIM = 24          # largest dimension matrix_to_text prints as a grid


class WindowCapError(QpaError):
    """The requested window would exceed the cap on its configurations or stack symbols."""


class ConfigWindow(_Record, namedtuple("ConfigWindow",
                                        "tape states stacks interior_cols interior_rows stack_limit")):
    """An ordered finite slab of configuration space for one framed tape.

    Configuration ``i`` is the ``i``-th of ``states`` x heads x ``stacks``, in
    sorted order, and ``len`` counts them; ``configs`` and ``index`` are built
    on first access.  ``spec`` is the automaton the window was enumerated
    for, and ``entries`` its one-step entries inside the window as (rows,
    cols, amplitudes) in column order; neither is compared or printed.
    """

    def __new__(cls, tape: TapeContext, states: tuple[str, ...], stacks: tuple[tuple[str, ...], ...],
                interior_cols: frozenset[int], interior_rows: frozenset[int], stack_limit: int,
                spec: QpaSpec | None = None, entries: tuple = ((), (), ())):
        self = super().__new__(cls, tape, states, stacks, interior_cols, interior_rows, stack_limit)
        vars(self).update(spec=spec, entries=entries)
        return self

    def __len__(self) -> int:
        return len(self.states) * len(self.tape) * len(self.stacks)

    @cached_property
    def configs(self) -> tuple[Configuration, ...]:
        return tuple(Configuration(q, h, s)
                     for q, h, s in product(self.states, range(len(self.tape)), self.stacks))

    @cached_property
    def index(self) -> dict[Configuration, int]:
        return {c: i for i, c in enumerate(self.configs)}


def _in_range(at: np.ndarray, dim: int, what: str) -> np.ndarray:
    """``at``, an int64 index array, if every index lies in ``0..dim-1``, else ``ValueError``."""
    if at.size and at.view(np.uint64).max() >= dim:     # a negative index views as a huge one
        raise ValueError(f"{what} index outside 0..{dim - 1}")
    return at


class TruncatedMatrix(_Record, namedtuple("TruncatedMatrix", "dim rows cols vals interior_cols interior_rows")):
    """Sparse complex matrix, one entry per position, with interior index sets.

    The constructor takes any sequences and keeps int64 and complex arrays and frozensets.  Two entries
    at one position, or an entry index outside ``0..dim-1``, is a ``ValueError``; so is an interior index
    outside it, from the unitarity check, where the sets become arrays.
    """

    __slots__ = ()

    def __new__(cls, dim: int, rows, cols, vals, interior_cols, interior_rows):
        self = super().__new__(cls, dim, np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64),
                               np.asarray(vals, dtype=complex), frozenset(interior_cols), frozenset(interior_rows))
        at = _in_range(self.rows, dim, "row") * dim
        at += _in_range(self.cols, dim, "column")
        at.sort(kind="stable")     # loads no sort code beyond what the Gram pass loads
        if (at[1:] == at[:-1]).any():
            raise ValueError("two entries at one position")
        return self

    def to_dense(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        np.add.at(m, (self.rows, self.cols), self.vals)
        return m

    def triplets(self) -> list[tuple[int, int, float, float]]:
        order = np.lexsort((self.rows, self.cols))
        return [
            (int(self.rows[i]), int(self.cols[i]),
             float(self.vals[i].real), float(self.vals[i].imag))
            for i in order
        ]


UnitarityReport = namedtuple("UnitarityReport", "col_deviation row_deviation n_interior_cols n_interior_rows "
                                               "tolerance passed")


# --- windows over configuration space ----------------------------------------


def _count_stacks(n_symbols: int, stack_limit: int) -> int:
    """Stacks of depth 1 to ``stack_limit``; ``stack_limit`` is at least 1."""
    return stack_limit if n_symbols == 1 else (n_symbols ** stack_limit - 1) // (n_symbols - 1)


def _count_symbols(n: int, d: int) -> int:
    """Symbols on all stacks of depth 1 to ``d`` over ``n`` non-base symbols: the sum of i * n ** (i - 1)."""
    return d * (d + 1) // 2 if n == 1 else (d * n ** (d + 1) - (d + 1) * n ** d + 1) // (n - 1) ** 2


class _Steps:
    """A spec's run rows (``evolve._Table``) as flat arrays; built once and cached on the spec.

    Per entry, in table order: ``entries``, ``adv``, ``target``, ``pops``, ``push`` (child-table columns,
    see ``enumerate_window``, padded with -1), ``amp`` and ``based``.  Group ``g`` is the rows of the (state,
    tape, top) ids coded ``codes[g]``, ascending: ``count[g]`` entries from ``start[g]``; the group after the
    last is empty, under a sentinel code.
    """

    def __init__(self, spec: QpaSpec):
        table = _table(spec)
        self.ids = ids = table.ids
        if not ids.declared:
            raise StructureError(validate_structure(spec))
        self.digits = [y for y in range(len(ids.syms)) if y != ids.base]
        col = {y: i for i, y in enumerate(self.digits)}
        self.entries = es = [e for q, t, y in ids.sources for e in table.rows[t][q][y]]
        self.codes = np.array([(q * len(ids.tapes) + t) * len(ids.syms) + y for q, t, y in ids.sources] + [2 ** 62])
        self.count = np.array([len(group) for group in ids.sources.values()] + [0])
        self.start = np.cumsum(self.count) - self.count
        dhq = np.array([e[0] for e in es], dtype=np.int64)
        self.adv, self.target = dhq >> table.qbits, dhq & ((1 << table.qbits) - 1)
        self.pops, self.based = (np.array([e[i] for e in es], dtype=bool) for i in (1, 4))
        self.amp = np.array([e[3] for e in es], dtype=complex)
        w = max((len(e[2]) for e in es), default=0)
        self.push = np.array([[col.get(y, len(col)) for y in e[2]] + [-1] * (w - len(e[2])) for e in es],
                             dtype=np.int64).reshape(len(es), w)
        # the entries whose source can lie outside a window (module docstring), by (q, sigma, d) ids
        self.deeper = np.zeros((len(ids.states), len(ids.tapes), 2), dtype=bool)
        for _, sigma, tau, q, d, omega, _, _ in ids.entries:
            if tau != ids.base and not omega:
                self.deeper[q, sigma, d] = True


def enumerate_window(spec: QpaSpec, word: str, radius: int, cap: int = WINDOW_CAP) -> ConfigWindow:
    """Rectangular window: all stacks up to depth ``radius + 2`` over the tape.

    The depth budget covers everything a run can reach in ``radius``
    steps plus one padding layer, so depth-``radius + 1`` rows and
    columns can still be interior.  Interior sets are computed exactly
    from the transition relation, never guessed from index position.
    More than ``cap`` configurations, or stack symbols in all, is a ``WindowCapError``, and a
    table that holds an undeclared name a ``StructureError``.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    tape = TapeContext.from_word(spec, word)
    stack_limit = radius + 2
    # with two or more stack symbols every layer at least doubles the count,
    # so more than cap.bit_length() + 1 layers are over the cap already
    n_symbols = len(spec.alphabets.t)
    depth = stack_limit if n_symbols < 2 else min(stack_limit, cap.bit_length() + 1)
    if len(spec.states) * len(tape) * _count_stacks(n_symbols, depth) > cap:
        raise WindowCapError(f"window of radius {radius} exceeds the cap of {cap} configurations")
    if _count_symbols(n_symbols, stack_limit) > cap:
        raise WindowCapError(f"window of radius {radius} exceeds the cap of {cap} stack symbols")

    # Depth first, children in ascending id: stacks come out sorted.  Stack j has a top, a parent (the empty
    # stack is n_stacks, "outside" n_stacks + 1) and, below full depth, its own row inner[j] of children.
    steps = cached_on(spec, "_window_steps", _Steps)
    ids, digits = steps.ids, steps.digits
    stacks, links, todo = [], [], [(-1, len(digits), (ids.syms[ids.base],))]
    while todo:
        *link, stack = todo.pop()
        links.append(link)
        stacks.append(stack)
        if len(stack) < stack_limit:
            todo += [(len(links) - 1, i, stack + (ids.syms[digits[i]],)) for i in reversed(range(len(digits)))]
    n_stacks = len(stacks)
    parent, digit = np.array(links).T
    parent[0] = n_stacks
    short = np.fromiter(map(len, stacks), np.int64, n_stacks) < stack_limit
    inner = np.append(np.where(short, np.cumsum(short) - 1, -1), [-1, -1])
    child = np.full((np.count_nonzero(short) + 1, len(digits) + 1), n_stacks + 1)
    child[inner[parent[1:]], digit[1:]] = np.arange(1, n_stacks)

    # configuration b * n_stacks + j is block b = (state, head) on stack j; its
    # group codes the block's state and tape ids with stack j's top
    tape_ids = [ids.tape_id[c] for c in tape.symbols]
    codes = np.add.outer(np.add.outer(np.arange(len(ids.states)) * len(ids.tapes), tape_ids) * len(ids.syms),
                         np.array(digits + [ids.base])[digit]).ravel()
    at = np.searchsorted(steps.codes, codes)
    layout = (spec, steps, tape, stacks, parent, inner, child)
    rows, cols, vals, boundary = step_targets(layout, np.where(steps.codes[at] == codes, at, -1))

    # Interior rows, a mask over the stacks per block: head 0 is boundary, and so is
    # full depth where a ``deeper`` entry leads in
    interior = np.ones((len(ids.states), len(tape), n_stacks), dtype=bool)
    interior[:, 0] = False
    full = steps.deeper[:, tape_ids[1:], STAY_ID] | steps.deeper[:, tape_ids[:-1], ADVANCE_ID]
    interior[:, 1:] &= ~full[..., None] | short

    return ConfigWindow(tape=tape, states=tuple(ids.states), stacks=tuple(stacks),
                        interior_cols=frozenset(np.flatnonzero(~boundary).tolist()),
                        interior_rows=frozenset(np.flatnonzero(interior).tolist()),
                        stack_limit=stack_limit, spec=spec, entries=(rows, cols, vals))


def step_targets(layout: tuple, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One step of every configuration of a window, as one pass over its layout.

    ``layout`` is ``(spec, steps, tape, stacks, parent, inner, child)`` as ``enumerate_window`` lays
    it out, and ``groups[c]`` is column ``c``'s group of ``_Steps`` rows.  Returns the entries inside the
    window, ``(rows, cols, amplitudes)`` in column and then table order, and the mask of boundary columns:
    those with a successor outside the window, or with a branch past the end marker, which has no target.
    """
    spec, steps, tape, stacks, parent, inner, child = layout
    n = steps.count[groups]
    cols = np.repeat(np.arange(len(groups)), n)
    e = np.repeat(steps.start[groups] - (np.cumsum(n) - n), n) + np.arange(len(cols))
    block, stack = np.divmod(cols, len(stacks))
    head = block % len(tape) + steps.adv[e]
    past = head >= len(tape)
    lost = np.flatnonzero(~(steps.based[e] | past))
    if lost.size:
        i = lost[0]
        q, h = divmod(int(block[i]), len(tape))
        run = _Run(spec, tape)
        key = run.key(Configuration(steps.ids.states[q], h, stacks[stack[i]]))
        raise run.step_error(key, None, [steps.entries[e[i]]])
    s = np.where(steps.pops[e], parent[stack], stack)
    for pushed in steps.push[e].T:
        s = np.where(pushed < 0, s, child[inner[s], pushed])
    inside = ~past & (s < len(stacks))
    boundary = np.bincount(cols[~inside], minlength=len(groups)) > 0
    at = (steps.target[e] * len(tape) + head) * len(stacks) + s
    return at[inside], cols[inside], steps.amp[e[inside]], boundary


def build_matrix(spec: QpaSpec, window: ConfigWindow) -> TruncatedMatrix:
    """Entry (r, c): amplitude with which configuration c maps to r in one step.

    Reads the entries ``enumerate_window`` stepped, for ``spec`` only.
    """
    if window.spec is not spec:
        raise QpaError("the window was not enumerated for this automaton")
    return TruncatedMatrix(len(window), *window.entries, window.interior_cols, window.interior_rows)


# --- unitarity checks ---------------------------------------------------------


def _gram(shared: np.ndarray, paired: np.ndarray, vals: np.ndarray, interior: frozenset[int],
          dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Gram terms G[i, j] = sum over s of conj(M[s, i]) M[s, j] for i, j in ``interior``.

    Entry k of M sits at (``shared[k]``, ``paired[k]``).  Returns G's diagonal
    over ``interior`` and its terms i < j that share an s, each summed in
    ascending s; every other term is zero.  No dim x dim array is built.
    """
    inside = np.zeros(dim, dtype=bool)
    inside[_in_range(np.fromiter(interior, dtype=np.int64, count=len(interior)), dim, "interior")] = True
    keep = inside[paired]
    order = np.lexsort((paired[keep], shared[keep]))
    s, p, v = shared[keep][order], paired[keep][order], vals[keep][order]
    diag = np.zeros(dim, dtype=complex)
    np.add.at(diag, p, v.conj() * v)
    # entry x pairs with the n[x] entries after it on its shared index, in order
    n = np.searchsorted(s, s, side="right") - np.arange(len(s)) - 1
    i = np.repeat(np.arange(len(s)), n)
    j = np.arange(len(i)) - np.repeat(np.cumsum(n) - n, n) + i + 1
    pairs, slot = np.unique(p[i] * dim + p[j], return_inverse=True)
    off = np.zeros(len(pairs), dtype=complex)
    np.add.at(off, slot, v[i].conj() * v[j])
    return diag[inside], off


def _col_gram_deviation(matrix: TruncatedMatrix) -> float:
    """max |G - I| over the Gram matrix G of the interior columns, NaN if any term is.

    One pass over the entries: see ``_gram``.
    """
    diag, off = _gram(matrix.rows, matrix.cols, matrix.vals, matrix.interior_cols, matrix.dim)
    return float(np.abs(np.concatenate((diag - 1.0, off))).max(initial=0.0))


def _row_deviation(matrix: TruncatedMatrix) -> float:
    """max |n - 1| over the squared norms n of the interior rows, NaN if any is."""
    norms2 = np.bincount(matrix.rows, np.abs(matrix.vals) ** 2, matrix.dim)
    interior = np.fromiter(matrix.interior_rows, dtype=np.int64, count=len(matrix.interior_rows))
    return float(np.abs(norms2[_in_range(interior, matrix.dim, "interior")] - 1.0).max(initial=0.0))


def check_truncated_unitarity(matrix: TruncatedMatrix, tol: float = DEFAULT_TOL) -> UnitarityReport:
    """Interior columns pairwise orthonormal and interior rows unit-norm, within a finite ``tol`` >= 0."""
    check_tolerance(tol)
    col_dev = _col_gram_deviation(matrix)
    row_dev = _row_deviation(matrix)
    return UnitarityReport(col_dev, row_dev, len(matrix.interior_cols), len(matrix.interior_rows), tol,
                           col_dev <= tol and row_dev <= tol)


# --- output --------------------------------------------------------------------


def matrix_to_dict(matrix: TruncatedMatrix) -> dict:
    return {
        "dim": matrix.dim,
        "interior_cols": sorted(matrix.interior_cols),
        "interior_rows": sorted(matrix.interior_rows),
        "triplets": [list(t) for t in matrix.triplets()],
    }


def matrix_to_text(matrix: TruncatedMatrix) -> str:
    """Plain-text grid for small matrices; real parts only when all-real."""
    if matrix.dim > TEXT_MAX_DIM:
        return f"<{matrix.dim}x{matrix.dim} matrix; too large to print>"
    dense = matrix.to_dense()
    all_real = bool(np.all(dense.imag == 0.0))
    return "\n".join(" ".join(f"{v.real:8.4f}" if all_real else f"{v.real:7.3f}{v.imag:+7.3f}i" for v in row)
                     for row in dense)
