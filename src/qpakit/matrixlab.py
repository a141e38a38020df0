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
  window holds every declared state, head and stack up to its depth, so
  a predecessor lies outside only by an entry from an undeclared state
  or popping an undeclared symbol, or, into a full-depth row, by one
  that pops a non-base symbol and pushes nothing.  An entry reaches a
  row when it reads the row's cell (stay) or the one to its left
  (advance), the stack ends with its push word and the base rule
  holds, so the test is exact.

Window stacks are interned once each, by one push from the parent on a
run's stack trie.  Documentation elsewhere labels rows and columns
1-based; all indices in this module are 0-based.

The module also ships the standalone fixtures used to probe the banded
matrix facts: a shifted column-isometry whose truncations satisfy
``U*U = I`` while ``UU*`` does not, seeded random banded isometries, and
an associativity probe for banded triples.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np
import scipy.sparse as sp

from .evolve import Configuration, TapeContext, _Run, step_targets
from .model import Direction, STACK_BASE, QpaError, QpaSpec

GRAM_DENSE_LIMIT = 160     # dimension from which the Gram checks go sparse
WINDOW_CAP = 10 ** 6
DEFAULT_MATRIX_TOL = 1e-8


class WindowCapError(QpaError):
    """The requested window would exceed the configuration cap."""


@dataclass(frozen=True)
class ConfigWindow:
    """An ordered finite slab of configuration space for one framed tape."""

    tape: TapeContext
    configs: tuple[Configuration, ...]
    index: dict[Configuration, int]
    interior_cols: frozenset[int]
    interior_rows: frozenset[int]
    stack_limit: int
    # the automaton the window was enumerated for, and its one-step
    # entries inside the window as (rows, cols, amplitudes) in column order
    spec: QpaSpec | None = field(default=None, repr=False, compare=False)
    entries: tuple = field(default=((), (), ()), repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.configs)


@dataclass(frozen=True)
class TruncatedMatrix:
    """Sparse complex matrix with explicit interior index sets."""

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    interior_cols: frozenset[int]
    interior_rows: frozenset[int]

    def to_sparse(self) -> sp.csc_matrix:
        return sp.csc_matrix(
            (self.vals, (self.rows, self.cols)), shape=(self.dim, self.dim))

    def to_dense(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        np.add.at(m, (self.rows, self.cols), self.vals)
        return m

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = np.zeros(self.dim, dtype=complex)
        np.add.at(y, self.rows, self.vals * x[self.cols])
        return y

    def triplets(self) -> list[tuple[int, int, float, float]]:
        order = np.lexsort((self.rows, self.cols))
        return [
            (int(self.rows[i]), int(self.cols[i]),
             float(self.vals[i].real), float(self.vals[i].imag))
            for i in order
        ]


@dataclass(frozen=True)
class UnitarityReport:
    col_deviation: float
    row_deviation: float
    n_interior_cols: int
    n_interior_rows: int
    tolerance: float
    passed: bool


def _matrix_from_triplets(dim, rows, cols, vals, interior_cols, interior_rows) -> TruncatedMatrix:
    return TruncatedMatrix(
        dim=dim,
        rows=np.asarray(rows, dtype=np.int64),
        cols=np.asarray(cols, dtype=np.int64),
        vals=np.asarray(vals, dtype=complex),
        interior_cols=frozenset(interior_cols),
        interior_rows=frozenset(interior_rows),
    )


# --- windows over configuration space ----------------------------------------


def _count_stacks(n_symbols: int, stack_limit: int) -> int:
    """Stacks of depth 1 to ``stack_limit``; ``stack_limit`` is at least 1."""
    return stack_limit if n_symbols == 1 else (n_symbols ** stack_limit - 1) // (n_symbols - 1)


def enumerate_window(spec: QpaSpec, word, radius: int, cap: int = WINDOW_CAP) -> ConfigWindow:
    """Rectangular window: all stacks up to depth ``radius + 2`` over the tape.

    The depth budget covers everything a run can reach in ``radius``
    steps plus one padding layer, so depth-``radius + 1`` rows and
    columns can still be interior.  Interior sets are computed exactly
    from the transition relation, never guessed from index position.
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

    # Depth first on the run's stack trie, children in ascending id (sorted-name
    # order): one push interns each stack, and configurations come out sorted.
    run = _Run(spec, tape)
    ids = run.table.ids
    children = sorted((ids.sym_id[s] for s in spec.alphabets.t), reverse=True)
    stacks = []
    todo = [(run.push(0, ids.sym_id[STACK_BASE]), (STACK_BASE,))]
    while todo:
        sid, stack = todo.pop()
        stacks.append((sid, stack))
        if len(stack) < stack_limit:
            todo += [(run.push(sid, c), stack + (ids.syms[c],)) for c in children]
    states, heads = sorted(spec.states), range(len(tape))
    configs = [Configuration(q, h, s) for q, h, (_, s) in product(states, heads, stacks)]
    index = {c: i for i, c in enumerate(configs)}
    by_key = {run.pack(sid, h, ids.state_id[q]): i
              for i, (q, h, (sid, _)) in enumerate(product(states, heads, stacks))}
    interior_cols = set()
    rows, cols, vals = [], [], []
    for key, c_idx in by_key.items():
        targets, overran = step_targets(run, key)
        inside = not overran
        for target, amp in targets:
            r_idx = by_key.get(target)
            if r_idx is None:
                inside = False
            else:
                rows.append(r_idx)
                cols.append(c_idx)
                vals.append(amp)
        if inside:
            interior_cols.add(c_idx)

    # The entries whose source can lie outside the window (module docstring)
    deeper, outside = set(), {}
    for k in spec.delta:
        if k.q1 not in spec.states or k.tau not in spec.alphabets.delta_alpha:
            outside.setdefault((k.q, k.sigma, k.d), []).append((k.omega, k.tau == STACK_BASE))
        elif k.tau != STACK_BASE and not k.omega:
            deeper.add((k.q, k.sigma, k.d))
    interior_rows = []
    for b, (q, h) in enumerate(product(states, heads)):
        cells = ((q, tape.symbols[h], Direction.STAY), (q, tape.symbols[h - 1], Direction.ADVANCE))
        full = any(cell in deeper for cell in cells)
        foreign = [e for cell in cells for e in outside.get(cell, ())]
        interior_rows += [
            b * len(stacks) + j for j, (_, s) in enumerate(stacks)
            if h and not (full and len(s) == stack_limit) and not (foreign and any(
                s[len(s) - len(w):] == w and based == (len(s) == len(w)) for w, based in foreign))]

    return ConfigWindow(tape=tape, configs=tuple(configs), index=index,
                        interior_cols=frozenset(interior_cols), interior_rows=frozenset(interior_rows),
                        stack_limit=stack_limit, spec=spec, entries=(rows, cols, vals))


def build_matrix(spec: QpaSpec, window: ConfigWindow) -> TruncatedMatrix:
    """Entry (r, c): amplitude with which configuration c maps to r in one step.

    Reads the entries ``enumerate_window`` stepped, for ``spec`` only.
    """
    if window.spec is not spec:
        raise QpaError("the window was not enumerated for this automaton")
    return _matrix_from_triplets(
        len(window.configs), *window.entries,
        window.interior_cols, window.interior_rows)


# --- unitarity checks ---------------------------------------------------------


def _col_gram_deviation(matrix: TruncatedMatrix, dense: bool | None = None) -> float:
    """max |G - I| over the Gram matrix G of the interior columns, NaN if any entry is.

    Dense below ``GRAM_DENSE_LIMIT``, sparse from there on, unless
    ``dense`` says otherwise; both give the same number.
    """
    interior = sorted(matrix.interior_cols)
    if not interior:
        return 0.0
    if dense is None:
        dense = matrix.dim < GRAM_DENSE_LIMIT
    if dense:
        sub, eye = matrix.to_dense()[:, interior], np.eye(len(interior))
    else:
        sub, eye = matrix.to_sparse()[:, interior], sp.identity(len(interior))
    return float(abs(sub.conj().T @ sub - eye).max())


def _interior_row_norms_squared(matrix: TruncatedMatrix) -> np.ndarray:
    out = np.zeros(matrix.dim, dtype=float)
    np.add.at(out, matrix.rows, np.abs(matrix.vals) ** 2)
    return out[sorted(matrix.interior_rows)]


def _row_deviation(matrix: TruncatedMatrix) -> float:
    norms2 = _interior_row_norms_squared(matrix)
    return float(np.abs(norms2 - 1.0).max()) if norms2.size else 0.0


def check_truncated_unitarity(matrix: TruncatedMatrix,
                              tol: float = DEFAULT_MATRIX_TOL) -> UnitarityReport:
    """Interior columns pairwise orthonormal and interior rows unit-norm."""
    col_dev = _col_gram_deviation(matrix)
    row_dev = _row_deviation(matrix)
    return UnitarityReport(
        col_deviation=col_dev,
        row_deviation=row_dev,
        n_interior_cols=len(matrix.interior_cols),
        n_interior_rows=len(matrix.interior_rows),
        tolerance=tol,
        passed=col_dev <= tol and row_dev <= tol,
    )


def row_norm_bound_probe(matrix: TruncatedMatrix, tol: float = 1e-9) -> float:
    """Max interior row norm of a verified column-isometry.

    Refuses to answer unless the interior columns are orthonormal, since
    the bound only holds for isometries.
    """
    col_dev = _col_gram_deviation(matrix)
    if not col_dev <= tol:      # NaN included
        raise QpaError(
            f"interior columns are not orthonormal (deviation {col_dev:.3g}); "
            "row bound not applicable")
    norms2 = _interior_row_norms_squared(matrix)
    return float(np.sqrt(norms2.max())) if norms2.size else 0.0


def interior_row_norms(matrix: TruncatedMatrix) -> np.ndarray:
    return np.sqrt(_interior_row_norms_squared(matrix))


def rows_pairwise_orthogonal_deviation(matrix: TruncatedMatrix) -> float:
    """Max |inner product| over distinct interior row pairs."""
    interior = sorted(matrix.interior_rows)
    if len(interior) < 2:
        return 0.0
    dense = matrix.to_dense()[interior, :]
    gram = dense @ dense.conj().T
    np.fill_diagonal(gram, 0.0)
    return float(np.abs(gram).max())


# --- fixtures and probes --------------------------------------------------------


def shift_fixture(n: int) -> TruncatedMatrix:
    """Truncation of the shifted column-isometry with a split first column.

    Column 0 is (1/sqrt2, 1/sqrt2, 0, ...); column c >= 1 is the basis
    vector c + 1.  Columns 0..n-2 are interior (the last column's true
    entry falls outside the truncation); every row is interior.
    """
    if n < 3:
        raise ValueError("fixture needs dimension at least 3")
    inv = 1.0 / np.sqrt(2.0)
    rows = [0, 1] + [c + 1 for c in range(1, n - 1)]
    cols = [0, 0] + list(range(1, n - 1))
    vals = [inv, inv] + [1.0] * (n - 2)
    return _matrix_from_triplets(n, rows, cols, vals, range(n - 1), range(n))


def banded_associativity_probe(a: TruncatedMatrix, b: TruncatedMatrix,
                               c: TruncatedMatrix) -> float:
    """Max entrywise deviation between (AB)C and A(BC)."""
    if not (a.dim == b.dim == c.dim):
        raise ValueError("dimension mismatch")
    am, bm, cm = a.to_sparse(), b.to_sparse(), c.to_sparse()
    diff = ((am @ bm) @ cm - am @ (bm @ cm)).tocoo()
    return float(np.abs(diff.data).max()) if diff.nnz else 0.0


def random_banded_matrix(n: int, bandwidth: int, seed: int) -> TruncatedMatrix:
    """Seeded random complex matrix supported on a band around the diagonal."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    r, c = np.indices((n, n))
    m[np.abs(r - c) > bandwidth] = 0.0
    rows, cols = np.nonzero(m)
    return _matrix_from_triplets(n, rows, cols, m[rows, cols], range(n), range(n))


def random_banded_isometry(n: int, m: int, bandwidth: int, seed: int) -> TruncatedMatrix:
    """Orthonormalized random banded columns; an exact n x m column-isometry.

    QR factorization of a banded matrix keeps the lower profile, so the
    result stays banded; dropping trailing columns (m < n) leaves the
    remaining columns orthonormal while freeing some rows to have norm
    below one.  Returned as an n x n matrix whose last n - m columns are
    zero and excluded from the interior set.
    """
    if not (1 <= m <= n):
        raise ValueError("need 1 <= m <= n")
    base = random_banded_matrix(n, bandwidth, seed).to_dense()
    q, _ = np.linalg.qr(base)
    q = q[:, :m]
    rows, cols = np.nonzero(q)
    keep = np.abs(q[rows, cols]) > 0.0
    return _matrix_from_triplets(
        n, rows[keep], cols[keep], q[rows, cols][keep], range(m), range(n))


def random_partial_permutation(n: int, m: int, max_shift: int, seed: int) -> TruncatedMatrix:
    """Signed partial permutation: m distinct basis columns inside a band.

    Columns are orthonormal and every row norm is exactly 0 or 1, so the
    rows are pairwise orthogonal.
    """
    if not (1 <= m <= n):
        raise ValueError("need 1 <= m <= n")
    rng = np.random.default_rng(seed)
    targets: list[int] = []
    used = set()
    for j in range(m):
        lo = max(0, j - max_shift)
        hi = min(n - 1, j + max_shift)
        choices = [r for r in range(lo, hi + 1) if r not in used]
        if not choices:
            choices = [r for r in range(n) if r not in used]
        r = int(rng.choice(choices))
        used.add(r)
        targets.append(r)
    signs = rng.choice([-1.0, 1.0], size=m)
    return _matrix_from_triplets(
        n, targets, list(range(m)), signs, range(m), range(n))


# --- vectors over windows -------------------------------------------------------


def superposition_to_vector(window: ConfigWindow, psi) -> np.ndarray:
    vec = np.zeros(len(window.configs), dtype=complex)
    for config, amp in psi.amplitudes.items():
        idx = window.index.get(config)
        if idx is None:
            raise QpaError(f"configuration {config} lies outside the window")
        vec[idx] = amp
    return vec


def matrix_to_dict(matrix: TruncatedMatrix) -> dict:
    return {
        "dim": matrix.dim,
        "interior_cols": sorted(matrix.interior_cols),
        "interior_rows": sorted(matrix.interior_rows),
        "triplets": [list(t) for t in matrix.triplets()],
    }


def matrix_to_text(matrix: TruncatedMatrix, max_dim: int = 24) -> str:
    """Plain-text grid for small matrices; real parts only when all-real."""
    if matrix.dim > max_dim:
        return f"<{matrix.dim}x{matrix.dim} matrix; too large to print>"
    dense = matrix.to_dense()
    all_real = bool(np.all(dense.imag == 0.0))
    lines = []
    for r in range(matrix.dim):
        cells = []
        for c in range(matrix.dim):
            v = dense[r, c]
            cells.append(f"{v.real:8.4f}" if all_real else f"{v.real:7.3f}{v.imag:+7.3f}i")
        lines.append(" ".join(cells))
    return "\n".join(lines)
