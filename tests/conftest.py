"""Shared fixtures: broken tables, word generators, tiny DFAs and their classical run, table readers,
seeded banded matrices, and the banded-matrix probes of acceptance criterion 7."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from qpakit.evolve import Configuration, Superposition, TapeContext
from qpakit import matrixlab
from qpakit.matrixlab import TruncatedMatrix
from qpakit.model import (
    DEFAULT_TOL,
    Alphabets,
    DfaSpec,
    Direction,
    KIND_GENERAL,
    KIND_SIMPLIFIED,
    STACK_BASE,
    QpaError,
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


def initial_superposition(spec: QpaSpec, word: str) -> Superposition:
    """Unit mass on (initial state, head on the left marker, base stack)."""
    tape = TapeContext.from_word(spec, word)
    return Superposition.over(spec, tape, {Configuration(spec.q0, 0, (STACK_BASE,)): 1.0 + 0.0j})


def simulate_dfa(dfa: DfaSpec, word: str) -> bool:
    """Classical run of the DFA; the oracle for equivalence testing."""
    state = dfa.q0
    for ch in word:
        if ch not in dfa.sigma:
            raise QpaError(f"{ch!r} is not in the DFA alphabet")
        state = dfa.trans[(state, ch)]
    return state in dfa.finals


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


def interior_row_norms(matrix: TruncatedMatrix) -> np.ndarray:
    """Norms of the interior rows, in row order, from the dense matrix."""
    return np.linalg.norm(matrix.to_dense()[sorted(matrix.interior_rows)], axis=1)


def random_banded_matrix(n: int, bandwidth: int, seed: int) -> TruncatedMatrix:
    """Seeded random complex matrix supported on a band around the diagonal."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    r, c = np.indices((n, n))
    m[np.abs(r - c) > bandwidth] = 0.0
    rows, cols = np.nonzero(m)
    return TruncatedMatrix(n, rows, cols, m[rows, cols], range(n), range(n))


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
    return TruncatedMatrix(n, rows[keep], cols[keep], q[rows, cols][keep], range(m), range(n))


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
    return TruncatedMatrix(n, targets, range(m), signs, range(m), range(n))


# --- banded-matrix probes (acceptance criterion 7) -------------------------------


def shift_fixture(n: int) -> TruncatedMatrix:
    """Truncation of the shifted column-isometry with a split first column.

    Column 0 is (1/sqrt2, 1/sqrt2, 0, ...); column c >= 1 is the basis
    vector c + 1.  Columns 0..n-2 are interior (the last column's true
    entry falls outside the truncation); every row is interior.  Its
    truncations satisfy ``U*U = I`` on the interior while ``UU*`` does not.
    """
    if n < 3:
        raise ValueError("fixture needs dimension at least 3")
    inv = 1.0 / np.sqrt(2.0)
    rows = [0, 1] + [c + 1 for c in range(1, n - 1)]
    cols = [0, 0] + list(range(1, n - 1))
    vals = [inv, inv] + [1.0] * (n - 2)
    return TruncatedMatrix(n, rows, cols, vals, range(n - 1), range(n))


def banded_associativity_probe(a: TruncatedMatrix, b: TruncatedMatrix, c: TruncatedMatrix) -> float:
    """Max entrywise deviation between (AB)C and A(BC), on the dense arrays."""
    if not (a.dim == b.dim == c.dim):
        raise ValueError("dimension mismatch")
    am, bm, cm = a.to_dense(), b.to_dense(), c.to_dense()
    return float(np.abs((am @ bm) @ cm - am @ (bm @ cm)).max(initial=0.0))


def row_norm_bound_probe(matrix: TruncatedMatrix) -> float:
    """Max interior row norm of a verified column-isometry.

    Refuses (``QpaError``) unless the interior columns are orthonormal within
    ``DEFAULT_TOL``, since the bound only holds for isometries.
    """
    col_dev = matrixlab._col_gram_deviation(matrix)
    if not col_dev <= DEFAULT_TOL:      # NaN included
        raise QpaError(f"interior columns are not orthonormal (deviation {col_dev:.3g}); row bound not applicable")
    return float(interior_row_norms(matrix).max(initial=0.0))


def rows_pairwise_orthogonal_deviation(matrix: TruncatedMatrix) -> float:
    """Max |inner product| over distinct interior row pairs, NaN if an interior row holds NaN."""
    diag, off = matrixlab._gram(matrix.cols, matrix.rows, matrix.vals, matrix.interior_rows, matrix.dim)
    # 0 * diag is 0, or NaN for a row that holds one
    return float(np.abs(np.concatenate((0.0 * diag, off))).max(initial=0.0))
