"""Truncated matrices: window honesty, unitarity duality, banded fixtures."""
import math
import tracemalloc

import numpy as np
import pytest

from qpakit import matrixlab, zoo
from qpakit.dfa2rpa import compile_dfa
from qpakit.evolve import Configuration, apply_evolution
from qpakit.matrixlab import (
    TEXT_MAX_DIM,
    WINDOW_CAP,
    TruncatedMatrix,
    WindowCapError,
    _col_gram_deviation,
    _gram,
    build_matrix,
    check_truncated_unitarity,
    enumerate_window,
    matrix_to_dict,
    matrix_to_text,
)
from qpakit.model import DEFAULT_TOL, Direction, QpaError, STACK_BASE

from conftest import (
    ADV,
    STAY,
    banded_associativity_probe,
    initial_superposition,
    interior_row_norms,
    make_spec,
    random_banded_isometry,
    random_banded_matrix,
    random_partial_permutation,
    random_total_dfa,
    row_norm_bound_probe,
    rows_pairwise_orthogonal_deviation,
    shift_fixture,
    words_up_to,
)

Z = STACK_BASE


class TestWindow:
    def test_contains_initial_configuration(self):
        spec = zoo.l1_rpa().spec
        w = enumerate_window(spec, "1", 0)
        assert Configuration("q0", 0, (Z,)) in w.index

    def test_deterministic_ordering(self):
        spec = zoo.l2_rpa().spec
        a = enumerate_window(spec, "ab", 2)
        b = enumerate_window(spec, "ab", 2)
        assert a.configs == b.configs
        assert list(a.configs) == sorted(a.configs)

    def test_cap_exceeded(self):
        spec = zoo.l2_rpa().spec
        with pytest.raises(WindowCapError):
            enumerate_window(spec, "ab", 40)

    @pytest.mark.parametrize("radius", [40, 14000, 100000])
    def test_cap_message_names_the_cap_not_the_count(self, radius):
        spec = zoo.l2_rpa().spec
        with pytest.raises(WindowCapError) as info:
            enumerate_window(spec, "ab", radius)
        assert str(info.value) == (
            f"window of radius {radius} exceeds the cap of {WINDOW_CAP} configurations")

    def test_cap_is_exact(self):
        spec = zoo.l2_rpa().spec
        dim = len(enumerate_window(spec, "ab", 3))
        assert len(enumerate_window(spec, "ab", 3, cap=dim)) == dim
        with pytest.raises(WindowCapError):
            enumerate_window(spec, "ab", 3, cap=dim - 1)

    def test_cap_counts_stack_symbols(self):
        # one state, one stack symbol, word "": 2 heads, and depth d holds d symbols
        spec = zoo.nonunitary_example()
        assert len(enumerate_window(spec, "", 2, cap=10)) == 8     # 4 stacks holding 10 symbols
        with pytest.raises(WindowCapError) as info:
            enumerate_window(spec, "", 2, cap=9)
        assert str(info.value) == "window of radius 2 exceeds the cap of 9 stack symbols"
        with pytest.raises(WindowCapError) as info:     # 10,000 configurations, 12,502,500 symbols
            enumerate_window(spec, "", 4998, cap=10_000)
        assert str(info.value) == "window of radius 4998 exceeds the cap of 10000 stack symbols"

    def test_memory_grows_with_the_window_not_the_square_of_the_stack_alphabet(self):
        # 4000 stack symbols at radius 0: 8002 configurations, and only the base stack has children,
        # so a child table with a row per stack and a column per symbol would take 128 MB
        spec = make_spec(sigma={"a"}, t={f"s{i:04d}" for i in range(4000)}, states={"q"}, q0="q",
                         q_acc=(), q_rej=(), entries=[("q", "#", Z, "q", STAY, (Z, "s0001"), 1.0)])
        tracemalloc.start()
        try:
            assert len(enumerate_window(spec, "", 0)) == 8002
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, peak

    def test_leftmost_rows_are_boundary(self):
        spec = zoo.l1_rpa().spec
        w = enumerate_window(spec, "1", 2)
        for i in w.interior_rows:
            assert w.configs[i].head >= 1

    def test_one_step_targets_call_per_window(self, monkeypatch):
        calls = []
        original = matrixlab.step_targets

        def counted(run, keys):
            calls.append(len(keys))
            return original(run, keys)

        monkeypatch.setattr(matrixlab, "step_targets", counted)
        w = enumerate_window(zoo.l2_rpa().spec, "ab", 2)
        assert calls == [len(w)]

    def test_a_branch_off_the_tape_leaves_its_column_boundary_with_its_inside_entry(self):
        # on $, q splits: one branch advances past the end marker, the other stays in the window
        amp = 2 ** -0.5
        spec = make_spec(sigma={"a"}, t=(), states={"q", "r"}, q0="q", q_acc=(), q_rej=(),
                         entries=[("q", "$", Z, "q", ADV, (Z,), amp), ("q", "$", Z, "r", STAY, (Z,), amp)])
        w = enumerate_window(spec, "", 0)
        col = w.index[Configuration("q", 1, (Z,))]
        row = w.index[Configuration("r", 1, (Z,))]
        assert col not in w.interior_cols
        dense = build_matrix(spec, w).to_dense()
        assert dense[:, col].tolist() == [amp if i == row else 0 for i in range(len(w))]


class TestBuildMatrix:
    def test_copy_machine_columns_single_unit_entry(self, advance_copy_spec):
        w = enumerate_window(advance_copy_spec, "x", 2)
        m = build_matrix(advance_copy_spec, w)
        dense = m.to_dense()
        for c in sorted(m.interior_cols):
            col = dense[:, c]
            assert np.count_nonzero(col) == 1
            assert abs(col[np.nonzero(col)][0]) == pytest.approx(1.0)

    def test_refuses_a_window_of_another_automaton(self):
        w = enumerate_window(zoo.l2_rpa().spec, "ab", 2)
        with pytest.raises(QpaError, match="not enumerated for this automaton"):
            build_matrix(zoo.l1_rpa().spec, w)

    def test_a_window_copy_is_not_the_enumerated_window(self):
        spec = zoo.l2_rpa().spec
        w = enumerate_window(spec, "ab", 2)
        copy = w._replace(stack_limit=w.stack_limit)
        assert copy == w and copy.spec is None
        with pytest.raises(QpaError, match="not enumerated for this automaton"):
            build_matrix(spec, copy)

    def test_l2_interior_columns_orthonormal(self):
        spec = zoo.l2_rpa().spec
        w = enumerate_window(spec, "ab", 4)
        m = build_matrix(spec, w)
        rep = check_truncated_unitarity(m, tol=1e-9)
        assert rep.col_deviation < 1e-9

    def test_nonunitary_example_has_vanished_interior_row(self):
        spec = zoo.nonunitary_example()
        w = enumerate_window(spec, "1", 3)
        m = build_matrix(spec, w)
        norms2 = np.zeros(m.dim)
        np.add.at(norms2, m.rows, np.abs(m.vals) ** 2)
        vanished = [i for i in m.interior_rows if norms2[i] == 0.0]
        assert vanished
        # exactly the rows whose stack is just the base symbol
        for i in vanished:
            assert w.configs[i].stack == (Z,)


class TestTruncatedUnitarity:
    def test_l1_window_passes(self):
        spec = zoo.l1_rpa().spec
        w = enumerate_window(spec, "10", 5)
        rep = check_truncated_unitarity(build_matrix(spec, w), tol=1e-8)
        assert rep.passed

    def test_nonunitary_fails_with_row_deviation_one(self):
        spec = zoo.nonunitary_example()
        w = enumerate_window(spec, "1", 3)
        rep = check_truncated_unitarity(build_matrix(spec, w), tol=1e-8)
        assert not rep.passed
        assert rep.col_deviation < 1e-12
        assert rep.row_deviation == pytest.approx(1.0)

    def test_compiled_random_dfa_window_passes(self):
        rng = np.random.default_rng(404)
        dfa = random_total_dfa(4, "01", rng)
        rpa = compile_dfa(dfa)
        w = enumerate_window(rpa, "01", 4)
        rep = check_truncated_unitarity(build_matrix(rpa, w), tol=1e-8)
        assert rep.passed

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
    def test_a_bad_tolerance_is_refused(self, tol):
        # as check_all refuses it: an infinite or NaN tolerance would pass or fail everything
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            check_truncated_unitarity(shift_fixture(4), tol=tol)

    def test_the_default_tolerance_is_model_default_tol(self):
        assert check_truncated_unitarity(shift_fixture(4)).tolerance == DEFAULT_TOL == 1e-9

    def test_sequences_are_converted_on_construction(self):
        m = TruncatedMatrix(2, rows=[0, 1], cols=[0, 1], vals=[1, 1],
                            interior_cols={0, 1}, interior_rows={0, 1})
        assert (m.rows.dtype, m.cols.dtype, m.vals.dtype) == (np.int64, np.int64, complex)
        assert type(m.interior_cols) is type(m.interior_rows) is frozenset
        rep = check_truncated_unitarity(m)
        assert rep.passed and rep.col_deviation == rep.row_deviation == 0.0

    def test_dense_and_sparse_agree(self):
        spec = zoo.l2_rpa().spec
        w = enumerate_window(spec, "ab", 4)
        m = build_matrix(spec, w)
        sub = m.to_dense()[:, sorted(m.interior_cols)]
        dense = float(abs(sub.conj().T @ sub - np.eye(sub.shape[1])).max())
        assert _col_gram_deviation(m) == dense
        assert check_truncated_unitarity(m).col_deviation == dense

    @pytest.mark.parametrize("dim", [2, 160])
    def test_nan_column_is_reported_on_both_sides_of_the_cut(self, dim):
        m = TruncatedMatrix(dim, range(dim), range(dim), [math.nan] + [1.0] * (dim - 1),
                            range(dim), range(dim))
        assert math.isnan(_col_gram_deviation(m))
        rep = check_truncated_unitarity(m)
        assert math.isnan(rep.col_deviation) and not rep.passed
        assert math.isnan(rep.row_deviation)      # row 0 holds the NaN too
        with pytest.raises(QpaError):
            row_norm_bound_probe(m)

    @pytest.mark.parametrize("make", [TruncatedMatrix])
    def test_a_repeated_position_is_refused(self, make):
        # the dense form adds the two entries to [[1]]; the row and Gram checks would see two halves
        zeros, one = np.array([0, 0]), frozenset({0})
        with pytest.raises(ValueError, match="two entries at one position"):
            make(1, zeros, zeros, np.array([0.5, 0.5]), one, one)
        both = frozenset({0, 1})
        m = make(2, np.array([0, 1]), np.array([1, 0]), np.array([1.0, 1.0]), both, both)
        assert check_truncated_unitarity(m).passed

    @pytest.mark.parametrize("rows, cols, what", [([-1], [0], "row"), ([0, 1], [2, 0], "column")],
                             ids=["negative-row", "column-past-dim"])
    def test_an_entry_outside_the_matrix_is_refused(self, rows, cols, what):
        # row -1 would wrap to row 1, and column 2 at dim 2 would read as a repeated position
        with pytest.raises(ValueError, match=rf"{what} index outside 0\.\.1"):
            TruncatedMatrix(2, rows, cols, [1.0] * len(rows), [0], [1])

    def test_a_copy_is_checked(self):
        m = TruncatedMatrix(2, [0, 1], [0, 1], [1.0, 1.0], [0, 1], [0, 1])
        copy = m._replace(rows=[1, 0])
        assert copy.rows.dtype == np.int64 and copy.rows.tolist() == [1, 0]
        with pytest.raises(ValueError, match=r"row index outside 0\.\.1"):
            m._replace(rows=[-1, 1])

    @pytest.mark.parametrize("interior_cols, interior_rows", [({-1}, {0}), ({0}, {-1}), ({5}, {0}), ({0}, {5})],
                             ids=["col-negative", "row-negative", "col-past-dim", "row-past-dim"])
    def test_an_interior_index_outside_the_matrix_is_refused(self, interior_cols, interior_rows):
        # -1 would stand for dim - 1, and 5 would raise a bare IndexError
        m = TruncatedMatrix(3, range(3), range(3), [1.0] * 3, interior_cols, interior_rows)
        with pytest.raises(ValueError, match=r"interior index outside 0\.\.2"):
            check_truncated_unitarity(m)


def _dense_gram_deviation(m, chunk=64):
    """``float(abs(sub^H sub - I).max())`` for ``sub`` the interior columns, in dense blocks.

    A block B of interior columns meets only the rows R holding its
    entries, and R only the interior columns C holding an entry there, so
    every entry of ``sub^H sub[:, B]`` outside ``sub[R, C]^H sub[R, B]`` is an
    exact zero.  Windows of ten thousand configurations fit in memory.
    """
    interior = np.array(sorted(m.interior_cols), dtype=np.int64)
    inside = np.isin(m.cols, interior)
    rows, cols, vals = m.rows[inside], m.cols[inside], m.vals[inside]
    worst = [0.0]
    for start in range(0, len(interior), chunk):
        block = interior[start:start + chunk]
        shared = np.isin(rows, rows[np.isin(cols, block)])
        r, c = np.unique(rows[shared]), np.union1d(cols[shared], block)
        sub = np.zeros((len(r), len(c)), dtype=complex)
        sub[np.searchsorted(r, rows[shared]), np.searchsorted(c, cols[shared])] = vals[shared]
        gram = sub.conj().T @ sub[:, np.searchsorted(c, block)]
        worst.append(abs(gram - (c[:, None] == block)).max())
    return float(np.max(worst))


def _dense_row_deviation(m):
    interior = sorted(m.interior_rows)
    dense = m.to_dense()[interior, :]
    gram = dense @ dense.conj().T
    np.fill_diagonal(gram, 0.0)
    return float(np.abs(gram).max(initial=0.0))


def _criterion_2_windows():
    for name in ("l1", "l2"):
        spec = zoo.entries()[name].spec
        for word in words_up_to("".join(sorted(spec.alphabets.sigma)), 3):
            for radius in range(6):
                yield spec, word, radius
    for name in ("l3", "l5"):
        for i, word in enumerate(words_up_to("abc", 3)):
            yield zoo.entries()[name].spec, word, i % 6
    for word in words_up_to("1", 3):
        for radius in range(6):
            yield zoo.nonunitary_example(), word, radius


def _fixture_windows():
    rng = np.random.default_rng(14)
    specs = [*zoo.fixture_specs().values(), *(compile_dfa(random_total_dfa(n, "01", rng)) for n in (2, 3))]
    for spec in specs:
        word = "".join(sorted(spec.alphabets.sigma))[:2]
        for radius in range(4):
            yield spec, word, radius


class TestGramPass:
    """The one pass over the entries against the dense product it replaces."""

    def test_windows_equal_the_dense_product(self):
        windows = [*_criterion_2_windows(), *_fixture_windows()]
        assert len(windows) == 284 + 4 * (len(zoo.fixture_specs()) + 2)
        for spec, word, radius in windows:
            m = build_matrix(spec, enumerate_window(spec, word, radius))
            assert _col_gram_deviation(m) == _dense_gram_deviation(m), (spec.name, word, radius)

    @pytest.mark.parametrize("seed", range(40))
    def test_complex_fixtures_agree_with_the_dense_product(self, seed):
        for m in (random_banded_matrix(48, 4, seed), random_banded_isometry(48, 40, 4, seed)):
            assert _col_gram_deviation(m) == pytest.approx(_dense_gram_deviation(m), rel=0, abs=1e-13)

    def test_shared_row_fails_on_the_off_diagonal_alone(self):
        m = TruncatedMatrix(3, [1, 1], [0, 2], [1.0, 1.0], {0, 2}, range(3))
        diag, off = _gram(m.rows, m.cols, m.vals, m.interior_cols, m.dim)
        assert list(diag) == [1.0, 1.0]
        assert _col_gram_deviation(m) == 1.0

    def test_empty_interior_column_deviates_by_one(self):
        m = TruncatedMatrix(3, [0], [0], [1.0], {0, 1}, range(3))
        assert _col_gram_deviation(m) == 1.0

    def test_empty_interior_deviates_by_nothing(self):
        m = TruncatedMatrix(3, [0, 1], [0, 1], [2.0, 3.0], (), range(3))
        assert _col_gram_deviation(m) == 0.0

    def test_nan_in_a_shared_row(self):
        m = TruncatedMatrix(3, [0, 1, 1], [0, 1, 2], [1.0, math.nan, 0.0], range(3), range(3))
        assert math.isnan(_col_gram_deviation(m))

    def test_rows_agree_with_the_dense_product(self):
        for seed in range(40):
            m = random_partial_permutation(48, 37, max_shift=4, seed=seed)
            assert rows_pairwise_orthogonal_deviation(m) == _dense_row_deviation(m)
            m = random_banded_isometry(48, 40, bandwidth=4, seed=seed)
            assert rows_pairwise_orthogonal_deviation(m) == pytest.approx(
                _dense_row_deviation(m), rel=0, abs=1e-15)
        m = shift_fixture(64)
        assert rows_pairwise_orthogonal_deviation(m) == pytest.approx(_dense_row_deviation(m), rel=0, abs=1e-15)


class TestShiftFixture:
    def test_three_by_three_entries(self):
        inv = 1 / math.sqrt(2)
        expect = np.array([[inv, 0, 0], [inv, 0, 0], [0, 1, 0]])
        assert np.allclose(shift_fixture(3).to_dense().real, expect)

    def test_isometric_on_interior_columns(self):
        m = shift_fixture(200)
        dense = m.to_dense()
        interior = sorted(m.interior_cols)
        gram = dense[:, interior].conj().T @ dense[:, interior]
        assert np.abs(gram - np.eye(len(interior))).max() < 1e-12

    def test_not_coisometric(self):
        m = shift_fixture(200)
        dense = m.to_dense()
        uu = dense @ dense.conj().T
        assert uu[0, 0].real == pytest.approx(0.5)

    def test_row_norm_bound(self):
        m = shift_fixture(200)
        assert row_norm_bound_probe(m) == pytest.approx(1.0)
        norms = interior_row_norms(m)
        assert norms[0] == pytest.approx(1 / math.sqrt(2))
        assert norms.max() <= 1.0 + 1e-9

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            shift_fixture(2)


class TestRowNormBound:
    def test_refuses_non_isometry(self):
        m = random_banded_matrix(32, 3, seed=5)
        with pytest.raises(QpaError):
            row_norm_bound_probe(m)

    def test_l2_window_rows_are_unit(self):
        spec = zoo.l2_rpa().spec
        w = enumerate_window(spec, "ab", 3)
        m = build_matrix(spec, w)
        assert row_norm_bound_probe(m) == pytest.approx(1.0, abs=1e-9)

    def test_random_banded_isometries_respect_bound(self):
        for seed in range(10):
            m = random_banded_isometry(48, 40, bandwidth=4, seed=seed)
            assert row_norm_bound_probe(m) <= 1.0 + 1e-9


class TestRowOrthogonalityEquivalence:
    """With orthonormal columns: rows pairwise orthogonal iff norms are 0 or 1."""

    def test_zero_one_rows_imply_orthogonal(self):
        for seed in range(8):
            m = random_partial_permutation(40, 31, max_shift=4, seed=seed)
            norms = interior_row_norms(m)
            assert np.all((np.abs(norms) < 1e-8) | (np.abs(norms - 1) < 1e-8))
            assert rows_pairwise_orthogonal_deviation(m) < 1e-8

    def test_fractional_rows_imply_non_orthogonal(self):
        m = shift_fixture(64)
        norms = interior_row_norms(m)
        assert np.any((norms > 1e-8) & (norms < 1 - 1e-8))
        assert rows_pairwise_orthogonal_deviation(m) > 1e-8


class TestAssociativity:
    def test_shift_fixture_triple(self):
        m = shift_fixture(50)
        assert banded_associativity_probe(m, m, m) <= 1e-12

    def test_identity_is_exact(self):
        n = 16
        eye = random_partial_permutation(n, n, max_shift=0, seed=0)
        assert banded_associativity_probe(eye, eye, eye) == 0.0

    def test_random_banded_triples(self):
        for seed in range(5):
            a = random_banded_matrix(64, 5, seed=seed * 3)
            b = random_banded_matrix(64, 4, seed=seed * 3 + 1)
            c = random_banded_matrix(64, 3, seed=seed * 3 + 2)
            assert banded_associativity_probe(a, b, c) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            banded_associativity_probe(shift_fixture(8), shift_fixture(9), shift_fixture(8))


class TestEvolveMatrixAgreement:
    """The sparse simulator and the truncated matrix are independent routes."""

    @staticmethod
    def superposition_to_vector(window, psi):
        vec = np.zeros(len(window), dtype=complex)
        vec[[window.index[c] for c in psi.amplitudes]] = list(psi.amplitudes.values())
        return vec

    @staticmethod
    def matvec(matrix, x):
        y = np.zeros(matrix.dim, dtype=complex)
        np.add.at(y, matrix.rows, matrix.vals * x[matrix.cols])
        return y

    @pytest.mark.parametrize("name,word", [
        ("l1", "1"), ("l1", "10"), ("l2", "ab"), ("l2", "ba"),
        ("l3", "abc"), ("l5", "ab"), ("l5", "abc"),
    ])
    def test_entrywise_agreement(self, name, word):
        spec = zoo.entries()[name].spec
        steps = len(word) + 2
        window = enumerate_window(spec, word, steps + 1)
        matrix = build_matrix(spec, window)
        psi = initial_superposition(spec, word)
        vec = self.superposition_to_vector(window, psi)
        for _ in range(steps):
            psi = apply_evolution(spec, window.tape, psi, prune_eps=0.0)
            vec = self.matvec(matrix, vec)
            expect = self.superposition_to_vector(window, psi)
            assert np.abs(vec - expect).max() <= 1e-12


class TestDualityUnderMutation:
    """Perturbing a table flips the condition checker and the matrix check
    together: a lossy or redirected entry breaks both, a sign flip neither.

    Mutations stay off the left marker, whose stay-rows sit on the tape
    edge that windows treat as boundary, and off entries that advance
    from the right marker: their target column lies off the tape, which
    windows also treat as boundary, so no window can see such a mutation.
    """

    @pytest.mark.parametrize("seed", range(12))
    def test_checker_and_matrix_agree(self, seed):
        from qpakit.wellformed import check_all

        rng = np.random.default_rng(9000 + seed)
        name, word = (("l1", "01"), ("l2", "ab"))[seed % 2]
        base = zoo.entries()[name].spec
        keys = [k for k in sorted(base.delta)
                if k.sigma != "#" and not (k.sigma == "$" and k.d is Direction.ADVANCE)]
        key = keys[int(rng.integers(0, len(keys)))]
        delta = dict(base.delta)
        mode = seed % 3
        if mode == 0:
            delta[key] = 0.9 * delta[key]
            expect_pass = False
        elif mode == 1:
            delta[key] = -delta[key]
            expect_pass = True
        else:
            others = sorted(base.states - {key.q})
            new_q = others[int(rng.integers(0, len(others)))]
            del delta[key]
            delta[key._replace(q=new_q)] = 1.0 + 0.0j
            expect_pass = False
        mutated = base.replace(kind="general", delta=delta, amp_literals={})
        checker = check_all(mutated).passed
        window = enumerate_window(mutated, word, 4)
        matrix_ok = check_truncated_unitarity(build_matrix(mutated, window), tol=1e-8).passed
        assert checker == matrix_ok == expect_pass, (name, mode, key)


class TestDump:
    def test_text_grid_up_to_its_largest_dimension(self):
        grid = matrix_to_text(shift_fixture(TEXT_MAX_DIM)).splitlines()
        assert len(grid) == TEXT_MAX_DIM and grid[1].split()[:2] == ["0.7071", "0.0000"]
        too_large = TEXT_MAX_DIM + 1
        assert matrix_to_text(shift_fixture(too_large)) == f"<{too_large}x{too_large} matrix; too large to print>"

    def test_triplets_round_shape(self):
        m = shift_fixture(5)
        doc = matrix_to_dict(m)
        assert doc["dim"] == 5
        assert all(len(t) == 4 for t in doc["triplets"])
        rebuilt = np.zeros((5, 5), dtype=complex)
        for r, c, re, im in doc["triplets"]:
            rebuilt[r, c] = complex(re, im)
        assert np.allclose(rebuilt, m.to_dense())
