import ctypes
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from srifkit import linalg
from srifkit.linalg import (
    FlopCounter,
    NotPositiveDefinite,
    SingularTriangular,
    cholesky_solve,
    cholesky_upper,
    form_normal_half,
    givens_triangularize,
    householder_qr,
    row_rotator,
    solve_upper,
    svdvals,
)

from givens_reference import (
    GivensRotation,
    apply_givens_rows,
    givens_from_pair,
    triangularize_by_rotation,
)
from tolerances import canonical_signs, cond2, eps_of


class TestGivens:
    def test_already_zeroed(self):
        g = givens_from_pair(1.0, 0.0)
        assert g.c == 1.0 and g.s == 0.0

    def test_degenerate_identity(self):
        g = givens_from_pair(0.0, 0.0)
        assert g.c == 1.0 and g.s == 0.0

    def test_three_four_five(self):
        # hand expansion: r = sqrt(9 + 16) = 5
        g = givens_from_pair(3.0, 4.0)
        assert np.isclose(g.c, 0.6) and np.isclose(g.s, 0.8)
        v = np.array([[3.0], [4.0]])
        apply_givens_rows(v, g)
        assert np.allclose(v[:, 0], [5.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unit_norm_invariant(self, dtype):
        rng = np.random.default_rng(0)
        eps = eps_of(dtype)
        for _ in range(200):
            a, b = rng.normal(size=2).astype(dtype)
            g = givens_from_pair(a, b)
            assert abs(float(g.c) ** 2 + float(g.s) ** 2 - 1.0) <= 4 * eps
            # rotated leading entry is nonnegative
            assert float(g.c) * float(a) + float(g.s) * float(b) >= 0.0

    def test_identity_rotation_noop(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(4, 4))
        M0 = M.copy()
        apply_givens_rows(M, givens_from_pair(1.0, 0.0, i=0, j=2))
        assert np.array_equal(M, M0)

    def test_row_norm_preserved(self):
        rng = np.random.default_rng(2)
        M = rng.normal(size=(5, 5))
        g = givens_from_pair(M[1, 0], M[3, 0], i=1, j=3)
        before = np.linalg.norm(M[[1, 3], 2:])
        apply_givens_rows(M, g, cols=slice(2, 5))
        after = np.linalg.norm(M[[1, 3], 2:])
        assert abs(before - after) <= 8 * np.finfo(float).eps * before
        # untouched rows identical
        assert M[0, 0] == M[0, 0]

    def test_out_of_range(self):
        M = np.eye(2)
        with pytest.raises(IndexError):
            apply_givens_rows(M, givens_from_pair(1.0, 1.0, i=0, j=5))


class TestHouseholderQR:
    def test_identity(self):
        R = householder_qr(np.eye(3))
        assert np.allclose(canonical_signs(R), np.eye(3))

    def test_two_vector(self):
        # hand QR of the column [3; 4]
        R = householder_qr(np.array([[3.0], [4.0]]))
        assert R.shape == (1, 1)
        assert np.isclose(abs(R[0, 0]), 5.0)

    def test_normal_equation_oracle(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(20, 8))
        R = householder_qr(A)
        G = A.T @ A
        assert np.linalg.norm(G - R.T @ R) / np.linalg.norm(G) <= 1e-13

    def test_orthogonal_invariance_large(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(100, 30))
        R = householder_qr(A)
        G = A.T @ A
        assert np.linalg.norm(G - R.T @ R) / np.linalg.norm(G) <= 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_overwrite_covers_top_and_a(self, dtype):
        # on Fortran-ordered inputs, overwrite lets ?tpqrt work in top and
        # A without a copy; the factor is bitwise the copying call's, and
        # without overwrite neither input changes
        rng = np.random.default_rng(5)
        top = np.asfortranarray(
            np.triu(rng.normal(size=(7, 7)) + 5 * np.eye(7)).astype(dtype))
        A = np.asfortranarray(rng.normal(size=(12, 7)).astype(dtype))
        top0, A0 = top.copy(order="F"), A.copy(order="F")
        want = householder_qr(A, top=top)
        assert np.array_equal(top, top0) and np.array_equal(A, A0)
        assert not np.shares_memory(want, top)
        got = householder_qr(A, overwrite=True, top=top)
        assert got.tobytes() == want.tobytes()
        assert np.shares_memory(got, top)
        assert not np.array_equal(A, A0)

    def test_flop_count_2mn2(self):
        m, n = 600, 40
        rng = np.random.default_rng(6)
        fc = FlopCounter()
        householder_qr(rng.normal(size=(m, n)), flops=fc)
        assert abs(fc.total() - 2 * m * n * n) <= 0.15 * 2 * m * n * n

    def test_rank_deficient_allowed(self):
        A = np.zeros((5, 3))
        A[:, 0] = 1.0
        R = householder_qr(A)
        assert np.allclose(np.diag(R)[1:], 0.0)


class TestRowRotator:
    """row_rotator, one ?lasr call, against rotations applied one by one,
    on column-major operands as LAPACK leaves its factors."""

    @staticmethod
    def _chain(dtype, rng, size):
        theta = rng.uniform(-np.pi, np.pi, size=size)
        return np.cos(theta).astype(dtype), np.sin(theta).astype(dtype)

    @staticmethod
    def _reference(X, c, s, pivot, direct):
        ref = X.astype(np.float64)
        for k in (range(len(c)) if direct == "F" else range(len(c) - 1, -1, -1)):
            i = k if pivot == "V" else 0
            apply_givens_rows(ref, GivensRotation(float(c[k]), float(s[k]),
                                                  i, k + 1))
        return ref

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pivot", ["V", "T"])
    @pytest.mark.parametrize("direct", ["F", "B"])
    def test_strided_trailing_view(self, dtype, pivot, direct):
        # marginalize_block's case: the top rows of a trailing view of a
        # Fortran-ordered matrix, whose columns are longer than the view's
        # (LDA > M)
        rng = np.random.default_rng(20)
        V = np.asfortranarray(rng.normal(size=(12, 12)).astype(dtype))
        c, s = self._chain(dtype, rng, 5)
        before = V.copy()
        ref = self._reference(V[3:9, 3:], c, s, pivot, direct)
        row_rotator(V[3:9, 3:])(0, c, s, pivot, direct)
        assert V.dtype == dtype
        outside = np.ones(V.shape, dtype=bool)
        outside[3:9, 3:] = False
        assert np.array_equal(V[outside], before[outside])
        tol = 16 * eps_of(dtype) * np.abs(ref).max()
        assert np.abs(V[3:9, 3:] - ref).max() <= tol

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_column_operands(self, dtype):
        # givens_triangularize's last column: a (k, 1) gather, whose column
        # stride numpy reports as one item, and a new (k, 1) array in
        # either order are rotated alike
        rng = np.random.default_rng(22)
        A = rng.normal(size=(9, 6)).astype(dtype)
        c, s = self._chain(dtype, rng, 3)
        gathered = A[[0, 2, 5, 7], 5:]
        assert gathered.strides == (A.itemsize, A.itemsize)
        ref = self._reference(gathered, c, s, "T", "F")
        for X in (gathered, np.array(gathered, order="F"),
                  np.array(gathered, order="C")):
            row_rotator(X)(0, c, s, "T", "F")
            assert np.abs(X - ref).max() <= 16 * eps_of(dtype) * np.abs(
                ref).max()

    def test_one_row_operand(self):
        # a new single row is accepted; it holds no pair of rows to rotate
        X = np.arange(5.0).reshape(1, 5).copy(order="F")
        rotate = row_rotator(X)
        with pytest.raises(ValueError):
            rotate(0, [1.0], [0.0], "V", "F")
        assert np.array_equal(X, np.arange(5.0).reshape(1, 5))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_trailing_view_at_the_last_column(self, dtype):
        # k = n - 1: the trailing view is one column, m - n + 1 rows deep
        rng = np.random.default_rng(23)
        m, n = 8, 5
        V = np.asfortranarray(rng.normal(size=(m, n)).astype(dtype))
        c, s = self._chain(dtype, rng, m - n)
        before = V.copy()
        ref = self._reference(V[n - 1:, n - 1:], c, s, "T", "F")
        row_rotator(V)(n - 1, c, s, "T", "F")
        assert np.array_equal(V[:, :n - 1], before[:, :n - 1])
        assert np.array_equal(V[:n - 1], before[:n - 1])
        assert np.abs(V[n - 1:, n - 1:] - ref).max() <= 16 * eps_of(
            dtype) * np.abs(ref).max()
        # one rotation more reaches past the last row
        with pytest.raises(ValueError):
            row_rotator(V)(n - 1, np.ones(m - n + 1), np.zeros(m - n + 1),
                           "T", "F")

    def test_c_ordered_view_is_refused_by_shape_and_strides(self):
        V = np.arange(48.0).reshape(6, 8)
        for X in (V, V[1:5, 2:]):
            with pytest.raises(ValueError, match=re.escape(
                    f"of shape {X.shape} and strides {X.strides}")):
                row_rotator(X)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exact_identity_does_not_spread_nan(self, dtype):
        X = np.ones((3, 4), dtype=dtype, order="F")
        X[1, 2] = np.nan
        row_rotator(X)(0, [1.0, 0.6], [0.0, 0.8], "V", "F")
        assert np.array_equal(np.isnan(X), [[0, 0, 0, 0], [0, 0, 1, 0],
                                            [0, 0, 1, 0]])

    def test_rejects_before_calling_lapack(self):
        V = np.asfortranarray(np.arange(80.0).reshape(10, 8))
        c = s = np.ones(3)
        read_only = V[:4].copy(order="F")
        read_only.flags.writeable = False
        bad = {
            "dtype int": (V[:4].astype(int), c, s),
            "dtype float16": (V[:4].astype(np.float16), c, s),
            "dtype complex": (V[:4].astype(complex), c, s),
            "dtype datetime64": (V[:4].astype("datetime64[s]"), c, s),
            "read-only": (read_only, c, s),
            "C-ordered": (V[:4].copy(order="C"), c, s),
            "row stride 2": (V[:8:2], c, s),
            "row stride -1": (V[3::-1], c, s),
            "overlapping columns": (np.lib.stride_tricks.as_strided(
                V, shape=(4, 8), strides=(8, 8 * 2)), c, s),
            "negative column stride": (V[:4, ::-1], c, s),
            "c too long": (V[:4], np.ones(4), s),
            "s too short": (V[:4], c, np.ones(2)),
            "c not a vector": (V[:4], np.ones((3, 1)), s),
            "c and s too long": (V[:4], np.ones(4), np.ones(4)),
            "c and s not vectors": (V[:4], np.ones((3, 1)), np.ones((3, 1))),
        }
        for name, (X, cc, ss) in bad.items():
            copy = X.copy()
            with pytest.raises(ValueError):
                row_rotator(X)(0, cc, ss, "V", "F")
            assert np.array_equal(X, copy), name
        assert np.array_equal(V, np.arange(80.0).reshape(10, 8))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rotator_at_k_is_a_rotator_of_the_trailing_view(self, dtype):
        # marginalize_block's calls: one rotator per permuted copy, one
        # chain per trailing view V[k:, k:], its top rows only
        rng = np.random.default_rng(21)
        V = np.asfortranarray(rng.normal(size=(10, 10)).astype(dtype))
        W = V.copy(order="F")
        rotate = row_rotator(V)
        for k, rows in ((0, 10), (2, 5), (7, 3), (8, 2)):
            c, s = self._chain(dtype, rng, rows - 1)
            rotate(k, c, s, "V", "B")
            row_rotator(W[k:k + rows, k:])(0, c, s, "V", "B")
            assert V.tobytes() == W.tobytes()

    def test_rotator_rejects_rows_outside_the_matrix(self):
        V = np.asfortranarray(np.arange(36.0).reshape(6, 6))
        rotate = row_rotator(V)
        bad = {
            "negative k": (-1, np.ones(2)),
            "rows past the end": (3, np.ones(3)),
            "k past the columns": (6, np.ones(0)),
            "c not a vector": (0, np.ones((2, 1))),
        }
        for name, (k, c) in bad.items():
            with pytest.raises(ValueError):
                rotate(k, c, np.zeros_like(c), "V", "F")
            assert np.array_equal(V, np.arange(36.0).reshape(6, 6)), name
        with pytest.raises(ValueError):
            rotate(0, np.ones(2), np.ones(3), "V", "F")
        with pytest.raises(ValueError):
            row_rotator(V[::2])


class TestGivensTriangularize:
    def test_matches_householder_gram(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(15, 9))
        R1 = givens_triangularize(A.copy())[:9]
        R2 = householder_qr(A)
        assert np.allclose(R1.T @ R1, R2.T @ R2, atol=1e-12)
        assert np.allclose(np.tril(R1, -1), 0.0)

    def test_sparse_cheaper_than_dense(self):
        # nearly-triangular input: Givens sweep beats dense Householder
        rng = np.random.default_rng(8)
        n = 40
        A = np.triu(rng.normal(size=(n + 5, n)), -1)
        fg, fh = FlopCounter(), FlopCounter()
        givens_triangularize(A.copy(), flops=fg)
        householder_qr(A, flops=fh)
        assert fg.total() < fh.total()


class TestCholesky:
    def test_identity(self):
        assert np.allclose(cholesky_upper(np.eye(4)), np.eye(4))

    def test_hand_2x2(self):
        S = np.array([[4.0, 2.0], [2.0, 3.0]])
        U = cholesky_upper(S)
        assert np.allclose(U, [[2.0, 1.0], [0.0, np.sqrt(2.0)]])

    def test_indefinite_raises_with_pivot(self):
        # eigenvalues 3 and -1: fails at the second pivot
        S = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite) as e:
            cholesky_upper(S)
        assert e.value.pivot == 1

    def test_agrees_with_qr(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(50, 12))
        Rq = canonical_signs(householder_qr(A))
        Uc = cholesky_upper(form_normal_half(A))
        kappa = cond2(A)
        assert np.allclose(Uc, Rq, atol=1e-10 * kappa ** 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_preserved(self, dtype):
        rng = np.random.default_rng(10)
        A = rng.normal(size=(20, 6)).astype(dtype)
        U = cholesky_upper(form_normal_half(A))
        assert U.dtype == np.dtype(dtype)


class TestTriangularSolves:
    def test_identity(self):
        b = np.arange(5.0)
        assert np.allclose(solve_upper(np.eye(5), b), b)

    def test_hand_back_substitution(self):
        U = np.array([[2.0, 1.0], [0.0, np.sqrt(2.0)]])
        x = solve_upper(U, np.array([3.0, np.sqrt(2.0)]))
        assert np.allclose(x, [1.0, 1.0])

    def test_residual_well_conditioned(self):
        rng = np.random.default_rng(11)
        U = np.triu(rng.normal(size=(30, 30))) + 10.0 * np.eye(30)
        b = rng.normal(size=30)
        x = solve_upper(U, b)
        assert np.linalg.norm(U @ x - b) <= 1e-12 * np.linalg.norm(b)
        xc = cholesky_solve(U, b)
        assert np.linalg.norm(U.T @ (U @ xc) - b) <= 1e-12 * np.linalg.norm(b)

    def test_cholesky_solve_counts_each_column(self):
        rng = np.random.default_rng(14)
        U = np.triu(rng.normal(size=(6, 6))) + 6.0 * np.eye(6)
        b = rng.normal(size=6)
        one, two = FlopCounter(), FlopCounter()
        cholesky_solve(U, b, flops=one)
        cholesky_solve(U, np.column_stack([b, b]), flops=two)
        assert one.total() > 0
        assert two.total() == 2 * one.total()

    def test_singular_raises(self):
        U = np.eye(3)
        U[1, 1] = 0.0
        with pytest.raises(SingularTriangular) as e:
            solve_upper(U, np.ones(3))
        assert e.value.index == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_either_memory_order_reads_the_upper_triangle(self, dtype):
        # ?trtrs reads a Fortran-ordered U in place, and the binding hands
        # it a Fortran copy of any other; neither reads the strictly lower
        # part
        rng = np.random.default_rng(15)
        U = (np.triu(rng.normal(size=(20, 20))) + 8.0 * np.eye(20))
        b = rng.normal(size=20)
        junk = U + np.tril(rng.normal(size=(20, 20)), -1)
        big = np.zeros((25, 25))
        big[:20, :20] = junk
        want = np.linalg.solve(U, b)
        for A in (junk.astype(dtype), np.asfortranarray(junk, dtype=dtype),
                  big.astype(dtype)[:20, :20]):
            x = solve_upper(A, b.astype(dtype))
            assert x.dtype == dtype
            assert np.abs(x - want).max() <= 100 * eps_of(dtype) * np.abs(
                want).max()
        F = np.asfortranarray(np.eye(3, dtype=dtype))
        F[1, 1] = 0.0
        with pytest.raises(SingularTriangular) as e:
            solve_upper(F, np.ones(3, dtype=dtype))
        assert e.value.index == 1


class TestNormalHalf:
    def test_upper_triangle_value(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(40, 10))
        S = form_normal_half(A)
        assert np.allclose(np.triu(S), np.triu(A.T @ A))

    def test_flops_half_of_qr(self):
        m, n = 600, 40
        rng = np.random.default_rng(13)
        A = rng.normal(size=(m, n))
        fc = FlopCounter()
        form_normal_half(A, flops=fc)
        assert abs(fc.total() - m * n * n) <= 0.15 * m * n * n


class TestSvdvals:
    @staticmethod
    def _matrix(kind, dtype, order):
        rng = np.random.default_rng(15)
        shape = {"square": (40, 40), "tall": (90, 17), "wide": (17, 90),
                 "triangular": (110, 110)}[kind]
        A = rng.normal(size=shape)
        if kind == "triangular":
            A = np.triu(A)
        return np.array(A, dtype=dtype, order=order)

    @pytest.mark.parametrize("kind", ["square", "tall", "wide", "triangular"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_numpys_singular_values(self, kind, order, dtype):
        # both call LAPACK ?gesdd on the float64 matrix; a float32 A is
        # widened exactly first
        A = self._matrix(kind, dtype, order)
        before = A.copy()
        s = svdvals(A)
        want = np.linalg.svd(A.astype(np.float64), compute_uv=False)
        assert s.dtype == np.float64 and s.shape == want.shape
        assert s.tobytes() == want.tobytes()
        assert np.array_equal(A, before)     # ?gesdd overwrote a copy

    def test_strided_view(self):
        A = self._matrix("square", np.float64, "C")[::2, 1::3]
        assert svdvals(A).tobytes() == np.linalg.svd(
            A, compute_uv=False).tobytes()

    def test_nan_raises_linalg_error(self):
        A = np.eye(6)
        A[2, 4] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="info -4"):
            svdvals(A)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.svd(A, compute_uv=False)

    def test_empty_and_not_a_matrix(self):
        assert svdvals(np.zeros((0, 5))).shape == (0,)
        with pytest.raises(ValueError, match="2-D"):
            svdvals(np.ones(4))

    def test_the_call_releases_the_gil(self):
        # ctypes holds the GIL through a call only for a PYFUNCTYPE
        # function, which carries FUNCFLAG_PYTHONAPI
        for fn in (linalg._GESDD, *linalg._LASR.values()):
            assert not fn._flags_ & ctypes._FUNCFLAG_PYTHONAPI


# -- properties over random shapes, both precisions --------------------------

DTYPES = st.sampled_from([np.float32, np.float64])
SEEDS = st.integers(0, 2 ** 32 - 1)


def householder_flops_by_loop(A):
    """FLOPs of the textbook column sweep, counted as it runs in float64."""
    W = np.array(A, dtype=np.float64)
    m, n = W.shape
    fc = FlopCounter()
    for k in range(min(n, m - 1)):
        x = W[k:, k].copy()
        normx = np.linalg.norm(x)
        fc.add(2 * (m - k))
        if normx == 0.0:
            continue
        x[0] += np.copysign(normx, x[0])
        W[k:, k:] -= np.outer(x, (2.0 / (x @ x)) * (x @ W[k:, k:]))
        nc = n - k - 1
        fc.add(2 * (m - k) * (1 + 2 * nc) + nc)
    return fc


def cholesky_flops_by_loop(S):
    """FLOPs of the upper column sweep U.T U = S, counted as it runs in
    float64, up to and including the first pivot that is not positive and
    finite: step k's pivot subtracts a k-term dot product and takes a
    square root, and each entry right of it subtracts a k-term dot product
    and divides by the pivot."""
    n = S.shape[0]
    U = np.zeros((n, n))
    fc = FlopCounter()
    for k in range(n):
        d = S[k, k] - U[:k, k] @ U[:k, k]
        fc.add(2 * k + 1)
        if not (d > 0 and np.isfinite(d)):
            break
        U[k, k] = np.sqrt(d)
        for j in range(k + 1, n):
            U[k, j] = (S[k, j] - U[:k, k] @ U[:k, j]) / U[k, k]
            fc.add(2 * k + 1)
    return fc


class TestKernelProperties:
    @given(dtype=DTYPES, seed=SEEDS, m=st.integers(1, 30), n=st.integers(1, 12),
           nzero=st.integers(0, 3))
    def test_householder_qr(self, dtype, seed, m, n, nzero):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(m, n)).astype(dtype)
        zero = rng.choice(n, size=min(nzero, n), replace=False)
        A[:, zero] = 0.0
        fc = FlopCounter()
        R = householder_qr(A, flops=fc)
        A64, R64 = A.astype(np.float64), R.astype(np.float64)
        assert R.dtype == dtype
        assert R.shape == (min(m, n), n)
        assert np.array_equal(np.tril(R, -1), np.zeros_like(R))
        assert np.all(R[:, zero] == 0.0)
        tol = 20 * (m + n) * eps_of(dtype)
        G = A64.T @ A64
        scale = np.linalg.norm(A64) ** 2 + 1e-30
        assert np.linalg.norm(G - R64.T @ R64) <= tol * scale
        assert fc.total() == householder_flops_by_loop(A).total()

    @given(dtype=DTYPES, seed=SEEDS, n=st.integers(1, 12), data=st.data())
    def test_cholesky_pivot_is_first_failing_minor(self, dtype, seed, n, data):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(n + 2, n))
        S = B.T @ B + np.eye(n)          # every leading minor has eigenvalues >= 1
        j = data.draw(st.integers(0, n - 1))
        S[j, j] -= 10.0 * (np.abs(S).sum() + 1.0)
        with pytest.raises(NotPositiveDefinite) as e:
            cholesky_upper(S.astype(dtype))
        assert e.value.pivot == j
        first_bad = next(k for k in range(n)
                         if np.linalg.eigvalsh(S[:k + 1, :k + 1])[0] <= 0)
        assert e.value.pivot == first_bad
        schur = S[j, j] - S[:j, j] @ np.linalg.solve(S[:j, :j], S[:j, j])
        assert np.isclose(e.value.value, schur, rtol=100 * n * eps_of(dtype))

    @given(dtype=DTYPES, seed=SEEDS, n=st.integers(1, 12), data=st.data())
    def test_cholesky_nan_pivot(self, dtype, seed, n, data):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(n + 2, n))
        S = (B.T @ B + np.eye(n)).astype(dtype)
        j = data.draw(st.integers(0, n - 1))
        i = data.draw(st.integers(0, j))
        S[i, j] = np.nan                 # upper triangle: first in minor j
        with pytest.raises(NotPositiveDefinite) as e:
            cholesky_upper(S)
        assert e.value.pivot == j
        assert np.isnan(e.value.value)

    @given(dtype=DTYPES, seed=SEEDS, m=st.integers(1, 30), n=st.integers(1, 12))
    def test_normal_half_upper_triangle(self, dtype, seed, m, n):
        A = np.random.default_rng(seed).normal(size=(m, n)).astype(dtype)
        S = form_normal_half(A)
        assert S.dtype == dtype
        A64 = A.astype(np.float64)
        assert np.allclose(np.triu(S), np.triu(A64.T @ A64), rtol=0,
                           atol=4 * m * eps_of(dtype) * np.abs(A64).max() ** 2)

    def test_cholesky_failure_flops_by_hand(self):
        # pivot 0 (sqrt) and its row (1 div, an empty dot product), then
        # pivot 1 fails after its 1-term dot product (1 add, 1 mul, 1 sqrt)
        fc = FlopCounter()
        with pytest.raises(NotPositiveDefinite):
            cholesky_upper(np.array([[1.0, 2.0], [2.0, 1.0]]), flops=fc)
        assert fc.total() == 5

    @given(seed=SEEDS, n=st.integers(1, 12),
           fail=st.sampled_from(["none", "negative", "nan"]), data=st.data())
    def test_cholesky_flops_match_the_column_sweep(self, seed, n, fail, data):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(n + 2, n))
        S = B.T @ B + np.eye(n)
        j = data.draw(st.integers(0, n - 1))
        if fail == "negative":
            S[j, j] -= 10.0 * (np.abs(S).sum() + 1.0)
        elif fail == "nan":
            S[data.draw(st.integers(0, j)), j] = np.nan
        fc = FlopCounter()
        try:
            cholesky_upper(S, flops=fc)
        except NotPositiveDefinite as e:
            assert fail != "none" and e.pivot == j
        else:
            assert fail == "none"
        assert fc == cholesky_flops_by_loop(S)

    def test_cholesky_flops_are_a_third_of_n_cubed(self):
        # n**3 / 3 + O(n**2): 2 * n(n-1)(n-2)/6 multiply-adds off the
        # diagonal, 2 * n(n-1)/2 on it, n(n-1)/2 divs and n sqrts
        fc = FlopCounter()
        cholesky_upper(np.eye(122), flops=fc)
        assert fc.total() == 612745
        assert abs(fc.total() / (122 ** 3 / 3) - 1) < 0.02


def _strong_triangle(rng, n):
    """Upper triangle with a dominant diagonal, so its R factor is well
    determined and the two sweeps can be compared entry by entry."""
    return np.triu(0.3 * rng.normal(size=(n, n)), 1) + np.diag(1.0 + rng.random(n))


def _sweep_input(kind, rng, m, n):
    if kind == "nearly":
        # a few subdiagonals, some of their entries already zero
        A = np.triu(0.3 * rng.normal(size=(m, n)), -int(rng.integers(1, 4)))
        A[rng.random(A.shape) < 0.3] = 0.0
        k = min(m, n)
        A[np.arange(k), np.arange(k)] = 1.0 + rng.random(k)
        return A
    if kind == "augment":
        # srif_augment's layout: prior triangle rows keep their positions,
        # 15 constraint rows fill the empty slots, dense left of their slot
        n_aug = n + 15
        slots = np.sort(rng.choice(n_aug, size=15, replace=False))
        prior = np.setdiff1d(np.arange(n_aug), slots)
        A = np.zeros((n_aug, n_aug))
        A[np.ix_(prior, prior)] = _strong_triangle(rng, n)
        for q in slots:
            A[q, :q] = rng.normal(size=q)
            A[q, q] = 1.0 + rng.random()
            later = slots[slots > q]
            A[q, later] = 0.3 * rng.normal(size=later.size)
        return A
    # reanchor: the feature's 3-row slab, whose leading 3 x 3 block is dense
    A = 0.3 * rng.normal(size=(3, n + 3))
    A[:, :3] += np.diag(1.0 + rng.random(3))
    return A


class TestGivensSweeps:
    """givens_triangularize against the rotation-by-rotation sweep."""

    @given(dtype=DTYPES, seed=SEEDS, m=st.integers(1, 16), n=st.integers(1, 12),
           kind=st.sampled_from(["nearly", "augment", "reanchor"]))
    def test_matches_rotation_by_rotation(self, dtype, seed, m, n, kind):
        A = _sweep_input(kind, np.random.default_rng(seed), m, n).astype(dtype)
        got, ref = A.copy(), A.copy()
        fg, fr = FlopCounter(), FlopCounter()
        givens_triangularize(got, flops=fg)
        triangularize_by_rotation(ref, flops=fr)
        assert got.dtype == dtype
        assert np.array_equal(np.tril(got, -1), np.zeros_like(got))
        assert fg == fr
        # same rotations, same signs: no sign normalization needed
        tol = 8 * sum(A.shape) * eps_of(dtype)
        assert np.abs(got.astype(np.float64) - ref).max() <= tol * np.linalg.norm(
            A.astype(np.float64))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_pivot(self, dtype):
        # a0 = 0: the first rotation is the swap c = 0, s = 1
        rng = np.random.default_rng(15)
        A = np.triu(rng.normal(size=(6, 5)), -2).astype(dtype)
        A[0, 0] = 0.0
        got, ref = A.copy(), A.copy()
        fg, fr = FlopCounter(), FlopCounter()
        givens_triangularize(got, flops=fg)
        triangularize_by_rotation(ref, flops=fr)
        assert np.array_equal(np.tril(got, -1), np.zeros_like(got))
        assert fg == fr
        assert np.allclose(got, ref, rtol=0, atol=32 * eps_of(dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_propagates_as_rotation_by_rotation(self, dtype):
        rng = np.random.default_rng(16)
        for i, j in [(3, 1), (0, 4), (5, 0), (2, 2)]:
            A = np.triu(rng.normal(size=(7, 6)), -2).astype(dtype)
            A[i, j] = np.nan
            got, ref = A.copy(), A.copy()
            givens_triangularize(got)
            triangularize_by_rotation(ref)
            assert np.array_equal(np.isnan(got), np.isnan(ref)), (i, j)
            ok = ~np.isnan(ref)
            assert np.allclose(got[ok], ref[ok], rtol=0,
                               atol=32 * eps_of(dtype))
