import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srifkit import linalg
from srifkit.linalg import (
    FlopCounter,
    NotPositiveDefinite,
    SingularTriangular,
    apply_givens_rows,
    cholesky_upper,
    cond_spectral,
    form_normal_half,
    givens_from_pair,
    givens_triangularize,
    householder_qr,
    sign_normalize_rows,
    solve_upper,
    solve_upper_transposed,
)


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
        eps = linalg.eps_of(dtype)
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
        R, b = householder_qr(np.eye(3), np.arange(3.0))
        sign_normalize_rows(R, b)
        assert np.allclose(R, np.eye(3))
        assert np.allclose(b, np.arange(3.0))

    def test_two_vector(self):
        # hand QR of the column [3; 4]
        R, b = householder_qr(np.array([[3.0], [4.0]]), np.array([1.0, 0.0]))
        assert np.isclose(abs(R[0, 0]), 5.0)
        assert np.isclose(np.linalg.norm(b), 1.0)

    def test_normal_equation_oracle(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(20, 8))
        R, _ = householder_qr(A)
        G = A.T @ A
        assert np.linalg.norm(G - R.T @ R) / np.linalg.norm(G) <= 1e-13

    def test_orthogonal_invariance_large(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(100, 30))
        R, _ = householder_qr(A)
        G = A.T @ A
        assert np.linalg.norm(G - R.T @ R) / np.linalg.norm(G) <= 1e-12

    def test_rhs_is_qt_rhs(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(12, 4))
        b = rng.normal(size=12)
        R, tb = householder_qr(A, b)
        # least-squares solution through the transformed rhs
        x = np.linalg.solve(R, tb[:4])
        xref, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert np.allclose(x, xref, atol=1e-10)
        # norm preserved by the orthogonal transform
        assert np.isclose(np.linalg.norm(tb), np.linalg.norm(b))

    def test_flop_count_2mn2(self):
        m, n = 600, 40
        rng = np.random.default_rng(6)
        fc = FlopCounter()
        householder_qr(rng.normal(size=(m, n)), flops=fc)
        assert abs(fc.total() - 2 * m * n * n) <= 0.15 * 2 * m * n * n

    def test_rank_deficient_allowed(self):
        A = np.zeros((5, 3))
        A[:, 0] = 1.0
        R, _ = householder_qr(A)
        assert np.allclose(np.diag(R)[1:], 0.0)


class TestGivensTriangularize:
    def test_matches_householder_gram(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(15, 9))
        R1 = givens_triangularize(A.copy())[:9]
        R2, _ = householder_qr(A)
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
        Rq, _ = householder_qr(A)
        sign_normalize_rows(Rq)
        Uc = cholesky_upper(form_normal_half(A))
        kappa, *_ = cond_spectral(A)
        assert np.allclose(Uc, Rq, atol=1e-10 * kappa ** 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_preserved(self, dtype):
        rng = np.random.default_rng(10)
        A = rng.normal(size=(20, 6)).astype(dtype)
        U = cholesky_upper(form_normal_half(A))
        assert U.dtype == np.dtype(dtype)

    def test_asymmetric_rejected(self):
        S = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            cholesky_upper(S)


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
        xt = solve_upper_transposed(U, b)
        assert np.linalg.norm(U.T @ xt - b) <= 1e-12 * np.linalg.norm(b)

    def test_singular_raises(self):
        U = np.eye(3)
        U[1, 1] = 0.0
        with pytest.raises(SingularTriangular) as e:
            solve_upper(U, np.ones(3))
        assert e.value.index == 1


class TestNormalHalf:
    def test_exact_symmetry_and_value(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(40, 10))
        S = form_normal_half(A)
        assert np.array_equal(S, S.T)
        assert np.allclose(S, A.T @ A)

    def test_flops_half_of_qr(self):
        m, n = 600, 40
        rng = np.random.default_rng(13)
        A = rng.normal(size=(m, n))
        fc = FlopCounter()
        form_normal_half(A, flops=fc)
        assert abs(fc.total() - m * n * n) <= 0.15 * m * n * n


class TestCondSpectral:
    def test_identity(self):
        k, smax, smin = cond_spectral(np.eye(7))
        assert k == 1.0 and smax == 1.0 and smin == 1.0

    def test_diagonal(self):
        k, *_ = cond_spectral(np.diag([10.0, 1.0]))
        assert np.isclose(k, 10.0)

    def test_scale_and_permutation_invariance(self):
        rng = np.random.default_rng(14)
        A = rng.normal(size=(50, 50))
        k, *_ = cond_spectral(A)
        assert k >= 1.0
        k2, *_ = cond_spectral(3.7 * A)
        assert np.isclose(k, k2, rtol=1e-10)
        perm = rng.permutation(50)
        k3, *_ = cond_spectral(A[perm])
        assert np.isclose(k, k3, rtol=1e-10)
        kt, *_ = cond_spectral(A.T)
        assert np.isclose(k, kt, rtol=1e-10)

    def test_singular_is_inf(self):
        A = np.zeros((3, 3))
        A[0, 0] = 1.0
        k, _, smin = cond_spectral(A)
        assert smin == 0.0 and k == float("inf")


# -- properties over random shapes, both precisions --------------------------

DTYPES = st.sampled_from([np.float32, np.float64])
SEEDS = st.integers(0, 2 ** 32 - 1)
# the same examples every run, so a tier-1 failure reproduces
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True)


def householder_flops_by_loop(A, nrhs=0):
    """FLOPs of the textbook column sweep, counted as it runs in float64."""
    W = np.array(A, dtype=np.float64)
    m, n = W.shape
    fc = FlopCounter()
    for k in range(min(n, m - 1)):
        x = W[k:, k].copy()
        normx = np.linalg.norm(x)
        fc.add(adds=m - k - 1, muls=m - k, sqrts=1)
        if normx == 0.0:
            continue
        x[0] += np.copysign(normx, x[0])
        W[k:, k:] -= np.outer(x, (2.0 / (x @ x)) * (x @ W[k:, k:]))
        nc = n - k - 1 + nrhs
        fc.add(adds=(m - k) * (1 + 2 * nc), muls=(m - k) * (1 + 2 * nc) + nc)
    return fc


class TestKernelProperties:
    @PROPERTY
    @given(dtype=DTYPES, seed=SEEDS, m=st.integers(1, 30), n=st.integers(1, 12),
           nzero=st.integers(0, 3))
    def test_householder_qr(self, dtype, seed, m, n, nzero):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(m, n)).astype(dtype)
        zero = rng.choice(n, size=min(nzero, n), replace=False)
        A[:, zero] = 0.0
        b = rng.normal(size=m).astype(dtype)
        fc = FlopCounter()
        R, t = householder_qr(A, b, flops=fc)
        eps = linalg.eps_of(dtype)
        A64, R64, t64 = (x.astype(np.float64) for x in (A, R, t))
        assert R.dtype == dtype and t.dtype == dtype
        assert R.shape == (min(m, n), n) and t.shape == (m,)
        assert np.array_equal(np.tril(R, -1), np.zeros_like(R))
        assert np.all(R[:, zero] == 0.0)
        tol = 20 * (m + n) * eps
        G = A64.T @ A64
        scale = np.linalg.norm(A64) ** 2 + 1e-30
        assert np.linalg.norm(G - R64.T @ R64) <= tol * scale
        assert abs(np.linalg.norm(t64) - np.linalg.norm(b)) <= tol * np.linalg.norm(b)
        # t = Q.T b for the same Q: A.T b = R.T (top rows of t)
        Atb = A64.T @ b.astype(np.float64)
        assert np.linalg.norm(Atb - R64.T @ t64[:R.shape[0]]) <= tol * np.sqrt(
            scale) * np.linalg.norm(b)
        assert fc.total() == householder_flops_by_loop(A, nrhs=1).total()

    @PROPERTY
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
        assert np.isclose(e.value.value, schur, rtol=100 * n * linalg.eps_of(dtype))

    @PROPERTY
    @given(dtype=DTYPES, seed=SEEDS, n=st.integers(1, 12), data=st.data())
    def test_cholesky_nan_pivot(self, dtype, seed, n, data):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(n + 2, n))
        S = (B.T @ B + np.eye(n)).astype(dtype)
        j = data.draw(st.integers(0, n - 1))
        i = data.draw(st.integers(0, j))
        S[i, j] = np.nan                 # upper triangle: first in minor j
        with pytest.raises(NotPositiveDefinite) as e:
            cholesky_upper(S, check_symmetry=False)
        assert e.value.pivot == j
        assert np.isnan(e.value.value)

    @PROPERTY
    @given(dtype=DTYPES, seed=SEEDS, m=st.integers(1, 30), n=st.integers(1, 12))
    def test_normal_half_exactly_symmetric(self, dtype, seed, m, n):
        A = np.random.default_rng(seed).normal(size=(m, n)).astype(dtype)
        S = form_normal_half(A)
        assert S.dtype == dtype
        assert np.array_equal(S, S.T)
        A64 = A.astype(np.float64)
        assert np.allclose(S, A64.T @ A64, rtol=0,
                           atol=4 * m * linalg.eps_of(dtype) * np.abs(A64).max() ** 2)

    def test_cholesky_failure_flops_by_hand(self):
        # pivot 0 (sqrt) and its row (1 add, 1 div), then pivot 1 fails
        # after its dot product (1 add, 1 mul, 1 sqrt)
        fc = FlopCounter()
        with pytest.raises(NotPositiveDefinite):
            cholesky_upper(np.array([[1.0, 2.0], [2.0, 1.0]]), flops=fc)
        assert (fc.adds, fc.muls, fc.divs, fc.sqrts) == (2, 1, 1, 2)
