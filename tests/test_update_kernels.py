"""Oracles for the structured update kernels, and the layer names they run
under.

The QR path triangularizes Bierman's data array [R22 0; H2 r] with
?tpqrt, which must give the factor a dense QR of the stacked rows gives;
the PC path forms its normal matrix with ?trmm on the triangular
R22 M^-1 plus ?syrk on H2 M^-1, which must give the unpreconditioned
normal equation's answer. Instances cover both precisions, no rows (QR
only), one row, fewer rows than states and many more, Jacobian
columns that are all zero and a prior with a zero column.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from srifkit import filters, vins
from srifkit.linalg import (
    UNCOUNTED,
    FlopCounter,
    form_normal_half,
    householder_qr,
)
from srifkit.sim import default_scenario, gen_dataset
from srifkit.vins import FilterConfig

from tolerances import canonical_signs, eps_of

DTYPES = st.sampled_from([np.float32, np.float64])
SEEDS = st.integers(0, 2 ** 32 - 1)
# one row, fewer rows than states, and many more
ROWS = st.sampled_from(["one", "few", "many"])


def _rows(kind, n2, rng):
    return {"none": 0, "one": 1, "few": int(rng.integers(1, n2 + 1)),
            "many": 4 * n2 + int(rng.integers(0, 20))}[kind]


def _spd_factor(rng, n):
    A = rng.normal(size=(n, n)) * 0.3
    return np.linalg.cholesky(A @ A.T + np.eye(n)).T


def structured_flops_by_loop(top, A):
    """FLOPs of the column sweep over [top; A] that reflects, for column k,
    only row k of the triangular top and the m rows of A, counted as it
    runs in float64. The last column pays for its reflector even at a zero
    norm, which for a data array is a residual that rounds to zero or not
    depending on the precision."""
    n = top.shape[0]
    m = A.shape[0]
    W = np.vstack([np.triu(top), A]).astype(np.float64)
    fc = FlopCounter()
    if m == 0:
        return fc
    for k in range(n):
        rows = np.r_[k, n:n + m]
        x = W[rows, k].copy()
        normx = np.linalg.norm(x)
        fc.add(2 * (m + 1))
        if normx == 0.0:
            if k == n - 1:
                fc.add(2 * (m + 1))
            continue
        x[0] += np.copysign(normx, x[0])
        W[np.ix_(rows, np.arange(k, n))] -= np.outer(
            x, (2.0 / (x @ x)) * (x @ W[rows, k:]))
        nc = n - k - 1
        fc.add(2 * (m + 1) * (1 + 2 * nc) + nc)
    return fc


def data_array(R22, H2, r):
    """Bierman's data array as ?tpqrt takes it: the top [R22 0] and the
    rows [H2 r]."""
    n2 = R22.shape[0]
    top = np.zeros((n2 + 1, n2 + 1), dtype=R22.dtype)
    top[:n2, :n2] = R22
    return top, np.column_stack([H2, r])


class TestStructuredQr:
    @given(dtype=DTYPES, seed=SEEDS,
           rows=st.sampled_from(["none", "one", "few", "many"]),
           n2=st.integers(1, 14), zero_h=st.integers(0, 3),
           zero_prior=st.booleans())
    def test_matches_dense_qr_of_the_stack(self, dtype, seed, rows, n2,
                                           zero_h, zero_prior):
        rng = np.random.default_rng(seed)
        m = _rows(rows, n2, rng)
        R22 = _spd_factor(rng, n2)
        H2 = rng.normal(size=(m, n2))
        H2[:, rng.choice(n2, size=min(zero_h, n2), replace=False)] = 0.0
        if zero_prior:
            R22[:, rng.integers(n2)] = 0.0
        R22, H2 = R22.astype(dtype), H2.astype(dtype)
        r = rng.normal(size=m).astype(dtype)
        top, X = data_array(R22, H2, r)
        fc = FlopCounter()
        R = householder_qr(X, flops=fc, top=top)
        Rd = np.linalg.qr(np.vstack([top, X]), mode="r")
        assert R.dtype == dtype and R.shape == (n2 + 1, n2 + 1)
        assert np.array_equal(np.tril(R, -1), np.zeros_like(R))
        if m == 0:
            assert np.array_equal(R, top)
        # the same factor, and a last column of the Q.T [0; r] head above
        # the post-fit residual norm, up to row signs
        R, Rd = (canonical_signs(x.astype(np.float64)) for x in (R, Rd))
        A = np.vstack([R22, H2]).astype(np.float64)
        scale, rnorm = np.linalg.norm(A), np.linalg.norm(r.astype(np.float64))
        tol = 20 * (n2 + m) * eps_of(dtype)
        assert np.linalg.norm(R[:, :n2] - Rd[:, :n2]) <= tol * scale
        assert np.linalg.norm(R[:, n2] - Rd[:, n2]) <= tol * rnorm
        # posterior identity
        assert np.linalg.norm(R[:n2, :n2].T @ R[:n2, :n2] - A.T @ A) <= (
            tol * scale ** 2)
        assert fc == structured_flops_by_loop(top, X)

    def test_no_rows_returns_the_prior(self):
        R22 = _spd_factor(np.random.default_rng(0), 5)
        fc = FlopCounter()
        R = householder_qr(np.zeros((0, 5)), flops=fc, top=R22)
        assert np.array_equal(R, R22)
        assert fc.total() == 0

    def test_count_is_about_2mn2_squared(self):
        # claim 4's dimensions: no 4/3 n2^3 term for the triangular top
        rng = np.random.default_rng(2)
        m, n2 = 995, 122
        R22 = _spd_factor(rng, n2)
        H2 = rng.normal(size=(m, n2))
        fs, fd = FlopCounter(), FlopCounter()
        householder_qr(H2, flops=fs, top=R22)
        householder_qr(np.vstack([R22, H2]), flops=fd)
        assert abs(fs.total() / (2 * m * n2 * n2) - 1) <= 0.03
        assert fd.total() - fs.total() >= 4 / 3 * n2 ** 3 * 0.9

    @pytest.mark.parametrize("m", [0, 1, 4, 9, 12])
    def test_update_reads_any_h2_bitwise_alike(self, m):
        # a C-ordered, a Fortran-ordered and a float32 H2 (with r) on a
        # float64 R give bitwise one result, and are left as they were
        rng = np.random.default_rng(m)
        n1, n2 = 3, 9
        R = _spd_factor(rng, n1 + n2)
        H32 = rng.normal(size=(m, n2)).astype(np.float32)
        r32 = rng.normal(size=m).astype(np.float32)
        H64, r64 = H32.astype(np.float64), r32.astype(np.float64)
        got = []
        for H2, r in ((H64, r64), (np.asfortranarray(H64), r64), (H32, r32)):
            before = H2.tobytes()
            res = filters.srif_update_partitioned(R, H2, r, n1)
            assert H2.tobytes() == before
            assert res.dx.dtype == res.R_post.dtype == np.float64
            got.append((res.dx.tobytes(), res.R_post.tobytes()))
        assert got[0] == got[1] == got[2]


class TestStructuredNormalEquation:
    @given(dtype=DTYPES, seed=SEEDS, rows=ROWS, n2=st.integers(1, 14))
    def test_triangular_top(self, dtype, seed, rows, n2):
        rng = np.random.default_rng(seed)
        m = _rows(rows, n2, rng)
        top = _spd_factor(rng, n2).astype(dtype)
        A = rng.normal(size=(m, n2)).astype(dtype)
        fc, fd = FlopCounter(), FlopCounter()
        S = form_normal_half(A, flops=fc, top=top)
        Sd = form_normal_half(np.vstack([top, A]), flops=fd)
        assert S.dtype == dtype
        tol = 4 * (n2 + m) * eps_of(dtype)
        assert np.abs(np.triu(S - Sd)).max() <= tol * np.abs(np.triu(Sd)).max()
        # the top's count is that of a triangular product, not of a stack
        tri = n2 * (n2 + 1) * (n2 + 2) // 6
        assert fd.total() - fc.total() == (
            n2 * n2 * (n2 + 1) - 2 * tri)

    def test_top_is_read_as_upper_triangular(self):
        rng = np.random.default_rng(1)
        top = _spd_factor(rng, 6)
        A = rng.normal(size=(4, 6))
        junk = top + np.tril(rng.normal(size=(6, 6)), -1)
        assert np.array_equal(np.triu(form_normal_half(A, top=junk)),
                              np.triu(form_normal_half(A, top=top)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_top_garbage_below_the_diagonal_is_ignored(self, dtype):
        # NaN, infinities and huge values under top's diagonal change
        # nothing in the upper triangle, whatever top's memory order, and
        # top is left as it was
        rng = np.random.default_rng(8)
        top = _spd_factor(rng, 9).astype(dtype)
        A = rng.normal(size=(30, 9)).astype(dtype)
        want = np.triu(form_normal_half(A, top=top))
        lower = np.tril_indices(9, -1)
        junk = top.copy()
        junk[lower] = rng.choice([np.nan, np.inf, -np.inf, 3e38, -7.0],
                                 size=lower[0].size).astype(dtype)
        for t in (junk, np.asfortranarray(junk)):
            before = t.tobytes()
            got = np.triu(form_normal_half(A, top=t))
            assert got.tobytes() == want.tobytes()
            assert t.tobytes() == before


class TestStructuredPcsrif:
    @given(seed=SEEDS, rows=ROWS, poses=st.integers(0, 2),
           extra=st.integers(1, 4), n1=st.integers(0, 3),
           zero_h=st.integers(0, 2), zero_prior=st.booleans())
    def test_matches_if_oracle_in_float64(self, seed, rows, poses, extra, n1,
                                          zero_h, zero_prior):
        rng = np.random.default_rng(seed)
        n2 = 6 * poses + extra
        m = _rows(rows, n2, rng)
        offsets = [extra + 6 * i for i in range(poses)]
        R = _spd_factor(rng, n1 + n2)
        H2 = rng.normal(size=(m, n2))
        # all-zero Jacobian columns, other than column 0
        H2[:, 1 + rng.choice(n2 - 1, size=min(zero_h, n2 - 1),
                             replace=False)] = 0.0
        if zero_prior:
            # column 0 is not a pose column, so M_SPAI stays regular, and
            # the measurement supplies the information the prior lacks
            R[:, n1] = 0.0
            H2[:, 0] = rng.normal(size=m) + 3.0
        r = rng.normal(size=m)
        pc = filters.pcsrif_update(R, H2, r, n1, offsets)
        ref = filters.if_update_oracle(R, H2, r, n1)
        info = R.T @ R
        info[n1:, n1:] += H2.T @ H2
        tol = 1e-9
        assert np.abs(pc.dx - ref.dx).max() <= tol * max(
            1.0, np.abs(ref.dx).max())
        assert np.array_equal(np.tril(pc.R_post, -1),
                              np.zeros_like(pc.R_post))
        for res in (pc, ref):
            assert np.linalg.norm(res.R_post.T @ res.R_post - info) <= (
                tol * np.linalg.norm(info))
        # both are the Cholesky factor with a positive diagonal
        assert np.linalg.norm(pc.R_post - ref.R_post) <= tol * np.linalg.norm(
            ref.R_post)

    @pytest.mark.parametrize("seed", range(3))
    def test_binary32_on_a_graded_ill_conditioned_spai_block(self, seed):
        # 11 poses on a chain, neighbours tied by information 1e6 g_k^2
        # for component k, g graded over six decades, so kappa(tri) is
        # about 1e6: binary32 PC-SRIF, whose tri^-1 is an explicit
        # product, still meets the binary64 QR update within perfbench's
        # update-m995 tolerances (posterior identity 1e-5, dx 1e-4)
        rng = np.random.default_rng(seed)
        n1, extra, poses, m = 3, 8, 11, 60
        n2 = 6 * poses + extra
        n = n1 + n2
        offsets = [extra + 6 * i for i in range(poses)]
        A = rng.normal(size=(n, n)) * 0.3
        info = A @ A.T + 1e-2 * np.eye(n)
        tie = np.array([[1.0, -1.0], [-1.0, 1.0]])
        for i in range(poses - 1):
            for k, g in enumerate(np.logspace(-3, 3, 6)):
                j = [n1 + offsets[i] + k, n1 + offsets[i + 1] + k]
                info[np.ix_(j, j)] += 1e6 * g * g * tie
        R = np.linalg.cholesky(info).T
        H2 = rng.normal(size=(m, n2))
        r = rng.normal(size=m)
        tri = filters.build_preconditioner(R[n1:, n1:], offsets).tri
        assert np.linalg.cond(tri) >= 1e4
        ref = filters.srif_update_partitioned(R, H2, r, n1)
        R32, H32, r32 = (x.astype(np.float32) for x in (R, H2, r))
        res = filters.pcsrif_update(R32, H32, r32, n1, offsets)
        post = R.T @ R
        post[n1:, n1:] += H2.T @ H2
        Rp = res.R_post.astype(np.float64)
        assert np.linalg.norm(Rp.T @ Rp - post) <= 1e-5 * np.linalg.norm(post)
        assert np.linalg.norm(res.dx - ref.dx) <= 1e-4 * np.linalg.norm(
            ref.dx)

    def test_spai_factor_is_upper_triangular_on_an_engine_factor(
            self, monkeypatch):
        seen = []
        update = filters.pcsrif_update

        def capture(R, H2, r, n1, offsets, flops=UNCOUNTED):
            seen.append((R.copy(), n1, list(offsets)))
            return update(R, H2, r, n1, offsets, flops=flops)

        monkeypatch.setattr(filters, "pcsrif_update", capture)
        ds = gen_dataset(dataclasses.replace(default_scenario(0),
                                             duration=4.0))
        vins.run_filter(ds, FilterConfig(estimator="pcsrif",
                                         precision="binary32"))
        R, n1, offsets = seen[-1]
        assert len(offsets) >= 4
        R22 = R[n1:, n1:]
        pc = filters.build_preconditioner(R22, offsets)
        for X in (pc.r22p, filters.apply_preconditioner_inverse(pc, R22)):
            assert X.dtype == np.float32
            assert np.all(np.tril(X, -1) == 0.0)
            assert np.all(np.diag(X) != 0.0)


class TestKfUpdate:
    @pytest.mark.parametrize("n1, m", [(0, 1), (3, 4), (9, 30)])
    def test_matches_dense_joseph_form(self, n1, m):
        # the textbook form on the widened H = [0 H2]
        rng = np.random.default_rng(n1 + m)
        n = n1 + 12
        B = rng.normal(size=(n, n))
        P = B @ B.T / n + np.eye(n)
        H2 = rng.normal(size=(m, n - n1))
        r = rng.normal(size=m)
        H = np.zeros((m, n))
        H[:, n1:] = H2
        S = H @ P @ H.T + np.eye(m)
        K = P @ H.T @ np.linalg.inv(S)
        IKH = np.eye(n) - K @ H
        P_ref = IKH @ P @ IKH.T + K @ K.T
        dx, P_new = filters.kf_update(P, H2, r, n1)
        assert np.abs(dx - K @ r).max() <= 1e-12 * np.abs(K @ r).max()
        assert np.abs(P_new - P_ref).max() <= 1e-12 * np.abs(P_ref).max()
        assert np.array_equal(P_new, P_new.T)

    def test_flop_count_closed_form(self):
        # n = 20, n1 = 9, n2 = 11, m = 6, summed by hand over H P, H P H.T
        # + I, the Cholesky of S (91, `cholesky_upper`'s count, as PC-SRIF
        # and the IF oracle count theirs) and its solves for K, K r,
        # K (H P), A H.T, (A H.T) K.T, K K.T and the three n x n sums
        rng = np.random.default_rng(5)
        P = np.eye(20)
        fc = FlopCounter()
        filters.kf_update(P, rng.normal(size=(6, 11)), rng.normal(size=6), 9,
                          flops=fc)
        assert fc.total() == 21953


class TestLayerAttribution:
    """The benchmark times kernels by the names `srifkit.filters` looks
    up; each update must still reach them through those globals."""

    NAMES = ("householder_qr", "solve_upper", "build_preconditioner",
             "apply_preconditioner_inverse", "form_normal_half",
             "cholesky_upper", "preconditioner_solve_vec",
             "apply_preconditioner_right")

    def _count(self, monkeypatch):
        calls = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            fn = getattr(filters, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(filters, name, counted)
        return calls

    @staticmethod
    def _instance():
        rng = np.random.default_rng(3)
        R = _spd_factor(rng, 3 + 13)
        return R, rng.normal(size=(20, 13)), rng.normal(size=20)

    def test_qr_path(self, monkeypatch):
        calls = self._count(monkeypatch)
        R, H2, r = self._instance()
        filters.srif_update_partitioned(R, H2, r, 3, flops=FlopCounter())
        assert calls["householder_qr"] == 1
        assert calls["solve_upper"] >= 1

    def test_pc_path(self, monkeypatch):
        calls = self._count(monkeypatch)
        R, H2, r = self._instance()
        filters.pcsrif_update(R, H2, r, 3, [1, 7], flops=FlopCounter())
        for name in ("build_preconditioner", "apply_preconditioner_inverse",
                     "form_normal_half", "cholesky_upper",
                     "preconditioner_solve_vec",
                     "apply_preconditioner_right"):
            assert calls[name] >= 1, name
