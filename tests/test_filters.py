import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srifkit.filters import (
    Preconditioner,
    UpdateResult,
    apply_preconditioner_inverse,
    apply_preconditioner_right,
    build_preconditioner,
    if_update_oracle,
    kf_propagate,
    kf_update,
    marginalize_block,
    marginalize_oracle_householder,
    pcsrif_update,
    preconditioner_solve_vec,
    srif_augment,
    srif_marginalize,
    srif_update_partitioned,
)
from srifkit.linalg import FlopCounter, NotPositiveDefinite, cond_spectral, eps_of
from srifkit.models import TransitionBlock
from srifkit.state import Pose, build_layout


def random_factor(rng, n, diag_floor=0.5):
    R = np.triu(rng.normal(size=(n, n)))
    d = np.abs(np.diag(R)) + diag_floor
    R[np.diag_indices(n)] = d
    return R


def random_spd_factor(rng, n, scale=0.3):
    """Well-conditioned factor (random triangular ones are exponentially bad)."""
    from srifkit.linalg import cholesky_upper
    A = rng.normal(size=(n, n)) * scale
    return cholesky_upper(A @ A.T + np.eye(n), check_symmetry=False)


def schur_marginal_info(R, p):
    info = R.T @ R
    keep = [i for i in range(R.shape[0]) if i != p]
    Irr = info[np.ix_(keep, keep)]
    Irm = info[np.ix_(keep, [p])]
    Imm = info[p, p]
    return Irr - Irm @ Irm.T / Imm


class TestMarginalize:
    def test_p0_skip_branch(self):
        rng = np.random.default_rng(0)
        R = random_factor(rng, 8)
        out = srif_marginalize(R, 0)
        assert np.array_equal(out, R[1:, 1:])

    def test_identity_independent(self):
        out = srif_marginalize(np.eye(3), 1)
        assert np.allclose(out, np.eye(2))

    @pytest.mark.parametrize("seed", range(10))
    def test_schur_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        R = random_factor(rng, n)
        for p in range(n):
            out = srif_marginalize(R, p)
            ref = schur_marginal_info(R, p)
            rel = np.linalg.norm(out.T @ out - ref) / np.linalg.norm(ref)
            assert rel <= 1e-10, (n, p)
            assert np.allclose(np.tril(out, -1), 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_householder_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 30))
        R = random_factor(rng, n)
        for p in range(n):
            a = srif_marginalize(R, p)
            b = marginalize_oracle_householder(R, p)
            ref = np.linalg.norm(a.T @ a)
            assert np.linalg.norm(a.T @ a - b.T @ b) <= 1e-10 * ref

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            srif_marginalize(np.eye(3), 3)

    def test_flop_advantage_at_worst_case(self):
        rng = np.random.default_rng(1)
        n = 120
        R = random_factor(rng, n)
        fg, fh = FlopCounter(), FlopCounter()
        srif_marginalize(R, n - 1, flops=fg)
        marginalize_oracle_householder(R, n - 1, flops=fh)
        assert fg.total() * 5 <= fh.total()

    def test_block_order_insensitive(self):
        rng = np.random.default_rng(2)
        R = random_factor(rng, 20)
        a = marginalize_block(R, [3, 4, 5])
        b = marginalize_block(marginalize_block(R, [5]), [3, 4])
        assert np.allclose(a.T @ a, b.T @ b, atol=1e-9 * np.linalg.norm(a.T @ a))


def make_tb(rng, scale_phi=1.0, sqrt_info=None):
    Phi = np.eye(15) + scale_phi * 0.1 * rng.normal(size=(15, 15))
    if sqrt_info is None:
        A = rng.normal(size=(15, 15)) * 0.3
        Q = A @ A.T + np.eye(15)
        info = np.linalg.inv(Q)
        from srifkit.linalg import cholesky_upper
        sqrt_info = cholesky_upper(0.5 * (info + info.T), check_symmetry=False)
    return TransitionBlock(Phi, sqrt_info,
                           Pose(np.zeros(3), np.array([0, 0, 0, 1.0]), 0.0), np.zeros(3))


class TestAugment:
    def _oracle_info(self, R, layout, tb, old_pose_name, layout_aug):
        n, n_aug = layout.n, layout.n + 15
        # embed prior info at the augmented positions of the old columns
        colmap = np.empty(n, dtype=int)
        for name, off, dim in layout.blocks:
            aug_name = "old_" + name if name in ("bg", "ba", "v") else name
            colmap[off:off + dim] = np.arange(*layout_aug.index[aug_name]) \
                if False else (layout_aug.offset(aug_name) + np.arange(dim))
        info = np.zeros((n_aug, n_aug))
        info[np.ix_(colmap, colmap)] = R.T @ R
        C = np.zeros((15, n_aug))
        old_cols = np.concatenate([
            np.arange(0, 9),
            colmap[layout.offset(old_pose_name):layout.offset(old_pose_name) + 6]])
        new_cols = np.concatenate([
            np.arange(9, 18),
            layout_aug.offset([b for b, _, _ in layout_aug.blocks
                               if b.startswith("pose:new")][0]) + np.arange(6)])
        C[:, old_cols] = -tb.sqrt_info @ tb.phi
        C[:, new_cols] += tb.sqrt_info
        return info + C.T @ C

    def test_identity_prior_oracle(self):
        layout = build_layout(3, 1)
        rng = np.random.default_rng(3)
        R = np.eye(layout.n)
        tb = make_tb(rng, scale_phi=0.0, sqrt_info=np.eye(15))
        R_aug, layout_aug = srif_augment(R, layout, tb, "pose:2", "pose:new")
        assert np.allclose(np.tril(R_aug, -1), 0.0)
        ref = self._oracle_info(R, layout, tb, "pose:2", layout_aug)
        assert np.allclose(R_aug.T @ R_aug, ref, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_joint_information_oracle(self, seed):
        rng = np.random.default_rng(10 + seed)
        layout = build_layout(3, 2)
        R = random_factor(rng, layout.n)
        tb = make_tb(rng)
        R_aug, layout_aug = srif_augment(R, layout, tb, "pose:2", "pose:new")
        assert np.allclose(np.tril(R_aug, -1), 0.0)
        ref = self._oracle_info(R, layout, tb, "pose:2", layout_aug)
        num = np.linalg.norm(R_aug.T @ R_aug - ref)
        assert num <= 1e-10 * np.linalg.norm(ref)

    def test_deterministic_transition_limit(self):
        # near-zero process noise: new-state marginals = phi-mapped priors
        rng = np.random.default_rng(20)
        layout = build_layout(3, 0)
        R = random_spd_factor(rng, layout.n)
        tb = make_tb(rng, sqrt_info=np.eye(15) * 1e4)
        R_aug, layout_aug = srif_augment(R, layout, tb, "pose:2", "pose:new")
        P_aug = np.linalg.inv(R_aug.T @ R_aug)
        P_old = np.linalg.inv(R.T @ R)
        sel = np.concatenate([np.arange(0, 9),
                              layout.offset("pose:2") + np.arange(6)])
        new_idx = np.concatenate([np.arange(9, 18),
                                  layout_aug.offset("pose:new") + np.arange(6)])
        ref = tb.phi @ P_old[np.ix_(sel, sel)] @ tb.phi.T
        got = P_aug[np.ix_(new_idx, new_idx)]
        assert np.abs(got - ref).max() <= 1e-4 * np.abs(ref).max()

    def test_givens_cheaper_than_dense_householder(self):
        from srifkit.linalg import householder_qr
        rng = np.random.default_rng(30)
        layout = build_layout(4, 3)
        R = random_factor(rng, layout.n)
        tb = make_tb(rng)
        fg = FlopCounter()
        srif_augment(R, layout, tb, "pose:3", "pose:new", flops=fg)
        fh = FlopCounter()
        # dense QR on an equally sized augmented square matrix
        householder_qr(rng.normal(size=(layout.n + 15, layout.n + 15)), flops=fh)
        assert fg.total() <= fh.total()


def random_update_instance(rng, n=12, n1=3, m=20, pose_offsets=()):
    R = random_factor(rng, n)
    n2 = n - n1
    H2 = rng.normal(size=(m, n2))
    r = rng.normal(size=m)
    return R, H2, r


class TestSrifUpdate:
    def test_vacuous_measurement(self):
        rng = np.random.default_rng(4)
        R, _, _ = random_update_instance(rng)
        H2 = np.zeros((5, 9))
        res = srif_update_partitioned(R, H2, np.zeros(5), 3)
        assert np.allclose(res.dx, 0.0)
        # posterior equals prior up to row signs
        assert np.allclose(np.abs(res.R_post), np.abs(R), atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_normal_equation_oracle(self, seed):
        rng = np.random.default_rng(40 + seed)
        R, H2, r = random_update_instance(rng, n=10, n1=4, m=20)
        res = srif_update_partitioned(R, H2, r, 4)
        H = np.zeros((20, 10))
        H[:, 4:] = H2
        info = R.T @ R + H.T @ H
        dx_ref = np.linalg.solve(info, H.T @ r)
        assert np.abs(res.dx - dx_ref).max() <= 1e-8
        # posterior information identity (Eq. 3)
        rel = np.linalg.norm(res.R_post.T @ res.R_post - info) / np.linalg.norm(info)
        assert rel <= 1e-9
        assert np.allclose(np.tril(res.R_post, -1), 0.0)

    def test_flops_2mn2_at_paper_dims(self):
        rng = np.random.default_rng(5)
        m, n1, n2 = 995, 9, 122
        R = random_factor(rng, n1 + n2)
        H2 = rng.normal(size=(m, n2))
        fc = FlopCounter()
        srif_update_partitioned(R, H2, rng.normal(size=m), n1, flops=fc)
        target = 2 * m * n2 * n2
        assert abs(fc.total() - target) <= 0.15 * target


def coupled_pose_factor(rng, common_info=1e-2, relative_info=1e6):
    """Two 6-dim pose blocks: tight relative, loose common mode."""
    I6 = np.eye(6)
    info = np.block([[I6, -I6], [-I6, I6]]) * (relative_info / 2) \
        + np.block([[I6, I6], [I6, I6]]) * (common_info / 2)
    from srifkit.linalg import cholesky_upper
    return cholesky_upper(info + np.eye(12) * 1e-9, check_symmetry=False)


class TestPreconditioner:
    def test_identity(self):
        pc = build_preconditioner(np.eye(10), [0])
        assert np.allclose(pc.dense(), np.eye(10))

    def test_pure_jacobi_diagonal(self):
        d = np.array([10.0, 0.1, 2.0, 5.0])
        pc = build_preconditioner(np.diag(d), [])
        assert np.allclose(np.diag(pc.dense()), d)
        k, *_ = cond_spectral(np.diag(d) @ np.linalg.inv(pc.dense()))
        assert np.isclose(k, 1.0)

    def test_beats_plain_jacobi_on_coupled_poses(self):
        rng = np.random.default_rng(6)
        R22 = coupled_pose_factor(rng)
        pc = build_preconditioner(R22, [0, 6])
        D = np.sqrt(np.einsum("ij,ij->j", R22, R22))
        k_jacobi, *_ = cond_spectral(R22 / D[None, :])
        k_pc, *_ = cond_spectral(apply_preconditioner_inverse(pc, R22))
        assert k_pc <= k_jacobi / 10

    def test_apply_inverse_matches_dense(self):
        rng = np.random.default_rng(7)
        R22 = coupled_pose_factor(rng) + np.triu(rng.normal(size=(12, 12))) * 0.1
        pc = build_preconditioner(R22, [0, 6])
        A = rng.normal(size=(20, 12))
        got = apply_preconditioner_inverse(pc, A)
        ref = A @ np.linalg.inv(pc.dense())
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max() * 1e3

    def test_apply_right_solve_roundtrip(self):
        rng = np.random.default_rng(8)
        R22 = coupled_pose_factor(rng)
        pc = build_preconditioner(R22, [0, 6])
        A = rng.normal(size=(5, 12))
        back = apply_preconditioner_inverse(pc, apply_preconditioner_right(pc, A))
        assert np.allclose(back, A, atol=1e-9 * np.abs(A).max())
        z = rng.normal(size=12)
        x = preconditioner_solve_vec(pc, z)
        assert np.allclose(pc.dense() @ x, z, atol=1e-9)

    def test_degenerate_column_flagged(self):
        R22 = np.eye(6)
        R22[3, 3] = 0.0
        pc = build_preconditioner(R22, [])
        assert pc.degenerate == [3]
        assert pc.jacobi[3] == 1.0

    def test_application_flop_bound(self):
        rng = np.random.default_rng(9)
        n2, m = 24, 100
        R22 = random_factor(rng, n2)
        offs = [0, 6, 12, 18]
        pc = build_preconditioner(R22, offs)
        fc = FlopCounter()
        apply_preconditioner_inverse(pc, rng.normal(size=(m, n2)), flops=fc)
        nnz = np.count_nonzero(np.triu(pc.blocks, 1))
        assert fc.total() <= 4 * (nnz + n2) * m


class TestPcsrifUpdate:
    def _instance(self, rng, m=40):
        # x2 = two coupled pose blocks + 4 extra states
        n1, n2 = 3, 16
        R = np.zeros((n1 + n2, n1 + n2))
        R[:n1, :n1] = random_factor(rng, n1)
        R[:n1, n1:] = rng.normal(size=(n1, n2)) * 0.1
        R22 = np.zeros((16, 16))
        R22[:12, :12] = coupled_pose_factor(rng, common_info=1.0, relative_info=1e4)
        R22[12:, 12:] = random_factor(rng, 4)
        R22[:12, 12:] = rng.normal(size=(12, 4)) * 0.01
        R[n1:, n1:] = R22
        H2 = rng.normal(size=(m, n2))
        r = rng.normal(size=m)
        return R, H2, r, n1, [0, 6]

    def test_vacuous_measurement(self):
        rng = np.random.default_rng(11)
        R, _, _, n1, offs = self._instance(rng)
        res = pcsrif_update(R, np.zeros((4, 16)), np.zeros(4), n1, offs)
        assert np.allclose(res.dx, 0.0, atol=1e-12)
        info = R.T @ R
        rel = np.linalg.norm(res.R_post.T @ res.R_post - info) / np.linalg.norm(info)
        assert rel <= 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_qr_path(self, seed):
        rng = np.random.default_rng(50 + seed)
        R, H2, r, n1, offs = self._instance(rng)
        a = srif_update_partitioned(R, H2, r, n1)
        b = pcsrif_update(R, H2, r, n1, offs)
        assert np.abs(a.dx - b.dx).max() <= 1e-9 * max(1.0, np.abs(a.dx).max())
        ga = a.R_post.T @ a.R_post
        gb = b.R_post.T @ b.R_post
        assert np.linalg.norm(ga - gb) <= 1e-9 * np.linalg.norm(ga)
        assert np.allclose(np.tril(b.R_post, -1), 0.0)

    def test_flop_ratio_vs_qr(self):
        rng = np.random.default_rng(12)
        m, n1 = 995, 9
        lay_offsets = [1 + 6 * i for i in range(11)]  # 11 poses inside x2
        n2 = 122
        R = random_factor(rng, n1 + n2)
        H2 = rng.normal(size=(m, n2))
        r = rng.normal(size=m)
        fq = FlopCounter()
        srif_update_partitioned(R, H2, r, n1, flops=fq)
        fp = FlopCounter()
        pcsrif_update(R, H2, r, n1, lay_offsets, flops=fp)
        assert fp.total() <= 0.75 * fq.total()
        # normal-equation formation alone is about half the QR cost
        fN = FlopCounter()
        from srifkit.linalg import form_normal_half
        form_normal_half(np.vstack([R[n1:, n1:], H2]), flops=fN)
        assert abs(fN.total() - m * n2 * n2) <= 0.15 * m * n2 * n2
        # preconditioner application is a minor overhead
        pc = build_preconditioner(R[n1:, n1:], lay_offsets)
        fa = FlopCounter()
        apply_preconditioner_inverse(pc, H2, flops=fa)
        apply_preconditioner_inverse(pc, R[n1:, n1:], flops=fa)
        assert fa.total() <= 0.10 * fq.total()


PROPERTY = settings(max_examples=50, deadline=None, derandomize=True)


class TestUpdateProperties:
    """Posterior identity and exact triangularity over random instances."""

    @staticmethod
    def _instance(seed, dtype, m, poses, extra, n1, rank_deficient):
        rng = np.random.default_rng(seed)
        n2 = 6 * poses + extra
        R = random_spd_factor(rng, n1 + n2)
        H2 = rng.normal(size=(m, n2))
        if rank_deficient and m:
            H2[:, 0] = 0.0
            H2[:, -1] = H2[:, n2 // 2]
        r = rng.normal(size=m)
        offsets = [extra + 6 * i for i in range(poses)]
        return R.astype(dtype), H2.astype(dtype), r.astype(dtype), offsets

    @staticmethod
    def _check_posterior(res, R, H2, n1, dtype):
        n = R.shape[0]
        H = np.zeros((H2.shape[0], n))
        H[:, n1:] = H2
        R64 = R.astype(np.float64)
        info = R64.T @ R64 + H.T @ H
        Rp = res.R_post.astype(np.float64)
        assert res.R_post.dtype == dtype and res.dx.dtype == dtype
        assert np.array_equal(np.tril(res.R_post, -1), np.zeros_like(res.R_post))
        tol = 10 * (n + H2.shape[0]) * eps_of(dtype)
        assert np.linalg.norm(Rp.T @ Rp - info) <= tol * np.linalg.norm(info)

    @PROPERTY
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2 ** 32 - 1), m=st.integers(0, 30),
           poses=st.integers(0, 3), extra=st.integers(1, 4),
           n1=st.integers(0, 3), rank_deficient=st.booleans())
    def test_srif_update(self, dtype, seed, m, poses, extra, n1, rank_deficient):
        R, H2, r, _ = self._instance(seed, dtype, m, poses, extra, n1,
                                     rank_deficient)
        res = srif_update_partitioned(R, H2, r, n1)
        self._check_posterior(res, R, H2, n1, dtype)

    @PROPERTY
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2 ** 32 - 1), m=st.integers(0, 30),
           poses=st.integers(0, 3), extra=st.integers(1, 4),
           n1=st.integers(0, 3))
    def test_pcsrif_update(self, dtype, seed, m, poses, extra, n1):
        R, H2, r, offsets = self._instance(seed, dtype, m, poses, extra, n1,
                                           False)
        res = pcsrif_update(R, H2, r, n1, offsets)
        self._check_posterior(res, R, H2, n1, dtype)


class TestUpdateFlopTotals:
    """Counted FLOPs at the claim-4 instance (m=995, n2=122), pinned to
    the counts of the column-by-column loops the LAPACK calls replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pinned(self, dtype):
        rng = np.random.default_rng(2)
        m, n1, n2 = 995, 9, 122
        offsets = [1 + 6 * i for i in range(11)]
        R = random_factor(rng, n1 + n2).astype(dtype)
        H2 = rng.normal(size=(m, n2)).astype(dtype)
        r = rng.normal(size=m).astype(dtype)
        fq, fp = FlopCounter(), FlopCounter()
        srif_update_partitioned(R, H2, r, n1, flops=fq)
        pcsrif_update(R, H2, r, n1, offsets, flops=fp)
        assert (fq.adds, fq.muls, fq.divs, fq.sqrts) == (
            16430056, 16437681, 131, 122)
        assert (fp.adds, fp.muls, fp.divs, fp.sqrts) == (
            9635783, 9706055, 144152, 244)


class TestIfOracle:
    def test_agrees_when_well_conditioned(self):
        rng = np.random.default_rng(13)
        R, H2, r = random_update_instance(rng, n=10, n1=3, m=15)
        a = srif_update_partitioned(R, H2, r, 3)
        b = if_update_oracle(R, H2, r, 3)
        assert np.abs(a.dx - b.dx).max() <= 1e-9

    def test_vacuous(self):
        rng = np.random.default_rng(14)
        R, _, _ = random_update_instance(rng)
        res = if_update_oracle(R, np.zeros((4, 9)), np.zeros(4), 3)
        assert np.allclose(res.dx, 0.0)

    def test_unstable_in_float32_when_ill_conditioned(self):
        # kappa^2(R22) beyond 1/eps_f32: Cholesky fails or loses accuracy
        rng = np.random.default_rng(15)
        n1, n2 = 0, 12
        R = coupled_pose_factor(rng, common_info=1e-4, relative_info=1e6)
        k, *_ = cond_spectral(R)
        assert k ** 2 > 8.4e6
        H2 = rng.normal(size=(20, n2)).astype(np.float32) * 0.1
        r = rng.normal(size=20).astype(np.float32)
        R32 = R.astype(np.float32)
        ref = if_update_oracle(R.astype(np.float64), H2.astype(np.float64),
                               r.astype(np.float64), n1)
        try:
            got = if_update_oracle(R32, H2, r, n1)
            err = np.abs(got.dx - ref.dx).max() / max(np.abs(ref.dx).max(), 1e-30)
            assert err >= 1e-2
        except NotPositiveDefinite:
            pass  # also an accepted instability signature


class TestKf:
    def test_textbook_scalar(self):
        P = np.array([[1.0]])
        dx, P_post = kf_update(P, np.array([[1.0]]), np.array([1.0]))
        assert np.isclose(dx[0], 0.5) and np.isclose(P_post[0, 0], 0.5)

    def test_zero_h_noop(self):
        P = np.diag([2.0, 3.0])
        dx, P_post = kf_update(P, np.zeros((2, 2)), np.zeros(2))
        assert np.allclose(dx, 0.0) and np.allclose(P_post, P)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_srif(self, seed):
        rng = np.random.default_rng(60 + seed)
        R, H2, r = random_update_instance(rng, n=10, n1=3, m=20)
        res = srif_update_partitioned(R, H2, r, 3)
        P = np.linalg.inv(R.T @ R)
        H = np.zeros((20, 10))
        H[:, 3:] = H2
        dx, P_post = kf_update(P, H, r)
        assert np.abs(dx - res.dx).max() <= 1e-6
        P_srif = np.linalg.inv(res.R_post.T @ res.R_post)
        assert np.abs(P_post - P_srif).max() <= 1e-8 * np.abs(P_srif).max() * 1e2

    def test_propagate(self):
        P = np.diag([1.0, 2.0])
        F = np.array([[1.0, 0.5], [0.0, 1.0]])
        Q = np.eye(2) * 0.1
        P2 = kf_propagate(P, F, Q)
        assert np.allclose(P2, F @ P @ F.T + Q)
        assert np.array_equal(P2, P2.T)
