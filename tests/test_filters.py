import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from srifkit import filters, linalg
from srifkit.filters import (
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
    srif_update_partitioned,
)
from srifkit.linalg import (
    FlopCounter,
    NotPositiveDefinite,
    cond_spectral,
    eps_of,
    givens_triangularize,
)
from srifkit.models import TransitionBlock
from srifkit.state import Pose

from givens_reference import marginalize_by_rotation
from state_reference import build_layout


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
        out = marginalize_block(R, [0])
        assert np.array_equal(out, R[1:, 1:])

    def test_identity_independent(self):
        out = marginalize_block(np.eye(3), [1])
        assert np.allclose(out, np.eye(2))

    @pytest.mark.parametrize("seed", range(10))
    def test_schur_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        R = random_factor(rng, n)
        for p in range(n):
            out = marginalize_block(R, [p])
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
            a = marginalize_block(R, [p])
            b = marginalize_oracle_householder(R, p)
            ref = np.linalg.norm(a.T @ a)
            assert np.linalg.norm(a.T @ a - b.T @ b) <= 1e-10 * ref

    def test_index_out_of_range(self):
        # duplicated, negative and too large indices, each named
        R = random_factor(np.random.default_rng(3), 6)
        for indices, named in (([6], "[6]"), ([-1], "[-1]"), ([2, 2], "[2]")):
            with pytest.raises(IndexError, match=re.escape(named)):
                marginalize_block(R, indices)

    def test_flop_advantage_at_worst_case(self):
        rng = np.random.default_rng(1)
        n = 120
        R = random_factor(rng, n)
        fg, fh = FlopCounter(), FlopCounter()
        marginalize_block(R, [n - 1], flops=fg)
        marginalize_oracle_householder(R, n - 1, flops=fh)
        assert fg.total() * 5 <= fh.total()

    @pytest.mark.parametrize("seed", range(4))
    def test_uninformed_state_is_deleted(self, seed):
        # column p of R zero, so the state carries no information: the
        # marginal is the information with row and column p deleted, and
        # prior row 0 must survive it
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 12))
        for p in range(n):
            R = random_factor(rng, n)
            R[:, p] = 0.0
            info = R.T @ R
            keep = np.delete(np.arange(n), p)
            ref = info[np.ix_(keep, keep)]
            for marginalize in (marginalize_block, marginalize_oracle_householder):
                out = marginalize(R, [p] if marginalize is marginalize_block else p)
                assert out.shape == (n - 1, n - 1)
                assert np.array_equal(np.tril(out, -1), np.zeros_like(out))
                assert np.abs(out.T @ out - ref).max() <= 1e-12 * np.abs(ref).max(), (
                    marginalize.__name__, n, p)

    @given(dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 24),
           uninformed=st.integers(0, 3))
    def test_block_matches_scalar_by_scalar(self, dtype, seed, n, uninformed):
        # the one-pass block marginalization against the rotation-by-rotation
        # sweep applied index by index, also when some of the block's states
        # carry no information: the same count, the factor to roundoff, and
        # bit for bit the factor of one marginalize_block call per index
        rng = np.random.default_rng(seed)
        R = random_factor(rng, n).astype(dtype)
        idx = np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
        R[:, rng.choice(idx, size=min(uninformed, idx.size), replace=False)] = 0.0
        ref, seq, fr, fs = R, R, FlopCounter(), FlopCounter()
        for k, p in enumerate(idx):
            ref = marginalize_by_rotation(ref, p - k, flops=fr)
            seq = marginalize_block(seq, [p - k], flops=fs)
        fb = FlopCounter()
        got = marginalize_block(R, idx.tolist(), flops=fb)
        assert got.dtype == dtype
        assert fb == fr == fs
        assert np.array_equal(got, seq)
        assert np.all(np.tril(got, -1) == 0.0)
        tol = 8 * n * eps_of(dtype) * np.linalg.norm(R.astype(np.float64))
        assert np.abs(got.astype(np.float64) - ref).max(initial=0.0) <= tol

    @pytest.mark.parametrize("seed", range(6))
    def test_features_and_pose_leave_in_one_call(self, seed):
        # what leaves the engine's state in one frame, some features and
        # the oldest pose, in one call: the factor of the features' call
        # followed by the pose's, and the Schur complement of the
        # information, also when a leaving state carries no information
        rng = np.random.default_rng(300 + seed)
        s, l = 7, 5
        n = 9 + 3 * s + 1 + 6 * l + 10
        R = random_spd_factor(rng, n)
        fidx = sorted(9 + 3 * f + j for f in rng.choice(s, size=3, replace=False)
                      for j in range(3))
        pidx = list(range(9 + 3 * s + 1, 9 + 3 * s + 7))
        if seed % 2:
            R[:, fidx[int(rng.integers(len(fidx)))]] = 0.0
        got = marginalize_block(R, fidx + pidx)
        seq = marginalize_block(marginalize_block(R, fidx),
                                [p - len(fidx) for p in pidx])
        assert np.abs(got - seq).max() <= 1e-12 * np.abs(seq).max()
        info = R.T @ R
        gone = fidx + pidx
        keep = np.delete(np.arange(n), gone)
        ref = info[np.ix_(keep, keep)] - info[np.ix_(keep, gone)] @ np.linalg.pinv(
            info[np.ix_(gone, gone)]) @ info[np.ix_(gone, keep)]
        assert np.abs(got.T @ got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_block_order_insensitive(self):
        rng = np.random.default_rng(2)
        R = random_factor(rng, 20)
        a = marginalize_block(R, [3, 4, 5])
        b = marginalize_block(marginalize_block(R, [5]), [3, 4])
        assert np.allclose(a.T @ a, b.T @ b, atol=1e-9 * np.linalg.norm(a.T @ a))


class TestMarginalizeSweep:
    """marginalize_block against the rotation-by-rotation sweep, every p."""

    @staticmethod
    def _compare(R, dtype):
        n = R.shape[0]
        for p in range(n):
            fg, fr = FlopCounter(), FlopCounter()
            got = marginalize_block(R, [p], flops=fg)
            ref = marginalize_by_rotation(R, p, flops=fr)
            assert got.dtype == dtype
            assert fg == fr
            assert np.array_equal(np.isnan(got), np.isnan(ref)), p
            ok = ~np.isnan(ref)
            # sign normalization spreads a NaN diagonal along its row
            assert np.all(np.tril(got, -1)[ok] == 0.0)
            tol = 8 * n * eps_of(dtype) * np.linalg.norm(np.nan_to_num(R.astype(np.float64)))
            assert np.abs(got[ok].astype(np.float64) - ref[ok]).max(
                initial=0.0) <= tol, p

    @given(dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 20),
           zero_share=st.sampled_from([0.0, 0.3, 0.7]))
    def test_matches_rotation_by_rotation(self, dtype, seed, n, zero_share):
        rng = np.random.default_rng(seed)
        R = random_factor(rng, n)
        # zeros above the diagonal: some leading entries of the chain are 0
        R[np.triu(rng.random((n, n)) < zero_share, 1)] = 0.0
        self._compare(R.astype(dtype), dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_diagonal_takes_identity_rotations(self, dtype):
        # R[p, p] = 0 with zeros above it: the bottom rotations have
        # a = b = 0, and an all-zero column has only those
        rng = np.random.default_rng(40)
        R = random_factor(rng, 9)
        R[:6, 5] = 0.0
        R[2:5, 4] = 0.0
        R[:, 7] = 0.0
        self._compare(R.astype(dtype), dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_propagates_as_rotation_by_rotation(self, dtype):
        rng = np.random.default_rng(41)
        for i, j in [(0, 0), (2, 5), (4, 4), (1, 7), (6, 8)]:
            R = random_factor(rng, 9)
            R[i, j] = np.nan
            self._compare(R.astype(dtype), dtype)


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


def augment_maps(layout, old_pose_name, new_pose_name):
    """Index arrays for srif_augment, derived from block names alone.

    The augmented ordering is (old bg, old ba, old v, new bg, new ba,
    new v, features, tsync, poses..., new pose, camera). Returns the
    augmented block offsets, colmap, rows and old_cols.
    """
    cam = ("intr", "p_ic", "q_ic")
    names = [("old_" + nm, 3) for nm in ("bg", "ba", "v")]
    names += [(nm, dim) for nm, _, dim in layout.blocks if nm not in cam]
    names += [(new_pose_name, 6)] + [(nm, layout.index[nm][1]) for nm in cam]
    aug, off = {}, 0
    for nm, dim in names:
        aug[nm] = off
        off += dim
    assert off == layout.n + 15
    colmap = np.empty(layout.n, dtype=int)
    for name, off, dim in layout.blocks:
        aug_name = "old_" + name if name in ("bg", "ba", "v") else name
        colmap[off:off + dim] = aug[aug_name] + np.arange(dim)
    rows = np.concatenate([aug["bg"] + np.arange(9),
                           aug[new_pose_name] + np.arange(6)])
    old_cols = np.concatenate([
        np.arange(0, 9),
        colmap[layout.offset(old_pose_name):layout.offset(old_pose_name) + 6]])
    return aug, colmap, rows, old_cols


class TestAugment:
    def _augment(self, R, layout, tb, old_pose_name, flops=None):
        aug, colmap, rows, old_cols = augment_maps(layout, old_pose_name,
                                                   "pose:new")
        R_aug = srif_augment(R, colmap, rows, old_cols, tb, flops=flops)
        return R_aug, aug

    def _oracle_info(self, R, layout, tb, old_pose_name):
        aug, colmap, _, old_cols = augment_maps(layout, old_pose_name,
                                                "pose:new")
        n_aug = layout.n + 15
        # embed prior info at the augmented positions of the old columns
        info = np.zeros((n_aug, n_aug))
        info[np.ix_(colmap, colmap)] = R.T @ R
        C = np.zeros((15, n_aug))
        new_cols = np.concatenate([np.arange(9, 18),
                                   aug["pose:new"] + np.arange(6)])
        C[:, old_cols] = -tb.sqrt_info @ tb.phi
        C[:, new_cols] += tb.sqrt_info
        return info + C.T @ C

    def test_identity_prior_oracle(self):
        layout = build_layout(3, 1)
        rng = np.random.default_rng(3)
        R = np.eye(layout.n)
        tb = make_tb(rng, scale_phi=0.0, sqrt_info=np.eye(15))
        R_aug, _ = self._augment(R, layout, tb, "pose:2")
        assert np.allclose(np.tril(R_aug, -1), 0.0)
        ref = self._oracle_info(R, layout, tb, "pose:2")
        assert np.allclose(R_aug.T @ R_aug, ref, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_joint_information_oracle(self, seed):
        rng = np.random.default_rng(10 + seed)
        layout = build_layout(3, 2)
        R = random_factor(rng, layout.n)
        tb = make_tb(rng)
        R_aug, _ = self._augment(R, layout, tb, "pose:2")
        assert np.allclose(np.tril(R_aug, -1), 0.0)
        ref = self._oracle_info(R, layout, tb, "pose:2")
        num = np.linalg.norm(R_aug.T @ R_aug - ref)
        assert num <= 1e-10 * np.linalg.norm(ref)

    def test_deterministic_transition_limit(self):
        # near-zero process noise: new-state marginals = phi-mapped priors
        rng = np.random.default_rng(20)
        layout = build_layout(3, 0)
        R = random_spd_factor(rng, layout.n)
        tb = make_tb(rng, sqrt_info=np.eye(15) * 1e4)
        R_aug, aug = self._augment(R, layout, tb, "pose:2")
        P_aug = np.linalg.inv(R_aug.T @ R_aug)
        P_old = np.linalg.inv(R.T @ R)
        sel = np.concatenate([np.arange(0, 9),
                              layout.offset("pose:2") + np.arange(6)])
        new_idx = np.concatenate([np.arange(9, 18),
                                  aug["pose:new"] + np.arange(6)])
        ref = tb.phi @ P_old[np.ix_(sel, sel)] @ tb.phi.T
        got = P_aug[np.ix_(new_idx, new_idx)]
        assert np.abs(got - ref).max() <= 1e-4 * np.abs(ref).max()

    @given(dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2 ** 32 - 1), window=st.integers(2, 6),
           features=st.integers(0, 5), uninformed=st.booleans(),
           data=st.data())
    def test_matches_givens_sweep_of_the_stack(self, dtype, seed, window,
                                               features, uninformed, data):
        rng = np.random.default_rng(seed)
        layout = build_layout(window, features)
        old = data.draw(st.integers(0, window - 1))
        R = random_spd_factor(rng, layout.n)
        if uninformed:
            R[:, rng.integers(layout.n)] = 0.0    # a zero diagonal entry
        R = R.astype(dtype)
        tb = make_tb(rng)
        _, colmap, rows, old_cols = augment_maps(layout, f"pose:{old}",
                                                 "pose:new")
        R_aug = srif_augment(R, colmap, rows, old_cols, tb)
        assert R_aug.dtype == dtype
        assert np.array_equal(np.tril(R_aug, -1), np.zeros_like(R_aug))
        assert np.all(np.diag(R_aug) >= 0)
        # oracle: the constraint rows in the prior's empty slots, swept by
        # Givens rotations in float64
        n_aug = layout.n + 15
        A = np.zeros((n_aug, n_aug))
        A[np.ix_(colmap, colmap)] = R
        A[np.ix_(rows, old_cols)] = -(tb.sqrt_info @ tb.phi).astype(dtype)
        A[np.ix_(rows, rows)] += tb.sqrt_info.astype(dtype)
        ref = givens_triangularize(A)
        info = ref.T @ ref
        R64 = R_aug.astype(np.float64)
        tol = 1e-12 if dtype == np.float64 else 20 * n_aug * eps_of(dtype)
        assert np.linalg.norm(R64.T @ R64 - info) <= tol * np.linalg.norm(info)

    def test_flops_closed_form_by_hand(self):
        # n = 15, n_aug = 30, every diagonal entry nonzero: L @ Phi is
        # 15**3 adds and 2 * 15**3 muls; column k's reflector spans 16
        # rows (15 adds, 16 muls, 1 sqrt for its norm) and updates the
        # c = 29 - k columns right of it at 16 (1 + 2c) adds and as many
        # muls plus c; sum c = 435, so 15*30 + 16 (30 + 870) = 14850 adds
        # and 16*30 + 14400 + 435 = 15315 muls
        rng = np.random.default_rng(7)
        fc = FlopCounter()
        srif_augment(random_spd_factor(rng, 15), np.arange(15),
                     np.arange(15, 30), np.arange(15), make_tb(rng), flops=fc)
        assert (fc.adds, fc.muls, fc.divs, fc.sqrts) == (
            3375 + 14850, 6750 + 15315, 0, 30)

    def test_runs_on_householder_qr_through_filters(self, monkeypatch):
        # the benchmark times kernels by the names srifkit.filters looks up
        calls = {"householder_qr": 0, "givens_triangularize": 0}
        for module, name in ((filters, "householder_qr"),
                             (filters, "givens_triangularize"),
                             (linalg, "givens_triangularize")):
            def counted(*args, _fn=getattr(module, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        rng = np.random.default_rng(8)
        layout = build_layout(3, 1)
        self._augment(random_spd_factor(rng, layout.n), layout, make_tb(rng),
                      "pose:2", flops=FlopCounter())
        assert calls == {"householder_qr": 1, "givens_triangularize": 0}

    def test_givens_cheaper_than_dense_householder(self):
        from srifkit.linalg import householder_qr
        rng = np.random.default_rng(30)
        layout = build_layout(4, 3)
        R = random_factor(rng, layout.n)
        tb = make_tb(rng)
        fg = FlopCounter()
        self._augment(R, layout, tb, "pose:3", flops=fg)
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


def preconditioner_dense(R22, pose_offsets):
    """M = M_Jacobi @ M_SPAI in float64, by definition: M_SPAI is the
    identity with R22's entries written at each pair (o_i + k, o_j + k),
    i <= j, of pose offsets and component k, and M_Jacobi holds the
    column norms of R22 @ M_SPAI^-1, zero norms pinned to 1."""
    R22 = np.asarray(R22, dtype=np.float64)
    M = np.eye(R22.shape[0])
    for i, oi in enumerate(pose_offsets):
        for oj in pose_offsets[i:]:
            for k in range(6):
                M[oi + k, oj + k] = R22[oi + k, oj + k]
    norms = np.linalg.norm(R22 @ np.linalg.inv(M), axis=0)
    norms[norms == 0] = 1.0
    return np.diag(norms) @ M


class TestPreconditioner:
    def test_identity(self):
        pc = build_preconditioner(np.eye(10), [0])
        assert np.allclose(preconditioner_dense(np.eye(10), [0]), np.eye(10))
        assert np.array_equal(pc.tri, np.eye(6))
        assert np.array_equal(pc.jacobi, np.ones(10))

    def test_pure_jacobi_diagonal(self):
        d = np.array([10.0, 0.1, 2.0, 5.0])
        pc = build_preconditioner(np.diag(d), [])
        M = preconditioner_dense(np.diag(d), [])
        assert np.allclose(np.diag(M), d)
        assert np.allclose(pc.jacobi, d)
        k, *_ = cond_spectral(np.diag(d) @ np.linalg.inv(M))
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
        ref = A @ np.linalg.inv(preconditioner_dense(R22, [0, 6]))
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
        assert np.allclose(preconditioner_dense(R22, [0, 6]) @ x, z, atol=1e-9)

    def test_zero_column_norm_pinned_to_one(self):
        R22 = np.eye(6)
        R22[3, 3] = 0.0
        pc = build_preconditioner(R22, [])
        assert pc.jacobi.tolist() == [1.0] * 6

    def test_application_flop_bound(self):
        rng = np.random.default_rng(9)
        n2, m = 24, 100
        R22 = random_factor(rng, n2)
        offs = [0, 6, 12, 18]
        pc = build_preconditioner(R22, offs)
        fc = FlopCounter()
        apply_preconditioner_inverse(pc, rng.normal(size=(m, n2)), flops=fc)
        nnz = np.count_nonzero(np.triu(preconditioner_dense(R22, offs), 1))
        assert nnz == pc.nnz() == 6 * 4 * 3 // 2
        assert fc.total() <= 4 * (nnz + n2) * m

    @pytest.mark.parametrize("offsets, n2", [([0, 12], 20), ([6], 10),
                                             ([-6], 20), ([6, 0], 20)])
    def test_rejects_offsets_that_are_not_contiguous_pose_blocks(
            self, offsets, n2):
        with pytest.raises(ValueError, match=re.escape(str(offsets))):
            build_preconditioner(np.eye(n2), offsets)

    def test_singular_block_names_pose_and_component(self):
        R22 = np.eye(14)
        R22[9, 9] = 0.0
        with pytest.raises(scipy.linalg.LinAlgError,
                           match="pose 1, component 2"):
            build_preconditioner(R22, [1, 7])

    @given(dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2 ** 32 - 1), poses=st.integers(0, 11),
           first=st.integers(0, 20), extra=st.integers(0, 4),
           m=st.integers(0, 40))
    def test_applications_match_dense_oracle(self, dtype, seed, poses, first,
                                             extra, m):
        rng = np.random.default_rng(seed)
        offsets = [first + 6 * i for i in range(poses)]
        n2 = first + 6 * poses + extra
        assume(n2 > 0)
        R22 = random_spd_factor(rng, n2).astype(dtype)
        A = rng.normal(size=(m, n2)).astype(dtype)
        z = rng.normal(size=n2).astype(dtype)
        pc = build_preconditioner(R22, offsets)
        M = preconditioner_dense(R22, offsets)
        tol = 10 * n2 * eps_of(dtype)
        A64 = A.astype(np.float64)

        def near(got, ref, scale):
            assert np.linalg.norm(got - ref) <= tol * scale

        X = apply_preconditioner_inverse(pc, A)
        Y = apply_preconditioner_right(pc, A)
        x = preconditioner_solve_vec(pc, z)
        R22p = pc.r22p
        assert {X.dtype, Y.dtype, x.dtype, R22p.dtype} == {np.dtype(dtype)}
        near(X @ M, A64, np.linalg.norm(X) * np.linalg.norm(M))
        near(Y, A64 @ M, np.linalg.norm(A64) * np.linalg.norm(M))
        near(M @ x, z, np.linalg.norm(M) * np.linalg.norm(x))
        near(R22p @ M, R22.astype(np.float64),
             np.linalg.norm(R22p) * np.linalg.norm(M))
        assert np.array_equal(np.tril(R22p, -1), np.zeros_like(R22p))


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

    @given(dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2 ** 32 - 1), m=st.integers(0, 30),
           poses=st.integers(0, 3), extra=st.integers(1, 4),
           n1=st.integers(0, 3), rank_deficient=st.booleans())
    def test_srif_update(self, dtype, seed, m, poses, extra, n1, rank_deficient):
        R, H2, r, _ = self._instance(seed, dtype, m, poses, extra, n1,
                                     rank_deficient)
        res = srif_update_partitioned(R, H2, r, n1)
        self._check_posterior(res, R, H2, n1, dtype)

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
    the closed-form counts of the structured kernels: the QR sweep over
    the 1 + m rows each reflector spans, and the Cholesky path's
    triangular R22p.T R22p and its column sweep's k-term dot products.
    Each triangular solve counts n(n - 1)/2 multiply-adds per right-hand
    side: dx2's 122 x 122 back substitution (the Cholesky path's ?potrs
    two of them) and dx1's 9 x 9 one."""

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
            15197393, 15205018, 131, 122)
        assert (fp.adds, fp.muls, fp.divs, fp.sqrts) == (
            8668836, 8746489, 144152, 244)


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
        dx, P_post = kf_update(P, np.array([[1.0]]), np.array([1.0]), 0)
        assert np.isclose(dx[0], 0.5) and np.isclose(P_post[0, 0], 0.5)

    def test_zero_h_noop(self):
        P = np.diag([2.0, 3.0])
        dx, P_post = kf_update(P, np.zeros((2, 2)), np.zeros(2), 0)
        assert np.allclose(dx, 0.0) and np.allclose(P_post, P)

    def test_indefinite_innovation_names_its_pivot(self):
        # S = H2 P22 H2.T + I = -9 I fails at the first pivot
        P = -10.0 * np.eye(5)
        with pytest.raises(NotPositiveDefinite) as e:
            kf_update(P, np.eye(3), np.ones(3), 2)
        assert e.value.pivot >= 0
        assert e.value.value <= 0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_srif(self, seed):
        rng = np.random.default_rng(60 + seed)
        R, H2, r = random_update_instance(rng, n=10, n1=3, m=20)
        res = srif_update_partitioned(R, H2, r, 3)
        P = np.linalg.inv(R.T @ R)
        dx, P_post = kf_update(P, H2, r, 3)
        assert np.abs(dx - res.dx).max() <= 1e-6
        P_srif = np.linalg.inv(res.R_post.T @ res.R_post)
        assert np.abs(P_post - P_srif).max() <= 1e-8 * np.abs(P_srif).max() * 1e2

    def test_propagate(self):
        rng = np.random.default_rng(70)
        old, new = build_layout(3, 2), build_layout(4, 2)
        P = random_spd(rng, old.n)
        keep, sel, rows = propagate_maps(old, new, "pose:2", "pose:3")
        tb = make_tb(rng)
        P2 = kf_propagate(P, keep, sel, rows, tb)
        ref = kf_propagate_dense(P, keep, sel, rows, tb)
        assert np.abs(P2 - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(P2, P2.T)


def random_spd(rng, n):
    A = rng.normal(size=(n, n))
    P = A @ A.T / n + np.eye(n)
    return 0.5 * (P + P.T)


def propagate_maps(old, new, old_pose, new_pose):
    """keep, sel and rows for kf_propagate from block names alone: every
    old block keeps its value under its name, and the transition maps
    (bg, ba, v, old pose) to (bg, ba, v, new pose)."""
    keep = np.concatenate([new.offset(name) + np.arange(dim)
                           for name, _, dim in old.blocks])
    sel = np.r_[0:9, old.offset(old_pose) + np.arange(6)]
    rows = np.r_[0:9, new.offset(new_pose) + np.arange(6)]
    return keep, sel, rows


def kf_propagate_dense(P, keep, sel, rows, tb):
    """F P F.T + Q with the dense n x n_old F: the embedding of the old
    state, with Phi on the transitioned rows."""
    n = len(keep) + 6
    F = np.zeros((n, len(keep)))
    F[keep, np.arange(len(keep))] = 1.0
    F[np.ix_(rows, sel)] = tb.phi
    Linv = np.linalg.inv(tb.sqrt_info)
    Q = np.zeros((n, n))
    Q[np.ix_(rows, rows)] = Linv @ Linv.T
    return F @ P @ F.T + Q


class TestKfPropagate:
    @pytest.mark.parametrize("window,features", [(2, 0), (3, 2), (11, 7)])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_oracle(self, window, features, seed):
        rng = np.random.default_rng(300 + seed)
        old = build_layout(window, features)
        new = build_layout(window + 1, features)
        # the newest pose the transition starts from, or an older one
        src = f"pose:{window - 1 - seed % window}"
        keep, sel, rows = propagate_maps(old, new, src, f"pose:{window}")
        P = random_spd(rng, old.n)
        tb = make_tb(rng)
        got = kf_propagate(P, keep, sel, rows, tb)
        ref = kf_propagate_dense(P, keep, sel, rows, tb)
        assert got.shape == (new.n, new.n)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(got, got.T)

    def test_float32_keeps_dtype(self):
        rng = np.random.default_rng(310)
        old, new = build_layout(3, 1), build_layout(4, 1)
        keep, sel, rows = propagate_maps(old, new, "pose:2", "pose:3")
        P = random_spd(rng, old.n)
        tb = make_tb(rng)
        got = kf_propagate(P.astype(np.float32), keep, sel, rows, tb)
        ref = kf_propagate_dense(P, keep, sel, rows, tb)
        assert got.dtype == np.float32
        assert np.array_equal(got, got.T)
        assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()

    def test_flop_count_closed_form(self):
        # Phi P[sel, :] (15 x 15 x n_old), the corner's Phi product and
        # L^-1 L^-T (15 x 15 x 15 each), L^-1 by back substitution on 15
        # columns (105 multiply-adds and 15 divs each), and the 225
        # additions of Q: 435 n_old + 16650 in all
        rng = np.random.default_rng(320)
        old, new = build_layout(3, 2), build_layout(4, 2)
        keep, sel, rows = propagate_maps(old, new, "pose:2", "pose:3")
        fc = FlopCounter()
        kf_propagate(random_spd(rng, old.n), keep, sel, rows, make_tb(rng),
                     flops=fc)
        assert old.n == 44
        assert fc == FlopCounter(adds=17340, muls=18225, divs=225, sqrts=0)
        assert fc.total() == 435 * 44 + 16650
