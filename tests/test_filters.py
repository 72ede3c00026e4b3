import dataclasses
import inspect
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from srifkit import filters, linalg
from srifkit.diag import record_conditioning
from srifkit.filters import (
    apply_preconditioner_inverse,
    apply_preconditioner_right,
    build_preconditioner,
    if_update_oracle,
    kf_propagate,
    kf_update,
    marginalize_block,
    pcsrif_update,
    preconditioner_solve_vec,
    srif_augment,
    srif_update_partitioned,
)
from srifkit.linalg import (
    UNCOUNTED,
    FlopCounter,
    NotPositiveDefinite,
    givens_triangularize,
)
from srifkit.models import TransitionBlock
from srifkit.state import N1, Layout
from srifkit.vins import _pose_offsets_x2

from givens_reference import marginalize_by_rotation
from householder_reference import marginalize_oracle_householder
from state_reference import walk_layout
from tolerances import canonical_signs, cond2, eps_of


def random_factor(rng, n, diag_floor=0.5):
    R = np.triu(rng.normal(size=(n, n)))
    d = np.abs(np.diag(R)) + diag_floor
    R[np.diag_indices(n)] = d
    return R


def random_spd_factor(rng, n, scale=0.3):
    """Well-conditioned factor (random triangular ones are exponentially bad)."""
    from srifkit.linalg import cholesky_upper
    A = rng.normal(size=(n, n)) * scale
    return cholesky_upper(A @ A.T + np.eye(n))


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
        assert np.allclose(canonical_signs(out), np.eye(2))

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
            # ?lasr rotates a chain's rows over every column, so a NaN
            # reaches entries below the diagonal that the reference never
            # rotates; in the canonical sign form a NaN diagonal spreads
            # along its row in both
            got, ref = canonical_signs(got), canonical_signs(ref)
            assert np.array_equal(np.isnan(got), np.isnan(ref)), p
            ok = ~np.isnan(ref)
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
        sqrt_info = cholesky_upper(0.5 * (info + info.T))
    return TransitionBlock(Phi, sqrt_info, np.zeros(3),
                           np.array([0, 0, 0, 1.0]), np.zeros(3))


def augment_maps(layout, old_pose):
    """Index arrays for srif_augment, written out block by block from the
    sizes alone.

    The augmented ordering is (old bg, old ba, old v, new bg, new ba,
    new v, features, tsync, poses..., new pose, camera). Returns the
    augmented offset of the new pose, colmap, rows and old_cols for a
    transition from pose row `old_pose`.
    """
    blocks = walk_layout(*layout)
    aug, off = {}, 0
    for name, dim in (("old", 9), ("new", 9),
                      ("window", blocks["intr"][0] - 9), ("pose", 6),
                      ("camera", 10)):
        aug[name] = off + np.arange(dim)
        off += dim
    assert off == layout.n + 15
    colmap = np.concatenate([aug["old"], aug["window"], aug["camera"]])
    rows = np.concatenate([aug["new"], aug["pose"]])
    old_cols = np.concatenate([aug["old"], colmap[blocks["pose"][old_pose]]])
    return aug["pose"][0], colmap, rows, old_cols


class TestAugment:
    def _augment(self, R, layout, tb, old_pose, flops=UNCOUNTED):
        new_pose, colmap, rows, old_cols = augment_maps(layout, old_pose)
        R_aug = srif_augment(R, colmap, rows, old_cols, tb, flops=flops)
        return R_aug, new_pose

    def _oracle_info(self, R, layout, tb, old_pose):
        new_pose, colmap, _, old_cols = augment_maps(layout, old_pose)
        n_aug = layout.n + 15
        # embed prior info at the augmented positions of the old columns
        info = np.zeros((n_aug, n_aug))
        info[np.ix_(colmap, colmap)] = R.T @ R
        C = np.zeros((15, n_aug))
        new_cols = np.concatenate([np.arange(9, 18),
                                   new_pose + np.arange(6)])
        C[:, old_cols] = -tb.sqrt_info @ tb.phi
        C[:, new_cols] += tb.sqrt_info
        return info + C.T @ C

    def test_identity_prior_oracle(self):
        layout = Layout(1, 3)
        rng = np.random.default_rng(3)
        R = np.eye(layout.n)
        tb = make_tb(rng, scale_phi=0.0, sqrt_info=np.eye(15))
        R_aug, _ = self._augment(R, layout, tb, 2)
        assert np.allclose(np.tril(R_aug, -1), 0.0)
        ref = self._oracle_info(R, layout, tb, 2)
        assert np.allclose(R_aug.T @ R_aug, ref, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_joint_information_oracle(self, seed):
        rng = np.random.default_rng(10 + seed)
        layout = Layout(2, 3)
        R = random_factor(rng, layout.n)
        tb = make_tb(rng)
        R_aug, _ = self._augment(R, layout, tb, 2)
        assert np.allclose(np.tril(R_aug, -1), 0.0)
        ref = self._oracle_info(R, layout, tb, 2)
        num = np.linalg.norm(R_aug.T @ R_aug - ref)
        assert num <= 1e-10 * np.linalg.norm(ref)

    def test_deterministic_transition_limit(self):
        # near-zero process noise: new-state marginals = phi-mapped priors
        rng = np.random.default_rng(20)
        layout = Layout(0, 3)
        R = random_spd_factor(rng, layout.n)
        tb = make_tb(rng, sqrt_info=np.eye(15) * 1e4)
        R_aug, new_pose = self._augment(R, layout, tb, 2)
        P_aug = np.linalg.inv(R_aug.T @ R_aug)
        P_old = np.linalg.inv(R.T @ R)
        sel = np.concatenate([np.arange(0, 9), layout.pose_cols(2)])
        new_idx = np.concatenate([np.arange(9, 18),
                                  new_pose + np.arange(6)])
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
        layout = Layout(features, window)
        old = data.draw(st.integers(0, window - 1))
        R = random_spd_factor(rng, layout.n)
        if uninformed:
            R[:, rng.integers(layout.n)] = 0.0    # a zero diagonal entry
        R = R.astype(dtype)
        tb = make_tb(rng)
        _, colmap, rows, old_cols = augment_maps(layout, old)
        R_aug = srif_augment(R, colmap, rows, old_cols, tb)
        assert R_aug.dtype == dtype
        assert np.array_equal(np.tril(R_aug, -1), np.zeros_like(R_aug))
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
        # 15**3 adds and 2 * 15**3 muls, 10125; column k's reflector spans
        # 16 rows (15 adds, 16 muls, 1 sqrt for its norm, 32 in all) and
        # updates the c = 29 - k columns right of it at 16 (1 + 2c) adds
        # and as many muls plus c; sum c = 435, so 30 * 32 + 32 (30 + 870)
        # + 435 = 30195
        rng = np.random.default_rng(7)
        fc = FlopCounter()
        srif_augment(random_spd_factor(rng, 15), np.arange(15),
                     np.arange(15, 30), np.arange(15), make_tb(rng), flops=fc)
        assert fc.total() == 10125 + 30195

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
        layout = Layout(1, 3)
        self._augment(random_spd_factor(rng, layout.n), layout, make_tb(rng),
                      2, flops=FlopCounter())
        assert calls == {"householder_qr": 1, "givens_triangularize": 0}

    def test_givens_cheaper_than_dense_householder(self):
        from srifkit.linalg import householder_qr
        rng = np.random.default_rng(30)
        layout = Layout(3, 4)
        R = random_factor(rng, layout.n)
        tb = make_tb(rng)
        fg = FlopCounter()
        self._augment(R, layout, tb, 3, flops=fg)
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
    return cholesky_upper(info + np.eye(12) * 1e-9)


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


def spai_pattern(poses):
    """Mask of M_SPAI's triangle on `poses` interleaved pose blocks: True
    on and above the diagonal between equal components."""
    k = np.arange(6 * poses) % 6
    return (k[:, None] == k) & np.triu(np.ones((6 * poses,) * 2, bool))


def interleave(stack):
    """The 6l x 6l matrix holding stack[k] at component k's rows and
    columns of the l pose blocks (every 6th from the k-th), zero
    elsewhere."""
    l = stack.shape[1]
    X = np.zeros((6 * l, 6 * l), dtype=stack.dtype)
    for k in range(6):
        X[k::6, k::6] = stack[k]
    return X


class TestPreconditioner:
    def test_identity(self):
        pc = build_preconditioner(np.eye(10), [0])
        assert np.allclose(preconditioner_dense(np.eye(10), [0]), np.eye(10))
        assert np.array_equal(pc.tri, np.ones((6, 1, 1)))
        assert np.array_equal(pc.inv, np.ones((6, 1, 1)))
        assert np.array_equal(interleave(pc.tri), np.eye(6))
        assert np.array_equal(pc.jacobi, np.ones(10))

    def test_pure_jacobi_diagonal(self):
        d = np.array([10.0, 0.1, 2.0, 5.0])
        pc = build_preconditioner(np.diag(d), [])
        M = preconditioner_dense(np.diag(d), [])
        assert np.allclose(np.diag(M), d)
        assert np.allclose(pc.jacobi, d)
        k = cond2(np.diag(d) @ np.linalg.inv(M))
        assert np.isclose(k, 1.0)

    def test_beats_plain_jacobi_on_coupled_poses(self):
        rng = np.random.default_rng(6)
        R22 = coupled_pose_factor(rng)
        pc = build_preconditioner(R22, [0, 6])
        D = np.sqrt(np.einsum("ij,ij->j", R22, R22))
        k_jacobi = cond2(R22 / D[None, :])
        k_pc = cond2(apply_preconditioner_inverse(pc, R22))
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inverse_matches_definition_on_graded_columns(self, dtype):
        # column norms from 1e-3 to 1e3 in the prior and in the operand:
        # A M^-1 = A M_SPAI^-1 M_Jacobi^-1 must hold column by column, so
        # no small column may be lost next to a large one
        rng = np.random.default_rng(31)
        n2, offsets = 30, [4, 10, 16]
        g = np.logspace(-3, 3, n2)
        R22 = (random_spd_factor(rng, n2) * g).astype(dtype)
        A = (rng.normal(size=(40, n2)) * g).astype(dtype)
        pc = build_preconditioner(R22, offsets)
        M_spai = np.eye(n2)
        M_spai[4:22, 4:22] = interleave(pc.tri)
        ref = (A.astype(np.float64) @ np.linalg.inv(M_spai)
               / pc.jacobi.astype(np.float64))
        got = apply_preconditioner_inverse(pc, A)
        assert got.dtype == dtype
        err = np.linalg.norm(got - ref, axis=0) / np.linalg.norm(ref, axis=0)
        assert err.max() <= 10 * n2 * eps_of(dtype)
        assert pc.jacobi.max() / pc.jacobi.min() > 1e5

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_inverse_keeps_the_operands_memory_order(self, order):
        # a binary64 operand on a binary32 preconditioner is cast first
        rng = np.random.default_rng(32)
        R22 = random_spd_factor(rng, 20).astype(np.float32)
        pc = build_preconditioner(R22, [2, 8, 14])
        A = np.array(rng.normal(size=(30, 20)), order=order)
        X = apply_preconditioner_inverse(pc, A)
        assert X.dtype == np.float32 and X.flags[order + "_CONTIGUOUS"]
        X32 = apply_preconditioner_inverse(pc, A.astype(np.float32))
        assert X32.flags[order + "_CONTIGUOUS"]
        assert np.array_equal(X, X32)

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
        assert {X.dtype, Y.dtype, x.dtype, R22p.dtype, pc.tri.dtype,
                pc.inv.dtype} == {np.dtype(dtype)}
        assert pc.tri.shape == pc.inv.shape == (6, poses, poses)
        # each component's tri^-1 is exactly zero below its diagonal, as
        # its triangle is
        for tri, inv in zip(pc.tri, pc.inv):
            assert np.array_equal(np.tril(tri, -1), np.zeros_like(tri))
            assert np.array_equal(np.tril(inv, -1), np.zeros_like(inv))
            near(tri.astype(np.float64) @ inv, np.eye(poses),
                 np.linalg.norm(tri) * np.linalg.norm(inv))
        near(X @ M, A64, np.linalg.norm(X) * np.linalg.norm(M))
        near(Y, A64 @ M, np.linalg.norm(A64) * np.linalg.norm(M))
        near(M @ x, z, np.linalg.norm(M) * np.linalg.norm(x))
        near(R22p @ M, R22.astype(np.float64),
             np.linalg.norm(R22p) * np.linalg.norm(M))
        assert np.array_equal(np.tril(R22p, -1), np.zeros_like(R22p))

    @given(dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2 ** 32 - 1), poses=st.integers(0, 11),
           first=st.integers(0, 20), extra=st.integers(0, 4),
           order=st.sampled_from("CF"))
    def test_the_stack_is_the_interleaved_triangle(self, dtype, seed, poses,
                                                   first, extra, order):
        # embedded at every 6th pose column, tri is bitwise R22's pose
        # block under the interleaved mask and inv bitwise that
        # triangle's per-component ?trtri; R22's strictly lower part is
        # never read for them, and nothing of the preconditioner aliases R22
        rng = np.random.default_rng(seed)
        n2 = first + 6 * poses + extra
        assume(n2 > 0)
        cols = slice(first, first + 6 * poses)
        offsets = list(range(cols.start, cols.stop, 6))
        R22 = np.array(random_spd_factor(rng, n2), dtype=dtype, order=order)
        pc = build_preconditioner(R22, offsets)
        tri = R22[cols, cols] * spai_pattern(poses)
        assert np.array_equal(interleave(pc.tri), tri)
        inv = np.zeros_like(tri)
        if poses:
            trtri, = scipy.linalg.lapack.get_lapack_funcs(("trtri",), (tri,))
            for k in range(6):
                inv[k::6, k::6] = trtri(tri[k::6, k::6])[0]
        assert np.array_equal(interleave(pc.inv), inv)

        garbage = R22 + np.tril(rng.normal(size=(n2, n2)), -1).astype(dtype)
        pg = build_preconditioner(garbage, offsets)
        assert pg.tri.tobytes() == pc.tri.tobytes()
        assert pg.inv.tobytes() == pc.inv.tobytes()
        assert pg.per_row == pc.per_row

        kept = [x.copy() for x in (pc.tri, pc.inv, pc.r22p)]
        R22[...] = np.nan
        for x, y in zip((pc.tri, pc.inv, pc.r22p), kept):
            assert x.tobytes() == y.tobytes()


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
    the closed-form counts of the structured kernels: the QR sweep of the
    data array's n2 + 1 columns over the 1 + m rows each reflector spans,
    and the Cholesky path's
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
        assert fq.total() == 30406648
        assert fp.total() == 17559721


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
        k = cond2(R)
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
        old, new = Layout(2, 3), Layout(2, 4)
        P = random_spd(rng, old.n)
        keep, sel, rows = propagate_maps(old, new, 2, 3)
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
    """keep, sel and rows for kf_propagate, written out block by block from
    the sizes of the layouts alone: every old block keeps its value at the
    same block of the new layout, and the transition maps (bg, ba, v, pose
    row old_pose) to (bg, ba, v, pose row new_pose)."""
    a, b = walk_layout(*old), walk_layout(*new)
    keep = np.concatenate([b[name][:len(cols)].ravel()
                           for name, cols in a.items() if name != "n"])
    sel = np.r_[0:9, a["pose"][old_pose]]
    rows = np.r_[0:9, b["pose"][new_pose]]
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
        old = Layout(features, window)
        new = Layout(features, window + 1)
        # the newest pose the transition starts from, or an older one
        src = window - 1 - seed % window
        keep, sel, rows = propagate_maps(old, new, src, window)
        P = random_spd(rng, old.n)
        tb = make_tb(rng)
        got = kf_propagate(P, keep, sel, rows, tb)
        ref = kf_propagate_dense(P, keep, sel, rows, tb)
        assert got.shape == (new.n, new.n)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(got, got.T)

    def test_float32_keeps_dtype(self):
        rng = np.random.default_rng(310)
        old, new = Layout(1, 3), Layout(1, 4)
        keep, sel, rows = propagate_maps(old, new, 2, 3)
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
        old, new = Layout(2, 3), Layout(2, 4)
        keep, sel, rows = propagate_maps(old, new, 2, 3)
        fc = FlopCounter()
        kf_propagate(random_spd(rng, old.n), keep, sel, rows, make_tb(rng),
                     flops=fc)
        assert old.n == 44
        assert fc.total() == 435 * 44 + 16650 == 35790


def counting_calls():
    """Each kernel of linalg and filters that takes a FlopCounter, by
    qualified name, as a call on one small input that passes its keyword
    arguments on; the call returns what the kernel returns."""
    rng = np.random.default_rng(900)
    n1, n2, m = 3, 12, 5
    R = random_spd_factor(rng, n1 + n2)
    R22, H2, r = R[n1:, n1:], rng.normal(size=(m, n2)), rng.normal(size=m)
    z = rng.normal(size=n2)
    pc = build_preconditioner(R22, [0, 6])
    A = rng.normal(size=(8, 5))
    S = linalg.form_normal_half(A)
    U = linalg.cholesky_upper(S)
    G = np.triu(rng.normal(size=(7, 5)))
    G[5:, :2] = rng.normal(size=(2, 2))
    old, new = Layout(1, 3), Layout(1, 4)
    tb = make_tb(rng)
    _, colmap, rows, old_cols = augment_maps(old, 2)
    keep, sel, prows = propagate_maps(old, new, 2, 3)
    P = random_spd(rng, old.n)
    return {
        "linalg.householder_qr": lambda **kw: linalg.householder_qr(
            A, top=U, **kw),
        "linalg.givens_triangularize": lambda **kw: givens_triangularize(
            G.copy(), **kw),
        "linalg.cholesky_upper": lambda **kw: linalg.cholesky_upper(S, **kw),
        "linalg.solve_upper": lambda **kw: linalg.solve_upper(U, A.T, **kw),
        "linalg.cholesky_solve": lambda **kw: linalg.cholesky_solve(
            U, A[0], **kw),
        "linalg.form_normal_half": lambda **kw: linalg.form_normal_half(
            A, top=U, **kw),
        "filters.marginalize_block": lambda **kw: marginalize_block(
            R, [4, 9], **kw),
        "filters.srif_augment": lambda **kw: srif_augment(
            random_spd_factor(np.random.default_rng(1), old.n), colmap, rows,
            old_cols, tb, **kw),
        "filters._posterior": lambda **kw: filters._posterior(
            R, n1, R22, z, **kw),
        "filters.Preconditioner.spai_inverse": lambda **kw: pc.spai_inverse(
            H2, **kw),
        "filters.build_preconditioner": lambda **kw: build_preconditioner(
            R22, [0, 6], **kw),
        "filters.apply_preconditioner_inverse":
            lambda **kw: apply_preconditioner_inverse(pc, H2, **kw),
        "filters.apply_preconditioner_right":
            lambda **kw: apply_preconditioner_right(pc, R22, **kw),
        "filters.preconditioner_solve_vec":
            lambda **kw: preconditioner_solve_vec(pc, z, **kw),
        "filters._normal_solve": lambda **kw: filters._normal_solve(
            R22, H2, r, **kw),
        "filters.srif_update_partitioned":
            lambda **kw: srif_update_partitioned(R, H2, r, n1, **kw),
        "filters.pcsrif_update": lambda **kw: pcsrif_update(
            R, H2, r, n1, [0, 6], **kw),
        "filters.if_update_oracle": lambda **kw: if_update_oracle(
            R, H2, r, n1, **kw),
        "filters.kf_propagate": lambda **kw: kf_propagate(
            P, keep, sel, prows, tb, **kw),
        "filters.kf_update": lambda **kw: kf_update(
            random_spd(np.random.default_rng(2), n1 + n2), H2, r, n1, **kw),
    }


def result_bytes(out):
    """Every field of a kernel's result, arrays as (dtype, shape, bytes)."""
    if dataclasses.is_dataclass(out):
        out = tuple(vars(out).values())
    if not isinstance(out, tuple):
        out = (out,)
    return [(v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray)
            else v for v in out]


class TestCountingIsUnconditional:
    """Counting is the only mode: a kernel called without a counter gets
    `UNCOUNTED`, which discards its count, and returns bitwise what it
    returns while counting."""

    @pytest.mark.parametrize("name", sorted(counting_calls()))
    def test_uncounted_call_returns_the_counted_result(self, name):
        call = counting_calls()[name]
        fc = FlopCounter()
        counted = result_bytes(call(flops=fc))
        assert fc.total() > 0
        assert result_bytes(call()) == counted
        assert UNCOUNTED.total() == 0

    def test_every_kernel_that_counts_is_covered(self):
        # every function and method with a `flops` parameter, other than
        # the counters' own `add`
        found = set()
        for mod in (linalg, filters):
            short = mod.__name__.rsplit(".", 1)[-1]
            for obj in vars(mod).values():
                if (getattr(obj, "__module__", None) != mod.__name__
                        or obj in (FlopCounter, type(UNCOUNTED))):
                    continue
                fns = (vars(obj).values() if inspect.isclass(obj) else [obj])
                found |= {f"{short}.{fn.__qualname__}" for fn in fns
                          if inspect.isfunction(fn)
                          and "flops" in inspect.signature(fn).parameters}
        assert found == set(counting_calls())


@st.composite
def index_arrays(draw):
    """An index array of 1-4 runs of consecutive values with gaps between
    them, the runs in any order."""
    start, runs = draw(st.integers(0, 3)), []
    for gap, length in draw(st.lists(st.tuples(st.integers(1, 4),
                                                st.integers(1, 5)),
                                     min_size=1, max_size=4)):
        runs.append(np.arange(start, start + length))
        start += length + gap
    return np.concatenate(draw(st.permutations(runs)))


class TestEmbed:
    """`filters._embed` copies the runs `filters._runs` splits an index
    array into, and writes bitwise what the element-wise scatter
    `dst[np.ix_(rows, cols)] = src` writes."""

    @given(rows=index_arrays(), cols=index_arrays(), square=st.booleans(),
           transposed=st.booleans(), order=st.sampled_from("CF"),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_writes_what_the_elementwise_scatter_writes(
            self, rows, cols, square, transposed, order, dtype, seed):
        if square:
            cols = rows
        rng = np.random.default_rng(seed)
        dst = np.array(rng.normal(size=(rows.max() + 3, cols.max() + 2)),
                       dtype=dtype, order=order)
        src = rng.normal(size=(len(cols), len(rows))).astype(dtype).T
        if not transposed:
            src = np.ascontiguousarray(src)
        # a signed zero and a NaN are copied bit for bit
        src[0, 0], src[-1, -1] = -0.0, np.nan
        ref = dst.copy(order="K")
        ref[np.ix_(rows, cols)] = src
        row_runs = filters._runs(rows)
        filters._embed(dst, row_runs,
                       row_runs if square else filters._runs(cols), src)
        assert dst.tobytes() == ref.tobytes()
        assert dst.flags.f_contiguous == (order == "F")

    @given(idx=index_arrays())
    def test_runs_cover_the_array(self, idx):
        runs = filters._runs(idx)
        assert np.array_equal(
            np.concatenate([np.arange(v, v + k) for _, v, k in runs]), idx)
        assert [i for i, _, _ in runs] == np.cumsum(
            [0] + [k for _, _, k in runs[:-1]]).tolist()
        # maximal: no run continues the one before it
        assert all(v != w + k for (_, w, k), (_, v, _) in zip(runs, runs[1:]))

    def test_no_runs_in_an_empty_array(self):
        assert filters._runs(np.arange(0)) == []

    def test_augment_embeds_into_a_fortran_top_block(self, monkeypatch):
        # ?tpqrt overwrites a Fortran-ordered top block in place
        tops = []
        qr = filters.householder_qr

        def spy(A, flops=UNCOUNTED, overwrite=False, top=None):
            tops.append(top.flags.f_contiguous)
            return qr(A, flops=flops, overwrite=overwrite, top=top)

        monkeypatch.setattr(filters, "householder_qr", spy)
        rng = np.random.default_rng(1000)
        layout = Layout(2, 3)
        _, colmap, rows, old_cols = augment_maps(layout, 2)
        srif_augment(random_spd_factor(rng, layout.n), colmap, rows,
                     old_cols, make_tb(rng))
        assert tops == [True]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_propagated_covariance_is_c_ordered(self, dtype):
        rng = np.random.default_rng(1001)
        old, new = Layout(2, 3), Layout(2, 4)
        keep, sel, rows = propagate_maps(old, new, 2, 3)
        P = kf_propagate(random_spd(rng, old.n).astype(dtype), keep, sel,
                         rows, make_tb(rng))
        assert P.flags.c_contiguous


CASES = dict(dtype=st.sampled_from([np.float32, np.float64]),
             seed=st.integers(0, 2 ** 32 - 1), features=st.integers(0, 3),
             poses=st.integers(2, 5), share=st.sampled_from([0.0, 0.3, 1.0]))


def flipped_rows(dtype, seed, features, poses, share):
    """(layout, R, D R, rng): an engine-shaped factor R, the same factor
    with a random set of rows flipped, and the generator to go on with.
    The set holds the diagonal's row of the last state `leaving(layout)`
    names, which that state's chain carries, and a row of the newest
    pose's block, which the SPAI triangle reads."""
    rng = np.random.default_rng(seed)
    lay = Layout(features, poses)
    R = random_spd_factor(rng, lay.n).astype(dtype)
    flip = rng.random(lay.n) < share
    flip[leaving(lay)[-1]] = True
    flip[lay.pose_cols(poses - 1)[rng.integers(6)]] = True
    D = np.where(flip, -1.0, 1.0).astype(dtype)
    return lay, R, np.multiply(D[:, None], R, order="F"), rng


def leaving(lay):
    """What a frame marginalizes: a feature, if any, and the oldest pose."""
    return np.concatenate([lay.feature_cols(0) if lay.n_features else [],
                           lay.pose_cols(0)]).astype(int)


class TestSignAgnostic:
    """Nothing reads the signs of the factor's rows. Flipping a set of them
    is an orthogonal left factor D, so every kernel gives the same
    information R.T R, dx and conditioning on D R as on R, to roundoff, at
    the same FLOP count."""

    @pytest.mark.parametrize("kernel", [
        "marginalize_block", "srif_augment", "srif_update_partitioned",
        "pcsrif_update", "if_update_oracle"])
    @given(m=st.integers(1, 40), **CASES)
    def test_row_flips_change_no_answer(self, kernel, m, dtype, seed,
                                        features, poses, share):
        lay, R, RD, rng = flipped_rows(dtype, seed, features, poses, share)
        n2 = lay.n - N1
        H2 = rng.normal(size=(m, n2)).astype(dtype)
        r = rng.normal(size=m).astype(dtype)
        tb = make_tb(rng)
        _, colmap, rows, old_cols = augment_maps(lay, poses - 1)
        call = {
            "marginalize_block": lambda F, fc: marginalize_block(
                F, leaving(lay), flops=fc),
            "srif_augment": lambda F, fc: srif_augment(
                F, colmap, rows, old_cols, tb, flops=fc),
            "srif_update_partitioned": lambda F, fc: srif_update_partitioned(
                F, H2, r, N1, flops=fc),
            "pcsrif_update": lambda F, fc: pcsrif_update(
                F, H2, r, N1, _pose_offsets_x2(lay), flops=fc),
            "if_update_oracle": lambda F, fc: if_update_oracle(
                F, H2, r, N1, flops=fc),
        }[kernel]
        fa, fb = FlopCounter(), FlopCounter()
        a, b = call(R, fa), call(RD, fb)
        assert fa == fb
        tol = 50 * lay.n * eps_of(dtype)
        if isinstance(a, filters.UpdateResult):
            dx = a.dx.astype(np.float64)
            assert np.abs(dx - b.dx).max() <= tol * np.abs(dx).max()
            a, b = a.R_post, b.R_post
        ga, gb = ((F.T @ F) for F in (a.astype(np.float64),
                                       b.astype(np.float64)))
        assert np.abs(ga - gb).max() <= tol * np.abs(ga).max()

    @given(**CASES)
    def test_row_flips_change_no_conditioning(self, dtype, seed, features,
                                              poses, share):
        lay, R, RD, _ = flipped_rows(dtype, seed, features, poses, share)
        ca, cb = (record_conditioning(0.0, F[N1:, N1:], _pose_offsets_x2(lay),
                                      np.eye(3)) for F in (R, RD))
        for field in ("kappa2_r22_post", "kappa2_r22_post_scaled",
                      "kappa2_r22_post_precond"):
            ka, kb = getattr(ca, field), getattr(cb, field)
            assert abs(ka - kb) <= 1e-9 * ka, field

    def test_a_negative_carried_diagonal_is_carried_with_its_sign(self):
        # a chain's carried diagonal is the first element of
        # np.hypot.accumulate, which keeps its sign; flipping the carried
        # row then flips only the row it becomes, bit for bit, and the
        # marginal information is the Schur complement
        assert np.hypot.accumulate(np.array([-3.0, 4.0])).tolist() == [-3.0, 5.0]
        rng = np.random.default_rng(5)
        n, p = 9, 6
        R = random_factor(rng, n)
        neg = R.copy()
        neg[p] = -neg[p]
        fa, fb = FlopCounter(), FlopCounter()
        want = marginalize_block(R, [p], flops=fa)
        got = marginalize_block(neg, [p], flops=fb)
        assert fa == fb
        assert np.array_equal(np.tril(got, -1), np.zeros_like(got))
        want[p - 1] = -want[p - 1]
        assert got.tobytes() == want.tobytes()
        ref = schur_marginal_info(neg, p)
        assert np.linalg.norm(got.T @ got - ref) <= 1e-12 * np.linalg.norm(ref)
