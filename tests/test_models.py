import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from srifkit import linalg, models
from srifkit.models import (
    GRAVITY,
    TRIANGULATED,
    ImuNoise,
    check_imu_samples,
    imu_transition,
    msckf_nullspace_project,
    project_feature,
    reanchor_feature,
    triangulate_inverse_depth,
    window_cameras,
)
from srifkit.state import (
    N1,
    VinsStateVector,
    boxplus,
    layout_of,
    quat_from_rotvec,
    quat_to_mat,
    quat_mul,
)

from model_reference import (
    TRIANGULATION_REASONS,
    BehindCamera,
    NonPositiveDepth,
    RankDeficientFeature,
    bearing_angles,
    bearing_jacobian,
    bearing_vector,
    camera_pose_at,
    feature_point_global,
    imu_transition_by_sample,
    msckf_nullspace_project_by_track,
    project_feature_by_observation,
    reanchor_by_feature,
    triangulate_by_track,
    triangulate_by_view,
    tsync_column_by_central_differences,
)
from state_reference import (
    quat_conj,
    rotvec_from_quat,
    set_features,
    set_poses,
)

IDENTITY = np.array([0.0, 0.0, 0.0, 1.0])


def make_scene(seed=0, tsync=0.0):
    """Three poses, ids 0, 1, 2, and one feature anchored at pose 0."""
    rng = np.random.default_rng(seed)
    st = VinsStateVector.identity()
    st.tsync = tsync
    st.p_ic = np.array([0.05, -0.02, 0.01])
    st.q_ic = quat_from_rotvec(rng.normal(size=3) * 0.05)
    positions, quats = [], []
    for _ in range(3):
        quats.append(quat_from_rotvec(rng.normal(size=3) * 0.2))
        positions.append(rng.normal(size=3) * 0.5)
    set_poses(st, positions, quats)
    return set_features(st, [0], [[0.08, -0.06, 0.4]])


def project_one(state, k, observing_pose_id, motion=None):
    """The batched `project_feature` at k = 1 for the state's feature k,
    shaped like the oracle's output: (pixel, {error-state offset: 2 x dim
    Jacobian}), the feature's block included, with one block for a pose
    that is both anchor and observer. Raises BehindCamera where the
    in-front mask is False."""
    anchor = state.anchor_ids[k]
    cameras = window_cameras(state, motion)
    p = project_feature(cameras, state.intrinsics, [anchor],
                        [observing_pose_id], [state.params[k]])
    if not p.in_front[0]:
        raise BehindCamera(f"feature {k} from pose {observing_pose_id}")
    lay = layout_of(state)
    ia, io = cameras.rows([anchor, observing_pose_id])
    blocks = {lay.pose_cols(io)[0]: p.observer[0],
              lay.feature_cols(k)[0]: p.feature[0], lay.p_ic: p.p_ic[0],
              lay.q_ic: p.q_ic[0], lay.tsync: p.tsync[0], lay.intr: p.intr[0]}
    if ia != io:
        blocks[lay.pose_cols(ia)[0]] = p.anchor[0]
    return p.pixel[0], blocks


def scene_motion(count=3):
    """The same (velocity, body rate) for every pose of a window."""
    return np.tile([[0.3, 0.1, -0.2], [0.1, -0.2, 0.3]], (count, 1, 1))


def triangulate_one(pixels, rots, centers, intr):
    """The batched `triangulate_inverse_depth` on a batch of one track,
    raising RankDeficientFeature with its status's reason as the oracles
    do."""
    tri = triangulate_inverse_depth([pixels], [rots], [centers], intr,
                                    np.ones((1, len(pixels)), dtype=bool))
    if tri.status[0] != TRIANGULATED:
        raise RankDeficientFeature(TRIANGULATION_REASONS[tri.status[0]])
    return tri.theta[0]


def project_one_track(Hf, Hx, r):
    """The batched `msckf_nullspace_project` on a batch of one track."""
    out, rp, ok = msckf_nullspace_project(Hf, Hx, r, [len(r)])
    assert ok.shape == (1,)
    return out, rp, ok[0]


def imu_arrays(samples):
    """(omega, accel, dt) triples as the (K, 3), (K, 3) and (K,) arrays
    that `imu_transition` takes."""
    return tuple(np.array(c, dtype=float) for c in zip(*samples))


class TestImuSample:
    """`check_imu_samples`, which `Dataset.imu_samples` applies to each
    step's samples."""

    @pytest.mark.parametrize("field", ["omega", "accel"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, bad):
        vals = {"omega": np.zeros((4, 3)), "accel": np.ones((4, 3))}
        vals[field][2, 1] = bad
        with pytest.raises(ValueError, match="non-finite IMU sample 2"):
            check_imu_samples(vals["omega"], vals["accel"], np.full(4, 0.01))

    @pytest.mark.parametrize("dt", [0.0, -0.01, np.nan])
    def test_non_positive_dt_rejected(self, dt):
        dts = np.full(4, 0.01)
        dts[3] = dt
        with pytest.raises(ValueError, match="dt must be positive"):
            check_imu_samples(np.zeros((4, 3)), np.ones((4, 3)), dts)


class TestImuTransition:
    def test_ballistic_limit(self):
        # zero rate, specific force = -R^T g, zero biases: pure translation
        q = quat_from_rotvec([0.2, -0.1, 0.3])
        R = quat_to_mat(q)
        p = np.array([1.0, 2.0, 3.0])
        v = np.array([0.5, -0.2, 0.1])
        samples = imu_arrays([(np.zeros(3), -R.T @ GRAVITY, 0.01)] * 10)
        tb = imu_transition(np.zeros(3), np.zeros(3), v, p, q, *samples,
                            ImuNoise())
        assert np.allclose(tb.p, p + v * 0.1, atol=1e-12)
        assert np.allclose(tb.q, q, atol=1e-12)
        assert np.allclose(tb.v, v, atol=1e-12)

    def test_constant_yaw_rate(self):
        w = np.array([0.0, 0.0, np.pi / 2])
        samples = imu_arrays([(w, np.array([0.0, 0.0, -GRAVITY[2]]), 0.01)]
                             * 100)
        tb = imu_transition(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3),
                            IDENTITY, *samples, ImuNoise())
        yaw = rotvec_from_quat(tb.q)
        assert np.allclose(yaw, [0.0, 0.0, np.pi / 2], atol=1e-6)

    def test_phi_finite_difference(self):
        rng = np.random.default_rng(1)
        bg = rng.normal(size=3) * 0.01
        ba = rng.normal(size=3) * 0.05
        v = rng.normal(size=3)
        p, q = rng.normal(size=3), quat_from_rotvec(rng.normal(size=3) * 0.4)
        samples = imu_arrays([(rng.normal(size=3) * 0.5,
                               rng.normal(size=3) * 2.0 - GRAVITY, 0.01)
                              for _ in range(5)])
        noise = ImuNoise()
        tb = imu_transition(bg, ba, v, p, q, *samples, noise)

        def integrate(d):
            bg2, ba2, v2 = bg + d[0:3], ba + d[3:6], v + d[6:9]
            t2 = imu_transition(bg2, ba2, v2, p + d[9:12],
                                quat_mul(quat_from_rotvec(d[12:15]), q),
                                *samples, noise)
            out = np.concatenate([
                bg2 - bg, ba2 - ba, t2.v - tb.v, t2.p - tb.p,
                rotvec_from_quat(quat_mul(t2.q, quat_conj(tb.q))),
            ])
            return out

        h = 1e-6
        Phi_fd = np.zeros((15, 15))
        for k in range(15):
            d = np.zeros(15)
            d[k] = h
            Phi_fd[:, k] = (integrate(d) - integrate(-d)) / (2 * h)
        err = np.abs(Phi_fd - tb.phi).max() / max(np.abs(tb.phi).max(), 1.0)
        assert err <= 1e-4

    def test_process_noise_matches_monte_carlo(self):
        # sample covariance of integration errors under white gyro/accel
        # noise must match the covariance encoded by sqrt_info
        rng = np.random.default_rng(42)
        noise = ImuNoise(gyro_density=1e-3, accel_density=1e-2)
        dt, n, rate = 0.01, 10, 100.0
        p, q = np.zeros(3), quat_from_rotvec([0.1, -0.2, 0.05])
        v0 = np.array([0.3, -0.1, 0.2])
        clean = [(np.array([0.1, 0.2, -0.3]),
                  np.array([0.5, -0.4, 9.9]) + 0.1 * k * np.ones(3))
                 for k in range(n)]
        samples = imu_arrays([(w, a, dt) for w, a in clean])
        tb = imu_transition(np.zeros(3), np.zeros(3), v0, p, q, *samples,
                            noise)
        Q = np.linalg.inv(tb.sqrt_info.T @ tb.sqrt_info)
        sg = noise.gyro_density * np.sqrt(rate)
        sa = noise.accel_density * np.sqrt(rate)
        errs = []
        for _ in range(4000):
            noisy = imu_arrays([(w + rng.normal(size=3) * sg,
                                 a + rng.normal(size=3) * sa, dt)
                                for w, a in clean])
            t2 = imu_transition(np.zeros(3), np.zeros(3), v0, p, q, *noisy,
                                noise)
            errs.append(np.concatenate([
                t2.v - tb.v, t2.p - tb.p,
                rotvec_from_quat(quat_mul(t2.q, quat_conj(tb.q))),
            ]))
        E = np.array(errs)
        C = E.T @ E / len(E)
        model = np.diag(Q)[6:15]
        assert np.allclose(np.diag(C), model, rtol=0.15)
        # white sensor noise must not masquerade as bias random walk
        # (only the tiny regularization floor remains on those entries)
        assert np.all(np.diag(Q)[0:6] <= 1e-8)

    # body rates: zero, below both small-angle thresholds at dt <= 0.02 s
    # (|w dt|^2 < 1e-16), and large
    RATES = {"zero": 0.0, "tiny": 1e-9, "large": 3.0}

    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from([1, 2, 25]),
           rate=st.sampled_from(sorted(RATES)), uniform_dt=st.booleans())
    def test_matches_per_sample_loop(self, seed, k, rate, uniform_dt):
        rng = np.random.default_rng(seed)
        dts = (np.full(k, 0.01) if uniform_dt
               else rng.uniform(0.002, 0.02, size=k))
        samples = imu_arrays([(rng.normal(size=3) * self.RATES[rate],
                               rng.normal(size=3) * 2.0 - GRAVITY, dt)
                              for dt in dts])
        bias_g = rng.normal(size=3) * self.RATES[rate] * 0.1
        bias_a = rng.normal(size=3) * 0.05
        v = rng.normal(size=3)
        p, q = rng.normal(size=3), quat_from_rotvec(rng.normal(size=3))
        noise = ImuNoise()
        got = imu_transition(bias_g, bias_a, v, p, q, *samples, noise)
        ref = imu_transition_by_sample(bias_g, bias_a, v, p, q, *samples,
                                       noise)
        for a, b in ((got.phi, ref.phi), (got.sqrt_info, ref.sqrt_info),
                     (got.p, ref.p), (got.q, ref.q), (got.v, ref.v)):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_sqrt_info_upper_triangular(self):
        tb = imu_transition(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3),
                            IDENTITY, *imu_arrays([(np.ones(3) * 0.1, np.ones(3), 0.01)]
                                        * 3),
                            ImuNoise())
        assert np.allclose(np.tril(tb.sqrt_info, -1), 0.0)
        assert np.all(np.diag(tb.sqrt_info) > 0)


def random_window(rng, tsync, n_poses=4):
    """A state with `n_poses` poses at increasing, non-consecutive ids, of
    which a random subset moves with the time shift, and its motion: a
    (velocity, body rate) row per pose, zero for the poses that stay."""
    st = VinsStateVector.identity()
    st.tsync = tsync
    st.intrinsics = np.array([410.0, 395.0, 318.0, 243.0])
    st.p_ic = rng.normal(size=3) * 0.05
    st.q_ic = quat_from_rotvec(rng.normal(size=3) * 0.05)
    ids = np.cumsum(rng.integers(1, 4, size=n_poses)) + 2
    positions, quats = [], []
    for _ in range(n_poses):
        positions.append(rng.normal(size=3) * 0.6)
        quats.append(quat_from_rotvec(rng.normal(size=3) * 0.5))
    set_poses(st, positions, quats, ids=ids)
    motion = np.zeros((n_poses, 2, 3))
    for j in range(n_poses):
        if rng.random() < 0.5:
            motion[j] = rng.normal(size=3), rng.normal(size=3) * 0.5
    return st, motion


def random_observations(rng, st, k):
    """k (anchor id, observer id, params) triples over the window; about a
    third are seen from their own anchor pose."""
    ids = st.pose_ids
    anchor = rng.choice(ids, size=k)
    observer = np.where(rng.random(k) < 0.33, anchor, rng.choice(ids, size=k))
    params = np.column_stack([rng.uniform(-0.6, 0.6, k),
                              rng.uniform(-0.5, 0.5, k),
                              rng.uniform(0.05, 2.0, k)])
    return anchor, observer, params


class TestProjectFeature:
    def test_axis_case(self):
        st = set_poses(VinsStateVector.identity(), [np.zeros(3)], [IDENTITY])
        set_features(st, [0], [[0.0, 0.0, 0.5]])
        px, _ = project_one(st, 0, 0)
        assert np.allclose(px, st.intrinsics[2:], atol=1e-12)

    def test_parallax_first_order(self):
        st = set_poses(VinsStateVector.identity(),
                       [np.zeros(3), [0.1, 0.0, 0.0]], [IDENTITY, IDENTITY])
        set_features(st, [0], [[0.0, 0.0, 0.5]])
        px0, _ = project_one(st, 0, 0)
        px1, _ = project_one(st, 0, 1)
        shift = px1[0] - px0[0]
        expected = -st.intrinsics[0] * 0.1 / 2.0
        assert abs(shift - expected) <= 0.05 * abs(expected)

    def test_behind_camera(self):
        st = set_poses(VinsStateVector.identity(),
                       [np.zeros(3), [0.0, 0.0, 5.0]], [IDENTITY, IDENTITY])
        params = np.array([0.0, 0.0, 0.5])
        p = project_feature(window_cameras(st), st.intrinsics, [0, 0], [1, 0],
                            [params, params])
        assert p.in_front.tolist() == [False, True]
        assert np.isfinite(p.pixel).all()

    def test_pose_outside_the_window(self):
        st = make_scene()
        with pytest.raises(KeyError):
            project_feature(window_cameras(st), st.intrinsics, [0], [7],
                            [[0.1, 0.0, 0.5]])

    @pytest.mark.parametrize("seed", range(20))
    def test_jacobians_finite_difference(self, seed):
        st = make_scene(seed=seed, tsync=0.001)
        motion = scene_motion()
        lay = layout_of(st)
        try:
            px, blocks = project_one(st, 0, 2, motion)
        except BehindCamera:
            pytest.skip("random scene placed feature behind camera")
        h = 1e-6
        for off, J in blocks.items():
            for k in range(J.shape[1]):
                d = np.zeros(lay.n)
                d[off + k] = h
                pp, _ = project_one(boxplus(st, d), 0, 2, motion)
                pm, _ = project_one(boxplus(st, -d), 0, 2, motion)
                fd = (pp - pm) / (2 * h)
                scale = max(np.abs(J).max(), 1.0)
                assert np.abs(fd - J[:, k]).max() <= 1e-4 * scale, (off, k)

    @given(seed=st.integers(0, 2 ** 32 - 1), observer=st.integers(0, 2),
           tsync=st.sampled_from([0.0, 0.004, -0.02]),
           anchor_moves=st.booleans(), observer_moves=st.booleans())
    def test_tsync_column_matches_central_differences(
            self, seed, observer, tsync, anchor_moves, observer_moves):
        state = make_scene(seed=seed % 1000, tsync=tsync)
        rng = np.random.default_rng(seed)
        moving = {0} if anchor_moves else set()
        if observer_moves:
            moving.add(observer)
        motion = np.zeros((3, 2, 3))
        for j in sorted(moving):
            motion[j] = rng.normal(size=3), rng.normal(size=3) * 0.5
        try:
            _, blocks = project_one(state, 0, observer, motion)
        except BehindCamera:
            return
        lay = layout_of(state)
        ref = tsync_column_by_central_differences(
            state, state.anchor_ids[0], state.params[0], observer, motion)
        got = blocks[lay.tsync]
        assert got.shape == (2, 1)
        if not moving or observer == 0:
            # a still scene, or one camera seeing its own anchor ray
            assert np.abs(got).max() <= 1e-9 * np.abs(blocks[lay.intr]).max()
        assert np.abs(got - ref).max() <= 1e-6 * max(np.abs(ref).max(), 1.0)

    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 40),
           tsync=st.sampled_from([0.0, 0.004, -0.02]))
    def test_matches_per_observation_oracle(self, seed, k, tsync):
        rng = np.random.default_rng(seed)
        state, motion = random_window(rng, tsync)
        anchor, observer, params = random_observations(rng, state, k)
        got = project_feature(window_cameras(state, motion), state.intrinsics,
                              anchor, observer, params)
        lay = layout_of(state)
        row = {pid: j for j, pid in enumerate(state.pose_ids.tolist())}
        for i in range(k):
            a, o = int(anchor[i]), int(observer[i])
            try:
                px, Jf, blocks = project_feature_by_observation(
                    state, a, params[i], o, motion)
            except BehindCamera:
                assert not got.in_front[i]
                continue
            assert got.in_front[i]
            assert np.abs(got.pixel[i] - px).max() <= 1e-12 * np.abs(px).max()
            scale = max(np.abs(J).max() for J in [Jf, *blocks.values()])
            if a == o:
                # the engine writes both blocks over the same columns
                assert not got.anchor[i].any() and not got.observer[i].any()
            want = {"observer": blocks[lay.pose_cols(row[o])[0]],
                    "anchor": (np.zeros((2, 6)) if a == o
                               else blocks[lay.pose_cols(row[a])[0]]),
                    "feature": Jf}
            for name in ("p_ic", "q_ic", "tsync", "intr"):
                want[name] = blocks[getattr(lay, name)]
            assert len(blocks) == (5 if a == o else 6)
            for name, J in want.items():
                err = np.abs(getattr(got, name)[i] - J).max()
                assert err <= 1e-12 * scale, (i, name, err / scale)

    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 40),
           tsync=st.sampled_from([0.0, 0.004]))
    def test_batch_matches_single_calls_bitwise(self, seed, k, tsync):
        rng = np.random.default_rng(seed)
        state, motion = random_window(rng, tsync)
        anchor, observer, params = random_observations(rng, state, k)
        cams = window_cameras(state, motion)
        batch = project_feature(cams, state.intrinsics, anchor, observer, params)
        for i in range(k):
            one = project_feature(cams, state.intrinsics, anchor[i:i + 1],
                                  observer[i:i + 1], params[i:i + 1])
            for name, field in zip(batch._fields, batch):
                assert np.array_equal(field[i], getattr(one, name)[0]), (i, name)

    @given(seed=st.integers(0, 2 ** 32 - 1),
           tsync=st.sampled_from([0.0, 0.004, -0.02]))
    def test_window_cameras_match_per_pose_cameras(self, seed, tsync):
        rng = np.random.default_rng(seed)
        state, motion = random_window(rng, tsync)
        cams = window_cameras(state, motion)
        assert cams.ids.tolist() == state.pose_ids.tolist()
        for i in range(len(state.pose_ids)):
            R_wc, t_wc, _, p_wi = camera_pose_at(
                state.positions[i], state.quats[i], state.p_ic, state.q_ic,
                motion[i], tsync)
            for got, want in ((cams.R_wc[i], R_wc), (cams.t_wc[i], t_wc),
                              (cams.p_wi[i], p_wi)):
                assert np.abs(got - want).max() <= 1e-15 * max(
                    np.abs(want).max(), 1.0)
            if not motion[i].any():
                assert not cams.dR_wc[i].any() and not cams.dt_wc[i].any()

    @given(seed=st.integers(0, 2 ** 32 - 1), tsync=st.sampled_from([0.004, -0.02]))
    def test_window_cameras_without_motion_are_unshifted(self, seed, tsync):
        # without motion no pose moves with tsync, so the cameras are
        # bitwise those of the same window at tsync = 0
        state, _ = random_window(np.random.default_rng(seed), tsync)
        still = state.copy()
        still.tsync = 0.0
        want = window_cameras(still)
        cams = window_cameras(state)
        for name, got, ref in zip(want._fields, cams, want):
            assert got.tobytes() == ref.tobytes(), name

    def test_bias_velocity_columns_absent(self):
        st = make_scene(seed=3)
        _, blocks = project_one(st, 0, 1)
        assert min(blocks) >= N1


class TestNullspaceProjection:
    def test_block_case(self):
        Hf = np.vstack([np.eye(3), np.zeros((3, 3))])
        Hx = np.arange(18.0).reshape(6, 3)
        r = np.arange(6.0)
        out, rp, ok = project_one_track(Hf, Hx, r)
        assert ok
        assert rp.shape == (3,)
        assert out.shape == (3, 3)
        # the surviving rows depend only on the zero block of Hf
        assert np.allclose(np.abs(rp), np.abs(r[3:]))

    def test_matches_qr_oracle(self):
        rng = np.random.default_rng(5)
        Hf = rng.normal(size=(10, 3))
        Hx = rng.normal(size=(10, 4))
        r = rng.normal(size=10)
        out, rp, ok = project_one_track(Hf, Hx, r)
        assert ok
        # oracle: full Q from numpy, left null space rows
        Q, _ = np.linalg.qr(Hf, mode="complete")
        N = Q[:, 3:]
        # same subspace: compare Gram matrices of the projected system
        S1 = np.hstack([out, rp[:, None]])
        S2 = np.hstack([N.T @ Hx, (N.T @ r)[:, None]])
        assert np.allclose(S1.T @ S1, S2.T @ S2, atol=1e-10)
        # orthogonality to Hf
        assert np.abs(S1.T @ S1 - S2.T @ S2).max() <= 1e-10 * np.abs(Hf).max()

    def test_joint_ls_equivalence(self):
        # eliminating the feature must not change the state-block solution
        rng = np.random.default_rng(6)
        Hf = rng.normal(size=(12, 3))
        Hx = rng.normal(size=(12, 5))
        r = rng.normal(size=12)
        out, rp, ok = project_one_track(Hf, Hx, r)
        assert ok
        # joint solve over [x, f] with a weak prior on x to fix the gauge
        J = np.hstack([Hx, Hf])
        prior = np.hstack([np.eye(5) * 1e-3, np.zeros((5, 3))])
        Afull = np.vstack([J, prior])
        bfull = np.concatenate([r, np.zeros(5)])
        xj = np.linalg.lstsq(Afull, bfull, rcond=None)[0][:5]
        Ap = np.vstack([out, np.eye(5) * 1e-3])
        bp = np.concatenate([rp, np.zeros(5)])
        xp = np.linalg.lstsq(Ap, bp, rcond=None)[0]
        assert np.allclose(xj, xp, atol=1e-8)

    def test_too_few_rows(self):
        out, rp, ok = project_one_track(np.ones((2, 3)), np.ones((2, 2)),
                                        np.ones(2))
        assert not ok and out.shape == (0, 2) and rp.shape == (0,)

    def test_rank_deficient(self):
        Hf = np.zeros((6, 3))
        Hf[:, 0] = 1.0
        out, rp, ok = project_one_track(Hf, np.ones((6, 2)), np.ones(6))
        assert not ok and out.shape == (0, 2) and rp.shape == (0,)

    @given(seed=st.integers(0, 2 ** 32 - 1),
           kinds=st.lists(st.sampled_from(["full", "short", "rank2", "zero"]),
                          min_size=1, max_size=12),
           data=st.data())
    def test_batch_matches_per_track_projection(self, seed, kinds, data):
        # one batch mixing row counts, tracks too short to project and
        # rank-deficient feature Jacobians; each track's rows and outcome
        # match its own projection, whatever the rest of the batch holds
        rng = np.random.default_rng(seed)
        n = 7
        Hf, Hx, r, sizes = [], [], [], []
        for kind in kinds:
            m = (data.draw(st.integers(1, 3)) if kind == "short"
                 else 2 * data.draw(st.integers(2, 10)))
            F = rng.normal(size=(m, 3))
            if kind == "rank2":
                F[:, 2] = F[:, :2] @ rng.normal(size=2)
            elif kind == "zero":
                F[:] = 0.0
            Hf.append(F)
            Hx.append(rng.normal(size=(m, n)))
            r.append(rng.normal(size=m))
            sizes.append(m)
        out, rp, ok = msckf_nullspace_project(
            np.vstack(Hf), np.vstack(Hx), np.concatenate(r), sizes)
        assert ok.shape == (len(kinds),)
        off = 0
        for i, args in enumerate(zip(Hf, Hx, r)):
            try:
                ref_x, ref_r = msckf_nullspace_project_by_track(*args)
            except RankDeficientFeature:
                assert not ok[i]
                continue
            assert ok[i]
            rows = len(ref_r)
            got = np.column_stack([out[off:off + rows], rp[off:off + rows]])
            ref = np.column_stack([ref_x, ref_r])
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
            off += rows
        assert off == len(rp) == len(out)


def reanchor_scene(rng, n_poses=2, tsync=0.0):
    """A state with random extrinsics and n_poses random poses, ids 0, 2,
    4, ..., whose cameras do not move with the time shift."""
    st = VinsStateVector.identity()
    st.tsync = tsync
    st.p_ic = np.array([0.03, 0.01, -0.02])
    st.q_ic = quat_from_rotvec(rng.normal(size=3) * 0.1)
    p = rng.normal(size=3)
    positions, quats = [], []
    for i in range(n_poses):
        positions.append(p + rng.normal(size=3) * 0.3 * (i > 0))
        quats.append(quat_from_rotvec(rng.normal(size=3) * 0.3))
    return set_poses(st, positions, quats, ids=2 * np.arange(n_poses))


def random_params(rng, k):
    return np.column_stack([rng.uniform(-0.3, 0.3, k), rng.uniform(-0.3, 0.3, k),
                            rng.uniform(0.2, 1.0, k)])


class TestReanchor:
    @staticmethod
    def _poses(st):
        """Pose id -> (p, q)."""
        return {pid: (p, q) for pid, p, q in
                zip(st.pose_ids.tolist(), st.positions, st.quats)}

    def test_identity(self):
        st = set_poses(VinsStateVector.identity(), [np.zeros(3)], [IDENTITY])
        re = reanchor_feature(window_cameras(st), [0], [0], [[0.1, 0.05, 0.5]])
        assert re.in_front.tolist() == [True]
        assert np.allclose(re.params, [[0.1, 0.05, 0.5]], atol=1e-12)

    def test_axial_translation(self):
        st = set_poses(VinsStateVector.identity(),
                       [np.zeros(3), [0.0, 0.0, 1.0]], [IDENTITY, IDENTITY])
        re = reanchor_feature(window_cameras(st), [0], [1], [[0.0, 0.0, 1.0 / 3.0]])
        assert np.isclose(re.params[0, 2], 0.5, atol=1e-12)

    def test_global_point_roundtrip(self):
        rng = np.random.default_rng(8)
        st = reanchor_scene(rng, n_poses=3)
        poses = self._poses(st)
        params = random_params(rng, 20)
        old = rng.choice([0, 2, 4], size=20)
        new = rng.choice([0, 2, 4], size=20)
        re = reanchor_feature(window_cameras(st), old, new, params)
        assert re.in_front.sum() >= 10
        for i in np.flatnonzero(re.in_front):
            X0 = feature_point_global(params[i], poses[old[i]], st.p_ic,
                                      st.q_ic)
            X1 = feature_point_global(re.params[i], poses[new[i]], st.p_ic,
                                      st.q_ic)
            assert np.linalg.norm(X0 - X1) <= 1e-9

    def test_nonpositive_depth(self):
        st = set_poses(VinsStateVector.identity(),
                       [np.zeros(3), [0.0, 0.0, 10.0]], [IDENTITY, IDENTITY])
        re = reanchor_feature(window_cameras(st), [0, 0], [1, 1],
                              [[0.0, 0.0, 0.5], [0.0, 0.0, 0.05]])
        assert re.in_front.tolist() == [False, True]
        assert all(np.isfinite(a).all() for a in re)

    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(3, 12),
           tsync=st.sampled_from([0.0, 0.004]))
    def test_matches_scalar_oracle(self, seed, k, tsync):
        # features anchored anywhere in a 3-pose window move to any pose;
        # the last one is placed behind its new anchor's camera
        rng = np.random.default_rng(seed)
        st = reanchor_scene(rng, n_poses=3, tsync=tsync)
        poses = self._poses(st)
        old = rng.choice([0, 2, 4], size=k)
        new = rng.choice([0, 2, 4], size=k)
        new[-1] = (old[-1] + 2) % 6
        params = random_params(rng, k)
        B, t_B, _, _ = camera_pose_at(*poses[new[-1]], st.p_ic, st.q_ic)
        A, t_A, _, _ = camera_pose_at(*poses[old[-1]], st.p_ic, st.q_ic)
        y = A.T @ (t_B - B @ np.array([0.1, -0.2, rng.uniform(0.5, 3.0)]) - t_A)
        params[-1] = [*bearing_angles(y), 1.0 / np.linalg.norm(y)]
        re = reanchor_feature(window_cameras(st), old, new, params)
        assert re.params.shape == (k, 3) and re.in_front.shape == (k,)
        assert re.feature.shape == (k, 3, 3)
        assert re.old_anchor.shape == re.new_anchor.shape == (k, 3, 6)
        for i in range(k):
            try:
                g, *J = reanchor_by_feature(params[i], poses[old[i]],
                                            poses[new[i]], st.p_ic, st.q_ic)
            except NonPositiveDepth:
                assert not re.in_front[i]
                continue
            assert re.in_front[i]
            assert np.abs(re.params[i] - g).max() <= 1e-12
            for got, ref in zip((re.feature, re.old_anchor, re.new_anchor), J):
                assert np.abs(got[i] - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)
        assert not re.in_front[-1]

    @staticmethod
    def _jacobians_by_central_differences(st, old, new, params):
        """d new params / d (old params, old anchor, new anchor) of one
        feature by central differences of `reanchor_feature`."""
        h = 1e-6
        rows = {pid: j for j, pid in enumerate(st.pose_ids.tolist())}

        def perturbed(dfeat, da, db):
            s = st.copy()
            for pid, d in ((old, da), (new, db)):
                j = rows[pid]
                s.positions[j] = s.positions[j] + d[:3]
                s.quats[j] = quat_mul(quat_from_rotvec(d[3:]), s.quats[j])
            return reanchor_feature(window_cameras(s), [old], [new],
                                    params + dfeat).params[0]

        z3, z6 = np.zeros(3), np.zeros(6)
        Jff = np.column_stack([(perturbed(d, z6, z6) - perturbed(-d, z6, z6)) / (2 * h)
                               for d in h * np.eye(3)])
        Jfa = np.column_stack([(perturbed(z3, d, z6) - perturbed(z3, -d, z6)) / (2 * h)
                               for d in h * np.eye(6)])
        Jfb = np.column_stack([(perturbed(z3, z6, d) - perturbed(z3, z6, -d)) / (2 * h)
                               for d in h * np.eye(6)])
        return Jff, Jfa, Jfb

    def test_jacobians_match_central_differences(self):
        rng = np.random.default_rng(9)
        checked = 0
        for _ in range(20):
            st = reanchor_scene(rng)
            params = random_params(rng, 1)
            re = reanchor_feature(window_cameras(st), [0], [2], params)
            if not re.in_front[0]:
                continue
            J_fd = self._jacobians_by_central_differences(st, 0, 2, params[0])
            for got, ref in zip((re.feature, re.old_anchor, re.new_anchor), J_fd):
                assert np.abs(got[0] - ref).max() <= 1e-6
            checked += 1
        assert checked >= 10


class TestTriangulation:
    def test_recovers_synthetic_point(self):
        rng = np.random.default_rng(9)
        intr = np.array([400.0, 400.0, 320.0, 240.0])
        X = np.array([0.5, -0.3, 4.0])
        rots, centers, pixels = [], [], []
        for i in range(5):
            c = np.array([0.4 * i, 0.05 * i, 0.0])
            R = quat_to_mat(quat_from_rotvec(rng.normal(size=3) * 0.05))
            y = R.T @ (X - c)
            px = np.array([intr[0] * y[0] / y[2] + intr[2],
                           intr[1] * y[1] / y[2] + intr[3]])
            rots.append(R)
            centers.append(c)
            pixels.append(px)
        theta = triangulate_one(pixels, rots, centers, intr)
        y0 = rots[0].T @ (X - centers[0])
        assert np.isclose(theta[2], 1.0 / np.linalg.norm(y0), atol=1e-8)
        a, b = bearing_angles(y0)
        assert np.allclose(theta[:2], [a, b], atol=1e-8)

    INTR = np.array([400.0, 410.0, 320.0, 240.0])

    @staticmethod
    def _views(rng, X, centers, spread=0.05, noise_px=0.0):
        rots, pixels = [], []
        for c in centers:
            R = quat_to_mat(quat_from_rotvec(rng.normal(size=3) * spread))
            y = R.T @ (X - c)
            fx, fy, cx, cy = TestTriangulation.INTR
            pixels.append(np.array([fx * y[0] / y[2] + cx, fy * y[1] / y[2] + cy])
                          + rng.normal(size=2) * noise_px)
            rots.append(R)
        return pixels, rots, [np.asarray(c, dtype=float) for c in centers]

    @staticmethod
    def _both(pixels, rots, centers, intr):
        """Each triangulation's theta, or the exception it raised."""
        out = []
        for fn in (triangulate_one, triangulate_by_view):
            try:
                out.append(fn(pixels, rots, centers, intr))
            except RankDeficientFeature as exc:
                out.append(exc)
        return out

    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 10),
           noise_px=st.sampled_from([0.0, 0.5, 2.0]))
    def test_matches_per_view_loop(self, seed, k, noise_px):
        rng = np.random.default_rng(seed)
        X = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(2, 10)])
        centers = [np.zeros(3)] + [rng.normal(size=3) * 0.3 for _ in range(k - 1)]
        pixels, rots, centers = self._views(rng, X, centers, noise_px=noise_px)
        got, ref = self._both(pixels, rots, centers, self.INTR)
        if isinstance(ref, Exception):
            assert type(got) is type(ref) and str(got) == str(ref)
            return
        assert not isinstance(got, Exception), got
        assert np.abs(got - ref).max() <= 1e-10 * max(np.abs(ref).max(), 1.0)

    @pytest.mark.parametrize("along", [0.0, 1.0, 3.0, -0.5])
    def test_parallel_rays_take_the_minimum_norm_init(self, monkeypatch,
                                                      along):
        # view 1 sits on the anchor's ray, `along` metres from it, and sees
        # the point along the same ray: its depth system is rank 1, and the
        # minimum-norm solution puts the depth at along / 2; view 2 has a
        # baseline and fixes the point
        rng = np.random.default_rng(11)
        X = np.array([0.3, -0.2, 5.0])
        pixels, rots, centers = self._views(
            rng, X, [np.zeros(3), np.zeros(3), np.array([0.5, 0.1, 0.0])])
        rots[1], pixels[1] = rots[0], pixels[0]
        centers[1] = along * X / np.linalg.norm(X)
        # zero iterations return the depth initialization
        with monkeypatch.context() as m:
            m.setattr(models, "TRIANGULATION_ITERS", 0)
            got = triangulate_one(pixels, rots, centers, self.INTR)
        ref = triangulate_by_view(pixels, rots, centers, self.INTR, iters=0)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        got, ref = self._both(pixels, rots, centers, self.INTR)
        if isinstance(ref, Exception):
            assert type(got) is type(ref) and str(got) == str(ref)
        else:
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()
            assert np.isclose(1.0 / ref[2], np.linalg.norm(X), rtol=1e-8)

    @pytest.mark.parametrize("offset", [np.zeros(3), np.array([0.0, 0.0, 0.7])])
    def test_all_rays_parallel(self, offset):
        # identical rotations and pixels: every ray is parallel, the views
        # only translate along or across them
        rng = np.random.default_rng(12)
        R = quat_to_mat(quat_from_rotvec(rng.normal(size=3) * 0.1))
        px = np.array([330.0, 250.0])
        centers = [np.zeros(3), np.array([0.4, 0.0, 0.0]) + offset,
                   np.array([0.8, 0.1, 0.0]) + offset]
        got, ref = self._both([px] * 3, [R] * 3, centers, self.INTR)
        assert isinstance(ref, RankDeficientFeature)
        assert type(got) is type(ref) and str(got) == str(ref)

    def test_point_behind_a_camera(self):
        rng = np.random.default_rng(13)
        X = np.array([0.1, 0.2, 3.0])
        pixels, rots, centers = self._views(
            rng, X, [np.zeros(3), np.array([0.3, 0.0, 0.0]),
                     np.array([0.2, 0.0, 6.0])])
        got, ref = self._both(pixels, rots, centers, self.INTR)
        assert str(ref) == "triangulated point behind a camera"
        assert type(got) is type(ref) and str(got) == str(ref)

    def test_degenerate_normal_matrix(self):
        # no baseline: depth does not move any pixel
        rng = np.random.default_rng(14)
        X = np.array([0.1, 0.2, 3.0])
        pixels, rots, centers = self._views(rng, X, [np.zeros(3)] * 3)
        got, ref = self._both(pixels, rots, centers, self.INTR)
        assert str(ref) == "degenerate triangulation geometry"
        assert type(got) is type(ref) and str(got) == str(ref)

    @staticmethod
    def _normal_matrix(X, rots, centers, intr):
        """J.T J of a track's pixels in (alpha, beta, rho) at the true
        point X, one view at a time."""
        fx, fy = intr[:2]
        A, t_A = rots[0], centers[0]
        alpha, beta = bearing_angles(A.T @ (X - t_A))
        rho = 1.0 / np.linalg.norm(X - t_A)
        u, Ju = bearing_vector(alpha, beta), bearing_jacobian(alpha, beta)
        J = []
        for B, t in zip(rots, centers):
            y = B.T @ (X - t)
            dy = np.column_stack([B.T @ A @ Ju / rho, -B.T @ A @ u / rho ** 2])
            Jz = np.array([[fx / y[2], 0.0, -fx * y[0] / y[2] ** 2],
                           [0.0, fy / y[2], -fy * y[1] / y[2] ** 2]])
            J.append(Jz @ dy)
        J = np.vstack(J)
        return J.T @ J

    @pytest.mark.parametrize("cond", [1.5e12, 5e12, 2e11, 7e11])
    def test_degeneracy_bound(self, cond):
        # three views on a baseline b: cond(J.T J) grows as 1 / b^2, so b
        # is scaled from a first track to put the condition number within
        # 10x of the 1e12 bound, on either side of it
        rng = np.random.default_rng(17)
        X = np.array([0.3, -0.2, 3.0])
        rots = [quat_to_mat(quat_from_rotvec(rng.normal(size=3) * 0.05))
                for _ in range(3)]
        shape = np.array([[0.0, 0.0, 0.0], [1.0, 0.3, 0.0], [2.0, -0.2, 0.1]])
        c0 = np.linalg.cond(self._normal_matrix(X, rots, 1e-6 * shape,
                                                self.INTR))
        centers = list(1e-6 * np.sqrt(c0 / cond) * shape)
        got = np.linalg.cond(self._normal_matrix(X, rots, centers, self.INTR))
        assert abs(got / cond - 1.0) <= 0.05
        fx, fy, cx, cy = self.INTR
        ys = [B.T @ (X - c) for B, c in zip(rots, centers)]
        pixels = [np.array([fx * y[0] / y[2] + cx, fy * y[1] / y[2] + cy])
                  for y in ys]
        want = "degenerate triangulation geometry" if cond > 1e12 else None
        for fn in (triangulate_one, triangulate_by_view):
            try:
                fn(pixels, rots, centers, self.INTR)
                reason = None
            except RankDeficientFeature as exc:
                reason = str(exc)
            assert reason == want, fn.__name__

    @staticmethod
    def _track(rng, kind, k, noise_px=0.0):
        """k views of one point: with baselines ("plain"), with view 1 on
        the anchor's ray ("parallel"), with the last camera beyond the
        point ("behind") or with no baseline ("degenerate")."""
        X = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(2, 10)])
        centers = [np.zeros(3)] + [rng.normal(size=3) * 0.3 for _ in range(k - 1)]
        if kind == "degenerate":
            centers = [np.zeros(3)] * k
        elif kind == "behind":
            centers[-1] = X * rng.uniform(1.5, 3.0)
        pixels, rots, centers = TestTriangulation._views(
            rng, X, centers, noise_px=noise_px)
        if kind == "parallel":
            rots[1], pixels[1] = rots[0], pixels[0]
            centers[1] = rng.uniform(-0.5, 3.0) * X / np.linalg.norm(X)
        return pixels, rots, centers

    @staticmethod
    def _batch(tracks):
        """The tracks padded to the longest with nan views, and the mask of
        the views each has."""
        V = max(len(px) for px, _, _ in tracks)
        pixels = np.full((len(tracks), V, 2), np.nan)
        rots = np.full((len(tracks), V, 3, 3), np.nan)
        centers = np.full((len(tracks), V, 3), np.nan)
        live = np.zeros((len(tracks), V), dtype=bool)
        for i, (px, R, c) in enumerate(tracks):
            k = len(px)
            pixels[i, :k], rots[i, :k], centers[i, :k] = px, R, c
            live[i, :k] = True
        return pixels, rots, centers, live

    @given(seed=st.integers(0, 2 ** 32 - 1),
           tracks=st.lists(st.tuples(
               st.sampled_from(["plain", "parallel", "behind", "degenerate"]),
               st.integers(2, 10), st.sampled_from([0.0, 0.5, 2.0])),
               min_size=1, max_size=12))
    def test_batch_matches_per_track_oracle(self, seed, tracks):
        # one batch mixing view counts and failure modes, padded with nan
        # views: each track's theta and status are those of its own
        # triangulation, whatever the rest of the batch holds
        rng = np.random.default_rng(seed)
        views = [self._track(rng, kind, k, noise) for kind, k, noise in tracks]
        pixels, rots, centers, live = self._batch(views)
        tri = triangulate_inverse_depth(pixels, rots, centers, self.INTR, live)
        assert tri.theta.shape == (len(views), 3)
        for (px, R, c), theta, status in zip(views, tri.theta, tri.status):
            try:
                ref = triangulate_by_track(px, R, c, self.INTR)
            except RankDeficientFeature as exc:
                assert TRIANGULATION_REASONS[status] == str(exc)
                assert np.isnan(theta).all()
                continue
            assert status == TRIANGULATED
            assert np.abs(theta - ref).max() <= 1e-10 * max(np.abs(ref).max(), 1.0)

    def test_batch_reports_each_failure(self):
        rng = np.random.default_rng(15)
        views = [self._track(rng, kind, k) for kind, k in
                 (("plain", 4), ("behind", 3), ("degenerate", 7), ("plain", 2))]
        pixels, rots, centers, live = self._batch(views)
        tri = triangulate_inverse_depth(pixels, rots, centers, self.INTR, live)
        assert [TRIANGULATION_REASONS[s] for s in tri.status] == [
            "triangulated", "triangulated point behind a camera",
            "degenerate triangulation geometry", "triangulated"]

    def test_anchor_must_be_live(self):
        rng = np.random.default_rng(16)
        pixels, rots, centers, live = self._batch([self._track(rng, "plain", 3)])
        live[0, 0] = False
        with pytest.raises(ValueError, match="anchor"):
            triangulate_inverse_depth(pixels, rots, centers, self.INTR, live)
