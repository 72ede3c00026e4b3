import numpy as np
import pytest

from srifkit.state import (
    InverseDepthFeature,
    Pose,
    VinsStateVector,
    boxplus,
    layout_of,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    quat_to_mat,
    reorder_for_marginalization,
    so3_right_jacobian,
    skew,
)

from state_reference import boxminus, build_layout, quat_conj, rotvec_from_quat


def make_state(n_poses=5, n_feats=3, seed=0):
    rng = np.random.default_rng(seed)
    st = VinsStateVector.identity()
    st.bg = rng.normal(size=3) * 0.01
    st.ba = rng.normal(size=3) * 0.05
    st.v = rng.normal(size=3)
    st.tsync = 0.002
    for i in range(n_poses):
        q = quat_from_rotvec(rng.normal(size=3) * 0.3)
        st.poses.append(Pose(rng.normal(size=3), q, t=0.1 * i, id=i))
    for i in range(n_feats):
        st.features.append(
            InverseDepthFeature(anchor_pose_id=0,
                                params=np.array([0.1, -0.05, 0.5]), id=i))
    return st


class TestQuaternions:
    def test_rotvec_roundtrip(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            th = rng.normal(size=3)
            th *= rng.uniform(0, 0.99 * np.pi) / np.linalg.norm(th)
            assert np.allclose(rotvec_from_quat(quat_from_rotvec(th)), th, atol=1e-12)

    def test_mat_composition(self):
        rng = np.random.default_rng(2)
        q1 = quat_from_rotvec(rng.normal(size=3))
        q2 = quat_from_rotvec(rng.normal(size=3))
        assert np.allclose(quat_to_mat(quat_mul(q1, q2)),
                           quat_to_mat(q1) @ quat_to_mat(q2), atol=1e-12)

    def test_conj_is_inverse(self):
        q = quat_from_rotvec([0.3, -0.2, 0.7])
        assert np.allclose(quat_mul(q, quat_conj(q)), [0, 0, 0, 1], atol=1e-15)

    def test_right_jacobian(self):
        # exp(theta + d) ~ exp(theta) exp(Jr d)
        rng = np.random.default_rng(3)
        th = rng.normal(size=3)
        d = rng.normal(size=3) * 1e-6
        Jr = so3_right_jacobian(th)
        R1 = quat_to_mat(quat_from_rotvec(th + d))
        R2 = quat_to_mat(quat_from_rotvec(th)) @ quat_to_mat(quat_from_rotvec(Jr @ d))
        assert np.allclose(R1, R2, atol=1e-11)


def _rotvecs(rng, shape):
    """Rotation vectors of the given leading shape with angles that take
    every branch: zero, below 1e-8 (quat_from_rotvec's series), between
    1e-8 and 1e-6 (so3_right_jacobian's series only), just above 1e-6, and
    ordinary ones, mixed in one batch."""
    axes = rng.normal(size=shape + (3,))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    angles = rng.permutation(np.resize(
        [0.0, 3e-9, 9.9e-9, 2e-7, 9.9e-7, 1.01e-6, 0.4, 2.5],
        np.prod(shape))).reshape(shape)
    return axes * angles[..., None]


def _unit_quats(rng, shape):
    q = rng.normal(size=shape + (4,))
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


ARRAY_FORMS = {
    "quat_normalize": (quat_normalize, lambda rng, s: (rng.normal(size=s + (4,)),)),
    "quat_mul": (quat_mul, lambda rng, s: (_unit_quats(rng, s), _unit_quats(rng, s))),
    "quat_from_rotvec": (quat_from_rotvec, lambda rng, s: (_rotvecs(rng, s),)),
    "quat_to_mat": (quat_to_mat, lambda rng, s: (_unit_quats(rng, s),)),
    "skew": (skew, lambda rng, s: (rng.normal(size=s + (3,)),)),
    "so3_right_jacobian": (so3_right_jacobian, lambda rng, s: (_rotvecs(rng, s),)),
}


@pytest.mark.parametrize("name", sorted(ARRAY_FORMS))
def test_stacked_rows_equal_single_calls(name):
    """A (2, 5, .) stack gives, bitwise, the helper's result on each row."""
    fn, make = ARRAY_FORMS[name]
    rng = np.random.default_rng(sorted(ARRAY_FORMS).index(name))
    args = make(rng, (2, 5))
    out = fn(*args)
    single = fn(*(a[0, 0] for a in args))
    assert out.shape == (2, 5) + single.shape
    for i in np.ndindex(2, 5):
        row = fn(*(a[i] for a in args))
        assert row.shape == single.shape
        assert row.tobytes() == out[i].tobytes(), i


class TestLayout:
    def test_paper_dims(self):
        # l = 11, s = 15: n = 9 + 45 + 1 + 66 + 10 = 131, n2 = 122
        lay = build_layout(11, 15)
        assert lay.n == 131
        assert lay.n2 == 122

    @pytest.mark.parametrize("l,s,n", [(2, 0, 32), (5, 3, 59)])
    def test_formula(self, l, s, n):
        assert build_layout(l, s).n == n

    def test_contiguous_blocks(self):
        lay = build_layout(7, 4)
        for (_, off, dim), (_, off2, _) in zip(lay.blocks, lay.blocks[1:]):
            assert off + dim == off2
        last = lay.blocks[-1]
        assert last[1] + last[2] == lay.n

    def test_n1_is_bias_velocity(self):
        lay = build_layout(4, 2)
        assert lay.offset("bg") == 0 and lay.offset("ba") == 3 and lay.offset("v") == 6
        assert lay.n1 == 9

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            build_layout(1, 0)

    def test_layout_of_matches_build(self):
        st = make_state(n_poses=5, n_feats=3)
        assert layout_of(st).blocks == build_layout(5, 3).blocks


class TestBoxplus:
    def test_zero_delta_identity(self):
        st = make_state()
        lay = layout_of(st)
        out = boxplus(st, np.zeros(lay.n), lay)
        assert np.allclose(boxminus(out, st, lay), 0.0)

    def test_pure_position_shift(self):
        st = make_state()
        lay = layout_of(st)
        d = np.zeros(lay.n)
        off = lay.offset("pose:2")
        d[off:off + 3] = [1.0, 0.0, 0.0]
        out = boxplus(st, d, lay)
        assert np.allclose(out.poses[2].p - st.poses[2].p, [1, 0, 0])
        assert np.allclose(out.poses[1].p, st.poses[1].p)
        assert np.allclose(out.poses[2].q, st.poses[2].q)

    def test_rotation_inverse_consistency(self):
        st = make_state()
        lay = layout_of(st)
        d = np.zeros(lay.n)
        d[lay.offset("pose:0") + 3] = 1e-3
        back = boxplus(boxplus(st, d, lay), -d, lay)
        assert np.allclose(back.poses[0].q, st.poses[0].q, atol=1e-9)

    def test_boxminus_consistency(self):
        rng = np.random.default_rng(4)
        st = make_state()
        lay = layout_of(st)
        d = rng.normal(size=lay.n) * 1e-3
        assert np.allclose(boxminus(boxplus(st, d, lay), st, lay), d, atol=1e-9)

    def test_dim_mismatch(self):
        st = make_state()
        with pytest.raises(ValueError):
            boxplus(st, np.zeros(3), layout_of(st))

    def test_quaternion_normalized(self):
        st = make_state()
        lay = layout_of(st)
        d = np.ones(lay.n) * 0.1
        out = boxplus(st, d, lay)
        for p in out.poses:
            assert abs(np.linalg.norm(p.q) - 1.0) < 4 * np.finfo(float).eps


class TestReorder:
    def test_oldest_pose(self):
        lay = build_layout(5, 0)
        idx = reorder_for_marginalization(lay, ["pose:0"])
        off = lay.offset("pose:0")
        assert idx == list(range(off, off + 6))

    def test_two_oldest_features(self):
        lay = build_layout(5, 4)
        idx = reorder_for_marginalization(lay, ["feat:0", "feat:1"])
        assert len(idx) == 6
        assert max(idx) < lay.offset("tsync")

    def test_newest_pose_near_end(self):
        lay = build_layout(5, 0)
        idx = reorder_for_marginalization(lay, ["pose:4"])
        assert idx == list(range(lay.offset("pose:4"), lay.offset("pose:4") + 6))
        assert max(idx) == lay.offset("intr") - 1

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            reorder_for_marginalization(build_layout(3, 0), ["pose:9"])
