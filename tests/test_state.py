import numpy as np
import pytest

from srifkit.state import (
    N1,
    Layout,
    VinsStateVector,
    boxplus,
    layout_of,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    quat_to_mat,
    so3_right_jacobian,
    skew,
)

from state_reference import (
    boxminus,
    quat_conj,
    rotvec_from_quat,
    set_features,
    set_poses,
    walk_layout,
)


def make_state(n_poses=5, n_feats=3, seed=0):
    rng = np.random.default_rng(seed)
    st = VinsStateVector.identity()
    st.bg = rng.normal(size=3) * 0.01
    st.ba = rng.normal(size=3) * 0.05
    st.v = rng.normal(size=3)
    st.tsync = 0.002
    set_poses(st, rng.normal(size=(n_poses, 3)),
              quat_from_rotvec(rng.normal(size=(n_poses, 3)) * 0.3))
    set_features(st, np.zeros(n_feats), np.tile([0.1, -0.05, 0.5], (n_feats, 1)))
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


def layout_columns(lay):
    """Every column of `lay`, component by component in the fixed order."""
    return np.concatenate([
        np.arange(N1), lay.feature_cols(np.arange(lay.n_features)).ravel(),
        [lay.tsync], lay.pose_cols(np.arange(lay.n_poses)).ravel(),
        np.arange(lay.intr, lay.p_ic), np.arange(lay.p_ic, lay.q_ic),
        np.arange(lay.q_ic, lay.n)])


class TestLayout:
    def test_paper_dims(self):
        # l = 11, s = 15: n = 9 + 45 + 1 + 66 + 10 = 131, n2 = 122
        lay = Layout(n_features=15, n_poses=11)
        assert lay.n == walk_layout(15, 11)["n"] == 131
        assert lay.n2 == 122

    @pytest.mark.parametrize("l,s,n", [(2, 0, 32), (5, 3, 59)])
    def test_formula(self, l, s, n):
        assert Layout(s, l).n == walk_layout(s, l)["n"] == n

    def test_contiguous_blocks(self):
        # the components' columns, in order, are 0 .. n - 1 once each
        lay = Layout(n_features=4, n_poses=7)
        assert np.array_equal(layout_columns(lay), np.arange(lay.n))

    def test_n1_is_bias_velocity(self):
        blocks = walk_layout(2, 4)
        assert (blocks["bg"][0], blocks["ba"][0], blocks["v"][0]) == (0, 3, 6)
        assert N1 == 9 == blocks["v"][-1] + 1

    def test_layout_of_matches_build(self):
        st = make_state(n_poses=5, n_feats=3)
        lay, blocks = layout_of(st), walk_layout(3, 5)
        assert lay == (3, 5)
        assert np.array_equal(lay.feature_cols(np.arange(3)), blocks["feature"])
        assert np.array_equal(lay.pose_cols(np.arange(5)), blocks["pose"])
        for j in range(5):
            assert np.array_equal(lay.pose_cols(j), blocks["pose"][j])
        assert lay.tsync == blocks["tsync"][0]
        for name in ("intr", "p_ic", "q_ic"):
            assert getattr(lay, name) == blocks[name][0], name
        assert lay.n == blocks["n"]


class TestBoxplus:
    def test_zero_delta_identity(self):
        st = make_state()
        out = boxplus(st, np.zeros(layout_of(st).n))
        assert np.allclose(boxminus(out, st), 0.0)

    def test_pure_position_shift(self):
        st = make_state()
        lay = layout_of(st)
        d = np.zeros(lay.n)
        d[lay.pose_cols(2)[:3]] = [1.0, 0.0, 0.0]
        out = boxplus(st, d)
        assert np.allclose(out.positions[2] - st.positions[2], [1, 0, 0])
        assert np.allclose(out.positions[1], st.positions[1])
        assert np.allclose(out.quats[2], st.quats[2])

    def test_rotation_inverse_consistency(self):
        st = make_state()
        lay = layout_of(st)
        d = np.zeros(lay.n)
        d[lay.pose_cols(0)[3]] = 1e-3
        back = boxplus(boxplus(st, d), -d)
        assert np.allclose(back.quats[0], st.quats[0], atol=1e-9)

    def test_boxminus_consistency(self):
        rng = np.random.default_rng(4)
        st = make_state()
        d = rng.normal(size=layout_of(st).n) * 1e-3
        assert np.allclose(boxminus(boxplus(st, d), st), d, atol=1e-9)

    def test_dim_mismatch(self):
        st = make_state()
        with pytest.raises(ValueError):
            boxplus(st, np.zeros(3))

    def test_quaternion_normalized(self):
        st = make_state()
        out = boxplus(st, np.ones(layout_of(st).n) * 0.1)
        for q in out.quats:
            assert abs(np.linalg.norm(q) - 1.0) < 4 * np.finfo(float).eps

    def test_leaves_the_input_and_the_ids(self):
        st = make_state()
        before = st.copy()
        out = boxplus(st, np.ones(layout_of(st).n) * 0.1)
        for name, value in vars(st).items():
            assert np.array_equal(value, getattr(before, name)), name
        for name in ("feature_ids", "anchor_ids", "pose_ids"):
            assert np.array_equal(getattr(out, name), getattr(st, name)), name
            assert getattr(out, name) is not getattr(st, name), name


class TestMarginalizedColumns:
    """The columns the engine removes for a pose or feature, by the
    index arithmetic of `Layout`."""

    def test_oldest_pose(self):
        lay = Layout(n_features=0, n_poses=5)
        assert lay.pose_cols(0).tolist() == walk_layout(0, 5)["pose"][0].tolist()
        assert lay.pose_cols(0).tolist() == list(range(lay.tsync + 1,
                                                       lay.tsync + 7))

    def test_two_oldest_features(self):
        lay = Layout(n_features=4, n_poses=5)
        idx = lay.feature_cols(np.arange(2)).ravel()
        assert idx.tolist() == list(range(N1, N1 + 6))
        assert max(idx) < lay.tsync

    def test_newest_pose_near_end(self):
        lay = Layout(n_features=0, n_poses=5)
        idx = lay.pose_cols(4)
        assert idx.tolist() == walk_layout(0, 5)["pose"][4].tolist()
        assert max(idx) == lay.intr - 1
