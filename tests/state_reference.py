"""Layout, retraction, state and quaternion helpers that only the tests use.

`walk_layout` writes a layout out block by block from the sizes alone,
as an oracle for `Layout`'s arithmetic. `boxminus` inverts `boxplus`,
with the quaternion conjugate `quat_conj` and the rotation vector of a
quaternion `rotvec_from_quat`. `set_poses` and `set_features` give a
state its window arrays.
"""

from __future__ import annotations

import numpy as np

from srifkit.state import N1, VinsStateVector, layout_of, quat_mul


def quat_conj(q):
    return np.array([-q[0], -q[1], -q[2], q[3]])


def rotvec_from_quat(q):
    """Inverse of `quat_from_rotvec`, with the angle in [0, pi]."""
    q = np.asarray(q, dtype=np.float64)
    if q[3] < 0:
        q = -q
    vn = np.linalg.norm(q[:3])
    if vn < 1e-12:
        return 2.0 * q[:3]
    angle = 2.0 * np.arctan2(vn, q[3])
    return (angle / vn) * q[:3]


def walk_layout(n_features: int, n_poses: int):
    """The error-state columns of each component, written out one block
    after another in the fixed order: a dict of the column arrays of
    "bg", "ba", "v", "tsync", "intr", "p_ic" and "q_ic", of "feature"
    (n_features, 3) and "pose" (n_poses, 6), and n."""
    blocks, off = {}, 0
    for name, count, dim in (("bg", None, 3), ("ba", None, 3),
                             ("v", None, 3), ("feature", n_features, 3),
                             ("tsync", None, 1), ("pose", n_poses, 6),
                             ("intr", None, 4), ("p_ic", None, 3),
                             ("q_ic", None, 3)):
        if count is None:
            blocks[name] = np.arange(off, off + dim)
            off += dim
            continue
        blocks[name] = np.zeros((count, dim), dtype=int)
        for i in range(count):
            blocks[name][i] = np.arange(off, off + dim)
            off += dim
    blocks["n"] = off
    return blocks


def set_poses(st: VinsStateVector, positions, quats, ids=None):
    """Give `st` a window of these poses, with ids 0, 1, ... unless given;
    returns `st`."""
    st.positions = np.array(positions, dtype=float).reshape(-1, 3)
    st.quats = np.array(quats, dtype=float).reshape(-1, 4)
    ids = np.arange(len(st.positions)) if ids is None else np.array(ids)
    st.pose_ids = ids.astype(np.int64)
    return st


def set_features(st: VinsStateVector, anchor_ids, params, ids=None):
    """Give `st` these SLAM features, with ids 0, 1, ... unless given;
    returns `st`."""
    st.params = np.array(params, dtype=float).reshape(-1, 3)
    st.anchor_ids = np.array(anchor_ids, dtype=np.int64).reshape(-1)
    st.feature_ids = (np.arange(len(st.params)) if ids is None
                      else np.array(ids)).astype(np.int64)
    return st


def boxminus(x: VinsStateVector, ref: VinsStateVector):
    """Error-state difference d with boxplus(ref, d) ~ x; both states hold
    the same features and poses."""
    assert np.array_equal(x.feature_ids, ref.feature_ids)
    assert np.array_equal(x.pose_ids, ref.pose_ids)
    lay = layout_of(x)
    d = np.zeros(lay.n)
    d[0:3] = x.bg - ref.bg
    d[3:6] = x.ba - ref.ba
    d[6:N1] = x.v - ref.v
    d[lay.feature_cols(np.arange(lay.n_features))] = x.params - ref.params
    d[lay.tsync] = x.tsync - ref.tsync
    for j in range(lay.n_poses):
        c = lay.pose_cols(j)
        d[c[:3]] = x.positions[j] - ref.positions[j]
        d[c[3:]] = rotvec_from_quat(quat_mul(x.quats[j], quat_conj(ref.quats[j])))
    d[lay.intr:lay.p_ic] = x.intrinsics - ref.intrinsics
    d[lay.p_ic:lay.q_ic] = x.p_ic - ref.p_ic
    d[lay.q_ic:lay.n] = rotvec_from_quat(quat_mul(x.q_ic, quat_conj(ref.q_ic)))
    return d
