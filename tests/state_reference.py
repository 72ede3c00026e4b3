"""Layout, retraction and quaternion helpers that only the tests use.

`build_layout` writes a layout out block by block from the sizes alone,
as an oracle for `layout_of`, and gives the kernel tests layouts of any
size without building a state. `boxminus` inverts `boxplus`, with the
quaternion conjugate `quat_conj` and the rotation vector of a quaternion
`rotvec_from_quat`.
"""

from __future__ import annotations

import numpy as np

from srifkit.state import ErrorStateLayout, VinsStateVector, quat_mul


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


def build_layout(window_size: int, n_features: int) -> ErrorStateLayout:
    """Layout for a window of `window_size` poses and `n_features` SLAM
    features, with ids 0, 1, ...: n = 9 + 3*s + 1 + 6*l + 10."""
    if window_size < 2 or n_features < 0:
        raise ValueError("need window_size >= 2 and n_features >= 0")
    s, l = n_features, window_size
    feats = [(f"feat:{i}", 9 + 3 * i, 3) for i in range(s)]
    t = 9 + 3 * s
    poses = [(f"pose:{i}", t + 1 + 6 * i, 6) for i in range(l)]
    c = t + 1 + 6 * l
    blocks = ([("bg", 0, 3), ("ba", 3, 3), ("v", 6, 3)] + feats
              + [("tsync", t, 1)] + poses
              + [("intr", c, 4), ("p_ic", c + 4, 3), ("q_ic", c + 7, 3)])
    return ErrorStateLayout(blocks, c + 10)


def boxminus(x: VinsStateVector, ref: VinsStateVector, layout: ErrorStateLayout):
    """Error-state difference d with boxplus(ref, d) ~ x."""
    d = np.zeros(layout.n)
    d[layout.slice("bg")] = x.bg - ref.bg
    d[layout.slice("ba")] = x.ba - ref.ba
    d[layout.slice("v")] = x.v - ref.v
    ref_feats = {f.id: f for f in ref.features}
    for f in x.features:
        d[layout.slice(f"feat:{f.id}")] = f.params - ref_feats[f.id].params
    d[layout.offset("tsync")] = x.tsync - ref.tsync
    ref_poses = {p.id: p for p in ref.poses}
    for p in x.poses:
        off = layout.offset(f"pose:{p.id}")
        rp = ref_poses[p.id]
        d[off:off + 3] = p.p - rp.p
        d[off + 3:off + 6] = rotvec_from_quat(quat_mul(p.q, quat_conj(rp.q)))
    d[layout.slice("intr")] = x.intrinsics - ref.intrinsics
    d[layout.slice("p_ic")] = x.p_ic - ref.p_ic
    d[layout.slice("q_ic")] = rotvec_from_quat(quat_mul(x.q_ic, quat_conj(ref.q_ic)))
    return d
