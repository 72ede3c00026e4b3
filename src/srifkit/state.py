"""Sliding-window VINS state vector and its error-state layout.

Component order is fixed: gyro bias, accel bias, velocity, SLAM features
(chronological), time offset, pose window (chronological), camera
calibration (intrinsics, then camera-in-IMU extrinsics). The first nine
error-state dimensions (biases + velocity) never appear in visual
measurement Jacobians, which is what makes the partitioned update cheap.

Quaternions are stored (x, y, z, w) and represent the global-from-IMU
rotation. Orientation error is a 3-vector axis-angle perturbation applied
on the left (global frame): q <- exp(theta) * q.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

# --------------------------------------------------------------------------
# quaternion helpers (xyzw, Hamilton convention)
# --------------------------------------------------------------------------

QUAT_IDENTITY = np.array([0.0, 0.0, 0.0, 1.0])


def quat_normalize(q):
    q = np.asarray(q, dtype=np.float64)
    return q / np.linalg.norm(q)


def quat_mul(q1, q2):
    x1, y1, z1, w1 = q1
    x2, y2, z2, w2 = q2
    return np.array([
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
    ])


def quat_from_rotvec(theta):
    theta = np.asarray(theta, dtype=np.float64)
    angle2 = theta @ theta
    if angle2 < 1e-16:
        q = np.array([0.5 * theta[0], 0.5 * theta[1], 0.5 * theta[2], 1.0])
        return q / np.linalg.norm(q)
    angle = np.sqrt(angle2)
    s = np.sin(0.5 * angle) / angle
    return np.array([s * theta[0], s * theta[1], s * theta[2], np.cos(0.5 * angle)])


def quat_to_mat(q):
    x, y, z, w = q
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return np.array([
        [1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy)],
        [2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx)],
        [2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy)],
    ])


def skew(v):
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def so3_right_jacobian(theta):
    """Right Jacobian of SO(3): exp(theta + d) ~ exp(theta) exp(Jr d)."""
    theta = np.asarray(theta, dtype=np.float64)
    a2 = theta @ theta
    S = skew(theta)
    if a2 < 1e-12:
        return np.eye(3) - 0.5 * S + S @ S / 6.0
    a = np.sqrt(a2)
    return (
        np.eye(3)
        - (1 - np.cos(a)) / a2 * S
        + (a - np.sin(a)) / (a2 * a) * (S @ S)
    )


# --------------------------------------------------------------------------
# state containers
# --------------------------------------------------------------------------


@dataclass
class Pose:
    """IMU pose: position and global-from-IMU quaternion at a timestamp."""

    p: np.ndarray
    q: np.ndarray
    t: float
    id: int = -1

    def copy(self):
        return Pose(self.p.copy(), self.q.copy(), self.t, self.id)


@dataclass
class InverseDepthFeature:
    """Camera-anchored feature: azimuth, elevation, inverse range (1/m)."""

    anchor_pose_id: int
    params: np.ndarray  # (alpha, beta, rho)
    id: int = -1

    def copy(self):
        return InverseDepthFeature(self.anchor_pose_id, self.params.copy(), self.id)


@dataclass
class VinsStateVector:
    """Full VINS estimate; see module docstring for the component order."""

    bg: np.ndarray
    ba: np.ndarray
    v: np.ndarray
    features: list  # of InverseDepthFeature, chronological
    tsync: float
    poses: list  # of Pose, chronological
    intrinsics: np.ndarray  # (fx, fy, cx, cy)
    p_ic: np.ndarray  # camera position in IMU frame
    q_ic: np.ndarray  # IMU-from-camera rotation, xyzw

    def copy(self):
        return VinsStateVector(
            self.bg.copy(), self.ba.copy(), self.v.copy(),
            [f.copy() for f in self.features], self.tsync,
            [p.copy() for p in self.poses],
            self.intrinsics.copy(), self.p_ic.copy(), self.q_ic.copy(),
        )

    @staticmethod
    def identity():
        return VinsStateVector(
            bg=np.zeros(3), ba=np.zeros(3), v=np.zeros(3), features=[],
            tsync=0.0, poses=[], intrinsics=np.array([400.0, 400.0, 320.0, 240.0]),
            p_ic=np.zeros(3), q_ic=QUAT_IDENTITY.copy(),
        )


# --------------------------------------------------------------------------
# error-state layout
# --------------------------------------------------------------------------


@dataclass
class ErrorStateLayout:
    """Ordered (name, offset, dim) blocks covering [0, n).

    Orientation blocks have dim 3 (minimal parameterization). The n1/n2
    boundary separates the states untouched by visual updates (biases +
    velocity, n1 = 9) from the rest.
    """

    blocks: list  # of (name, offset, dim)
    n: int
    n1: int = 9

    def __post_init__(self):
        self.index = {name: (off, dim) for name, off, dim in self.blocks}

    @property
    def n2(self):
        return self.n - self.n1

    def offset(self, name):
        return self.index[name][0]

    def dim(self, name):
        return self.index[name][1]

    def slice(self, name):
        off, dim = self.index[name]
        return slice(off, off + dim)

    def pose_offsets(self):
        return [off for name, off, dim in self.blocks if name.startswith("pose:")]


def layout_of(state: VinsStateVector) -> ErrorStateLayout:
    """Layout matching the current contents of a state vector: for s
    features and l poses, n = 9 + 3*s + 1 + 6*l + 10."""
    blocks = [("bg", 0, 3), ("ba", 3, 3), ("v", 6, 3)]
    off = 9
    for f in state.features:
        blocks.append((f"feat:{f.id}", off, 3))
        off += 3
    blocks.append(("tsync", off, 1))
    off += 1
    for p in state.poses:
        blocks.append((f"pose:{p.id}", off, 6))
        off += 6
    blocks.append(("intr", off, 4))
    blocks.append(("p_ic", off + 4, 3))
    blocks.append(("q_ic", off + 7, 3))
    off += 10
    return ErrorStateLayout(blocks, off)


# --------------------------------------------------------------------------
# retraction
# --------------------------------------------------------------------------


def boxplus(state: VinsStateVector, delta, layout: ErrorStateLayout) -> VinsStateVector:
    """Apply an error-state increment; quaternion blocks use the left-global
    small-angle retraction and are renormalized."""
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != (layout.n,):
        raise ValueError(f"delta has dim {delta.shape}, layout needs {layout.n}")
    out = state.copy()
    out.bg = state.bg + delta[layout.slice("bg")]
    out.ba = state.ba + delta[layout.slice("ba")]
    out.v = state.v + delta[layout.slice("v")]
    for f in out.features:
        f.params = f.params + delta[layout.slice(f"feat:{f.id}")]
    out.tsync = state.tsync + delta[layout.offset("tsync")]
    for p in out.poses:
        off = layout.offset(f"pose:{p.id}")
        p.p = p.p + delta[off:off + 3]
        p.q = quat_normalize(quat_mul(quat_from_rotvec(delta[off + 3:off + 6]), p.q))
    out.intrinsics = state.intrinsics + delta[layout.slice("intr")]
    out.p_ic = state.p_ic + delta[layout.slice("p_ic")]
    out.q_ic = quat_normalize(
        quat_mul(quat_from_rotvec(delta[layout.slice("q_ic")]), state.q_ic))
    return out


def reorder_for_marginalization(layout: ErrorStateLayout, block_names) -> list:
    """Scalar error-state indices covered by whole blocks, ascending.

    Chronological ordering of features and poses guarantees the states to
    marginalize cluster toward low indices within their sections.
    """
    idx = []
    for name in block_names:
        if name not in layout.index:
            raise KeyError(f"unknown block {name!r}")
        off, dim = layout.index[name]
        idx.extend(range(off, off + dim))
    return sorted(idx)
