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

from dataclasses import dataclass

import numpy as np

# --------------------------------------------------------------------------
# quaternion and SO(3) helpers (xyzw, Hamilton convention)
#
# Each takes one quaternion (..., 4) or vector (..., 3) per row of an array
# of any leading shape and returns one result per row, bitwise what it
# returns for that row alone.
# --------------------------------------------------------------------------

QUAT_IDENTITY = np.array([0.0, 0.0, 0.0, 1.0])


def _dot(a, b):
    """a . b per row, by the BLAS dot a 1-D a @ b calls."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _columns(a):
    """The entries along a's last axis, each of a's leading shape (numpy
    scalars for one row, whose arithmetic costs less than 0-d arrays')."""
    a = np.asarray(a, dtype=np.float64)
    return list(a.transpose(-1, *range(a.ndim - 1)))


def _stack(*columns):
    """The inverse of `_columns`, C-ordered."""
    out = np.array(columns)
    return np.ascontiguousarray(out.transpose(*range(1, out.ndim), 0))


def quat_normalize(q):
    q = np.asarray(q, dtype=np.float64)
    return q / np.sqrt(_dot(q, q))[..., None]


def quat_mul(q1, q2):
    (x1, y1, z1, w1), (x2, y2, z2, w2) = _columns(q1), _columns(q2)
    return _stack(w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                  w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                  w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
                  w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2)


def quat_from_rotvec(theta):
    """exp(theta) as a quaternion; below a squared angle of 1e-16 it is the
    series (theta / 2, 1), which is a unit quaternion to the last bit."""
    theta = np.asarray(theta, dtype=np.float64)
    angle2 = _dot(theta, theta)
    small = angle2 < 1e-16
    angle = np.sqrt(np.where(small, 1.0, angle2))
    s = np.where(small, 0.5, np.sin(0.5 * angle) / angle)
    return _stack(*(s * t for t in _columns(theta)),
                  np.where(small, 1.0, np.cos(0.5 * angle)))


def quat_to_mat(q):
    x, y, z, w = _columns(q)
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return _stack(1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy),
                  2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx),
                  2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy),
                  ).reshape(np.shape(x) + (3, 3))


def skew(v):
    v = np.asarray(v, dtype=np.float64)
    S = np.zeros(v.shape[:-1] + (3, 3))
    S[..., 0, 1], S[..., 0, 2] = -v[..., 2], v[..., 1]
    S[..., 1, 0], S[..., 1, 2] = v[..., 2], -v[..., 0]
    S[..., 2, 0], S[..., 2, 1] = -v[..., 1], v[..., 0]
    return S


def so3_right_jacobian(theta):
    """Right Jacobian of SO(3): exp(theta + d) ~ exp(theta) exp(Jr d)
    (Forster et al., T-RO 2017); below a squared angle of 1e-12 it is the
    second-order series."""
    theta = np.asarray(theta, dtype=np.float64)
    a2 = _dot(theta, theta)[..., None, None]
    small = a2 < 1e-12
    a2 = np.where(small, 1.0, a2)
    a = np.sqrt(a2)
    S = skew(theta)
    SS = S @ S
    return (np.eye(3) - np.where(small, 0.5, (1 - np.cos(a)) / a2) * S
            + np.where(small, SS / 6.0, (a - np.sin(a)) / (a2 * a) * SS))


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
    # every pose's orientation and q_ic are retracted in one call
    offs = [layout.offset(f"pose:{p.id}") for p in out.poses]
    theta = [delta[o + 3:o + 6] for o in offs] + [delta[layout.slice("q_ic")]]
    q = quat_normalize(quat_mul(quat_from_rotvec(theta),
                                [p.q for p in out.poses] + [state.q_ic]))
    for p, o, qp in zip(out.poses, offs, q):
        p.p, p.q = p.p + delta[o:o + 3], qp
    out.intrinsics = state.intrinsics + delta[layout.slice("intr")]
    out.p_ic = state.p_ic + delta[layout.slice("p_ic")]
    out.q_ic = q[-1]
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
