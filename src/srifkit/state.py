"""Sliding-window VINS state vector and its error-state layout.

The window is held as arrays: S SLAM features (ids, anchor pose ids and
(alpha, beta, rho) parameters) and L poses (ids, positions and
quaternions), each in chronological order. The error state orders them
as gyro bias, accel bias, velocity, the features, the time offset, the
poses, then the camera calibration (intrinsics, then camera-in-IMU
extrinsics), so the layout is arithmetic on (S, L): feature k starts at
9 + 3k, tsync is at 9 + 3S, pose j starts at 10 + 3S + 6j, and
n = 20 + 3S + 6L. The first N1 = 9 error-state dimensions (biases +
velocity) never appear in visual measurement Jacobians, which is what
makes the partitioned update cheap.

Quaternions are stored (x, y, z, w) and represent the global-from-IMU
rotation. Orientation error is a 3-vector axis-angle perturbation applied
on the left (global frame): q <- exp(theta) * q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
# state vector
# --------------------------------------------------------------------------


@dataclass
class VinsStateVector:
    """Full VINS estimate; see module docstring for the component order."""

    bg: np.ndarray
    ba: np.ndarray
    v: np.ndarray
    feature_ids: np.ndarray  # (S,) int64
    anchor_ids: np.ndarray   # (S,) int64, the pose each feature is anchored at
    params: np.ndarray       # (S, 3) alpha, beta, rho (1/m) in the anchor camera
    tsync: float
    pose_ids: np.ndarray     # (L,) int64, increasing
    positions: np.ndarray    # (L, 3) IMU positions
    quats: np.ndarray        # (L, 4) global-from-IMU rotations, xyzw
    intrinsics: np.ndarray   # (fx, fy, cx, cy)
    p_ic: np.ndarray         # camera position in IMU frame
    q_ic: np.ndarray         # IMU-from-camera rotation, xyzw

    def copy(self):
        return VinsStateVector(**{
            name: value.copy() if isinstance(value, np.ndarray) else value
            for name, value in vars(self).items()})

    @staticmethod
    def identity():
        ids = np.zeros(0, dtype=np.int64)
        return VinsStateVector(
            bg=np.zeros(3), ba=np.zeros(3), v=np.zeros(3),
            feature_ids=ids, anchor_ids=ids.copy(), params=np.zeros((0, 3)),
            tsync=0.0, pose_ids=ids.copy(),
            positions=np.zeros((0, 3)), quats=np.zeros((0, 4)),
            intrinsics=np.array([400.0, 400.0, 320.0, 240.0]),
            p_ic=np.zeros(3), q_ic=QUAT_IDENTITY.copy(),
        )


# --------------------------------------------------------------------------
# error-state layout
# --------------------------------------------------------------------------

N1 = 9  # bg, ba, v: the states visual updates do not touch


class Layout(NamedTuple):
    """Error-state offsets of a state with `n_features` features and
    `n_poses` poses. Orientation errors have dim 3 (minimal
    parameterization); a pose's block is (position, orientation)."""

    n_features: int
    n_poses: int

    @property
    def tsync(self):
        return N1 + 3 * self.n_features

    @property
    def intr(self):
        return self.tsync + 1 + 6 * self.n_poses

    @property
    def p_ic(self):
        return self.intr + 4

    @property
    def q_ic(self):
        return self.intr + 7

    @property
    def n(self):
        return self.intr + 10

    @property
    def n2(self):
        return self.n - N1

    def feature_cols(self, k):
        """The 3 columns of feature k, (..., 3) for an array of k."""
        return N1 + 3 * np.asarray(k)[..., None] + np.arange(3)

    def pose_cols(self, j):
        """The 6 columns of pose j, (..., 6) for an array of j."""
        return self.tsync + 1 + 6 * np.asarray(j)[..., None] + np.arange(6)


def layout_of(state: VinsStateVector) -> Layout:
    """The layout of a state vector's current contents."""
    return Layout(len(state.feature_ids), len(state.pose_ids))


# --------------------------------------------------------------------------
# retraction
# --------------------------------------------------------------------------


def boxplus(state: VinsStateVector, delta) -> VinsStateVector:
    """Apply an error-state increment; quaternions use the left-global
    small-angle retraction and are renormalized."""
    delta = np.asarray(delta, dtype=np.float64)
    lay = layout_of(state)
    if delta.shape != (lay.n,):
        raise ValueError(f"delta has dim {delta.shape}, layout needs {lay.n}")
    out = state.copy()
    out.bg = state.bg + delta[0:3]
    out.ba = state.ba + delta[3:6]
    out.v = state.v + delta[6:9]
    out.params = state.params + delta[N1:lay.tsync].reshape(-1, 3)
    out.tsync = state.tsync + delta[lay.tsync]
    poses = delta[lay.tsync + 1:lay.intr].reshape(-1, 6)
    out.positions = state.positions + poses[:, 0:3]
    # every pose's orientation and q_ic are retracted in one call
    q = quat_normalize(quat_mul(
        quat_from_rotvec(np.vstack([poses[:, 3:6], delta[lay.q_ic:lay.n]])),
        np.vstack([state.quats, state.q_ic])))
    out.quats, out.q_ic = q[:-1], q[-1]
    out.intrinsics = state.intrinsics + delta[lay.intr:lay.p_ic]
    out.p_ic = state.p_ic + delta[lay.p_ic:lay.q_ic]
    return out
