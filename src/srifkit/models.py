"""Linearized process and measurement models.

IMU error-state transition for state augmentation (every sample of a step
evaluated at once, the transition and process noise as suffix products),
inverse-depth pinhole projection with analytic Jacobians (the time-offset
column included), per-frame camera poses of the whole window with their
time-offset derivatives, vectorized Gauss-Newton triangulation,
left-null-space elimination of track-end features, noise whitening, and
feature reanchoring.

Error-state conventions follow `state`: orientation errors are 3-vector
left-global perturbations; pose error blocks are (position, orientation).
The 15-dim IMU transition block is ordered (bg, ba, v, p, theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .state import (
    InverseDepthFeature,
    Pose,
    quat_from_rotvec,
    quat_normalize,
    quat_to_mat,
    skew,
)

GRAVITY = np.array([0.0, 0.0, -9.81])
MIN_DEPTH = 0.05  # m; guards Jacobian blow-up as rho -> inf


class BehindCamera(Exception):
    """Projected depth at or below the minimum; the track is dropped."""


class NonPositiveDepth(Exception):
    """Reanchoring produced a point behind the new anchor camera."""


class RankDeficientFeature(Exception):
    """Feature Jacobian has rank < 3 (too few / degenerate observations)."""


@dataclass
class ImuSample:
    omega: np.ndarray  # rad/s, body frame
    accel: np.ndarray  # m/s^2, specific force, body frame
    dt: float

    def __post_init__(self):
        if not (np.isfinite(self.omega).all()
                and np.isfinite(self.accel).all()):
            raise ValueError(f"non-finite IMU sample: omega={self.omega}, "
                             f"accel={self.accel}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")


@dataclass
class ImuNoise:
    """Continuous-time IMU noise densities."""

    gyro_density: float = 1e-3       # rad/s/sqrt(Hz)
    accel_density: float = 1e-2      # m/s^2/sqrt(Hz)
    gyro_bias_rw: float = 1e-5       # rad/s^2/sqrt(Hz)
    accel_bias_rw: float = 1e-4      # m/s^3/sqrt(Hz)


@dataclass
class TransitionBlock:
    """Linearized process model tying the new IMU state to the old one.

    phi maps old (bg, ba, v, p, theta) errors to new ones; sqrt_info is
    the upper-triangular square root L (L.T L = Q^-1) of the accumulated
    process-noise information.
    """

    phi: np.ndarray        # 15 x 15
    sqrt_info: np.ndarray  # 15 x 15 upper triangular, positive diagonal
    new_pose: Pose
    new_v: np.ndarray


@dataclass
class LinearizedMeasurement:
    """Whitened residual and Jacobian blocks over the involved states.

    Columns outside `blocks` are exactly zero by construction, so the
    stacked Jacobian has the [0 H2] form: no visual measurement touches
    biases or velocity.
    """

    residual: np.ndarray       # (m,), unit noise covariance
    blocks: dict               # block name -> (m, dim) array


# --------------------------------------------------------------------------
# IMU propagation
# --------------------------------------------------------------------------


def _skews(v):
    """skew(v[k]) for each row of the (K, 3) array v, as (K, 3, 3)."""
    S = np.zeros(v.shape[:1] + (3, 3))
    S[:, 0, 1], S[:, 0, 2] = -v[:, 2], v[:, 1]
    S[:, 1, 0], S[:, 1, 2] = v[:, 2], -v[:, 0]
    S[:, 2, 0], S[:, 2, 1] = -v[:, 1], v[:, 0]
    return S


def _exp_terms(theta):
    """`quat_from_rotvec`, its `quat_to_mat` and `so3_right_jacobian` of
    each row of the (K, 3) array theta, with the same small-angle branches
    (angle^2 below 1e-16 and 1e-12)."""
    a2 = np.einsum("ij,ij->i", theta, theta)
    # quaternion: normalized first-order series below the threshold
    small = a2 < 1e-16
    a = np.sqrt(np.where(small, 1.0, a2))
    q = np.empty((len(theta), 4))
    q[:, :3] = np.where(small, 0.5, np.sin(0.5 * a) / a)[:, None] * theta
    q[:, 3] = np.where(small, 1.0, np.cos(0.5 * a))
    q[small] /= np.sqrt(np.einsum("ij,ij->i", q[small], q[small]))[:, None]
    x, y, z, w = q.T
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    M = np.stack([
        1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy),
        2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx),
        2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy),
    ], axis=1).reshape(-1, 3, 3)
    # right Jacobian: second-order series below the threshold
    small = a2 < 1e-12
    a2 = np.where(small, 1.0, a2)
    a = np.sqrt(a2)
    c1 = np.where(small, 0.5, (1 - np.cos(a)) / a2)
    c2 = np.where(small, 1.0 / 6.0, (a - np.sin(a)) / (a2 * a))
    S = _skews(theta)
    Jr = np.eye(3) - c1[:, None, None] * S + c2[:, None, None] * (S @ S)
    return q, M, Jr


def _suffix_products(F):
    """S[k] = F[K-1] ... F[k+1] (S[K-1] = I) for a (K, n, n) stack, by a
    doubling scan: log2(K) batched products."""
    S = np.empty_like(F)
    S[:-1] = F[1:]
    S[-1] = np.eye(F.shape[1])
    shift = 1
    while shift < len(F):
        S[:-shift] = S[shift:] @ S[:-shift]
        shift *= 2
    return S


def imu_transition(bg, ba, v, pose: Pose, samples, noise: ImuNoise,
                   noise_floor=1e-8):
    """Integrate IMU samples from `pose` and linearize the step.

    Midpoint integration per sample; the transition Jacobian is the exact
    linearization of the discrete integrator (verified against finite
    differences). Returns a TransitionBlock carrying the predicted pose
    and velocity plus the square-root information of the accumulated
    process noise. `noise_floor` keeps that information finite on
    noise-free scenarios.

    The biases are fixed during the step, so every sample's rotation
    increment, right Jacobians and transition F_k are computed at once
    as (K, ...) arrays. The sample recursions Phi <- F_k Phi and
    Q <- F_k Q F_k.T + G_k are then closed products (Forster et al.,
    T-RO 2017): with the suffix products S_k = F_{K-1} ... F_{k+1},
    Phi = S_0 F_0 and Q = sum_k S_k G_k S_k.T. Only the orientation chain
    R_{k+1} = R_k exp(w_k dt_k) runs sample by sample.
    """
    if not samples:
        raise ValueError("need at least one IMU sample")
    K = len(samples)
    dt = np.array([s.dt for s in samples])
    h = dt[:, None]
    w_hat = np.array([s.omega for s in samples]) - bg
    a_hat = np.array([s.accel for s in samples]) - ba
    theta = w_hat * h
    dq, D, Jr = _exp_terms(np.concatenate([theta, theta / 2.0]))
    D_full, D_half = D[:K], D[K:]
    # R[k] is the orientation before sample k, R[K] the one after the
    # step; the quaternion advances as q <- q dq_k, a product with the
    # 4 x 4 matrix of right multiplication by dq_k
    x, y, z, w = dq[:K].T
    right = np.stack([w, z, -y, x, -z, w, x, y,
                      y, -x, w, z, -x, -y, -z, w], axis=1).reshape(-1, 4, 4)
    R = np.empty((K + 1, 3, 3))
    R[0] = quat_to_mat(pose.q)
    q = pose.q
    for k in range(K):
        R[k + 1] = R[k] @ D_full[k]
        q = right[k] @ q
    R_mid = R[:-1] @ D_half
    sacc = (R_mid @ a_hat[:, :, None])[:, :, 0]
    aw = sacc + GRAVITY
    # single-sample transitions (bg, ba, v, p, theta)
    d1 = dt[:, None, None]
    d2 = 0.5 * d1 * d1
    Ssacc = _skews(sacc)
    SRJ = Ssacc @ (R_mid @ Jr[K:])
    F = np.tile(np.eye(15), (K, 1, 1))
    F[:, 12:15, 0:3] = -R[1:] @ Jr[:K] * d1
    F[:, 6:9, 12:15] = -Ssacc * d1
    F[:, 6:9, 0:3] = SRJ * d2
    F[:, 6:9, 3:6] = -R_mid * d1
    F[:, 9:12, 6:9] = np.eye(3) * d1
    F[:, 9:12, 12:15] = -Ssacc * d2
    F[:, 9:12, 0:3] = SRJ * (0.25 * d1 ** 3)
    F[:, 9:12, 3:6] = -R_mid * d2
    # discrete noise: white gyro/accel act through the bias columns,
    # but only for their sample -- they do not perturb the bias states
    Bg = F[:, :, 0:3].copy()
    Bg[:, 0:3] = 0.0
    Ba = F[:, :, 3:6].copy()
    Ba[:, 3:6] = 0.0
    G = (Bg @ Bg.transpose(0, 2, 1) * (noise.gyro_density ** 2 / d1)
         + Ba @ Ba.transpose(0, 2, 1) * (noise.accel_density ** 2 / d1))
    G[:, 0:3, 0:3] += np.eye(3) * noise.gyro_bias_rw ** 2 * d1
    G[:, 3:6, 3:6] += np.eye(3) * noise.accel_bias_rw ** 2 * d1
    S = _suffix_products(F)
    Phi = S[0] @ F[0]
    Q = (S @ G @ S.transpose(0, 2, 1)).sum(axis=0)
    Q += np.eye(15) * noise_floor ** 2
    Q = 0.5 * (Q + Q.T)
    info = np.linalg.inv(Q)
    sqrt_info = linalg.cholesky_upper(0.5 * (info + info.T), check_symmetry=False)
    # state integration; v_k[k] is the velocity before sample k
    v_k = np.cumsum(np.vstack([v, aw * h]), axis=0)
    p = pose.p + (v_k[:-1] * h + 0.5 * aw * h * h).sum(axis=0)
    new_pose = Pose(p, quat_normalize(q), pose.t + dt.sum())
    return TransitionBlock(Phi, sqrt_info, new_pose, v_k[-1])


# --------------------------------------------------------------------------
# camera geometry
# --------------------------------------------------------------------------


def bearing_vector(alpha, beta):
    """Unit ray for azimuth/elevation; (0, 0) is the optical axis."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    return np.array([sa * cb, sb, ca * cb])


def bearing_jacobian(alpha, beta):
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    return np.array([
        [ca * cb, -sa * sb],
        [0.0, cb],
        [-sa * cb, -ca * sb],
    ])


def bearing_angles(u):
    """Inverse of bearing_vector for a (not necessarily unit) ray."""
    alpha = np.arctan2(u[0], u[2])
    beta = np.arctan2(u[1], np.hypot(u[0], u[2]))
    return alpha, beta


def pixel_to_bearing(pixel, intrinsics):
    fx, fy, cx, cy = intrinsics
    xn = (pixel[0] - cx) / fx
    yn = (pixel[1] - cy) / fy
    return bearing_angles(np.array([xn, yn, 1.0]))


def _imu_pose_at(pose: Pose, advance, tsync):
    """Global-from-IMU rotation and IMU position, shifted by tsync along
    the constant velocity and body rate `advance` = (v, w) when given."""
    R_wi = quat_to_mat(pose.q)
    p_wi = pose.p
    if advance is not None and tsync != 0.0:
        v, w = advance
        p_wi = p_wi + v * tsync
        R_wi = R_wi @ quat_to_mat(quat_from_rotvec(w * tsync))
    return R_wi, p_wi


def camera_pose(pose: Pose, p_ic, q_ic, advance=None, tsync=0.0):
    """World-from-camera rotation and camera center for an IMU pose.

    `advance` is an optional (velocity, body angular rate) pair used to
    shift the pose by the time-offset estimate tsync.
    """
    R_wi, p_wi = _imu_pose_at(pose, advance, tsync)
    R_wc = R_wi @ quat_to_mat(q_ic)
    t_wc = p_wi + R_wi @ p_ic
    return R_wc, t_wc, R_wi, p_wi


class CameraFrame(NamedTuple):
    """One pose's camera at tsync and its derivative with respect to tsync."""

    R_wc: np.ndarray   # world-from-camera rotation
    t_wc: np.ndarray   # camera center
    p_wi: np.ndarray   # IMU position the pose error rotates about
    dR_wc: np.ndarray  # d R_wc / d tsync
    dt_wc: np.ndarray  # d t_wc / d tsync


class WindowCameras(NamedTuple):
    """Camera frames of window poses, keyed by pose id, and the
    camera-to-IMU rotation they share."""

    R_ic: np.ndarray
    frames: dict


def _camera_frame(pose: Pose, p_ic, R_ic, advance, tsync) -> CameraFrame:
    """`camera_pose` with its tsync derivative, from a precomputed R_ic.

    Shifting by tsync moves the IMU to p + v tsync and R exp(w tsync), so
    d R_wc / d tsync = R_wi skew(w) R_ic and d t_wc / d tsync =
    v + R_wi skew(w) p_ic at the shifted R_wi; a pose without `advance`
    does not move with tsync.
    """
    R_wi, p_wi = _imu_pose_at(pose, advance, tsync)
    R_wc = R_wi @ R_ic
    t_wc = p_wi + R_wi @ p_ic
    if advance is None:
        return CameraFrame(R_wc, t_wc, p_wi, np.zeros((3, 3)), np.zeros(3))
    v, w = advance
    Rw = R_wi @ skew(w)
    return CameraFrame(R_wc, t_wc, p_wi, Rw @ R_ic, v + Rw @ p_ic)


def window_cameras(state, frame_motion=None) -> WindowCameras:
    """Every window pose's camera frame at state.tsync, each evaluated once;
    `frame_motion` is as for `project_feature`."""
    R_ic = quat_to_mat(state.q_ic)
    fm = frame_motion or {}
    return WindowCameras(R_ic, {
        p.id: _camera_frame(p, state.p_ic, R_ic, fm.get(p.id), state.tsync)
        for p in state.poses})


def feature_point_global(feature: InverseDepthFeature, anchor: Pose, p_ic, q_ic,
                         advance=None, tsync=0.0):
    alpha, beta, rho = feature.params
    A, t_A, _, _ = camera_pose(anchor, p_ic, q_ic, advance, tsync)[:4]
    return A @ (bearing_vector(alpha, beta) / rho) + t_A


def _point_jacobians(A, B, X, p_anchor, p_obs, params):
    """Jacobians of y = B.T (X - t_B), the point X = A f + t_A of an
    inverse-depth feature seen from a second camera.

    A and B are the anchor and observing world-from-camera rotations, and
    p_anchor and p_obs the IMU positions their pose errors rotate about.
    Returns d y / d (anchor pose), d y / d (observing pose), each 3 x 6 in
    (position, left-global orientation) order, and d y / d params (3 x 3).
    """
    alpha, beta, rho = params
    dy_anchor = np.zeros((3, 6))
    dy_anchor[:, 0:3] = B.T
    dy_anchor[:, 3:6] = -B.T @ skew(X - p_anchor)
    dy_obs = np.zeros((3, 6))
    dy_obs[:, 0:3] = -B.T
    dy_obs[:, 3:6] = B.T @ skew(X - p_obs)
    dy_feat = np.zeros((3, 3))
    dy_feat[:, 0:2] = B.T @ A @ bearing_jacobian(alpha, beta) / rho
    dy_feat[:, 2] = -B.T @ A @ bearing_vector(alpha, beta) / rho ** 2
    return dy_anchor, dy_obs, dy_feat


def project_feature(state, feature: InverseDepthFeature, observing_pose_id,
                    frame_motion=None, min_depth=MIN_DEPTH,
                    with_jacobians=True, cameras: WindowCameras | None = None):
    """Project an anchored inverse-depth feature into an observing frame.

    Returns (pixel, blocks) where blocks maps error-state block names to
    2 x dim Jacobians (anchor pose, observing pose, feature parameters,
    extrinsics, intrinsics, and tsync). `frame_motion` maps pose id to
    (velocity, body rate) constants used for the time-offset model; the
    tsync column is the analytic image-plane feature velocity under that
    shift. `cameras` is `window_cameras(state, frame_motion)` when the
    caller projects many features against the same state; without it the
    window is evaluated here, with the same result.

    Raises BehindCamera when the depth in the observing camera is at or
    below min_depth.
    """
    if cameras is None:
        cameras = window_cameras(state, frame_motion)
    anchor_id = feature.anchor_pose_id
    A, t_A, pa, dA, dt_A = cameras.frames[anchor_id]
    B, t_B, po, dB, dt_B = cameras.frames[observing_pose_id]
    alpha, beta, rho = feature.params
    f = bearing_vector(alpha, beta) / rho
    X = A @ f + t_A
    y = B.T @ (X - t_B)
    if y[2] <= min_depth:
        raise BehindCamera(f"depth {y[2]:.4f} <= {min_depth}")
    fx, fy, cx, cy = state.intrinsics
    xn, yn = y[0] / y[2], y[1] / y[2]
    pixel = np.array([fx * xn + cx, fy * yn + cy])
    if not with_jacobians:
        return pixel, None

    Jz = np.array([
        [fx / y[2], 0.0, -fx * y[0] / y[2] ** 2],
        [0.0, fy / y[2], -fy * y[1] / y[2] ** 2],
    ])
    R_ic = cameras.R_ic
    # d y / d (error blocks)
    dy = {}
    dy_anchor, dy_obs, dy_feat = _point_jacobians(A, B, X, pa, po, feature.params)
    if anchor_id == observing_pose_id:
        dy[f"pose:{anchor_id}"] = dy_anchor + dy_obs
    else:
        dy[f"pose:{anchor_id}"] = dy_anchor
        dy[f"pose:{observing_pose_id}"] = dy_obs
    dy[f"feat:{feature.id}"] = dy_feat
    # IMU rotations at the (possibly advanced) exposure times
    R_a_wi = A @ R_ic.T
    R_o_wi = B @ R_ic.T
    dy["p_ic"] = B.T @ (R_a_wi - R_o_wi)
    dy["q_ic"] = -B.T @ R_a_wi @ skew(R_ic @ f) + R_ic.T @ skew(R_o_wi.T @ (X - t_B))
    # tsync: both cameras move with the time shift
    dy["tsync"] = (dB.T @ (X - t_B) + B.T @ (dA @ f + dt_A - dt_B))[:, None]

    blocks = {name: Jz @ J for name, J in dy.items()}
    blocks["intr"] = np.array([
        [xn, 0.0, 1.0, 0.0],
        [0.0, yn, 0.0, 1.0],
    ])
    return pixel, blocks


# --------------------------------------------------------------------------
# measurement assembly
# --------------------------------------------------------------------------


def whiten(residual, blocks, sigma_px) -> LinearizedMeasurement:
    """Scale residual and Jacobians by 1/sigma so noise covariance is I."""
    if sigma_px <= 0:
        raise ValueError("sigma_px must be positive")
    inv = 1.0 / sigma_px
    return LinearizedMeasurement(
        residual=np.asarray(residual) * inv,
        blocks={k: v * inv for k, v in blocks.items()},
    )


def msckf_nullspace_project(Hf, Hx_blocks, r):
    """Eliminate the feature by projecting onto the left null space of Hf.

    Applies the Householder reflectors of Hf's QR to [Hx r] and keeps the
    bottom rows, so the output is independent of the (never-estimated)
    feature. Output row count is rows - 3.
    """
    Hf = np.asarray(Hf, dtype=np.float64)
    m = Hf.shape[0]
    if m < 4:
        raise RankDeficientFeature(f"only {m} stacked rows")
    names = list(Hx_blocks.keys())
    dims = [Hx_blocks[k].shape[1] for k in names]
    rhs = np.hstack([np.hstack([Hx_blocks[k] for k in names]), np.asarray(r)[:, None]])
    Rf, t = linalg.householder_qr(Hf, rhs)
    scale = np.abs(Rf).max()
    if np.abs(Rf[2, 2]) <= 1e-10 * max(scale, 1.0):
        raise RankDeficientFeature("feature Jacobian rank < 3")
    t = t[3:]
    out_blocks = {}
    off = 0
    for k, d in zip(names, dims):
        out_blocks[k] = t[:, off:off + d]
        off += d
    return out_blocks, t[:, -1]


def reanchor_feature(feature: InverseDepthFeature, old_anchor: Pose,
                     new_anchor: Pose, p_ic, q_ic):
    """Re-express a feature w.r.t. a new anchor camera frame.

    The represented global point is unchanged. Returns (feature, J_feat,
    J_old, J_new): the reanchored feature and the Jacobians of its
    parameters w.r.t. the old parameters (3 x 3) and the old and new
    anchor pose errors (3 x 6 each). Raises NonPositiveDepth if the point
    falls behind the new anchor camera.
    """
    X = feature_point_global(feature, old_anchor, p_ic, q_ic)
    B, t_B, _, p_new = camera_pose(new_anchor, p_ic, q_ic)
    y = B.T @ (X - t_B)
    if y[2] <= 0:
        raise NonPositiveDepth(f"depth {y[2]:.4f} after reanchoring")
    rng = np.linalg.norm(y)
    alpha, beta = bearing_angles(y)
    out = InverseDepthFeature(
        anchor_pose_id=new_anchor.id,
        params=np.array([alpha, beta, 1.0 / rng]),
        id=feature.id,
    )
    # d (atan2(y0, y2), atan2(y1, hypot(y0, y2)), 1 / |y|) / d y
    h2 = y[0] ** 2 + y[2] ** 2
    h = np.sqrt(h2)
    dparams = np.array([
        [y[2] / h2, 0.0, -y[0] / h2],
        [-y[0] * y[1] / (h * rng ** 2), h / rng ** 2, -y[2] * y[1] / (h * rng ** 2)],
        -y / rng ** 3,
    ])
    A, _, _, p_old = camera_pose(old_anchor, p_ic, q_ic)
    dy_old, dy_new, dy_feat = _point_jacobians(A, B, X, p_old, p_new, feature.params)
    return out, dparams @ dy_feat, dparams @ dy_old, dparams @ dy_new


def _init_inverse_depth(u0, rays, base):
    """Mean inverse depth along u0 from the views whose ray meets it.

    Per view, [u0, -ray] s = base in the least-squares sense gives the depth
    s[0] along u0. The 2 x 2 normal equations are solved for all views at
    once; a view whose rays are within about a milliradian of parallel goes
    through `lstsq`, which takes the minimum-norm solution when they are.
    """
    a = u0 @ u0
    c = rays @ u0
    d = np.einsum("ij,ij->i", rays, rays)
    det = a * d - c * c
    solvable = det > 1e-6 * a * d
    depth = np.divide(d * (base @ u0) - c * np.einsum("ij,ij->i", rays, base),
                      det, out=np.zeros_like(det), where=solvable)
    for i in np.flatnonzero(~solvable):
        M = np.column_stack([u0, -rays[i]])
        depth[i] = np.linalg.lstsq(M, base[i], rcond=None)[0][0]
    hit = depth > 0.01
    if not hit.any():
        return 0.5
    return np.divide(1.0, depth, out=np.zeros_like(depth), where=hit).sum() / hit.sum()


def triangulate_inverse_depth(pixels, cam_rots, cam_centers, intrinsics,
                              iters=10):
    """Gauss-Newton triangulation in anchored inverse-depth coordinates.

    The first view is the anchor. All views are evaluated at once: with
    C_k = B_k.T A and c_k = B_k.T (t_A - t_k) fixed, view k sees the point
    at y_k = C_k f + c_k, and its Jacobian is C_k d f / d theta. Returns
    (alpha, beta, rho) or raises RankDeficientFeature when the geometry is
    degenerate.
    """
    fx, fy, cx, cy = intrinsics
    px = np.asarray(pixels, dtype=np.float64)
    Bs = np.asarray(cam_rots, dtype=np.float64)
    ts = np.asarray(cam_centers, dtype=np.float64)
    A, t_A = Bs[0], ts[0]
    alpha, beta = pixel_to_bearing(px[0], intrinsics)
    # every view's unit ray in the world frame, then the linear init for
    # rho from the rays of the views other than the anchor
    focal = np.array([fx, fy])
    rays = np.ones((len(px), 3))
    rays[:, :2] = (px - (cx, cy)) / focal
    rays /= np.sqrt(np.einsum("ij,ij->i", rays, rays))[:, None]
    rays = (Bs @ rays[:, :, None])[:, :, 0]
    rho = _init_inverse_depth(rays[0], rays[1:], ts[1:] - t_A)
    rho = min(max(rho, 1e-3), 1e3)
    theta = np.array([alpha, beta, rho])
    C = Bs.transpose(0, 2, 1) @ A
    c = ((t_A - ts)[:, None, :] @ Bs)[:, 0, :]
    # columns: d f / d (alpha, beta, rho), then f itself
    G = np.empty((3, 4))
    for _ in range(iters):
        u = bearing_vector(theta[0], theta[1])
        G[:, 0:2] = bearing_jacobian(theta[0], theta[1]) / theta[2]
        G[:, 2] = -u / theta[2] ** 2
        G[:, 3] = u / theta[2]
        CG = C @ G
        y = CG[:, :, 3] + c
        if (y[:, 2] <= 1e-3).any():
            raise RankDeficientFeature("triangulated point behind a camera")
        inv = 1.0 / y[:, 2:3]
        xy = y[:, 0:2] * inv
        r = (px - (focal * xy + (cx, cy))).ravel()
        # d (f_x y0 / y2, f_y y1 / y2) = f / y2 * (d y01 - y01 / y2 * d y2)
        J = ((focal * inv)[:, :, None]
             * (CG[:, 0:2, 0:3] - xy[:, :, None] * CG[:, 2:3, 0:3])).reshape(-1, 3)
        JtJ = J.T @ J
        # cond(JtJ) > 1e12, from the singular values cond would use
        sv = np.linalg.svd(JtJ, compute_uv=False)
        if sv[0] > 1e12 * sv[-1] or sv[-1] == 0.0:
            raise RankDeficientFeature("degenerate triangulation geometry")
        step = np.linalg.solve(JtJ, J.T @ r)
        theta = theta + step
        theta[2] = min(max(theta[2], 1e-4), 1e4)
        if np.linalg.norm(step) < 1e-10:
            break
    return theta
