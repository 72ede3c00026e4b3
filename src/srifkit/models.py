"""Linearized process and measurement models.

IMU error-state transition for state augmentation, inverse-depth pinhole
projection with analytic Jacobians, left-null-space elimination of
track-end features, noise whitening, and feature reanchoring.

Error-state conventions follow `state`: orientation errors are 3-vector
left-global perturbations; pose error blocks are (position, orientation).
The 15-dim IMU transition block is ordered (bg, ba, v, p, theta).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .state import (
    InverseDepthFeature,
    Pose,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    quat_to_mat,
    skew,
    so3_right_jacobian,
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
        if self.dt <= 0:
            raise ValueError("dt must be positive")


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

    def to_dense(self, layout):
        H = np.zeros((self.residual.shape[0], layout.n))
        for name, J in self.blocks.items():
            H[:, layout.slice(name)] = J
        return H


# --------------------------------------------------------------------------
# IMU propagation
# --------------------------------------------------------------------------


def imu_transition(bg, ba, v, pose: Pose, samples, noise: ImuNoise,
                   noise_floor=1e-8):
    """Integrate IMU samples from `pose` and linearize the step.

    Midpoint integration per sample; the transition Jacobian is the exact
    linearization of the discrete integrator (verified against finite
    differences). Returns a TransitionBlock carrying the predicted pose
    and velocity plus the square-root information of the accumulated
    process noise. `noise_floor` keeps that information finite on
    noise-free scenarios.
    """
    if not samples:
        raise ValueError("need at least one IMU sample")
    R = quat_to_mat(pose.q)
    q = pose.q.copy()
    p = pose.p.copy()
    v = v.copy()
    Phi = np.eye(15)
    Q = np.zeros((15, 15))
    t = pose.t
    sg2, sa2 = noise.gyro_density ** 2, noise.accel_density ** 2
    for s in samples:
        dt = s.dt
        w_hat = s.omega - bg
        a_hat = s.accel - ba
        dq_full = quat_from_rotvec(w_hat * dt)
        R_mid = R @ quat_to_mat(quat_from_rotvec(w_hat * dt / 2.0))
        R_next = R @ quat_to_mat(dq_full)
        aw = R_mid @ a_hat + GRAVITY
        sacc = R_mid @ a_hat
        # single-sample transition (bg, ba, v, p, theta)
        F = np.eye(15)
        Jr_full = so3_right_jacobian(w_hat * dt)
        Jr_half = so3_right_jacobian(w_hat * dt / 2.0)
        F[12:15, 0:3] = -R_next @ Jr_full * dt
        F[6:9, 12:15] = -skew(sacc) * dt
        F[6:9, 0:3] = skew(sacc) @ (R_mid @ Jr_half) * (0.5 * dt * dt)
        F[6:9, 3:6] = -R_mid * dt
        F[9:12, 6:9] = np.eye(3) * dt
        F[9:12, 12:15] = -skew(sacc) * (0.5 * dt * dt)
        F[9:12, 0:3] = skew(sacc) @ (R_mid @ Jr_half) * (0.25 * dt ** 3)
        F[9:12, 3:6] = -R_mid * (0.5 * dt * dt)
        # discrete noise: white gyro/accel act through the bias columns,
        # but only for this sample -- they do not perturb the bias states
        Bg = F[:, 0:3].copy()
        Bg[0:3] = 0.0
        Ba = F[:, 3:6].copy()
        Ba[3:6] = 0.0
        Gn = Bg @ Bg.T * (sg2 / dt) + Ba @ Ba.T * (sa2 / dt)
        Gn[0:3, 0:3] += np.eye(3) * noise.gyro_bias_rw ** 2 * dt
        Gn[3:6, 3:6] += np.eye(3) * noise.accel_bias_rw ** 2 * dt
        Q = F @ Q @ F.T + Gn
        Phi = F @ Phi
        # state integration
        v_next = v + aw * dt
        p = p + v * dt + 0.5 * aw * dt * dt
        v = v_next
        q = quat_normalize(quat_mul(q, dq_full))
        R = R_next
        t += dt
    Q += np.eye(15) * noise_floor ** 2
    Q = 0.5 * (Q + Q.T)
    info = np.linalg.inv(Q)
    sqrt_info = linalg.cholesky_upper(0.5 * (info + info.T), check_symmetry=False)
    new_pose = Pose(p, q, t)
    return TransitionBlock(Phi, sqrt_info, new_pose, v)


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


def camera_pose(pose: Pose, p_ic, q_ic, advance=None, tsync=0.0):
    """World-from-camera rotation and camera center for an IMU pose.

    `advance` is an optional (velocity, body angular rate) pair used to
    shift the pose by the time-offset estimate tsync.
    """
    R_wi = quat_to_mat(pose.q)
    p_wi = pose.p
    if advance is not None and tsync != 0.0:
        v, w = advance
        p_wi = p_wi + v * tsync
        R_wi = R_wi @ quat_to_mat(quat_from_rotvec(w * tsync))
    R_wc = R_wi @ quat_to_mat(q_ic)
    t_wc = p_wi + R_wi @ p_ic
    return R_wc, t_wc, R_wi, p_wi


def feature_point_global(feature: InverseDepthFeature, anchor: Pose, p_ic, q_ic,
                         advance=None, tsync=0.0):
    alpha, beta, rho = feature.params
    A, t_A, _, _ = camera_pose(anchor, p_ic, q_ic, advance, tsync)[:4]
    return A @ (bearing_vector(alpha, beta) / rho) + t_A


def project_feature(state, feature: InverseDepthFeature, observing_pose_id,
                    frame_motion=None, min_depth=MIN_DEPTH,
                    with_jacobians=True):
    """Project an anchored inverse-depth feature into an observing frame.

    Returns (pixel, blocks) where blocks maps error-state block names to
    2 x dim Jacobians (anchor pose, observing pose, feature parameters,
    extrinsics, intrinsics, and tsync). `frame_motion` maps pose id to
    (velocity, body rate) constants used for the time-offset model; the
    tsync column is the image-plane feature velocity obtained by finite
    differencing the time-shifted projection.

    Raises BehindCamera when the depth in the observing camera is at or
    below min_depth.
    """
    poses = {p.id: p for p in state.poses}
    anchor = poses[feature.anchor_pose_id]
    observer = poses[observing_pose_id]
    fm = frame_motion or {}

    def predict(ts):
        adv_a = fm.get(anchor.id)
        adv_o = fm.get(observer.id)
        A, t_A, _, pa = camera_pose(anchor, state.p_ic, state.q_ic, adv_a, ts)
        B, t_B, _, po = camera_pose(observer, state.p_ic, state.q_ic, adv_o, ts)
        alpha, beta, rho = feature.params
        f = bearing_vector(alpha, beta) / rho
        X = A @ f + t_A
        y = B.T @ (X - t_B)
        return A, B, t_B, pa, po, f, X, y

    A, B, t_B, pa, po, f, X, y = predict(state.tsync)
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
    alpha, beta, rho = feature.params
    u = bearing_vector(alpha, beta)
    Ju = bearing_jacobian(alpha, beta)
    R_ic = quat_to_mat(state.q_ic)
    # d y / d (error blocks)
    dy = {}
    dy_anchor = np.zeros((3, 6))
    dy_anchor[:, 0:3] = B.T
    dy_anchor[:, 3:6] = -B.T @ skew(X - pa)
    dy_obs = np.zeros((3, 6))
    dy_obs[:, 0:3] = -B.T
    dy_obs[:, 3:6] = B.T @ skew(X - po)
    if anchor.id == observer.id:
        dy[f"pose:{anchor.id}"] = dy_anchor + dy_obs
    else:
        dy[f"pose:{anchor.id}"] = dy_anchor
        dy[f"pose:{observer.id}"] = dy_obs
    dy_feat = np.zeros((3, 3))
    dy_feat[:, 0:2] = B.T @ A @ Ju / rho
    dy_feat[:, 2] = -B.T @ A @ u / rho ** 2
    dy[f"feat:{feature.id}"] = dy_feat
    # IMU rotations at the (possibly advanced) exposure times
    R_a_wi = A @ R_ic.T
    R_o_wi = B @ R_ic.T
    dy["p_ic"] = B.T @ (R_a_wi - R_o_wi)
    dy["q_ic"] = -B.T @ R_a_wi @ skew(R_ic @ f) + R_ic.T @ skew(R_o_wi.T @ (X - t_B))

    blocks = {name: Jz @ J for name, J in dy.items()}
    blocks["intr"] = np.array([
        [xn, 0.0, 1.0, 0.0],
        [0.0, yn, 0.0, 1.0],
    ])
    # tsync column: image-plane velocity by central differences
    dts = 1e-4
    yp = predict(state.tsync + dts)[-1]
    ym = predict(state.tsync - dts)[-1]
    zp = np.array([fx * yp[0] / yp[2] + cx, fy * yp[1] / yp[2] + cy])
    zm = np.array([fx * ym[0] / ym[2] + cx, fy * ym[1] / ym[2] + cy])
    blocks["tsync"] = ((zp - zm) / (2 * dts)).reshape(2, 1)
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
                     new_anchor: Pose, p_ic, q_ic) -> InverseDepthFeature:
    """Re-express a feature w.r.t. a new anchor camera frame.

    The represented global point is unchanged. Raises NonPositiveDepth if
    the point falls behind the new anchor camera.
    """
    X = feature_point_global(feature, old_anchor, p_ic, q_ic)
    B, t_B = camera_pose(new_anchor, p_ic, q_ic)[:2]
    y = B.T @ (X - t_B)
    if y[2] <= 0:
        raise NonPositiveDepth(f"depth {y[2]:.4f} after reanchoring")
    rng = np.linalg.norm(y)
    alpha, beta = bearing_angles(y)
    return InverseDepthFeature(
        anchor_pose_id=new_anchor.id,
        params=np.array([alpha, beta, 1.0 / rng]),
        id=feature.id,
    )


def triangulate_inverse_depth(pixels, cam_rots, cam_centers, intrinsics,
                              iters=10):
    """Gauss-Newton triangulation in anchored inverse-depth coordinates.

    The first view is the anchor. Returns (alpha, beta, rho) or raises
    RankDeficientFeature when the geometry is degenerate.
    """
    fx, fy, cx, cy = intrinsics
    A, t_A = cam_rots[0], cam_centers[0]
    alpha, beta = pixel_to_bearing(pixels[0], intrinsics)
    # linear init for rho from the remaining rays
    num, den = 0.0, 0.0
    u0 = A @ bearing_vector(alpha, beta)
    for Bm, t_Bm, px in zip(cam_rots[1:], cam_centers[1:], pixels[1:]):
        a2, b2 = pixel_to_bearing(px, intrinsics)
        ray = Bm @ bearing_vector(a2, b2)
        base = t_Bm - t_A
        # minimize || u0/rho_inv... solve for depth d: u0*d ~ base + ray*s
        M = np.column_stack([u0, -ray])
        sol, *_ = np.linalg.lstsq(M, base, rcond=None)
        if sol[0] > 0.01:
            num += 1.0 / sol[0]
            den += 1.0
    rho = num / den if den > 0 else 0.5
    rho = min(max(rho, 1e-3), 1e3)
    theta = np.array([alpha, beta, rho])
    for _ in range(iters):
        Jb = []
        rb = []
        u = bearing_vector(theta[0], theta[1])
        Ju = bearing_jacobian(theta[0], theta[1])
        f = u / theta[2]
        X = A @ f + t_A
        for Bm, t_Bm, px in zip(cam_rots, cam_centers, pixels):
            y = Bm.T @ (X - t_Bm)
            if y[2] <= 1e-3:
                raise RankDeficientFeature("triangulated point behind a camera")
            z = np.array([fx * y[0] / y[2] + cx, fy * y[1] / y[2] + cy])
            Jz = np.array([
                [fx / y[2], 0.0, -fx * y[0] / y[2] ** 2],
                [0.0, fy / y[2], -fy * y[1] / y[2] ** 2],
            ])
            dydt = np.zeros((3, 3))
            dydt[:, 0:2] = Bm.T @ A @ Ju / theta[2]
            dydt[:, 2] = -Bm.T @ A @ u / theta[2] ** 2
            Jb.append(Jz @ dydt)
            rb.append(px - z)
        J = np.vstack(Jb)
        r = np.concatenate(rb)
        JtJ = J.T @ J
        if np.linalg.cond(JtJ) > 1e12:
            raise RankDeficientFeature("degenerate triangulation geometry")
        step = np.linalg.solve(JtJ, J.T @ r)
        theta = theta + step
        theta[2] = min(max(theta[2], 1e-4), 1e4)
        if np.linalg.norm(step) < 1e-10:
            break
    return theta
