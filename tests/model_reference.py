"""Per-sample, per-view, per-observation and finite-difference versions
of the models.

`imu_transition` integrates all IMU samples of a step at once,
`triangulate_inverse_depth` evaluates all views of a track at once and
`project_feature` projects all observations of a frame at once,
differentiating the time offset analytically. The functions here do the
same work the slow way -- a Python loop over IMU samples with one 15 x 15
transition and noise product each, a Python loop over views with one
`lstsq` per view for the depth initialization, one observation at a time
with its Jacobian blocks keyed by state block name, and central
differences of the time-shifted projection -- so the tests can compare
the two.
"""

from __future__ import annotations

import numpy as np

from srifkit import linalg
from srifkit.models import (
    GRAVITY,
    MIN_DEPTH,
    ImuNoise,
    RankDeficientFeature,
    TransitionBlock,
    bearing_jacobian,
    bearing_vector,
    pixel_to_bearing,
)
from srifkit.state import (
    Pose,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    quat_to_mat,
    skew,
    so3_right_jacobian,
)


def imu_transition_by_sample(bg, ba, v, pose: Pose, omega, accel, dts,
                              noise: ImuNoise, noise_floor=1e-8):
    """`imu_transition`, one sample at a time: the per-sample loop the
    batched version replaces, kept as its oracle."""
    if not len(dts):
        raise ValueError("need at least one IMU sample")
    R = quat_to_mat(pose.q)
    q = pose.q.copy()
    p = pose.p.copy()
    v = v.copy()
    Phi = np.eye(15)
    Q = np.zeros((15, 15))
    t = pose.t
    sg2, sa2 = noise.gyro_density ** 2, noise.accel_density ** 2
    for omega_k, accel_k, dt in zip(omega, accel, dts):
        w_hat = omega_k - bg
        a_hat = accel_k - ba
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


class BehindCamera(Exception):
    """Projected depth at or below the minimum."""


def camera_pose_at(pose: Pose, p_ic, q_ic, advance=None, tsync=0.0):
    """`camera_pose` of the pose shifted by tsync along the constant
    velocity and body rate `advance` = (v, w), when given."""
    R_wi, p_wi = quat_to_mat(pose.q), pose.p
    if advance is not None and tsync != 0.0:
        v, w = advance
        p_wi = p_wi + v * tsync
        R_wi = R_wi @ quat_to_mat(quat_from_rotvec(w * tsync))
    return R_wi @ quat_to_mat(q_ic), p_wi + R_wi @ p_ic, R_wi, p_wi


def project_feature_by_observation(state, feature, observing_pose_id,
                                   frame_motion=None, min_depth=MIN_DEPTH):
    """`project_feature` for one observation: the per-observation version
    the batched kernel replaces, kept as its oracle.

    Returns (pixel, blocks) where blocks maps error-state block names to
    2 x dim Jacobians (anchor pose, observing pose, feature parameters,
    extrinsics, intrinsics, and tsync); a pose that is both anchor and
    observer has one block. Raises BehindCamera when the depth in the
    observing camera is at or below min_depth.
    """
    poses = {p.id: p for p in state.poses}
    fm = frame_motion or {}
    R_ic = quat_to_mat(state.q_ic)

    def camera(pid):
        """The pose's camera, the IMU position, and d (R_wc, t_wc) / d tsync."""
        advance = fm.get(pid)
        R_wc, t_wc, R_wi, p_wi = camera_pose_at(
            poses[pid], state.p_ic, state.q_ic, advance, state.tsync)
        if advance is None:
            return R_wc, t_wc, p_wi, np.zeros((3, 3)), np.zeros(3)
        v, w = advance
        Rw = R_wi @ skew(w)
        return R_wc, t_wc, p_wi, Rw @ R_ic, v + Rw @ state.p_ic

    anchor_id = feature.anchor_pose_id
    A, t_A, pa, dA, dt_A = camera(anchor_id)
    B, t_B, po, dB, dt_B = camera(observing_pose_id)
    alpha, beta, rho = feature.params
    f = bearing_vector(alpha, beta) / rho
    X = A @ f + t_A
    y = B.T @ (X - t_B)
    if y[2] <= min_depth:
        raise BehindCamera(f"depth {y[2]:.4f} <= {min_depth}")
    fx, fy, cx, cy = state.intrinsics
    xn, yn = y[0] / y[2], y[1] / y[2]
    pixel = np.array([fx * xn + cx, fy * yn + cy])
    Jz = np.array([
        [fx / y[2], 0.0, -fx * y[0] / y[2] ** 2],
        [0.0, fy / y[2], -fy * y[1] / y[2] ** 2],
    ])
    # d y / d (error blocks)
    dy_anchor = np.hstack([B.T, -B.T @ skew(X - pa)])
    dy_obs = np.hstack([-B.T, B.T @ skew(X - po)])
    dy = {}
    if anchor_id == observing_pose_id:
        dy[f"pose:{anchor_id}"] = dy_anchor + dy_obs
    else:
        dy[f"pose:{anchor_id}"] = dy_anchor
        dy[f"pose:{observing_pose_id}"] = dy_obs
    dy[f"feat:{feature.id}"] = np.column_stack([
        B.T @ A @ bearing_jacobian(alpha, beta) / rho,
        -B.T @ A @ bearing_vector(alpha, beta) / rho ** 2])
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


def tsync_column_by_central_differences(state, feature, observing_pose_id,
                                        frame_motion, dts=1e-4):
    """d pixel / d tsync (2 x 1) by central differences of the projection
    with both cameras shifted by tsync +- dts."""
    poses = {p.id: p for p in state.poses}
    anchor = poses[feature.anchor_pose_id]
    observer = poses[observing_pose_id]
    fm = frame_motion or {}
    fx, fy, cx, cy = state.intrinsics

    def pixel(ts):
        A, t_A, _, _ = camera_pose_at(anchor, state.p_ic, state.q_ic,
                                      fm.get(anchor.id), ts)
        B, t_B, _, _ = camera_pose_at(observer, state.p_ic, state.q_ic,
                                      fm.get(observer.id), ts)
        alpha, beta, rho = feature.params
        X = A @ (bearing_vector(alpha, beta) / rho) + t_A
        y = B.T @ (X - t_B)
        return np.array([fx * y[0] / y[2] + cx, fy * y[1] / y[2] + cy])

    zp = pixel(state.tsync + dts)
    zm = pixel(state.tsync - dts)
    return ((zp - zm) / (2 * dts)).reshape(2, 1)


def triangulate_by_view(pixels, cam_rots, cam_centers, intrinsics, iters=10):
    """`triangulate_inverse_depth`, one view at a time in Python loops."""
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
