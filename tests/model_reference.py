"""Per-sample, per-track, per-view, per-observation, per-feature and
finite-difference versions of the models.

`imu_transition` integrates all IMU samples of a step at once,
`triangulate_inverse_depth` and `msckf_nullspace_project` take all tracks
of a frame at once, `project_feature` projects all observations of a
frame at once, differentiating the time offset analytically, and
`reanchor_feature` moves all features of a departing pose at once. The
functions here do the same work the slow way -- a Python loop over IMU
samples with one 15 x 15 transition and noise product each, one track at
a time (raising RankDeficientFeature where the kernels report a status),
a Python loop over views with one `lstsq` per view for the depth
initialization, one observation at a time with its Jacobian blocks keyed
by error-state offset, one feature at a time on scalar cameras (raising
NonPositiveDepth where the kernel reports a mask), and central
differences of the time-shifted projection -- so the tests can compare
the two.
"""

from __future__ import annotations

import numpy as np

from srifkit import linalg
from srifkit.models import (
    BEHIND_CAMERA,
    DEGENERATE,
    GRAVITY,
    MIN_DEPTH,
    TRIANGULATED,
    ImuNoise,
    TransitionBlock,
)
from srifkit.state import (
    layout_of,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    quat_to_mat,
    skew,
    so3_right_jacobian,
)


def bearing_vector(alpha, beta):
    """Unit ray for azimuth/elevation; (0, 0) is the optical axis."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    return np.array([sa * cb, sb, ca * cb])


def bearing_jacobian(alpha, beta):
    """d bearing_vector / d (alpha, beta), 3 x 2."""
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


def imu_transition_by_sample(bg, ba, v, p, q, omega, accel, dts,
                              noise: ImuNoise, noise_floor=1e-8):
    """`imu_transition`, one sample at a time: the per-sample loop the
    batched version replaces, kept as its oracle."""
    if not len(dts):
        raise ValueError("need at least one IMU sample")
    R = quat_to_mat(q)
    q = np.array(q, dtype=float)
    p = np.array(p, dtype=float)
    v = v.copy()
    Phi = np.eye(15)
    Q = np.zeros((15, 15))
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
    Q += np.eye(15) * noise_floor ** 2
    Q = 0.5 * (Q + Q.T)
    info = np.linalg.inv(Q)
    sqrt_info = linalg.cholesky_upper(0.5 * (info + info.T))
    return TransitionBlock(Phi, sqrt_info, p, q, v)


class RankDeficientFeature(Exception):
    """Feature Jacobian has rank < 3 (too few / degenerate observations)."""


# the reason the per-track oracles give for each status of the batched
# triangulation
TRIANGULATION_REASONS = {
    TRIANGULATED: "triangulated",
    BEHIND_CAMERA: "triangulated point behind a camera",
    DEGENERATE: "degenerate triangulation geometry",
}


class BehindCamera(Exception):
    """Projected depth at or below the minimum."""


def camera_pose_at(p, q, p_ic, q_ic, advance=None, tsync=0.0):
    """World-from-camera rotation and camera center for the IMU pose at
    position p and orientation q, then the pose's global-from-IMU rotation
    and position: `window_cameras` for one pose. The pose is shifted by
    tsync along the constant velocity and body rate `advance` = (v, w),
    when given."""
    R_wi, p_wi = quat_to_mat(q), p
    if advance is not None and tsync != 0.0:
        v, w = advance
        p_wi = p_wi + v * tsync
        R_wi = R_wi @ quat_to_mat(quat_from_rotvec(w * tsync))
    return R_wi @ quat_to_mat(q_ic), p_wi + R_wi @ p_ic, R_wi, p_wi


def _pose_row(state, pid):
    (j,) = np.flatnonzero(state.pose_ids == pid)
    return j


def _camera(state, pid, motion):
    """The camera of pose pid, the IMU position, and d (R_wc, t_wc) /
    d tsync, with the pose moving by its row of `motion` when given."""
    j = _pose_row(state, pid)
    advance = None if motion is None else motion[j]
    R_wc, t_wc, R_wi, p_wi = camera_pose_at(
        state.positions[j], state.quats[j], state.p_ic, state.q_ic, advance,
        state.tsync)
    if advance is None:
        return R_wc, t_wc, p_wi, np.zeros((3, 3)), np.zeros(3)
    v, w = advance
    Rw = R_wi @ skew(w)
    return R_wc, t_wc, p_wi, Rw @ quat_to_mat(state.q_ic), v + Rw @ state.p_ic


def project_feature_by_observation(state, anchor_id, params,
                                   observing_pose_id, motion=None,
                                   min_depth=MIN_DEPTH):
    """`project_feature` for one observation: the per-observation version
    the batched kernel replaces, kept as its oracle.

    The feature has parameters `params` in the camera of pose anchor_id.
    Returns (pixel, Jf, blocks): Jf is the 2 x 3 Jacobian of the feature
    parameters, and blocks maps the error-state offset (`layout_of`
    state) of each other block it depends on to its 2 x dim Jacobian
    (anchor pose, observing pose, extrinsics, intrinsics, and tsync); a
    pose that is both anchor and observer has one block. Raises
    BehindCamera when the depth in the observing camera is at or below
    min_depth.
    """
    lay = layout_of(state)
    R_ic = quat_to_mat(state.q_ic)
    A, t_A, pa, dA, dt_A = _camera(state, anchor_id, motion)
    B, t_B, po, dB, dt_B = _camera(state, observing_pose_id, motion)
    alpha, beta, rho = params
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
    anchor = lay.pose_cols(_pose_row(state, anchor_id))[0]
    observer = lay.pose_cols(_pose_row(state, observing_pose_id))[0]
    dy = {}
    if anchor == observer:
        dy[anchor] = dy_anchor + dy_obs
    else:
        dy[anchor] = dy_anchor
        dy[observer] = dy_obs
    dy_feature = np.column_stack([
        B.T @ A @ bearing_jacobian(alpha, beta) / rho,
        -B.T @ A @ bearing_vector(alpha, beta) / rho ** 2])
    # IMU rotations at the (possibly advanced) exposure times
    R_a_wi = A @ R_ic.T
    R_o_wi = B @ R_ic.T
    dy[lay.p_ic] = B.T @ (R_a_wi - R_o_wi)
    dy[lay.q_ic] = (-B.T @ R_a_wi @ skew(R_ic @ f)
                    + R_ic.T @ skew(R_o_wi.T @ (X - t_B)))
    # tsync: both cameras move with the time shift
    dy[lay.tsync] = (dB.T @ (X - t_B) + B.T @ (dA @ f + dt_A - dt_B))[:, None]
    blocks = {off: Jz @ J for off, J in dy.items()}
    blocks[lay.intr] = np.array([
        [xn, 0.0, 1.0, 0.0],
        [0.0, yn, 0.0, 1.0],
    ])
    return pixel, Jz @ dy_feature, blocks


class NonPositiveDepth(Exception):
    """Reanchoring produced a point behind the new anchor camera."""


def feature_point_global(params, anchor, p_ic, q_ic):
    """The world point of an inverse-depth feature with parameters `params`
    anchored at the pose `anchor` = (p, q)."""
    alpha, beta, rho = params
    A, t_A, _, _ = camera_pose_at(*anchor, p_ic, q_ic)
    return A @ (bearing_vector(alpha, beta) / rho) + t_A


def reanchor_by_feature(params, old_anchor, new_anchor, p_ic, q_ic):
    """`reanchor_feature` for one feature on unshifted cameras: the scalar
    version the batched kernel replaces, kept as its oracle. The anchors
    are (p, q) poses.

    Returns (params, J_feat, J_old, J_new): the parameters in the new
    anchor and their Jacobians w.r.t. the old parameters (3 x 3) and the
    old and new anchor pose errors (3 x 6 each). Raises NonPositiveDepth
    if the point falls behind the new anchor camera.
    """
    X = feature_point_global(params, old_anchor, p_ic, q_ic)
    A, _, _, p_old = camera_pose_at(*old_anchor, p_ic, q_ic)
    B, t_B, _, p_new = camera_pose_at(*new_anchor, p_ic, q_ic)
    y = B.T @ (X - t_B)
    if y[2] <= 0:
        raise NonPositiveDepth(f"depth {y[2]:.4f} after reanchoring")
    rng = np.linalg.norm(y)
    alpha, beta = bearing_angles(y)
    out = np.array([alpha, beta, 1.0 / rng])
    # d (atan2(y0, y2), atan2(y1, hypot(y0, y2)), 1 / |y|) / d y
    h2 = y[0] ** 2 + y[2] ** 2
    h = np.sqrt(h2)
    dparams = np.array([
        [y[2] / h2, 0.0, -y[0] / h2],
        [-y[0] * y[1] / (h * rng ** 2), h / rng ** 2, -y[2] * y[1] / (h * rng ** 2)],
        -y / rng ** 3,
    ])
    # d y / d (old anchor, new anchor, old params)
    a, b, rho = params
    dy_old = np.hstack([B.T, -B.T @ skew(X - p_old)])
    dy_new = np.hstack([-B.T, B.T @ skew(X - p_new)])
    dy_feat = np.column_stack([B.T @ A @ bearing_jacobian(a, b) / rho,
                               -B.T @ A @ bearing_vector(a, b) / rho ** 2])
    return out, dparams @ dy_feat, dparams @ dy_old, dparams @ dy_new


def tsync_column_by_central_differences(state, anchor_id, params,
                                        observing_pose_id, motion, dts=1e-4):
    """d pixel / d tsync (2 x 1) by central differences of the projection
    with both cameras shifted by tsync +- dts, each pose moving by its
    row of `motion`."""
    a, o = _pose_row(state, anchor_id), _pose_row(state, observing_pose_id)
    fx, fy, cx, cy = state.intrinsics

    def pixel(ts):
        A, t_A, _, _ = camera_pose_at(state.positions[a], state.quats[a],
                                      state.p_ic, state.q_ic, motion[a], ts)
        B, t_B, _, _ = camera_pose_at(state.positions[o], state.quats[o],
                                      state.p_ic, state.q_ic, motion[o], ts)
        alpha, beta, rho = params
        X = A @ (bearing_vector(alpha, beta) / rho) + t_A
        y = B.T @ (X - t_B)
        return np.array([fx * y[0] / y[2] + cx, fy * y[1] / y[2] + cy])

    zp = pixel(state.tsync + dts)
    zm = pixel(state.tsync - dts)
    return ((zp - zm) / (2 * dts)).reshape(2, 1)


def pixel_to_bearing(pixel, intrinsics):
    fx, fy, cx, cy = intrinsics
    xn = (pixel[0] - cx) / fx
    yn = (pixel[1] - cy) / fy
    return bearing_angles(np.array([xn, yn, 1.0]))


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


def triangulate_by_track(pixels, cam_rots, cam_centers, intrinsics,
                         iters=10):
    """`triangulate_inverse_depth` for one track: the per-track version
    the batched kernel replaces, kept as its oracle.

    The first view is the anchor. All views are evaluated at once: with
    C_k = B_k.T A and c_k = B_k.T (t_A - t_k) fixed, view k sees the point
    at y_k = C_k f + c_k, and its Jacobian is C_k d f / d theta. Returns
    (alpha, beta, rho) or raises RankDeficientFeature with the reason
    TRIANGULATION_REASONS gives the batched kernel's status.
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


def msckf_nullspace_project_by_track(Hf, Hx, r):
    """`msckf_nullspace_project` for one track: the per-track version the
    batched kernel replaces, kept as its oracle.

    Applies the complete Q of Hf's QR (numpy's) to [Hx r] and keeps the
    bottom rows, so the output is independent of the (never-estimated)
    feature. Returns the projected (Hx, r), each with rows - 3 rows, or
    raises RankDeficientFeature.
    """
    Hf = np.asarray(Hf, dtype=np.float64)
    m = Hf.shape[0]
    if m < 4:
        raise RankDeficientFeature(f"only {m} stacked rows")
    Q, Rf = np.linalg.qr(Hf, mode="complete")
    t = Q.T @ np.column_stack([Hx, r])
    scale = np.abs(Rf).max()
    if np.abs(Rf[2, 2]) <= 1e-10 * max(scale, 1.0):
        raise RankDeficientFeature("feature Jacobian rank < 3")
    return t[3:, :-1], t[3:, -1]


def triangulate_by_view(pixels, cam_rots, cam_centers, intrinsics, iters=10):
    """`triangulate_by_track`, one view at a time in Python loops."""
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
