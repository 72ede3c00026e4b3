"""Per-view and finite-difference versions of the measurement models.

`triangulate_inverse_depth` evaluates all views of a track at once and
`project_feature` differentiates the time offset analytically. The
functions here do the same work the slow way -- a Python loop over views,
with one `lstsq` per view for the depth initialization, and central
differences of the time-shifted projection -- so the tests can compare the
two.
"""

from __future__ import annotations

import numpy as np

from srifkit.models import (
    RankDeficientFeature,
    bearing_jacobian,
    bearing_vector,
    camera_pose,
    pixel_to_bearing,
)


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
        A, t_A, _, _ = camera_pose(anchor, state.p_ic, state.q_ic,
                                   fm.get(anchor.id), ts)
        B, t_B, _, _ = camera_pose(observer, state.p_ic, state.q_ic,
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
