"""Linearized process and measurement models.

IMU error-state transition for state augmentation (every sample of a step
evaluated at once, the transition and process noise as suffix products),
the window's cameras stacked as arrays in one pass, inverse-depth pinhole
projection of a whole frame's observations in one batched call with
analytic Jacobians (the time-offset column included) and an in-front mask,
reanchoring of every feature that leaves with the departing pose in one
batched call with an in-front mask, Gauss-Newton triangulation of a
frame's tracks in one batched call with a status per track, and
left-null-space elimination of all of a frame's track-end features in one
call (one stacked QR per row count). Projection and reanchoring share one
camera model: `window_cameras` and the point-in-camera Jacobian
`_point_in_camera`. Rotations, their matrices, skew matrices and right
Jacobians come from `state`'s helpers, called once on stacked arrays.

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
    quat_from_rotvec,
    quat_normalize,
    quat_to_mat,
    skew,
    so3_right_jacobian,
)

GRAVITY = np.array([0.0, 0.0, -9.81])
MIN_DEPTH = 0.05  # m; guards Jacobian blow-up as rho -> inf
TRIANGULATION_ITERS = 10  # Gauss-Newton iterations per track, at most
NOISE_FLOOR = 1e-8  # process-noise std. dev. added to each transitioned state
_EYE15 = np.eye(15)   # each sample's transition starts from a copy


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
    p: np.ndarray          # predicted position
    q: np.ndarray          # predicted global-from-IMU rotation, xyzw
    v: np.ndarray          # predicted velocity


# --------------------------------------------------------------------------
# IMU propagation
# --------------------------------------------------------------------------


def _mv(M, x):
    """M[i] @ x[i] (M @ x[i] for a single matrix M) for the rows of x, each
    row's product the same whatever the number of rows (unlike x @ M.T)."""
    return (M @ x[..., None])[..., 0]


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


def check_imu_samples(omega, accel, dt):
    """K IMU samples as (K, 3) body rates (rad/s), (K, 3) specific forces
    (m/s^2) and (K,) periods (s), returned as given once every value is
    finite and every period positive; ValueError names the first bad one."""
    finite = np.isfinite(omega).all(axis=1) & np.isfinite(accel).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"non-finite IMU sample {i}: omega={omega[i]}, "
                         f"accel={accel[i]}")
    positive = dt > 0
    if not positive.all():
        i = int(np.argmin(positive))
        raise ValueError(f"dt must be positive, got {dt[i]} at sample {i}")
    return omega, accel, dt


def imu_transition(bg, ba, v, p, q, omega, accel, dt, noise: ImuNoise):
    """Integrate IMU samples from the pose at position p and orientation q
    and linearize the step.

    The samples are the (K, 3) body rates `omega`, the (K, 3) specific
    forces `accel` and the (K,) periods `dt`, as `check_imu_samples` takes.

    Midpoint integration per sample; the transition Jacobian is the exact
    linearization of the discrete integrator (verified against finite
    differences). Returns a TransitionBlock carrying the predicted
    position, orientation and velocity plus the square-root information
    of the accumulated process noise. NOISE_FLOOR keeps that information
    finite on noise-free scenarios.

    The biases are fixed during the step, so every sample's rotation
    increment, right Jacobians and transition F_k are computed at once
    as (K, ...) arrays. The sample recursions Phi <- F_k Phi and
    Q <- F_k Q F_k.T + G_k are then closed products (Forster et al.,
    T-RO 2017): with the suffix products S_k = F_{K-1} ... F_{k+1},
    Phi = S_0 F_0 and Q = sum_k S_k G_k S_k.T. Only the orientation chain
    R_{k+1} = R_k exp(w_k dt_k) runs sample by sample.
    """
    K = len(dt)
    if not K:
        raise ValueError("need at least one IMU sample")
    h = dt[:, None]
    w_hat = omega - bg
    a_hat = accel - ba
    theta = w_hat * h
    angles = np.concatenate([theta, theta / 2.0])
    dq = quat_from_rotvec(angles)
    D, Jr = quat_to_mat(dq), so3_right_jacobian(angles)
    D_full, D_half = D[:K], D[K:]
    # R[k] is the orientation before sample k, R[K] the one after the
    # step; the quaternion advances as q <- q dq_k, a product with the
    # 4 x 4 matrix of right multiplication by dq_k
    x, y, z, w = dq[:K].T
    right = np.stack([w, z, -y, x, -z, w, x, y,
                      y, -x, w, z, -x, -y, -z, w], axis=1).reshape(-1, 4, 4)
    R = np.empty((K + 1, 3, 3))
    R[0] = quat_to_mat(q)
    for k in range(K):
        R[k + 1] = R[k] @ D_full[k]
        q = right[k] @ q
    R_mid = R[:-1] @ D_half
    sacc = _mv(R_mid, a_hat)
    aw = sacc + GRAVITY
    # single-sample transitions (bg, ba, v, p, theta)
    d1 = dt[:, None, None]
    d2 = 0.5 * d1 * d1
    Ssacc = skew(sacc)
    SRJ = Ssacc @ (R_mid @ Jr[K:])
    F = np.broadcast_to(_EYE15, (K, 15, 15)).copy()
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
    Q += np.eye(15) * NOISE_FLOOR ** 2
    Q = 0.5 * (Q + Q.T)
    info = np.linalg.inv(Q)
    sqrt_info = linalg.cholesky_upper(0.5 * (info + info.T))
    # state integration; v_k[k] is the velocity before sample k
    v_k = np.cumsum(np.vstack([v, aw * h]), axis=0)
    p = p + (v_k[:-1] * h + 0.5 * aw * h * h).sum(axis=0)
    return TransitionBlock(Phi, sqrt_info, p, quat_normalize(q), v_k[-1])


# --------------------------------------------------------------------------
# camera geometry
# --------------------------------------------------------------------------


class WindowCameras(NamedTuple):
    """The window poses' cameras at tsync, stacked in window order, with
    their tsync derivatives and the camera-to-IMU rotation they share."""

    ids: np.ndarray     # (P,) pose ids, increasing
    R_wc: np.ndarray    # (P, 3, 3) world-from-camera rotations
    t_wc: np.ndarray    # (P, 3) camera centers
    p_wi: np.ndarray    # (P, 3) IMU positions the pose errors rotate about
    dR_wc: np.ndarray   # (P, 3, 3) d R_wc / d tsync
    dt_wc: np.ndarray   # (P, 3) d t_wc / d tsync
    R_ic: np.ndarray    # (3, 3)

    def rows(self, pose_ids):
        """Row of each pose id; KeyError for an id outside the window."""
        ids = np.asarray(pose_ids, dtype=np.int64)
        rows = np.minimum(np.searchsorted(self.ids, ids), len(self.ids) - 1)
        if (self.ids[rows] != ids).any():
            raise KeyError(f"the pose ids {ids[self.ids[rows] != ids]} are "
                           f"not in the window")
        return rows


def window_cameras(state, motion=None) -> WindowCameras:
    """Every window pose's camera at state.tsync, in one pass over the window.

    `motion` (L, 2, 3) holds the (velocity, body rate) each pose moves with
    under a time shift. Shifting by tsync moves the IMU to p + v tsync and
    R exp(w tsync), so d R_wc / d tsync = R_wi skew(w) R_ic and
    d t_wc / d tsync = v + R_wi skew(w) p_ic at the shifted R_wi. A pose
    with zero motion does not move with tsync, so without `motion` no pose
    is shifted: the shift by zero motion is the identity.
    """
    ids = state.pose_ids
    if (np.diff(ids) <= 0).any():
        raise ValueError(f"window pose ids must increase, got {ids}")
    shifted = motion is not None
    if not shifted:
        motion = np.zeros((len(ids), 2, 3))
    v, w = motion[:, 0], motion[:, 1]
    p_wi = state.positions
    R_wi = quat_to_mat(state.quats)
    if shifted and state.tsync != 0.0:
        p_wi = p_wi + v * state.tsync
        R_wi = R_wi @ quat_to_mat(quat_from_rotvec(w * state.tsync))
    R_ic = quat_to_mat(state.q_ic)
    Rw = R_wi @ skew(w)
    return WindowCameras(ids, R_wi @ R_ic, p_wi + R_wi @ state.p_ic, p_wi,
                         Rw @ R_ic, v + Rw @ state.p_ic, R_ic)


class Projection(NamedTuple):
    """k projections, whether each lies in front of its camera, and their
    Jacobian blocks d pixel / d (error block), each (k, 2, dim).

    The blocks are views of one (k, 2, 26) array, in field order. Pose
    blocks are (position, left-global orientation); both are zero where a
    feature is seen from its own anchor pose. Entries behind the camera
    hold finite values of no meaning.
    """

    pixel: np.ndarray     # (k, 2)
    in_front: np.ndarray  # (k,) depth in the observing camera > MIN_DEPTH
    anchor: np.ndarray    # (k, 2, 6)
    observer: np.ndarray  # (k, 2, 6)
    feature: np.ndarray   # (k, 2, 3) inverse-depth parameters
    p_ic: np.ndarray      # (k, 2, 3)
    q_ic: np.ndarray      # (k, 2, 3)
    tsync: np.ndarray     # (k, 2, 1)
    intr: np.ndarray      # (k, 2, 4)


def _point_in_camera(cameras: WindowCameras, ia, io, params):
    """The point of each anchored inverse-depth feature seen from a second
    camera, with its Jacobian.

    Feature i has parameters params[i] = (alpha, beta, rho), is anchored
    at camera row ia[i] and is seen from camera row io[i]. With A, B the
    anchor and observing camera rotations, f = u(alpha, beta) / rho the
    point in the anchor camera and X = A f + t_A in the world, returns
    f, d = X - t_B, y = B.T d and d y / d (anchor pose, observing pose,
    params) as (k, 3, 15). Pose blocks are (position, left-global
    orientation) about the poses' IMU positions; they are not zeroed
    where ia[i] == io[i].
    """
    params = np.asarray(params, dtype=np.float64).reshape(-1, 3)
    k = len(params)
    alpha, beta, rho = params.T
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    u = np.stack([sa * cb, sb, ca * cb], axis=1)
    du = np.stack([ca * cb, -sa * sb, np.zeros(k), cb, -sa * cb, -ca * sb],
                  axis=1).reshape(k, 3, 2)
    f = u / rho[:, None]
    A, t_A, pa = cameras.R_wc[ia], cameras.t_wc[ia], cameras.p_wi[ia]
    B, t_B, po = cameras.R_wc[io], cameras.t_wc[io], cameras.p_wi[io]
    Bt = B.transpose(0, 2, 1)
    X = _mv(A, f) + t_A
    d = X - t_B
    y = _mv(Bt, d)
    dy = np.empty((k, 3, 15))
    dy[:, :, 0:3] = Bt
    dy[:, :, 3:6] = -Bt @ skew(X - pa)
    dy[:, :, 6:9] = -Bt
    dy[:, :, 9:12] = Bt @ skew(X - po)
    C = Bt @ A
    dy[:, :, 12:14] = C @ du / rho[:, None, None]
    dy[:, :, 14] = -_mv(C, u) / (rho * rho)[:, None]
    return f, d, y, dy


def project_feature(cameras: WindowCameras, intrinsics, anchor_ids,
                    observer_ids, params) -> Projection:
    """Project k anchored inverse-depth features into their observing frames.

    Observation i is the feature with parameters params[i] = (alpha, beta,
    rho), anchored at pose anchor_ids[i], seen from pose observer_ids[i];
    `cameras` is `window_cameras` of the state. The Jacobians are the
    closed form of the standard reprojection rows (Mourikis & Roumeliotis,
    ICRA 2007), evaluated for all k at once: d y / d (error blocks) of the
    point y in the observing camera (`_point_in_camera` for the poses and
    the feature) is chained with the pinhole Jacobian d pixel / d y. The
    tsync column is the analytic image-plane feature velocity when both
    cameras move with the time shift.

    An observation at depth y_z <= MIN_DEPTH is flagged in `in_front`
    instead of raising.
    """
    ia, io = cameras.rows(anchor_ids), cameras.rows(observer_ids)
    f, d, y, dy_point = _point_in_camera(cameras, ia, io, params)
    k = len(f)
    in_front = y[:, 2] > MIN_DEPTH
    z = np.where(in_front, y[:, 2], 1.0)
    fx, fy, cx, cy = intrinsics
    xn, yn = y[:, 0] / z, y[:, 1] / z
    pixel = np.stack([fx * xn + cx, fy * yn + cy], axis=1)

    # d y / d (p_ic, q_ic, tsync), at the IMU rotations of the (possibly
    # advanced) exposure times
    A, B = cameras.R_wc[ia], cameras.R_wc[io]
    Bt = B.transpose(0, 2, 1)
    R_ic = cameras.R_ic
    R_a_wi, R_o_wi = A @ R_ic.T, B @ R_ic.T
    dy = np.empty((k, 3, 7))
    dy[:, :, 0:3] = Bt @ (R_a_wi - R_o_wi)
    dy[:, :, 3:6] = (-Bt @ R_a_wi @ skew(_mv(R_ic, f))
                     + R_ic.T @ skew(_mv(R_o_wi.transpose(0, 2, 1), d)))
    # tsync: both cameras move with the time shift
    dA, dB = cameras.dR_wc[ia], cameras.dR_wc[io]
    shift = _mv(dA, f) + cameras.dt_wc[ia] - cameras.dt_wc[io]
    dy[:, :, 6] = _mv(dB.transpose(0, 2, 1), d) + _mv(Bt, shift)
    dy = np.concatenate([dy_point, dy], axis=2)
    # seen from its anchor pose, the point is fixed in that camera and the
    # pixel does not depend on the pose
    dy[ia == io, :, 0:12] = 0.0

    Jz = np.zeros((k, 2, 3))
    Jz[:, 0, 0] = fx / z
    Jz[:, 0, 2] = -fx * y[:, 0] / z ** 2
    Jz[:, 1, 1] = fy / z
    Jz[:, 1, 2] = -fy * y[:, 1] / z ** 2
    jac = np.zeros((k, 2, 26))
    jac[:, :, :22] = Jz @ dy
    jac[:, 0, 22], jac[:, 1, 23] = xn, yn
    jac[:, 0, 24] = jac[:, 1, 25] = 1.0
    return Projection(pixel, in_front,
                      *np.split(jac, [6, 12, 15, 18, 21, 22], axis=2))


class Reanchoring(NamedTuple):
    """F features re-expressed in new anchor cameras, whether each lies in
    front of its new anchor, and the Jacobians of the new parameters.

    Entries behind the new anchor hold finite values of no meaning.
    """

    params: np.ndarray      # (F, 3) alpha, beta, rho in the new anchor
    in_front: np.ndarray    # (F,) depth in the new anchor camera > 0
    feature: np.ndarray     # (F, 3, 3) d new params / d old params
    old_anchor: np.ndarray  # (F, 3, 6) d new params / d old anchor pose
    new_anchor: np.ndarray  # (F, 3, 6) d new params / d new anchor pose


def reanchor_feature(cameras: WindowCameras, old_ids, new_ids,
                     params) -> Reanchoring:
    """Re-express F features, feature i anchored at pose old_ids[i] with
    parameters params[i], w.r.t. the camera of pose new_ids[i].

    The represented global point is unchanged (Civera et al., T-RO 2008):
    with y the point in the new anchor camera (`_point_in_camera`), the
    new parameters are (atan2(y0, y2), atan2(y1, hypot(y0, y2)), 1 / |y|),
    and their Jacobians chain d params / d y with d y / d (old anchor,
    new anchor, old params). A point at depth y2 <= 0 in the new anchor
    is flagged in `in_front` instead of raising.
    """
    ia, ib = cameras.rows(old_ids), cameras.rows(new_ids)
    _, _, y, dy = _point_in_camera(cameras, ia, ib, params)
    in_front = y[:, 2] > 0.0
    y0, y1, y2 = y.T
    h2 = np.where(in_front, y0 * y0 + y2 * y2, 1.0)
    h = np.sqrt(h2)
    r2 = h2 + y1 * y1
    rng = np.sqrt(r2)
    new = np.stack([np.arctan2(y0, y2), np.arctan2(y1, h), 1.0 / rng], axis=1)
    # d (atan2(y0, y2), atan2(y1, hypot(y0, y2)), 1 / |y|) / d y
    hr2 = h * r2
    dp = np.stack([
        y2 / h2, np.zeros_like(h), -y0 / h2,
        -y0 * y1 / hr2, h / r2, -y2 * y1 / hr2,
        -y0 / (r2 * rng), -y1 / (r2 * rng), -y2 / (r2 * rng),
    ], axis=1).reshape(-1, 3, 3)
    J = dp @ dy
    return Reanchoring(new, in_front, J[:, :, 12:15], J[:, :, 0:6],
                       J[:, :, 6:12])


def msckf_nullspace_project(Hf, Hx, r, sizes):
    """Eliminate each short track's feature by projecting its rows onto the
    left null space of its feature Jacobian.

    The T tracks' rows are stacked: track i owns the next sizes[i] rows of
    Hf (M x 3), Hx (M x n) and r (M,). Tracks with the same row count go
    through one stacked QR; the last rows - 3 columns of each track's Q
    span the left null space of its Hf, so the projected rows are
    independent of the (never-estimated) feature. A track needs at least
    four rows and a rank-3 Hf: |Rf[2, 2]| above 1e-10 times the larger of
    Rf's largest entry and 1. Returns (Hx, r, ok): `ok` (T,) marks the
    tracks that pass, and the projected rows of those, rows - 3 each, are
    stacked in track order.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    Hf = np.asarray(Hf, dtype=np.float64)
    X = np.column_stack([Hx, r])
    ok = sizes >= 4
    out = [None] * len(sizes)
    for m in np.unique(sizes[ok]).tolist():
        group = np.flatnonzero(sizes == m)
        rows = starts[group, None] + np.arange(m)
        Q, Rf = np.linalg.qr(Hf[rows], mode="complete")
        scale = np.abs(Rf[:, :3]).max(axis=(1, 2))
        ok[group] = ~(np.abs(Rf[:, 2, 2]) <= 1e-10 * np.maximum(scale, 1.0))
        for i, P in zip(group.tolist(),
                        Q[:, :, 3:].transpose(0, 2, 1) @ X[rows]):
            out[i] = P
    P = np.concatenate([out[i] for i in np.flatnonzero(ok)] or
                       [np.empty((0, X.shape[1]))])
    return P[:, :-1], P[:, -1], ok


# a triangulation's outcome per track
TRIANGULATED, BEHIND_CAMERA, DEGENERATE = 0, 1, 2


class Triangulation(NamedTuple):
    """Anchored inverse-depth parameters of T tracks, and whether each
    track triangulated; a failed track's theta is nan."""

    theta: np.ndarray   # (T, 3) alpha, beta, rho
    status: np.ndarray  # (T,) TRIANGULATED, BEHIND_CAMERA or DEGENERATE


def _init_inverse_depth(u0, rays, base, live):
    """Per track, the mean inverse depth along its anchor ray u0[t] from
    the live views whose ray meets it.

    Per view, [u0, -ray] s = base in the least-squares sense gives the depth
    s[0] along u0. The 2 x 2 normal equations are solved for all views of
    all tracks at once; a view whose rays are within about a milliradian
    of parallel goes through `lstsq`, which takes the minimum-norm solution
    when they are. A track no view of which meets its ray at a depth above
    1 cm gets inverse depth 0.5.
    """
    a = np.einsum("ti,ti->t", u0, u0)[:, None]
    c = np.einsum("tvi,ti->tv", rays, u0)
    d = np.einsum("tvi,tvi->tv", rays, rays)
    det = a * d - c * c
    solvable = det > 1e-6 * a * d
    depth = np.divide(d * np.einsum("tvi,ti->tv", base, u0)
                      - c * np.einsum("tvi,tvi->tv", rays, base),
                      det, out=np.zeros_like(det), where=solvable)
    for t, v in np.argwhere(live & ~solvable).tolist():
        M = np.column_stack([u0[t], -rays[t, v]])
        depth[t, v] = np.linalg.lstsq(M, base[t, v], rcond=None)[0][0]
    hit = live & (depth > 0.01)
    n_hit = hit.sum(axis=1)
    inv = np.divide(1.0, depth, out=np.zeros_like(depth), where=hit)
    return np.where(n_hit > 0, inv.sum(axis=1) / np.maximum(n_hit, 1), 0.5)


def triangulate_inverse_depth(pixels, cam_rots, cam_centers, intrinsics,
                              live) -> Triangulation:
    """Gauss-Newton triangulation of T tracks in anchored inverse-depth
    coordinates, all tracks and all their views at once.

    The tracks are padded to V views: pixels (T, V, 2), world-from-camera
    rotations cam_rots (T, V, 3, 3) and camera centers cam_centers
    (T, V, 3), with live (T, V) marking the views a track has. View 0 is
    each track's anchor and must be live. With
    C_k = B_k.T A and c_k = B_k.T (t_A - t_k) fixed, view k sees the point
    at y_k = C_k f + c_k, and its Jacobian is C_k d f / d theta; padded
    views add no rows.

    Each track runs up to TRIANGULATION_ITERS Gauss-Newton steps of its
    own: it fails when a live view sees the point at depth <= 1e-3
    (BEHIND_CAMERA) or when cond(J.T J) > 1e12 (DEGENERATE), read from
    the eigenvalues of the symmetric J.T J, and it stops once its step
    norm is below 1e-10. A track that stops leaves the batch; in the
    iteration a track fails, the batched solve sees the identity in place
    of its J.T J, so its singular matrix cannot fail the others.
    """
    fx, fy, cx, cy = intrinsics
    px = np.asarray(pixels, dtype=np.float64)
    Bs = np.asarray(cam_rots, dtype=np.float64)
    ts = np.asarray(cam_centers, dtype=np.float64)
    T, V = px.shape[:2]
    live = np.asarray(live, dtype=bool)
    if not live[:, 0].all():
        raise ValueError("view 0 is each track's anchor and must be live")
    A, t_A = Bs[:, 0], ts[:, 0]
    # every view's ray through its pixel; the anchor's gives the bearing
    focal = np.array([fx, fy])
    rays = np.ones((T, V, 3))
    rays[..., :2] = (px - (cx, cy)) / focal
    xn, yn = rays[:, 0, 0], rays[:, 0, 1]
    alpha = np.arctan2(xn, 1.0)
    beta = np.arctan2(yn, np.hypot(xn, 1.0))
    # the unit rays in the world frame, then the linear init for rho from
    # the rays of the views other than the anchor
    rays /= np.sqrt(np.einsum("tvi,tvi->tv", rays, rays))[..., None]
    rays = (Bs @ rays[..., None])[..., 0]
    rho = _init_inverse_depth(rays[:, 0], rays[:, 1:],
                              ts[:, 1:] - t_A[:, None], live[:, 1:])
    theta = np.stack([alpha, beta, np.minimum(np.maximum(rho, 1e-3), 1e3)],
                     axis=1)
    C = Bs.transpose(0, 1, 3, 2) @ A[:, None]
    c = ((t_A[:, None] - ts)[:, :, None, :] @ Bs)[:, :, 0, :]
    # a padded view sees every point on its optical axis at unit depth,
    # at the principal point it observes: zero rows of J and r
    centre = np.array([cx, cy])
    C[~live] = 0.0
    c[~live] = (0.0, 0.0, 1.0)
    px = np.where(live[..., None], px, centre)
    status = np.full(T, TRIANGULATED, dtype=np.int8)
    # the running tracks, and their theta and views
    k, th = np.arange(T), theta
    for _ in range(TRIANGULATION_ITERS):
        if not len(k):
            break
        rho = th[:, 2]
        (ca, cb), (sa, sb) = np.cos(th[:, :2]).T, np.sin(th[:, :2]).T
        cacb, sacb = ca * cb, sa * cb
        # columns: d f / d (alpha, beta, rho), then f itself, for the
        # bearing u(alpha, beta) and f = u / rho
        G = np.empty((len(k), 1, 3, 4))
        G[:, 0, 0, 0], G[:, 0, 0, 1], G[:, 0, 0, 3] = cacb, -sa * sb, sacb
        G[:, 0, 1, 0], G[:, 0, 1, 1], G[:, 0, 1, 3] = 0.0, cb, sb
        G[:, 0, 2, 0], G[:, 0, 2, 1], G[:, 0, 2, 3] = -sacb, -ca * sb, cacb
        G /= rho[:, None, None, None]
        G[..., 2] = -G[..., 3] / rho[:, None, None]
        CG = C @ G
        y = CG[..., 3] + c
        behind = (y[..., 2] <= 1e-3).any(axis=1)
        # the depth bound only changes the tracks that fail here
        inv = 1.0 / np.maximum(y[..., 2:3], 1e-3)
        xy = y[..., 0:2] * inv
        r = (px - (focal * xy + centre)).reshape(len(k), -1, 1)
        # d (f_x y0 / y2, f_y y1 / y2) = f / y2 * (d y01 - y01 / y2 * d y2)
        J = ((focal * inv)[..., None]
             * (CG[..., 0:2, 0:3] - xy[..., None] * CG[..., 2:3, 0:3]))
        J = J.reshape(len(k), -1, 3)
        Jt = J.transpose(0, 2, 1)
        JtJ = Jt @ J
        # cond(JtJ) > 1e12: JtJ is symmetric positive semidefinite, so
        # its singular values are its eigenvalues, in ascending order
        ev = np.linalg.eigvalsh(JtJ)
        failed = behind | (ev[:, -1] > 1e12 * ev[:, 0]) | (ev[:, 0] <= 0.0)
        if failed.any():
            status[k[failed]] = np.where(behind[failed], BEHIND_CAMERA,
                                         DEGENERATE)
            JtJ[failed] = np.eye(3)
        step = np.linalg.solve(JtJ, Jt @ r)[..., 0]
        th = th + step
        th[:, 2] = np.minimum(np.maximum(th[:, 2], 1e-4), 1e4)
        stop = failed | (np.linalg.norm(step, axis=1) < 1e-10)
        if stop.any():
            theta[k[stop]] = th[stop]
            go = ~stop
            k, th, C, c, px = k[go], th[go], C[go], c[go], px[go]
    theta[k] = th
    theta[status != TRIANGULATED] = np.nan
    return Triangulation(theta, status)
