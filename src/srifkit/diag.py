"""Run diagnostics: posterior conditioning and trajectory metrics.

Condition numbers are always evaluated in float64 via SVD regardless of
the filter's working precision; they are diagnostics, never part of the
estimator path. The engine records them every vins.SVD_STRIDE frames, on
a worker thread beside the frames that follow, so every SVD here is
`linalg.svdvals`, a ?gesdd call that releases the GIL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import filters
from .linalg import svdvals
from .state import quat_to_mat


@dataclass
class ConditioningRecord:
    t: float
    kappa2_r22_post: float           # squared cond. of posterior R22 factor
    kappa2_r22_post_scaled: float    # after diagonal (Jacobi) column scaling
    kappa2_r22_post_precond: float   # after the full preconditioner
    sigma_max_p: float               # extremal singular values of the
    sigma_min_p: float               # scale-normalized covariance block


@dataclass
class TrajectoryMetrics:
    ate_translation: float   # m, RMS
    ate_rotation: float      # deg, RMS
    rte_translation: float   # m, RMS over 1 s relative motions
    rte_rotation: float      # deg


def _kappa2(A):
    """(sigma_max / sigma_min)**2 of A at float64; inf when sigma_min = 0."""
    s = svdvals(A)
    k = float(s[0]) / float(s[-1]) if s[-1] else float("inf")
    return k * k


def record_conditioning(t, R22_post, pose_offsets, P_scaled):
    """Snapshot the conditioning of the posterior after one update step.

    The posterior R22 factor is read raw, Jacobi-scaled and preconditioned
    by its own `build_preconditioner(R22_post, pose_offsets)`. `P_scaled`
    is the scale-normalized covariance block tracked by the runner; its
    extremal singular values land in sigma_max/min.
    """
    R22_post = np.asarray(R22_post, dtype=np.float64)
    d = np.sqrt(np.einsum("ij,ij->j", R22_post, R22_post))
    d[d == 0.0] = 1.0
    k_post = _kappa2(R22_post)
    k_scaled = _kappa2(R22_post / d[None, :])
    k_pre = _kappa2(filters.build_preconditioner(R22_post, pose_offsets).r22p)
    sv = svdvals(P_scaled)
    return ConditioningRecord(float(t), k_post, k_scaled, k_pre,
                              float(sv[0]), float(sv[-1]))


# --------------------------------------------------------------------------
# trajectory metrics
# --------------------------------------------------------------------------

MAX_DT = 0.01        # s; an estimate pairs with ground truth this close
RTE_INTERVAL = 1.0   # s between the poses of a relative motion


def _associate(est_times, gt_times):
    """Nearest-timestamp pairing; raises if nothing overlaps."""
    gt_times = np.asarray(gt_times)
    idx = np.searchsorted(gt_times, est_times)
    idx = np.clip(idx, 1, len(gt_times) - 1)
    left = gt_times[idx - 1]
    right = gt_times[idx]
    pick = np.where(np.abs(est_times - left) <= np.abs(est_times - right),
                    idx - 1, idx)
    ok = np.abs(gt_times[pick] - est_times) <= MAX_DT
    if not ok.any():
        raise ValueError("no overlapping timestamps")
    return np.flatnonzero(ok), pick[ok]

def _yaw_translation_align(est_pos, gt_pos):
    """Closed-form 4-DOF (yaw about gravity + translation) alignment."""
    ec = est_pos - est_pos.mean(axis=0)
    gc = gt_pos - gt_pos.mean(axis=0)
    num = np.sum(ec[:, 0] * gc[:, 1] - ec[:, 1] * gc[:, 0])
    den = np.sum(ec[:, 0] * gc[:, 0] + ec[:, 1] * gc[:, 1])
    yaw = np.arctan2(num, den)
    c, s = np.cos(yaw), np.sin(yaw)
    Rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    shift = gt_pos.mean(axis=0) - est_pos.mean(axis=0) @ Rz.T
    return Rz, shift


def _geodesic_deg(Ra, Rb):
    """Angle (deg) of Ra.T Rb, for one pair of rotations or stacks of them."""
    tr = np.trace(Ra.swapaxes(-1, -2) @ Rb, axis1=-2, axis2=-1)
    ang = np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))
    return np.degrees(ang)


def compute_ate(est_times, est_pos, est_quat, gt_times, gt_pos, gt_quat):
    """RMS translation (m) and rotation (deg) error after removing the
    four unobservable degrees of freedom (yaw + translation)."""
    ei, gi = _associate(np.asarray(est_times), gt_times)
    ep, gp = np.asarray(est_pos)[ei], np.asarray(gt_pos)[gi]
    if len(ei) < 2:
        raise ValueError("need at least two associated poses")
    Rz, shift = _yaw_translation_align(ep, gp)
    resid = ep @ Rz.T + shift - gp
    ate_t = float(np.sqrt(np.mean(np.sum(resid ** 2, axis=1))))
    angs = _geodesic_deg(Rz @ quat_to_mat(np.asarray(est_quat)[ei]),
                         quat_to_mat(np.asarray(gt_quat)[gi]))
    ate_r = float(np.sqrt(np.mean(np.square(angs))))
    return ate_t, ate_r


def compute_rte(est_times, est_pos, est_quat, gt_times, gt_pos, gt_quat):
    """RMS error of relative motions over RTE_INTERVAL, no alignment."""
    est_times = np.asarray(est_times)
    ei, gi = _associate(est_times, gt_times)
    times = est_times[ei]
    jmatch = np.searchsorted(times, times + RTE_INTERVAL)
    Re = quat_to_mat(np.asarray(est_quat)[ei])
    Rg = quat_to_mat(np.asarray(gt_quat)[gi])
    pe, pg = np.asarray(est_pos)[ei], np.asarray(gt_pos)[gi]
    terrs, rerrs = [], []
    for a, j in enumerate(jmatch):
        if (j >= len(times)
                or abs(times[j] - times[a] - RTE_INTERVAL) > MAX_DT):
            continue
        d_est = Re[a].T @ (pe[j] - pe[a])
        d_gt = Rg[a].T @ (pg[j] - pg[a])
        terrs.append(np.linalg.norm(d_est - d_gt))
        rerrs.append(_geodesic_deg(Re[a].T @ Re[j], Rg[a].T @ Rg[j]))
    if not terrs:
        raise ValueError(f"no pose pairs {RTE_INTERVAL} s apart")
    return (float(np.sqrt(np.mean(np.square(terrs)))),
            float(np.sqrt(np.mean(np.square(rerrs)))))


def compute_metrics(est_times, est_pos, est_quat, gt_times, gt_pos, gt_quat):
    """ATE and RTE; RTE is NaN when no two poses lie RTE_INTERVAL apart."""
    ate_t, ate_r = compute_ate(est_times, est_pos, est_quat,
                               gt_times, gt_pos, gt_quat)
    try:
        rte_t, rte_r = compute_rte(est_times, est_pos, est_quat,
                                   gt_times, gt_pos, gt_quat)
    except ValueError:   # no pose pair RTE_INTERVAL apart
        rte_t = rte_r = float("nan")
    return TrajectoryMetrics(ate_t, ate_r, rte_t, rte_r)
