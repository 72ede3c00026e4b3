"""Per-frame estimator engine driving the SRIF / PC-SRIF / IF / KF backends.

All backends share one codebase for state bookkeeping (window management,
feature promotion and reanchoring, short-track consumption, measurement
assembly); they differ only in how the Gaussian is represented and updated.
This keeps their estimates identical up to floating-point error, which the
cross-estimator equivalence checks rely on.

Each frame runs propagation -> marginalization -> update, with FLOPs
accounted per phase. Jacobian evaluation and bookkeeping are not counted.
Measurement assembly makes two passes over a frame: the first decides
which features enter the state and which short tracks end, triangulates
all of them with one `triangulate_inverse_depth` call, and lists every
observation to project; the second projects them all with one
`project_feature` call, eliminates every short track's feature with one
`msckf_nullspace_project` call, and writes the whitened rows straight
into H2.

Every SVD_STRIDE-th frame's conditioning record is a diagnostic, not part
of the estimate. Within `run()` the frame only snapshots what the record
needs (a float64 copy of the factor and the covariance indices) and hands
it to one worker thread, which computes the records in frame order while
the next frames run; its SVDs release the GIL, so on a second core they
leave the frame's critical path. The records are bitwise those computed
inline, as they still are for an estimator stepped by hand.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import filters, linalg
from .diag import record_conditioning
from .linalg import FlopCounter, NotPositiveDefinite
from .models import (
    TRIANGULATED,
    imu_transition,
    msckf_nullspace_project,
    project_feature,
    reanchor_feature,
    triangulate_inverse_depth,
    window_cameras,
)
from .state import N1, VinsStateVector, boxplus, layout_of

ESTIMATORS = ("kf", "srif", "pcsrif", "if-oracle")
PRECISIONS = {"binary32": np.float32, "binary64": np.float64}

PHASES = ("propagation", "marginalization", "update")


# initial standard deviation of each state block; the first pose's fixes
# the gauge, and a feature enters with a weak prior on its bearing angles
# and inverse depth
PRIOR_SIGMA = {
    "bg": 3e-3, "ba": 1e-2, "v": 1e-2, "tsync": 5e-3,
    "pose": (1e-3,) * 6,    # position, then orientation
    "intr": 1e-1, "p_ic": 1e-3, "q_ic": 1e-3,
    "feat": (0.1, 0.1, 1.0),
}
# a new feature's prior variances and information square roots
_FEAT_VAR = np.array(PRIOR_SIGMA["feat"]) ** 2
_FEAT_INFO = 1.0 / np.array(PRIOR_SIGMA["feat"])
MIN_TRACK = 3   # observations needed before a track is used
SVD_STRIDE = 10  # conditioning recorded every this many frames
DIAGNOSTICS_THREAD = "srifkit-diagnostics"   # name prefix of run()'s worker


@dataclass
class FilterConfig:
    estimator: str = "srif"
    precision: str = "binary64"
    window: int = 11            # max poses kept in the sliding window

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.precision not in PRECISIONS:
            raise ValueError(f"unknown precision {self.precision!r}")
        # a window counts poses, and a track leaves the buffer at window - 1
        # observations, so a smaller window never gathers MIN_TRACK of them
        if (not isinstance(self.window, (int, np.integer))
                or self.window < MIN_TRACK + 1):
            raise ValueError(f"window must be an integer of at least "
                             f"{MIN_TRACK + 1} poses, got {self.window!r}")


class EstimatorAbort(RuntimeError):
    """A filter step failed irrecoverably; carries where it happened."""

    def __init__(self, t, phase, cause):
        super().__init__(f"estimator aborted at t={t:.3f}s during {phase}: "
                         f"{cause}")
        self.t = t
        self.phase = phase


@dataclass
class InstabilityEvent:
    t: float
    kind: str        # "not-positive-definite" | "solution-error"
    detail: float    # relative solution error (nan for NPD)


@dataclass
class RunResult:
    times: np.ndarray        # (K,) frame timestamps
    positions: np.ndarray    # (K, 3) newest-pose estimates per frame
    quats: np.ndarray        # (K, 4)
    flops: dict              # phase -> counted FLOPs
    conditioning: list       # of ConditioningRecord
    events: list             # of InstabilityEvent
    seconds: dict = field(default_factory=dict)  # phase -> wall seconds


def _prior_sigmas(lay):
    """PRIOR_SIGMA per error-state dimension, in layout order."""
    s = PRIOR_SIGMA
    return np.concatenate([
        np.repeat([s["bg"], s["ba"], s["v"]], 3),
        np.tile(s["feat"], lay.n_features), [s["tsync"]],
        np.tile(s["pose"], lay.n_poses),
        np.repeat([s["intr"], s["p_ic"], s["q_ic"]], [4, 3, 3])])


def _pose_offsets_x2(lay):
    """The x2 offset of each pose's block, for the preconditioner."""
    return list(range(lay.tsync + 1 - N1, lay.intr - N1, 6))


def _covariance_block(R, idx):
    """The float64 block P[idx, idx] = Y.T Y of the factor R, where
    R.T Y = I[:, idx]."""
    Y = scipy.linalg.solve_triangular(
        np.asarray(R, dtype=np.float64), np.eye(R.shape[0])[:, idx],
        trans="T", check_finite=False)
    return Y.T @ Y


def _scatter_rows(H, cols, J):
    """Write observation i's 2 x c Jacobian J[i] into rows 2i and 2i + 1 of
    H, at the columns cols[i].

    An observation from its feature's anchor pose names that pose's columns
    twice, once for each pose block; both blocks are zero there.
    """
    H[np.arange(2 * len(J)).reshape(-1, 2, 1), cols[:, None, :]] = J


class VinsEstimator:
    """One filter instance consuming a simulated dataset frame by frame."""

    def __init__(self, dataset, config: FilterConfig):
        self.ds = dataset
        self.cfg = config
        self.dtype = PRECISIONS[config.precision]
        self.is_kf = config.estimator == "kf"
        self.flops = {ph: FlopCounter() for ph in PHASES}
        self.conditioning = []    # of ConditioningRecord, every SVD_STRIDE frames
        self.events = []
        self._scale_freeze = None
        # run()'s diagnostics worker, and its (t, Future) of each record not
        # yet appended; outside run() records are computed inline
        self._worker = None
        self._pending = []

        truth = dataset.truth
        spec = dataset.spec
        x = VinsStateVector.identity()
        x.v = truth.velocities[0].copy()
        x.intrinsics = np.asarray(spec.intrinsics, dtype=float).copy()
        x.p_ic = np.asarray(spec.p_ic, dtype=float).copy()
        x.q_ic = np.asarray(spec.q_ic, dtype=float).copy()
        x.pose_ids = np.zeros(1, dtype=np.int64)
        x.positions = truth.positions[:1].copy()
        x.quats = truth.quats[:1].copy()
        self.x = x
        sig = _prior_sigmas(layout_of(x))
        if self.is_kf:
            self.P = np.diag(sig ** 2).astype(self.dtype)
            self.R = None
        else:
            # Fortran-ordered from here on, as LAPACK writes and reads it
            self.R = np.diag(1.0 / sig).astype(self.dtype, order="F")
            self.P = None
        self.sigma_px = spec.sigma_px if spec.sigma_px > 0 else 1.0
        # each window pose's (velocity, body rate) under a time shift,
        # one (2, 3) row per pose beside the state's pose arrays
        self.motion = np.array([[x.v, truth.omegas[0] - x.bg]])
        self.track_buf = {}       # fid -> list of (pose_id, pixel)
        self._drop_next = set()   # feature ids to marginalize out
        self._step_per_frame = int(round(spec.imu_rate / spec.cam_rate))
        self.times = [0.0]
        self.positions = [x.positions[-1].copy()]
        self.quats = [x.quats[-1].copy()]

    # -- propagation ------------------------------------------------------

    def _propagate(self, frame):
        fc = self.flops["propagation"]
        i0 = (frame.index - 1) * self._step_per_frame
        i1 = frame.index * self._step_per_frame
        omega, accel, dt = self.ds.imu_samples(i0, i1)
        x = self.x
        old = layout_of(x)
        tb = imu_transition(x.bg, x.ba, x.v, x.positions[-1], x.quats[-1],
                            omega, accel, dt, self.ds.spec.noise)
        x.pose_ids = np.append(x.pose_ids, frame.index)
        x.positions = np.vstack([x.positions, tb.p])
        x.quats = np.vstack([x.quats, tb.q])
        x.v = tb.v.copy()
        # every old state keeps its value at its new index (the calibration
        # moves past the new pose), and the transition maps (bias,
        # velocity, old pose) to (bias, velocity, new pose)
        keep = np.arange(old.n)
        keep[old.intr:] += 6
        sel = np.concatenate([np.arange(N1), old.pose_cols(old.n_poses - 1)])
        rows = np.concatenate([np.arange(N1),
                               layout_of(x).pose_cols(old.n_poses)])

        if self.is_kf:
            self.P = filters.kf_propagate(self.P, keep, sel, rows, tb,
                                          flops=fc)
        else:
            # augmented ordering: the old bias/velocity block in front of
            # the new layout; it is marginalized right after (p = 0 nine
            # times, which for a triangular factor is dropping the corner)
            colmap = keep + 9
            colmap[:9] = np.arange(9)
            R_aug = filters.srif_augment(self.R, colmap, 9 + rows,
                                         colmap[sel], tb, flops=fc)
            self.R = R_aug[9:, 9:]

        self.motion = np.vstack([self.motion, [[x.v, omega[-1] - x.bg]]])

    # -- marginalization --------------------------------------------------

    def _marginalize_blocks(self, features, poses):
        """Remove the features and poses the boolean masks flag from the
        Gaussian and from the estimate."""
        x, lay = self.x, layout_of(self.x)
        gone = np.zeros(lay.n, dtype=bool)
        gone[N1:lay.tsync] = np.repeat(features, 3)
        gone[lay.tsync + 1:lay.intr] = np.repeat(poses, 6)
        if self.is_kf:
            # C-ordered, as the products that read P expect
            k = np.flatnonzero(~gone)
            self.P = self.P.take(k, 0).take(k, 1)
        else:
            self.R = filters.marginalize_block(
                self.R, np.flatnonzero(gone),
                flops=self.flops["marginalization"])
        kept, stay = ~features, ~poses
        x.feature_ids, x.anchor_ids = x.feature_ids[kept], x.anchor_ids[kept]
        x.params = x.params[kept]
        x.pose_ids = x.pose_ids[stay]
        x.positions, x.quats = x.positions[stay], x.quats[stay]
        self.motion = self.motion[stay]

    def _reanchor(self, k, old_id, new_id):
        """Move features k (state rows), anchored at pose old_id, to pose
        new_id in one pass. Returns the rows of those behind the new anchor
        camera, which keep their old anchor and parameters for the caller
        to drop."""
        x, lay = self.x, layout_of(self.x)
        n = len(k)
        # the anchors at zero time shift; passing self.motion would
        # reanchor on the shifted cameras `project_feature` sees
        re = reanchor_feature(window_cameras(x), np.full(n, old_id),
                              np.full(n, new_id), x.params[k])
        ok = re.in_front
        moved = k[ok]
        if not len(moved):
            return k
        fcols = lay.feature_cols(moved)
        fidx = fcols.ravel()
        ab = lay.pose_cols(np.searchsorted(x.pose_ids, [old_id, new_id])).ravel()
        m = len(moved)
        Jff = re.feature[ok]
        Jab = np.concatenate([re.old_anchor[ok], re.new_anchor[ok]], axis=2)
        fc = self.flops["marginalization"]
        if self.is_kf:
            # P <- J P J.T where J is the identity but for the feature rows
            # J[fidx] = [Jff, Jfa, Jfb] over (feature, old, new anchor):
            # only the features' rows and columns change
            P = self.P
            J = np.zeros((3 * m, lay.n), dtype=P.dtype)
            J[np.arange(3 * m).reshape(m, 3, 1), fcols[:, None, :]] = Jff
            J[:, ab] = Jab.reshape(3 * m, 12)
            T = J @ P
            corner = T @ J.T
            # multiply-adds of J P and of its corner (J P) J.T
            fc.add(3 * m * (2 * lay.n - 1) * (lay.n + 3 * m))
            P[fidx] = T
            P[:, fidx] = T.T
            runs = filters._runs(fidx)
            filters._embed(P, runs, runs, 0.5 * (corner + corner.T))
        else:
            # R <- R J^-1 stays upper triangular: the feature columns sit
            # left of both pose columns, so the correction only spreads
            # feature columns rightward
            R = self.R
            rows = R.shape[0]
            Jff_inv = np.linalg.inv(Jff)
            G = (Jff_inv @ Jab).reshape(3 * m, 12).astype(R.dtype)
            colf = R[:, fidx]
            R[:, fidx] = (colf.reshape(rows, m, 1, 3)
                          @ Jff_inv.astype(R.dtype)).reshape(rows, 3 * m)
            R[:, ab] -= colf @ G
            # multiply-adds: G, then R's feature columns times the m
            # 3 x 3 inverses and times G
            fc.add(2 * (45 * rows * m + 108 * m))
            # each feature's 3 x 3 diagonal block went dense; its rows are
            # the only ones with entries below the diagonal, so each
            # feature's 3-row slab is re-triangularized on its own
            for s in fcols[:, 0].tolist():
                R[s:s + 3, s:] = linalg.householder_qr(R[s:s + 3, s:],
                                                       flops=fc)
        x.anchor_ids[moved] = new_id
        x.params[moved] = re.params[ok]
        return k[~ok]

    def _marginalize(self, frame):
        """Remove everything that leaves the state this frame with one
        `_marginalize_blocks` call: the features whose track broke or that
        `_assemble_rows` flagged and, once the window is full, its oldest
        pose. The pose's other features first move to the newest pose;
        those behind their new anchor leave with it."""
        x = self.x
        present = set(frame.feature_ids.tolist())
        leaving = np.array([fid not in present or fid in self._drop_next
                            for fid in x.feature_ids.tolist()], dtype=bool)
        self._drop_next = set()
        poses = np.zeros(len(x.pose_ids), dtype=bool)
        if len(x.pose_ids) > self.cfg.window:
            departing = x.pose_ids[0]
            # reanchoring changes only the moved features' variables, so a
            # feature that leaves anyway leaves with its old anchor
            moving = np.flatnonzero((x.anchor_ids == departing) & ~leaving)
            if len(moving):
                leaving[self._reanchor(moving, departing, x.pose_ids[-1])] = True
            # no buffered track observes the departing pose: the last
            # update used or dropped every track that had reached window - 1
            # observations or ended, so each one left holds at most
            # window - 2, from consecutive frames ending at the previous
            # one, and its oldest is two frames newer than this pose
            poses[0] = True
        if leaving.any() or poses.any():
            self._marginalize_blocks(leaving, poses)

    # -- update -----------------------------------------------------------

    def _insert_features(self, ids, anchors, params):
        """Grow the state by new features, each with an independent weak
        prior, in one embedding of the covariance or factor."""
        if not len(ids):
            return
        x, lay = self.x, layout_of(self.x)
        x.feature_ids = np.append(x.feature_ids, ids)
        x.anchor_ids = np.append(x.anchor_ids, anchors)
        x.params = np.vstack([x.params, params])
        # the new features' columns come right before tsync, and every old
        # state keeps its value
        t, b = lay.tsync, 3 * len(ids)
        n = lay.n + b
        runs = [(0, 0, t), (t, t + b, lay.n - t)]
        new = np.arange(t, t + b)
        old, diag = (self.P, _FEAT_VAR) if self.is_kf else (self.R, _FEAT_INFO)
        # in old's memory order: Fortran for R, C for P
        M = np.zeros_like(old, shape=(n, n))
        filters._embed(M, runs, runs, old)
        M[new, new] = np.tile(diag, len(ids))
        if self.is_kf:
            self.P = M
        else:
            self.R = M

    def _triangulate(self, tracks, cameras):
        """`triangulate_inverse_depth` of each track, a list of (pose id,
        pixel) pairs, in one call: the tracks are padded to the longest
        with copies of their anchor view, which `live` masks out."""
        V = max(len(obs) for obs in tracks)
        pad = [obs + obs[:1] * (V - len(obs)) for obs in tracks]
        live = np.arange(V) < np.array([len(obs) for obs in tracks])[:, None]
        rows = cameras.rows([pid for obs in pad for pid, _ in obs]).reshape(-1, V)
        pixels = np.array([[px for _, px in obs] for obs in pad])
        return triangulate_inverse_depth(pixels, cameras.R_wc[rows],
                                         cameras.t_wc[rows], self.x.intrinsics,
                                         live)

    def _collect_measurements(self, frame):
        """The frame's whitened rows as (H2, r) over the x2 columns at
        working precision, or None when there are none.

        Pass 1 walks the frame, then the short-track buffer. It lists each
        feature whose track is long enough to enter the state (delayed
        initialization) and each finished or capped short track, and
        triangulates them all in one call. It then inserts the features
        that triangulated and lists the observations to project, one group
        per feature. Pass 2 projects every listed observation in one call.
        A SLAM feature gives the rows of its observations up to the first
        one behind the camera, and then leaves the state at the next frame.
        A short track drops its observations behind the camera, needs two
        left, and gives the rows of its left-null-space projection. SLAM
        rows come first, in frame order, then the tracks' rows in buffer
        order.
        """
        # the window and its estimate stay fixed until the update, so each
        # pose's camera is evaluated once per frame
        x = self.x
        cameras = window_cameras(x, self.motion)
        in_state = {fid: k for k, fid in enumerate(x.feature_ids.tolist())}
        seen = []         # (feature id, [(pose id, pixel), ...]) in frame order
        candidates = []   # tracks to triangulate, would-be SLAM features first
        for fid, kind, px in zip(frame.feature_ids, frame.kinds, frame.pixels):
            fid = int(fid)
            if fid in in_state:
                seen.append((fid, [(frame.index, px)]))
                continue
            self.track_buf.setdefault(fid, []).append((frame.index, px))
            obs = self.track_buf[fid]
            if kind == 0 and len(obs) >= MIN_TRACK:
                seen.append((fid, obs))
                candidates.append((fid, obs))
        n_slam = len(candidates)
        # finished or capped short tracks; a would-be SLAM feature's own
        # attempt decides what becomes of its track
        slam = {fid for fid, _ in candidates}
        present = set(int(f) for f in frame.feature_ids)
        for fid, obs in list(self.track_buf.items()):
            ended = fid not in present
            capped = len(obs) >= self.cfg.window - 1
            if fid in slam or not (ended or capped):
                continue
            del self.track_buf[fid]
            if len(obs) >= MIN_TRACK:
                candidates.append((fid, obs))
        theta = {}
        if candidates:
            tri = self._triangulate([obs for _, obs in candidates], cameras)
            theta = {fid: th for (fid, _), th, status in
                     zip(candidates, tri.theta, tri.status)
                     if status == TRIANGULATED}
        # (state row of the feature, or -1 for a short track, anchor pose
        # id, parameters, [(pose id, pixel), ...])
        groups = []
        new_ids, new_anchors, new_params = [], [], []
        for fid, obs in seen:
            if fid in in_state:
                k = in_state[fid]
                groups.append((k, x.anchor_ids[k], x.params[k], obs))
            elif fid in theta:
                groups.append((len(in_state) + len(new_ids), obs[0][0],
                               theta[fid], obs))
                new_ids.append(fid)
                new_anchors.append(obs[0][0])
                new_params.append(theta[fid])
                del self.track_buf[fid]
            elif len(obs) >= self.cfg.window - 1:
                # capped: as a short track it would triangulate the same
                # views and fail the same way
                del self.track_buf[fid]
        # pass 1 reads nothing from the layout, so the features it
        # inserts enter the state together
        self._insert_features(new_ids, new_anchors, new_params)
        groups += [(-1, obs[0][0], theta[fid], obs)
                   for fid, obs in candidates[n_slam:] if fid in theta]
        if not groups:
            return None
        return self._assemble_rows(groups, cameras)

    def _assemble_rows(self, groups, cameras):
        """Pass 2 of `_collect_measurements`."""
        views = [(anchor, pid, params, px)
                 for _, anchor, params, obs in groups for pid, px in obs]
        anchor, observer, params, pixels = (np.array(c) for c in zip(*views))
        proj = project_feature(cameras, self.x.intrinsics, anchor, observer,
                               params)
        J = np.concatenate(proj[2:], axis=2)     # (k, 2, 26)
        resid = pixels - proj.pixel
        # each observation's x2 column per Jacobian column; a short track's
        # feature has none (its block is eliminated before writing), so
        # its feature columns are never read
        lay = layout_of(self.x)
        ks = np.array([k for k, *_ in groups])
        sizes = np.array([len(obs) for *_, obs in groups])
        feature = np.repeat(ks, sizes)
        cols = np.empty((len(J), J.shape[2]), dtype=np.intp)
        cols[:, 0:6] = lay.pose_cols(cameras.rows(anchor)) - N1
        cols[:, 6:12] = lay.pose_cols(cameras.rows(observer)) - N1
        cols[:, 12:15] = lay.feature_cols(feature) - N1
        cols[:, 15:] = np.concatenate([np.arange(lay.p_ic, lay.q_ic + 3),
                                       [lay.tsync],
                                       np.arange(lay.intr, lay.p_ic)]) - N1
        no_feature = np.concatenate([np.arange(12),
                                     np.arange(15, cols.shape[1])])

        # observations behind the camera, counted through each observation
        # and up to each group's start and end
        behind = np.concatenate([[0], np.cumsum(~proj.in_front)])
        stop = np.cumsum(sizes)
        first, last = behind[stop - sizes], behind[stop]
        # a SLAM feature's observations up to its first one behind the
        # camera, after which the feature leaves the state
        slam = (feature >= 0) & (behind[1:] == np.repeat(first, sizes))
        gone = ks[(ks >= 0) & (last > first)]
        self._drop_next.update(self.x.feature_ids[gone].tolist())
        # a short track's observations in front of the camera, if it has
        # two of them
        front = sizes - (last - first)
        used = (ks < 0) & (front >= 2)
        keep = np.flatnonzero(proj.in_front & np.repeat(used, sizes))

        Hx, rx = np.empty((0, lay.n2)), np.empty(0)
        if len(keep):
            Hx = np.zeros((2 * len(keep), lay.n2))
            _scatter_rows(Hx, cols[keep][:, no_feature],
                          J[keep][:, :, no_feature])
            Hx, rx, _ = msckf_nullspace_project(
                proj.feature[keep].reshape(-1, 3), Hx, resid[keep].ravel(),
                (2 * front[used]).tolist())
        m_slam = 2 * int(slam.sum())
        m = m_slam + len(rx)
        if not m:
            return None
        inv = 1.0 / self.sigma_px
        H2 = np.empty((m, lay.n2), dtype=self.dtype)
        r = np.empty(m, dtype=self.dtype)
        H2[:m_slam] = 0.0
        _scatter_rows(H2, cols[slam], J[slam] * inv)
        r[:m_slam] = resid[slam].ravel() * inv
        H2[m_slam:] = Hx * inv
        r[m_slam:] = rx * inv
        return H2, r

    def _apply_update(self, H2, r, t):
        fc = self.flops["update"]
        est = self.cfg.estimator
        if est == "kf":
            dx, self.P = filters.kf_update(self.P, H2, r, N1, flops=fc)
            return dx
        if est == "srif":
            res = filters.srif_update_partitioned(self.R, H2, r, N1, flops=fc)
        elif est == "pcsrif":   # a NotPositiveDefinite aborts the run
            res = filters.pcsrif_update(
                self.R, H2, r, N1, _pose_offsets_x2(layout_of(self.x)),
                flops=fc)
        else:  # if-oracle, with a float64 QR shadow for error flagging
            ref = filters.srif_update_partitioned(
                self.R.astype(np.float64), H2, r, N1)
            try:
                res = filters.if_update_oracle(self.R, H2, r, N1, flops=fc)
                scale = max(float(np.abs(ref.dx).max()), 1e-12)
                err = float(np.abs(res.dx - ref.dx).max()) / scale
                if err >= 1e-2:
                    self.events.append(InstabilityEvent(
                        t, "solution-error", err))
            except NotPositiveDefinite:
                # the oracle lost definiteness; log it and continue from the
                # shadow solution so the rest of the run stays observable
                self.events.append(InstabilityEvent(
                    t, "not-positive-definite", float("nan")))
                res = filters.UpdateResult(ref.dx.astype(self.dtype),
                                           ref.R_post.astype(self.dtype))
        self.R = res.R_post
        return res.dx

    def _update(self, frame):
        rows = self._collect_measurements(frame)
        if rows is not None:
            dx = self._apply_update(*rows, frame.t)
            self.x = boxplus(self.x, dx)
        # diagnostics from the first frame on, every SVD_STRIDE frames
        if not self.is_kf and (frame.index - 1) % SVD_STRIDE == 0:
            self._record_diagnostics(frame)

    # -- diagnostics ------------------------------------------------------

    def _record_diagnostics(self, frame):
        """Snapshot what the frame's record needs and hand it to the worker,
        or compute it here when no run is in progress. The snapshot is a
        copy: `_reanchor` edits R in place."""
        lay = layout_of(self.x)
        # the states every window keeps: biases, velocity, tsync, the
        # newest pose and the calibration
        idx = np.concatenate([np.arange(N1), [lay.tsync],
                              lay.pose_cols(lay.n_poses - 1),
                              np.arange(lay.intr, lay.n)])
        job = (frame.t, np.array(self.R, dtype=np.float64), idx,
               _pose_offsets_x2(lay))
        if self._worker is None:
            self.conditioning.append(self._condition(*job))
        else:
            self._pending.append((frame.t,
                                  self._worker.submit(self._condition, *job)))

    def _condition(self, t, R, idx, pose_offsets):
        """The conditioning record of the float64 factor R at time t; the
        covariance's scale is frozen at the first record from 10 s on."""
        Psub = _covariance_block(R, idx)
        if self._scale_freeze is None and t >= 10.0:
            self._scale_freeze = np.sqrt(np.diag(Psub))
        s = (self._scale_freeze if self._scale_freeze is not None
             else np.sqrt(np.diag(Psub)))
        P_scaled = Psub / np.outer(s, s)
        return record_conditioning(t, R[N1:, N1:], pose_offsets, P_scaled)

    def _settle(self, block=True):
        """Append the worker's records in frame order: all of them, or only
        those already finished. A record that raised aborts the run at its
        own frame's update."""
        while self._pending and (block or self._pending[0][1].done()):
            t, record = self._pending.pop(0)
            try:
                self.conditioning.append(record.result())
            except Exception as exc:
                raise EstimatorAbort(t, "update", exc) from exc

    # -- main loop ---------------------------------------------------------

    def run(self):
        seconds = dict.fromkeys(PHASES, 0.0)
        # the worker thread starts at the first record, so a KF run, which
        # records none, starts none; leaving the block joins it
        with ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=DIAGNOSTICS_THREAD
        ) as self._worker:
            try:
                for frame in self.ds.frames[1:]:
                    for phase, work in (("propagation", self._propagate),
                                        ("marginalization", self._marginalize),
                                        ("update", self._update)):
                        t0 = time.perf_counter()
                        try:
                            work(frame)
                        except Exception as exc:
                            # an earlier frame's failed record aborts first
                            self._settle()
                            raise EstimatorAbort(frame.t, phase, exc) from exc
                        seconds[phase] += time.perf_counter() - t0
                    self.times.append(frame.t)
                    self.positions.append(self.x.positions[-1].copy())
                    self.quats.append(self.x.quats[-1].copy())
                    self._settle(block=False)
                self._settle()
            finally:
                # a record left unread after an abort goes with its run
                self._worker, self._pending = None, []
        return RunResult(
            np.array(self.times), np.array(self.positions),
            np.array(self.quats),
            {ph: self.flops[ph].total() for ph in PHASES},
            self.conditioning, self.events, seconds=seconds)


def run_filter(dataset, config: FilterConfig) -> RunResult:
    return VinsEstimator(dataset, config).run()
