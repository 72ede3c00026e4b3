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
"""

from __future__ import annotations

import time
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
from .state import (
    InverseDepthFeature,
    Pose,
    VinsStateVector,
    boxplus,
    layout_of,
    reorder_for_marginalization,
)

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
MIN_TRACK = 3   # observations needed before a track is used
SVD_STRIDE = 10  # conditioning recorded every this many frames


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
        # a track leaves the buffer at window - 1 observations, so a
        # smaller window never gathers MIN_TRACK of them
        if self.window < MIN_TRACK + 1:
            raise ValueError(f"window must hold at least {MIN_TRACK + 1} "
                             f"poses, got {self.window}")


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
    config: FilterConfig
    times: np.ndarray        # (K,) frame timestamps
    positions: np.ndarray    # (K, 3) newest-pose estimates per frame
    quats: np.ndarray        # (K, 4)
    flops: dict              # phase -> counted FLOPs
    conditioning: list       # of ConditioningRecord
    events: list             # of InstabilityEvent
    seconds: dict = field(default_factory=dict)  # phase -> wall seconds


def _prior_sigmas(layout):
    return np.concatenate([np.broadcast_to(PRIOR_SIGMA[name.split(":")[0]], dim)
                           for name, _, dim in layout.blocks])


def _scatter_rows(H, cols, J):
    """Write observation i's 2 x c Jacobian J[i] into rows 2i and 2i + 1 of
    H, at the columns cols[i].

    An observation from its feature's anchor pose names that pose's columns
    twice, once for each pose block; both blocks are zero there.
    """
    H[np.arange(2 * len(J)).reshape(-1, 2, 1), cols[:, None, :]] = J


def _embed(old_layout, new_layout):
    """Scalar index map old -> new for blocks present in both layouts."""
    idx = np.empty(old_layout.n, dtype=int)
    for name, off, dim in old_layout.blocks:
        noff = new_layout.offset(name)
        idx[off:off + dim] = np.arange(noff, noff + dim)
    return idx


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

        truth = dataset.truth
        spec = dataset.spec
        x = VinsStateVector.identity()
        x.v = truth.velocities[0].copy()
        x.intrinsics = np.asarray(spec.intrinsics, dtype=float).copy()
        x.p_ic = np.asarray(spec.p_ic, dtype=float).copy()
        x.q_ic = np.asarray(spec.q_ic, dtype=float).copy()
        x.poses = [Pose(truth.positions[0].copy(), truth.quats[0].copy(),
                        0.0, id=0)]
        self.x = x
        self.layout = layout_of(x)
        sig = _prior_sigmas(self.layout)
        if self.is_kf:
            self.P = np.diag(sig ** 2).astype(self.dtype)
            self.R = None
        else:
            self.R = np.diag(1.0 / sig).astype(self.dtype)
            self.P = None
        self.sigma_px = spec.sigma_px if spec.sigma_px > 0 else 1.0
        self.frame_motion = {0: (x.v.copy(), truth.omegas[0] - x.bg)}
        self.track_buf = {}       # fid -> list of (pose_id, pixel)
        self._drop_next = set()   # feature ids to marginalize out
        self._step_per_frame = int(round(spec.imu_rate / spec.cam_rate))
        self.times = [0.0]
        self.positions = [x.poses[0].p.copy()]
        self.quats = [x.poses[0].q.copy()]

    # -- representation helpers ------------------------------------------

    def _pose_offsets_x2(self):
        n1 = self.layout.n1
        return [off - n1 for off in self.layout.pose_offsets()]

    def _covariance(self, idx):
        if self.is_kf:
            return np.asarray(self.P, dtype=np.float64)[np.ix_(idx, idx)]
        # the float64 block P[idx, idx] = Y.T Y, where R.T Y = I[:, idx]
        Y = scipy.linalg.solve_triangular(
            np.asarray(self.R, dtype=np.float64), np.eye(self.layout.n)[:, idx],
            trans="T", check_finite=False)
        return Y.T @ Y

    # -- propagation ------------------------------------------------------

    def _propagate(self, frame):
        fc = self.flops["propagation"]
        i0 = (frame.index - 1) * self._step_per_frame
        i1 = frame.index * self._step_per_frame
        omega, accel, dt = self.ds.imu_samples(i0, i1)
        old_pose = self.x.poses[-1]
        tb = imu_transition(self.x.bg, self.x.ba, self.x.v, old_pose,
                            omega, accel, dt, self.ds.spec.noise)
        tb.new_pose.id = frame.index
        tb.new_pose.t = frame.t
        old_layout = self.layout
        self.x.poses.append(tb.new_pose)
        self.x.v = tb.new_v.copy()
        self.layout = layout_of(self.x)
        # every old state keeps its value at its new index, and the
        # transition maps (bias, velocity, old pose) to (bias, velocity,
        # new pose)
        keep = _embed(old_layout, self.layout)
        old_off = old_layout.offset(f"pose:{old_pose.id}")
        new_off = self.layout.offset(f"pose:{frame.index}")
        sel = np.r_[0:9, old_off:old_off + 6]
        rows = np.r_[0:9, new_off:new_off + 6]

        if self.is_kf:
            self.P = filters.kf_propagate(self.P, keep, sel, rows, tb,
                                          flops=fc)
        else:
            # augmented ordering: the old bias/velocity block in front of
            # the new layout; it is marginalized right after (p = 0 nine
            # times, which for a triangular factor is dropping the corner)
            colmap = np.r_[0:9, 9 + keep[9:]]
            R_aug = filters.srif_augment(self.R, colmap, 9 + rows,
                                         colmap[sel], tb, flops=fc)
            self.R = R_aug[9:, 9:].copy()

        self.frame_motion[frame.index] = (
            self.x.v.copy(), omega[-1] - self.x.bg)

    # -- marginalization --------------------------------------------------

    def _marginalize_blocks(self, names):
        """Remove whole feature and pose blocks from the Gaussian and from
        the estimate."""
        idx = reorder_for_marginalization(self.layout, names)
        if self.is_kf:
            keep = np.ones(self.layout.n, dtype=bool)
            keep[idx] = False
            self.P = self.P[np.ix_(keep, keep)]
        else:
            self.R = filters.marginalize_block(
                self.R, idx, flops=self.flops["marginalization"])
        gone = set(names)
        self.x.features = [f for f in self.x.features
                           if f"feat:{f.id}" not in gone]
        self.x.poses = [p for p in self.x.poses if f"pose:{p.id}" not in gone]
        self.layout = layout_of(self.x)

    def _reanchor(self, feats, old_id, new_id):
        """Move the features anchored at pose old_id to pose new_id in one
        pass. Returns the ids of those behind the new anchor camera, which
        keep their old anchor and parameters for the caller to drop."""
        n = len(feats)
        # the anchors at zero time shift; passing self.frame_motion would
        # reanchor on the shifted cameras `project_feature` sees
        re = reanchor_feature(window_cameras(self.x), np.full(n, old_id),
                              np.full(n, new_id),
                              np.array([f.params for f in feats]))
        behind = [f.id for f, front in zip(feats, re.in_front) if not front]
        ok = np.flatnonzero(re.in_front)
        k = len(ok)
        if not k:
            return behind
        lay = self.layout
        starts = [lay.offset(f"feat:{feats[i].id}") for i in ok]
        fidx = (np.array(starts)[:, None] + np.arange(3)).ravel()
        ab = np.r_[lay.slice(f"pose:{old_id}"), lay.slice(f"pose:{new_id}")]
        Jff = re.feature[ok]
        Jab = np.concatenate([re.old_anchor[ok], re.new_anchor[ok]], axis=2)
        fc = self.flops["marginalization"]
        if self.is_kf:
            # P <- J P J.T where J is the identity but for the feature rows
            # J[fidx] = [Jff, Jfa, Jfb] over (feature, old, new anchor):
            # only the features' rows and columns change
            P = self.P
            J = np.zeros((3 * k, lay.n), dtype=P.dtype)
            J[np.arange(3 * k).reshape(k, 3, 1), fidx.reshape(k, 1, 3)] = Jff
            J[:, ab] = Jab.reshape(3 * k, 12)
            T = J @ P
            corner = T @ J.T
            # multiply-adds of J P and of its corner (J P) J.T
            fc.add(adds=3 * k * (lay.n - 1) * (lay.n + 3 * k),
                   muls=3 * k * lay.n * (lay.n + 3 * k))
            P[fidx] = T
            P[:, fidx] = T.T
            P[np.ix_(fidx, fidx)] = 0.5 * (corner + corner.T)
        else:
            # R <- R J^-1 stays upper triangular: the feature columns sit
            # left of both pose columns, so the correction only spreads
            # feature columns rightward
            R = self.R
            m = R.shape[0]
            Jff_inv = np.linalg.inv(Jff)
            G = (Jff_inv @ Jab).reshape(3 * k, 12).astype(R.dtype)
            colf = R[:, fidx]
            R[:, fidx] = (colf.reshape(m, k, 1, 3)
                          @ Jff_inv.astype(R.dtype)).reshape(m, 3 * k)
            R[:, ab] -= colf @ G
            # multiply-adds: G, then R's feature columns times the k
            # 3 x 3 inverses and times G
            fc.add(adds=45 * m * k + 108 * k, muls=45 * m * k + 108 * k)
            # each feature's 3 x 3 diagonal block went dense; its rows are
            # the only ones with entries below the diagonal, so each
            # feature's 3-row slab is re-triangularized on its own
            for s in starts:
                slab, _ = linalg.householder_qr(R[s:s + 3, s:], flops=fc)
                R[s:s + 3, s:] = linalg.sign_normalize_rows(slab)
        for i in ok.tolist():
            feats[i].anchor_pose_id = new_id
            feats[i].params = re.params[i]
        return behind

    def _marginalize(self, frame):
        """Remove everything that leaves the state this frame with one
        `_marginalize_blocks` call: the features whose track broke or that
        `_assemble_rows` flagged and, once the window is full, its oldest
        pose. The pose's other features first move to the newest pose;
        those behind their new anchor leave with it."""
        present = set(frame.feature_ids.tolist())
        leaving = {f.id for f in self.x.features
                   if f.id not in present} | self._drop_next
        self._drop_next = set()
        poses = []
        if len(self.x.poses) > self.cfg.window:
            departing = self.x.poses[0]
            # reanchoring changes only the moved features' variables, so a
            # feature that leaves anyway leaves with its old anchor
            moving = [f for f in self.x.features
                      if f.anchor_pose_id == departing.id
                      and f.id not in leaving]
            if moving:
                leaving.update(self._reanchor(moving, departing.id,
                                              self.x.poses[-1].id))
            # no buffered track observes the departing pose: the last
            # update used or dropped every track that had reached window - 1
            # observations or ended, so each one left holds at most
            # window - 2, from consecutive frames ending at the previous
            # one, and its oldest is two frames newer than this pose
            del self.frame_motion[departing.id]
            poses = [f"pose:{departing.id}"]
        names = [f"feat:{f.id}" for f in self.x.features
                 if f.id in leaving] + poses
        if names:
            self._marginalize_blocks(names)

    # -- update -----------------------------------------------------------

    def _insert_features(self, feats):
        """Grow the state by new features, each with an independent weak
        prior, in one embedding of the covariance or factor."""
        if not feats:
            return
        old_layout = self.layout
        self.x.features.extend(feats)
        self.layout = layout_of(self.x)
        n = self.layout.n
        idx = _embed(old_layout, self.layout)
        fresh = np.ones(n, dtype=bool)
        fresh[idx] = False
        new = np.flatnonzero(fresh)   # 3 per feature, in order
        sig = np.tile(PRIOR_SIGMA["feat"], len(feats))
        old, diag = (self.P, sig ** 2) if self.is_kf else (self.R, 1.0 / sig)
        M = np.zeros((n, n), dtype=old.dtype)
        M[np.ix_(idx, idx)] = old
        M[new, new] = diag
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
        cameras = window_cameras(self.x, self.frame_motion)
        in_state = {f.id: f for f in self.x.features}
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
        groups = []   # (feature, [(pose id, pixel), ...], is short track)
        inserted = []
        for fid, obs in seen:
            if fid in in_state:
                groups.append((in_state[fid], obs, False))
            elif fid in theta:
                feat = InverseDepthFeature(obs[0][0], theta[fid], id=fid)
                inserted.append(feat)
                del self.track_buf[fid]
                groups.append((feat, obs, False))
            elif len(obs) >= self.cfg.window - 1:
                # capped: as a short track it would triangulate the same
                # views and fail the same way
                del self.track_buf[fid]
        # pass 1 reads nothing from the layout, so the features it
        # inserts enter the state together
        self._insert_features(inserted)
        groups += [(InverseDepthFeature(obs[0][0], theta[fid], id=fid), obs,
                    True) for fid, obs in candidates[n_slam:] if fid in theta]
        if not groups:
            return None
        return self._assemble_rows(groups, cameras)

    def _assemble_rows(self, groups, cameras):
        """Pass 2 of `_collect_measurements`."""
        views = [(feat.anchor_pose_id, pid, feat.params, px)
                 for feat, obs, _ in groups for pid, px in obs]
        anchor, observer, params, pixels = (np.array(c) for c in zip(*views))
        proj = project_feature(cameras, self.x.intrinsics, anchor, observer,
                               params)
        J = np.concatenate(proj[2:], axis=2)     # (k, 2, 26)
        resid = pixels - proj.pixel
        # each observation's x2 column per Jacobian column; a short track's
        # feature has none, and its block is eliminated before writing
        lay = self.layout
        n1 = lay.n1
        pose_col = np.array(self._pose_offsets_x2())
        sizes = [len(obs) for _, obs, _ in groups]
        feat_col = np.repeat([0 if track else lay.offset(f"feat:{feat.id}") - n1
                              for feat, _, track in groups], sizes)
        cols = np.empty((len(J), J.shape[2]), dtype=np.intp)
        cols[:, 0:6] = pose_col[cameras.rows(anchor)][:, None] + np.arange(6)
        cols[:, 6:12] = pose_col[cameras.rows(observer)][:, None] + np.arange(6)
        cols[:, 12:15] = feat_col[:, None] + np.arange(3)
        cols[:, 15:] = np.concatenate(
            [np.arange(d) + lay.offset(nm) - n1
             for nm, d in (("p_ic", 3), ("q_ic", 3), ("tsync", 1), ("intr", 4))])
        no_feature = np.r_[0:12, 15:cols.shape[1]]

        slam = np.zeros(len(views), dtype=bool)
        tracks = []   # each short track's observations in front of the camera
        stop = 0
        for (feat, obs, track), size in zip(groups, sizes):
            start, stop = stop, stop + size
            front = proj.in_front[start:stop]
            if track:
                keep = start + np.flatnonzero(front)
                if len(keep) >= 2:
                    tracks.append(keep)
                continue
            good = size if front.all() else int(np.argmin(front))
            slam[start:start + good] = True
            if good < size:
                self._drop_next.add(feat.id)

        Hx, rx = np.empty((0, lay.n2)), np.empty(0)
        if tracks:
            keep = np.concatenate(tracks)
            Hx = np.zeros((2 * len(keep), lay.n2))
            _scatter_rows(Hx, cols[keep][:, no_feature],
                          J[keep][:, :, no_feature])
            Hx, rx, _ = msckf_nullspace_project(
                proj.feature[keep].reshape(-1, 3), Hx, resid[keep].ravel(),
                [2 * len(k) for k in tracks])
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
        n1 = self.layout.n1
        est = self.cfg.estimator
        if est == "kf":
            dx, self.P = filters.kf_update(self.P, H2, r, n1, flops=fc)
            return dx
        if est == "srif":
            res = filters.srif_update_partitioned(self.R, H2, r, n1, flops=fc)
        elif est == "pcsrif":   # a NotPositiveDefinite aborts the run
            res = filters.pcsrif_update(self.R, H2, r, n1,
                                        self._pose_offsets_x2(), flops=fc)
        else:  # if-oracle, with a float64 QR shadow for error flagging
            ref = filters.srif_update_partitioned(
                self.R.astype(np.float64), H2.astype(np.float64),
                r.astype(np.float64), n1)
            try:
                res = filters.if_update_oracle(self.R, H2, r, n1, flops=fc)
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
        # diagnostics from the first frame on, every SVD_STRIDE frames; the
        # prior factor is only read when they are due
        due = not self.is_kf and (frame.index - 1) % SVD_STRIDE == 0
        n1 = self.layout.n1
        prior_R22 = np.array(self.R[n1:, n1:], dtype=np.float64) if due else None
        if rows is not None:
            dx = self._apply_update(*rows, frame.t)
            self.x = boxplus(self.x, np.asarray(dx, dtype=np.float64),
                             self.layout)
        if due:
            self._record_diagnostics(frame, prior_R22)

    # -- diagnostics ------------------------------------------------------

    def _persistent_indices(self):
        lay = self.layout
        newest = f"pose:{self.x.poses[-1].id}"
        sl = [lay.slice(nm) for nm in
              ("bg", "ba", "v", "tsync", newest, "intr", "p_ic", "q_ic")]
        return np.concatenate([np.arange(s.start, s.stop) for s in sl])

    def _record_diagnostics(self, frame, prior_R22):
        n1 = self.layout.n1
        R22_post = np.asarray(self.R[n1:, n1:], dtype=np.float64)
        pc = filters.build_preconditioner(R22_post, self._pose_offsets_x2())
        Psub = self._covariance(self._persistent_indices())
        if self._scale_freeze is None and frame.t >= 10.0:
            self._scale_freeze = np.sqrt(np.diag(Psub))
        s = (self._scale_freeze if self._scale_freeze is not None
             else np.sqrt(np.diag(Psub)))
        P_scaled = Psub / np.outer(s, s)
        self.conditioning.append(record_conditioning(
            frame.t, R22_post, pc, prior_R22, P_scaled))

    # -- main loop ---------------------------------------------------------

    def run(self):
        seconds = dict.fromkeys(PHASES, 0.0)
        for frame in self.ds.frames[1:]:
            for phase, work in (("propagation", self._propagate),
                                ("marginalization", self._marginalize),
                                ("update", self._update)):
                t0 = time.perf_counter()
                try:
                    work(frame)
                except Exception as exc:
                    raise EstimatorAbort(frame.t, phase, exc) from exc
                seconds[phase] += time.perf_counter() - t0
            pose = self.x.poses[-1]
            self.times.append(frame.t)
            self.positions.append(pose.p.copy())
            self.quats.append(pose.q.copy())
        return RunResult(
            self.cfg, np.array(self.times), np.array(self.positions),
            np.array(self.quats),
            {ph: self.flops[ph].total() for ph in PHASES},
            self.conditioning, self.events, seconds=seconds)


def run_filter(dataset, config: FilterConfig) -> RunResult:
    return VinsEstimator(dataset, config).run()
