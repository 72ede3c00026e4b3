"""Per-frame estimator engine driving the SRIF / PC-SRIF / IF / KF backends.

All backends share one codebase for state bookkeeping (window management,
feature promotion and reanchoring, short-track consumption, measurement
assembly); they differ only in how the Gaussian is represented and updated.
This keeps their estimates identical up to floating-point error, which the
cross-estimator equivalence checks rely on.

Each frame runs propagation -> marginalization -> update, with FLOPs
accounted per phase. Jacobian evaluation and bookkeeping are not counted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import filters
from .diag import ConditioningLog, record_conditioning
from .linalg import FlopCounter, NotPositiveDefinite, solve_upper
from .models import (
    BehindCamera,
    ImuNoise,
    NonPositiveDepth,
    RankDeficientFeature,
    camera_pose,
    imu_transition,
    msckf_nullspace_project,
    project_feature,
    reanchor_feature,
    triangulate_inverse_depth,
    whiten,
)
from .state import (
    InverseDepthFeature,
    Pose,
    VinsStateVector,
    boxplus,
    layout_of,
    quat_from_rotvec,
    quat_mul,
)

ESTIMATORS = ("kf", "srif", "pcsrif", "if-oracle")
PRECISIONS = {"binary32": np.float32, "binary64": np.float64}

PHASES = ("propagation", "marginalization", "update")


@dataclass
class FilterConfig:
    estimator: str = "srif"
    precision: str = "binary64"
    window: int = 11            # max poses kept in the sliding window
    min_track: int = 3          # observations needed before a track is used
    fallback_qr: bool = False   # on Cholesky failure, redo the step via QR
    svd_stride: int = 10
    count_flops: bool = True
    sigma_px: float = 0.0       # assumed pixel noise; 0 = take the dataset's
    # initial standard deviations (the first pose fixes the gauge)
    sigma_p0: float = 1e-3
    sigma_theta0: float = 1e-3
    sigma_v0: float = 1e-2
    sigma_bg0: float = 3e-3
    sigma_ba0: float = 1e-2
    sigma_tsync0: float = 5e-3
    sigma_intr0: float = 1e-1
    sigma_pic0: float = 1e-3
    sigma_qic0: float = 1e-3
    sigma_bearing0: float = 0.1   # weak prior for freshly inserted features
    sigma_rho0: float = 1.0

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.precision not in PRECISIONS:
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.window < 2:
            raise ValueError("window must hold at least two poses")


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
    nees: np.ndarray | None = None  # per-frame position NEES, when requested
    seconds: dict = field(default_factory=dict)  # phase -> wall seconds


def _prior_sigmas(cfg, layout):
    s = np.empty(layout.n)
    s[layout.slice("bg")] = cfg.sigma_bg0
    s[layout.slice("ba")] = cfg.sigma_ba0
    s[layout.slice("v")] = cfg.sigma_v0
    s[layout.slice("tsync")] = cfg.sigma_tsync0
    for name in layout.pose_names():
        off = layout.offset(name)
        s[off:off + 3] = cfg.sigma_p0
        s[off + 3:off + 6] = cfg.sigma_theta0
    s[layout.slice("intr")] = cfg.sigma_intr0
    s[layout.slice("p_ic")] = cfg.sigma_pic0
    s[layout.slice("q_ic")] = cfg.sigma_qic0
    return s


def _embed(old_layout, new_layout):
    """Scalar index map old -> new for blocks present in both layouts."""
    idx = np.empty(old_layout.n, dtype=int)
    for name, off, dim in old_layout.blocks:
        noff = new_layout.offset(name)
        idx[off:off + dim] = np.arange(noff, noff + dim)
    return idx


class VinsEstimator:
    """One filter instance consuming a simulated dataset frame by frame."""

    def __init__(self, dataset, config: FilterConfig, perturb_rng=None):
        self.ds = dataset
        self.cfg = config
        self.dtype = PRECISIONS[config.precision]
        self.is_kf = config.estimator == "kf"
        self.flops = {ph: FlopCounter() for ph in PHASES}
        self._fc = self.flops if config.count_flops else {
            ph: None for ph in PHASES}
        self.cond_log = ConditioningLog(config.svd_stride)
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
        if perturb_rng is not None:
            # draw the initial error from the prior so NEES is meaningful
            lay0 = layout_of(x)
            delta = perturb_rng.normal(size=lay0.n) * _prior_sigmas(
                self.cfg, lay0)
            x = boxplus(x, delta, lay0)
        self.x = x
        self.layout = layout_of(x)
        sig = _prior_sigmas(config, self.layout)
        if self.is_kf:
            self.P = np.diag(sig ** 2).astype(self.dtype)
            self.R = None
        else:
            self.R = np.diag(1.0 / sig).astype(self.dtype)
            self.P = None
        self.sigma_px = config.sigma_px or (
            spec.sigma_px if spec.sigma_px > 0 else 1.0)
        self.frame_motion = {0: (x.v.copy(), truth.omegas[0] - x.bg)}
        self.track_buf = {}       # fid -> list of (pose_id, pixel)
        self._drop_next = set()   # feature ids to marginalize out
        self._step_per_frame = int(round(spec.imu_rate / spec.cam_rate))
        self.times = [0.0]
        self.positions = [x.poses[0].p.copy()]
        self.quats = [x.poses[0].q.copy()]
        self.nees = []

    # -- representation helpers ------------------------------------------

    def _pose_offsets_x2(self):
        n1 = self.layout.n1
        return [off - n1 for off in self.layout.pose_offsets()]

    def _covariance(self):
        if self.is_kf:
            return np.asarray(self.P, dtype=np.float64)
        Rinv = solve_upper(np.asarray(self.R, dtype=np.float64),
                           np.eye(self.layout.n))
        return Rinv @ Rinv.T

    # -- propagation ------------------------------------------------------

    def _propagate(self, frame):
        fc = self._fc["propagation"]
        i0 = (frame.index - 1) * self._step_per_frame
        i1 = frame.index * self._step_per_frame
        samples = self.ds.imu_samples(i0, i1)
        old_pose = self.x.poses[-1]
        tb = imu_transition(self.x.bg, self.x.ba, self.x.v, old_pose,
                            samples, self.ds.spec.noise)
        tb.new_pose.id = frame.index
        tb.new_pose.t = frame.t
        new_name = f"pose:{frame.index}"
        old_name = f"pose:{old_pose.id}"

        if self.is_kf:
            old_layout = self.layout
            self.x.poses.append(tb.new_pose)
            self.x.v = tb.new_v.copy()
            self.layout = layout_of(self.x)
            F = np.zeros((self.layout.n, old_layout.n))
            keep = _embed(old_layout, self.layout)
            for name, off, dim in old_layout.blocks:
                if name in ("bg", "ba", "v"):
                    continue
                F[keep[off:off + dim], off:off + dim] = np.eye(dim)
            sel = np.concatenate([np.arange(9),
                                  old_layout.offset(old_name) + np.arange(6)])
            rows = np.concatenate([
                np.arange(9),
                self.layout.offset(new_name) + np.arange(6)])
            F[np.ix_(rows, sel)] = tb.phi[np.r_[0:9, 9:15]][:, np.r_[0:9, 9:15]]
            L = tb.sqrt_info
            Linv = solve_upper(L, np.eye(15))
            Q15 = Linv @ Linv.T
            Q = np.zeros((self.layout.n, self.layout.n))
            Q[np.ix_(rows, rows)] = Q15
            self.P = filters.kf_propagate(
                np.asarray(self.P, dtype=self.dtype),
                F.astype(self.dtype), Q.astype(self.dtype), flops=fc)
        else:
            R_aug, layout_aug = filters.srif_augment(
                self.R, self.layout, tb, old_name, new_name, flops=fc)
            self.R = R_aug[9:, 9:].copy()  # old bias/velocity: p = 0 nine times
            self.x.poses.append(tb.new_pose)
            self.x.v = tb.new_v.copy()
            self.layout = layout_of(self.x)
            assert self.layout.n == layout_aug.n - 9

        last = samples[-1]
        self.frame_motion[frame.index] = (
            self.x.v.copy(), last.omega - self.x.bg)

    # -- marginalization --------------------------------------------------

    def _marginalize_features(self, fids):
        names = [f"feat:{fid}" for fid in fids
                 if f"feat:{fid}" in self.layout.index]
        if not names:
            return
        fc = self._fc["marginalization"]
        idx = sorted(np.concatenate(
            [np.arange(*[self.layout.offset(nm), self.layout.offset(nm) + 3])
             for nm in names]).tolist())
        if self.is_kf:
            keep = np.setdiff1d(np.arange(self.layout.n), idx)
            self.P = self.P[np.ix_(keep, keep)]
        else:
            self.R = filters.marginalize_block(self.R, idx, flops=fc)
        dead = {int(nm.split(":")[1]) for nm in names}
        self.x.features = [f for f in self.x.features if f.id not in dead]
        self.layout = layout_of(self.x)

    def _reanchor_jacobian(self, feat, old_anchor, new_anchor):
        """FD Jacobian of the reanchored parameters w.r.t. the error states."""
        h = 1e-6
        base = reanchor_feature(feat, old_anchor, new_anchor,
                                self.x.p_ic, self.x.q_ic)

        def perturbed(dfeat, da, db):
            f = feat.copy()
            f.params = f.params + dfeat
            oa, nb = old_anchor.copy(), new_anchor.copy()
            oa.p = oa.p + da[:3]
            oa.q = quat_mul(quat_from_rotvec(da[3:]), oa.q)
            nb.p = nb.p + db[:3]
            nb.q = quat_mul(quat_from_rotvec(db[3:]), nb.q)
            return reanchor_feature(f, oa, nb, self.x.p_ic, self.x.q_ic).params

        cols = []
        z3, z6 = np.zeros(3), np.zeros(6)
        for k in range(3):
            d = np.zeros(3)
            d[k] = h
            cols.append((perturbed(d, z6, z6) - perturbed(-d, z6, z6)) / (2 * h))
        Jff = np.column_stack(cols)
        cols_a, cols_b = [], []
        for k in range(6):
            d = np.zeros(6)
            d[k] = h
            cols_a.append((perturbed(z3, d, z6) - perturbed(z3, -d, z6)) / (2 * h))
            cols_b.append((perturbed(z3, z6, d) - perturbed(z3, z6, -d)) / (2 * h))
        return base, Jff, np.column_stack(cols_a), np.column_stack(cols_b)

    def _reanchor(self, feat, old_anchor, new_anchor):
        base, Jff, Jfa, Jfb = self._reanchor_jacobian(feat, old_anchor,
                                                      new_anchor)
        lay = self.layout
        sf = lay.slice(f"feat:{feat.id}")
        sa = lay.slice(f"pose:{old_anchor.id}")
        sb = lay.slice(f"pose:{new_anchor.id}")
        fc = self._fc["marginalization"]
        if self.is_kf:
            J = np.eye(lay.n)
            J[sf, sf] = Jff
            J[sf, sa] = Jfa
            J[sf, sb] = Jfb
            J = J.astype(self.P.dtype)
            self.P = J @ self.P @ J.T
            self.P = 0.5 * (self.P + self.P.T)
        else:
            # R <- R J^-1 stays upper triangular: the feature columns sit
            # left of both pose columns, so the correction only spreads
            # feature columns rightward
            Jff_inv = np.linalg.inv(Jff).astype(self.R.dtype)
            colf = np.array(self.R[:, sf])
            self.R[:, sf] = colf @ Jff_inv
            self.R[:, sa] -= colf @ (Jff_inv @ Jfa.astype(self.R.dtype))
            self.R[:, sb] -= colf @ (Jff_inv @ Jfb.astype(self.R.dtype))
            if fc is not None:
                m = self.R.shape[0]
                fc.add(adds=3 * 3 * m * 3, muls=3 * 3 * m * 3 + 54)
            # the 3x3 feature diagonal block went dense; its rows are the
            # only ones with entries below the diagonal, so rotate just them
            from .linalg import givens_triangularize, sign_normalize_rows
            slab = self.R[sf, sf.start:]
            givens_triangularize(slab, flops=fc)
            sign_normalize_rows(slab)
        feat.anchor_pose_id = new_anchor.id
        feat.params = base.params

    def _marginalize(self, frame):
        # features whose track broke get removed before the pose slides
        present = set(frame.feature_ids.tolist())
        broken = {f.id for f in self.x.features if f.id not in present}
        self._marginalize_features(broken | self._drop_next)
        self._drop_next = set()

        if len(self.x.poses) <= self.cfg.window:
            return
        fc = self._fc["marginalization"]
        departing = self.x.poses[0]
        newest = self.x.poses[-1]
        drop = set()
        for feat in self.x.features:
            if feat.anchor_pose_id != departing.id:
                continue
            try:
                self._reanchor(feat, departing, newest)
            except NonPositiveDepth:
                drop.add(feat.id)
        self._marginalize_features(drop)
        # discard buffered short-track observations at the departing pose
        for fid, obs in list(self.track_buf.items()):
            self.track_buf[fid] = [o for o in obs if o[0] != departing.id]
            if not self.track_buf[fid]:
                del self.track_buf[fid]

        off = self.layout.offset(f"pose:{departing.id}")
        idx = list(range(off, off + 6))
        if self.is_kf:
            keep = np.setdiff1d(np.arange(self.layout.n), idx)
            self.P = self.P[np.ix_(keep, keep)]
        else:
            self.R = filters.marginalize_block(self.R, idx, flops=fc)
        self.x.poses = self.x.poses[1:]
        del self.frame_motion[departing.id]
        self.layout = layout_of(self.x)

    # -- update -----------------------------------------------------------

    def _cam_pose_at(self, pose_id):
        pose = next(p for p in self.x.poses if p.id == pose_id)
        return camera_pose(pose, self.x.p_ic, self.x.q_ic,
                           self.frame_motion.get(pose_id),
                           self.x.tsync)[:2]

    def _insert_feature(self, feat):
        """Grow the state by one feature with an independent weak prior."""
        old_layout = self.layout
        self.x.features.append(feat)
        self.layout = layout_of(self.x)
        idx = _embed(old_layout, self.layout)
        sf = self.layout.slice(f"feat:{feat.id}")
        sig = np.array([self.cfg.sigma_bearing0, self.cfg.sigma_bearing0,
                        self.cfg.sigma_rho0])
        if self.is_kf:
            P = np.zeros((self.layout.n, self.layout.n), dtype=self.P.dtype)
            P[np.ix_(idx, idx)] = self.P
            P[sf, sf] = np.diag(sig ** 2).astype(self.P.dtype)
            self.P = P
        else:
            R = np.zeros((self.layout.n, self.layout.n), dtype=self.R.dtype)
            R[np.ix_(idx, idx)] = self.R
            R[sf, sf] = np.diag(1.0 / sig).astype(self.R.dtype)
            self.R = R

    def _try_triangulate(self, obs):
        pixels = [px for _, px in obs]
        mats = [self._cam_pose_at(pid) for pid, _ in obs]
        rots = [m[0] for m in mats]
        centers = [m[1] for m in mats]
        return triangulate_inverse_depth(pixels, rots, centers,
                                         self.x.intrinsics)

    def _slam_rows(self, feat, pose_id, pixel, meas):
        pred, blocks = project_feature(self.x, feat, pose_id,
                                       frame_motion=self.frame_motion)
        meas.append(whiten(pixel - pred, blocks, self.sigma_px))

    def _consume_msckf(self, fid, obs, meas):
        """Triangulate a finished short track and add its projected rows."""
        try:
            theta = self._try_triangulate(obs)
        except RankDeficientFeature:
            return
        feat = InverseDepthFeature(obs[0][0], theta, id=fid)
        rows_f, rows_x, resid = [], [], []
        for pid, px in obs:
            try:
                pred, blocks = project_feature(self.x, feat, pid,
                                               frame_motion=self.frame_motion)
            except BehindCamera:
                continue
            rows_f.append(blocks.pop(f"feat:{fid}"))
            rows_x.append(blocks)
            resid.append(px - pred)
        if len(resid) < 2:
            return
        names = sorted({k for b in rows_x for k in b})
        m2 = 2 * len(resid)
        Hx = {nm: np.zeros((m2, self.layout.dim(nm))) for nm in names}
        for i, b in enumerate(rows_x):
            for nm, J in b.items():
                Hx[nm][2 * i:2 * i + 2] = J
        Hf = np.vstack(rows_f)
        r = np.concatenate(resid)
        try:
            blocks, r_proj = msckf_nullspace_project(Hf, Hx, r)
        except RankDeficientFeature:
            return
        meas.append(whiten(r_proj, blocks, self.sigma_px))

    def _collect_measurements(self, frame):
        meas = []
        in_state = {f.id: f for f in self.x.features}
        pose_ids = {p.id for p in self.x.poses}
        for fid, kind, px in zip(frame.feature_ids, frame.kinds, frame.pixels):
            fid = int(fid)
            if fid in in_state:
                try:
                    self._slam_rows(in_state[fid], frame.index, px, meas)
                except BehindCamera:
                    self._drop_next.add(fid)
                continue
            self.track_buf.setdefault(fid, []).append((frame.index, px))
            obs = self.track_buf[fid]
            if kind == 0 and len(obs) >= self.cfg.min_track:
                if not all(pid in pose_ids for pid, _ in obs):
                    self.track_buf[fid] = obs[-1:]
                    continue
                try:
                    theta = self._try_triangulate(obs)
                except RankDeficientFeature:
                    continue
                feat = InverseDepthFeature(obs[0][0], theta, id=fid)
                self._insert_feature(feat)
                del self.track_buf[fid]
                for pid, opx in obs:  # delayed initialization
                    try:
                        self._slam_rows(feat, pid, opx, meas)
                    except BehindCamera:
                        self._drop_next.add(fid)
                        break
        # finished or capped short tracks
        present = set(int(f) for f in frame.feature_ids)
        for fid, obs in list(self.track_buf.items()):
            ended = fid not in present
            capped = len(obs) >= self.cfg.window - 1
            if not (ended or capped):
                continue
            del self.track_buf[fid]
            if len(obs) >= self.cfg.min_track and all(
                    pid in pose_ids for pid, _ in obs):
                self._consume_msckf(fid, obs, meas)
        return meas

    def _apply_update(self, H2, r, t):
        fc = self._fc["update"]
        n1 = self.layout.n1
        est = self.cfg.estimator
        if est == "kf":
            H = np.zeros((H2.shape[0], self.layout.n), dtype=self.dtype)
            H[:, n1:] = H2
            dx, self.P = filters.kf_update(self.P, H, r, flops=fc)
            return dx
        if est == "srif":
            res = filters.srif_update_partitioned(self.R, H2, r, n1, flops=fc)
        elif est == "pcsrif":
            try:
                res = filters.pcsrif_update(self.R, H2, r, n1,
                                            self._pose_offsets_x2(), flops=fc)
            except NotPositiveDefinite:
                self.events.append(InstabilityEvent(
                    t, "not-positive-definite", float("nan")))
                if not self.cfg.fallback_qr:
                    raise
                res = filters.srif_update_partitioned(self.R, H2, r, n1,
                                                      flops=fc)
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
                res = filters.UpdateResult(
                    ref.dx.astype(self.dtype), ref.R_post.astype(self.dtype),
                    fc)
        self.R = res.R_post
        return res.dx

    def _update(self, frame):
        meas = self._collect_measurements(frame)
        prior_R22 = (None if self.is_kf else
                     np.array(self.R[9:, 9:], dtype=np.float64))
        if meas:
            m = sum(len(z.residual) for z in meas)
            H = np.zeros((m, self.layout.n))
            r = np.empty(m)
            off = 0
            for z in meas:
                k = len(z.residual)
                H[off:off + k] = z.to_dense(self.layout)
                r[off:off + k] = z.residual
                off += k
            H2 = H[:, 9:].astype(self.dtype)
            dx = self._apply_update(H2, r.astype(self.dtype), frame.t)
            self.x = boxplus(self.x, np.asarray(dx, dtype=np.float64),
                             self.layout)
        self._record_diagnostics(frame, prior_R22)

    # -- diagnostics ------------------------------------------------------

    def _persistent_indices(self):
        lay = self.layout
        newest = f"pose:{self.x.poses[-1].id}"
        sl = [lay.slice(nm) for nm in
              ("bg", "ba", "v", "tsync", newest, "intr", "p_ic", "q_ic")]
        return np.concatenate([np.arange(s.start, s.stop) for s in sl])

    def _record_diagnostics(self, frame, prior_R22):
        if self.is_kf or not self.cond_log.due():
            self.cond_log.tick()
            return
        R22_post = np.asarray(self.R[9:, 9:], dtype=np.float64)
        pc = filters.build_preconditioner(R22_post, self._pose_offsets_x2())
        P = self._covariance()
        idx = self._persistent_indices()
        Psub = P[np.ix_(idx, idx)]
        if self._scale_freeze is None and frame.t >= 10.0:
            self._scale_freeze = np.sqrt(np.diag(Psub))
        s = (self._scale_freeze if self._scale_freeze is not None
             else np.sqrt(np.diag(Psub)))
        P_scaled = Psub / np.outer(s, s)
        rec = record_conditioning(frame.t, R22_post, pc,
                                  R22_prior=prior_R22, P_scaled=P_scaled)
        self.cond_log.tick(rec)

    def _position_nees(self, truth_pos):
        lay = self.layout
        sl = lay.slice(f"pose:{self.x.poses[-1].id}")
        e = self.x.poses[-1].p - truth_pos
        Ppos = self._covariance()[sl, sl][:3, :3]
        return float(e @ np.linalg.solve(Ppos, e))

    # -- main loop ---------------------------------------------------------

    def run(self, with_nees=False):
        step = self._step_per_frame
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
            if with_nees:
                self.nees.append(self._position_nees(
                    self.ds.truth.positions[frame.index * step]))
        return RunResult(
            self.cfg, np.array(self.times), np.array(self.positions),
            np.array(self.quats),
            {ph: (self.flops[ph].total() if self.cfg.count_flops else 0)
             for ph in PHASES},
            self.cond_log.records, self.events,
            np.array(self.nees) if with_nees else None,
            seconds=seconds)


def run_filter(dataset, config: FilterConfig, with_nees=False,
               perturb_rng=None) -> RunResult:
    return VinsEstimator(dataset, config, perturb_rng=perturb_rng).run(
        with_nees=with_nees)
