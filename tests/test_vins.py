"""End-to-end filter runs on synthetic visual-inertial scenarios."""

import copy
import dataclasses
import importlib
import importlib.util
import inspect
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from srifkit import models, vins
from srifkit.linalg import UNCOUNTED, NotPositiveDefinite
from srifkit.models import (
    DEGENERATE,
    MIN_DEPTH,
    ImuNoise,
    window_cameras,
)
from srifkit.sim import (
    ScenarioSpec,
    conditioning_scenario,
    default_scenario,
    gen_dataset,
)
from srifkit.state import N1, boxplus, layout_of
from srifkit.vins import ESTIMATORS, FilterConfig, run_filter

from model_reference import (
    BehindCamera,
    RankDeficientFeature,
    msckf_nullspace_project_by_track,
    project_feature_by_observation,
    triangulate_by_track,
)


def _short(seed=0, duration=15.0):
    return dataclasses.replace(default_scenario(seed), duration=duration)


def triangulate_track(est, obs, cameras):
    """`triangulate_by_track` of one track's (pose id, pixel) pairs."""
    rows = cameras.rows([pid for pid, _ in obs])
    return triangulate_by_track([px for _, px in obs], cameras.R_wc[rows],
                                cameras.t_wc[rows], est.x.intrinsics)


def rows_by_observation(est, frame, min_depth=MIN_DEPTH,
                        triangulate=triangulate_track):
    """The frame's (H2, r) as the engine assembled them before projection,
    triangulation and the null-space projection were batched: one oracle
    triangulation per attempt (a would-be SLAM feature that fails in its
    capped frame is tried again as a short track), one oracle projection
    per observation, whitened into rows over the error state of the
    moment, one oracle null-space projection per short track, and the
    rows stacked into H2 at the end, at the columns of the final layout.
    Mutates `est` as `_collect_measurements` does; None when no row is
    made."""
    cameras = window_cameras(est.x, est.motion)
    inv = 1.0 / est.sigma_px
    meas = []   # (whitened residual, whitened rows, the layout of their columns)

    def project(anchor, params, pid):
        return project_feature_by_observation(est.x, anchor, params, pid,
                                              est.motion, min_depth)

    def rows_over(blocks, lay):
        """2 rows over the error state of `lay` from {offset: 2 x dim}."""
        H = np.zeros((2, lay.n))
        for off, J in blocks.items():
            H[:, off:off + J.shape[1]] = J
        return H

    def slam_rows(k, pid, px):
        pred, Jf, blocks = project(est.x.anchor_ids[k], est.x.params[k], pid)
        lay = layout_of(est.x)
        blocks[lay.feature_cols(k)[0]] = Jf
        meas.append(((px - pred) * inv, rows_over(blocks, lay) * inv, lay))

    in_state = {fid: k for k, fid in enumerate(est.x.feature_ids.tolist())}
    pose_ids = set(est.x.pose_ids.tolist())
    for fid, kind, px in zip(frame.feature_ids, frame.kinds, frame.pixels):
        fid = int(fid)
        if fid in in_state:
            try:
                slam_rows(in_state[fid], frame.index, px)
            except BehindCamera:
                est._drop_next.add(fid)
            continue
        est.track_buf.setdefault(fid, []).append((frame.index, px))
        obs = est.track_buf[fid]
        if kind == 0 and len(obs) >= vins.MIN_TRACK:
            if not all(pid in pose_ids for pid, _ in obs):
                est.track_buf[fid] = obs[-1:]
                continue
            try:
                theta = triangulate(est, obs, cameras)
            except RankDeficientFeature:
                continue
            est._insert_features([fid], [obs[0][0]], [theta])
            del est.track_buf[fid]
            for pid, opx in obs:  # delayed initialization
                try:
                    slam_rows(len(est.x.feature_ids) - 1, pid, opx)
                except BehindCamera:
                    est._drop_next.add(fid)
                    break
    present = set(int(f) for f in frame.feature_ids)
    for fid, obs in list(est.track_buf.items()):
        if fid in present and len(obs) < est.cfg.window - 1:
            continue
        del est.track_buf[fid]
        if len(obs) < vins.MIN_TRACK or not all(
                pid in pose_ids for pid, _ in obs):
            continue
        try:
            theta = triangulate(est, obs, cameras)
        except RankDeficientFeature:
            continue
        lay = layout_of(est.x)
        rows_f, rows_x, resid = [], [], []
        for pid, px in obs:
            try:
                pred, Jf, blocks = project(obs[0][0], theta, pid)
            except BehindCamera:
                continue
            rows_f.append(Jf)
            rows_x.append(rows_over(blocks, lay))
            resid.append(px - pred)
        if len(resid) < 2:
            continue
        try:
            t, r_proj = msckf_nullspace_project_by_track(
                np.vstack(rows_f), np.vstack(rows_x), np.concatenate(resid))
        except RankDeficientFeature:
            continue
        meas.append((r_proj * inv, t * inv, lay))
    if not meas:
        return None
    final = layout_of(est.x)
    m = sum(len(res) for res, _, _ in meas)
    H2 = np.zeros((m, final.n2))
    r = np.empty(m)
    off = 0
    for res, H, lay in meas:
        assert not H[:, :N1].any()
        # the features inserted after these rows were made come right
        # before tsync
        cols = np.r_[0:lay.tsync, lay.tsync + 3 * (final.n_features
                                                   - lay.n_features):final.n]
        H2[off:off + len(res), cols[N1:] - N1] = H[:, N1:]
        r[off:off + len(res)] = res
        off += len(res)
    return H2, r


def state_bytes(x):
    """Every array and number of an estimate, as bytes."""
    return [np.asarray(value).tobytes() for value in vars(x).values()]


def window_ids(est):
    """The feature and pose ids in the order the layout holds them."""
    return est.x.feature_ids.tolist(), est.x.pose_ids.tolist()


def _capture_updates(est):
    """Record the (H2, r) of every update `est` applies."""
    seen = []
    apply = est._apply_update

    def capture(H2, r, t):
        seen.append((H2.copy(), r.copy()))
        return apply(H2, r, t)

    est._apply_update = capture
    return seen


class TestConfigValidation:
    CHOICES = {"estimator", "precision", "window"}
    # the priors, the pixel noise, the track length, the QR fallback and
    # the diagnostics stride are no longer settable; each name must stay
    # refused, or come back validated
    SIGMA0 = ("sigma_p0", "sigma_theta0", "sigma_v0", "sigma_bg0",
              "sigma_ba0", "sigma_tsync0", "sigma_intr0", "sigma_pic0",
              "sigma_qic0", "sigma_bearing0", "sigma_rho0")
    BAD = ([("sigma_px", v) for v in (-1.0, np.nan, np.inf)]
           + [(name, 0.0) for name in SIGMA0]
           + [("sigma_rho0", v) for v in (-1.0, np.nan, np.inf, -np.inf)]
           + [("sigma_p0", np.nan), ("svd_stride", 0), ("svd_stride", -3),
              ("min_track", 1), ("min_track", 0), ("fallback_qr", True)]
           # a track leaves the buffer at window - 1 observations, so these
           # windows never gather MIN_TRACK of them for an update
           + [("window", 3), ("window", 2)]
           # a window counts poses: it must be an integer
           + [("window", 4.5), ("window", "11")])

    def test_only_the_callers_choices_are_fields(self):
        # every caller sets only these; a new knob needs a caller
        assert {f.name for f in dataclasses.fields(FilterConfig)} == self.CHOICES

    def test_run_filter_takes_only_the_dataset_and_config(self):
        assert list(inspect.signature(run_filter).parameters) == [
            "dataset", "config"]

    @pytest.mark.parametrize("name,value", BAD)
    def test_rejected_with_the_field_named(self, name, value):
        error = ValueError if name in self.CHOICES else TypeError
        with pytest.raises(error, match=name):
            FilterConfig(**{name: value})

    @pytest.mark.parametrize("window", [np.int64(4), np.int32(11)])
    def test_numpy_integer_window_accepted(self, window):
        assert FilterConfig(window=window).window == window

    def test_pixel_noise_is_the_datasets(self):
        ds = gen_dataset(dataclasses.replace(default_scenario(0), duration=1.0,
                                             sigma_px=0.5))
        assert vins.VinsEstimator(ds, FilterConfig()).sigma_px == 0.5
        # noiseless pixels are whitened at 1 px
        ds.spec = dataclasses.replace(ds.spec, sigma_px=0.0)
        assert vins.VinsEstimator(ds, FilterConfig()).sigma_px == 1.0


class TestBatchedAssembly:
    # no observation of the `default` scenario lies behind its camera at
    # the engine's minimum depth; at 5 m many do, and the 4 s run meets
    # every rule for them: an in-state feature, delayed initialization cut
    # after its first rows or at its anchor, and short tracks that lose
    # some rows or all but one
    @pytest.mark.parametrize("min_depth", [MIN_DEPTH, 5.0])
    @pytest.mark.parametrize("window", [11, 4])
    def test_rows_match_row_by_row_stacking(self, monkeypatch, window,
                                            min_depth):
        monkeypatch.setattr(models, "MIN_DEPTH", min_depth)
        ds = gen_dataset(_short(seed=0, duration=4.0))
        est = vins.VinsEstimator(ds, FilterConfig(estimator="kf", window=window))
        # an assumed pixel noise other than the data's 1 px shows the scaling
        est.sigma_px = 0.7
        seen = _capture_updates(est)
        dropped = 0
        for frame in ds.frames[1:]:
            est._propagate(frame)
            est._marginalize(frame)
            ref = copy.deepcopy(est, memo={id(ds): ds})
            n_seen = len(seen)
            est._update(frame)
            want = rows_by_observation(ref, frame, min_depth)
            assert (want is None) == (len(seen) == n_seen)
            if want is not None:
                for got, ref_rows in zip(seen[-1], want):
                    assert got.shape == ref_rows.shape
                    scale = np.abs(ref_rows).max()
                    assert np.abs(got - ref_rows).max() <= 1e-12 * scale
            assert window_ids(est) == window_ids(ref)
            assert est._drop_next == ref._drop_next
            dropped += len(est._drop_next)
            assert {fid: [pid for pid, _ in obs]
                    for fid, obs in est.track_buf.items()} == {
                fid: [pid for pid, _ in obs]
                for fid, obs in ref.track_buf.items()}
        assert len(seen) >= len(ds.frames) - 3
        assert (dropped > 0) == (min_depth > MIN_DEPTH)


    def test_frame_without_rows_leaves_the_state(self, monkeypatch):
        # no pinned scenario has a frame whose groups give no rows; with
        # every observation of a frame behind its camera `_assemble_rows`
        # returns None, and a frame that inserts no feature then leaves
        # the estimate and the factor or covariance as they were
        project = vins.project_feature
        behind = {"on": False}

        def maybe_behind(*args):
            p = project(*args)
            if behind["on"]:
                p = p._replace(in_front=np.zeros_like(p.in_front))
            return p

        monkeypatch.setattr(vins, "project_feature", maybe_behind)
        ds = gen_dataset(_short(seed=0, duration=6.0))
        for estimator in ("kf", "srif"):
            est = vins.VinsEstimator(ds, FilterConfig(estimator=estimator))
            checked = 0
            for frame in ds.frames[1:]:
                est._propagate(frame)
                est._marginalize(frame)
                probe = copy.deepcopy(est, memo={id(ds): ds})
                assembled = []
                assemble = probe._assemble_rows
                probe._assemble_rows = lambda *a: (
                    assembled.append(assemble(*a)), assembled[-1])[1]
                behind["on"] = True
                probe._update(frame)
                behind["on"] = False
                inserted = len(probe.x.feature_ids) > len(est.x.feature_ids)
                if assembled == [None] and not inserted:
                    factor = (est.P, probe.P) if est.is_kf else (est.R, probe.R)
                    assert factor[0].tobytes() == factor[1].tobytes()
                    assert state_bytes(est.x) == state_bytes(probe.x)
                    checked += 1
                est._update(frame)
            assert checked > 0, estimator


class TestTriangulationReuse:
    def test_capped_slam_candidate_is_triangulated_once(self, monkeypatch):
        # at MIN_TRACK = window - 1 a would-be SLAM feature is first tried
        # in the frame that caps its track; forced to fail there, it must
        # go through the kernel once and leave the buffer, where the
        # per-track engine tries it a second time as a short track
        ds = gen_dataset(_short(seed=0, duration=4.0))
        est = vins.VinsEstimator(ds, FilterConfig(estimator="kf", window=4))
        target = {}   # the failing track's anchor pixel, and its attempts
        kernel = vins.triangulate_inverse_depth

        def failing(pixels, *args, **kwargs):
            tri = kernel(pixels, *args, **kwargs)
            if target:
                hit = (pixels[:, 0] == target["pixel"]).all(axis=1)
                target["engine"] += int(hit.sum())
                tri.theta[hit] = np.nan
                tri.status[hit] = DEGENERATE
            return tri

        def failing_oracle(est, obs, cameras):
            if np.array_equal(obs[0][1], target["pixel"]):
                target["oracle"] += 1
                raise RankDeficientFeature("degenerate triangulation geometry")
            return triangulate_track(est, obs, cameras)

        monkeypatch.setattr(vins, "triangulate_inverse_depth", failing)
        seen = _capture_updates(est)
        for frame in ds.frames[1:]:
            est._propagate(frame)
            est._marginalize(frame)
            in_state = set(est.x.feature_ids.tolist())
            pose_ids = set(est.x.pose_ids.tolist())
            capped = [int(fid) for fid, kind in zip(frame.feature_ids,
                                                    frame.kinds)
                      if kind == 0 and int(fid) not in in_state
                      and len(est.track_buf.get(int(fid), ())) == 2
                      and all(pid in pose_ids
                              for pid, _ in est.track_buf[int(fid)])]
            if not capped:
                est._update(frame)
                continue
            fid = capped[0]
            target.update(pixel=est.track_buf[fid][0][1], engine=0, oracle=0)
            ref = copy.deepcopy(est, memo={id(ds): ds})
            n_seen = len(seen)
            est._update(frame)
            want = rows_by_observation(ref, frame, triangulate=failing_oracle)
            break
        assert target, "no would-be SLAM feature reached its capped frame"
        assert (target["engine"], target["oracle"]) == (1, 2)
        assert fid not in est.track_buf and fid not in ref.track_buf
        assert fid not in est.x.feature_ids
        assert {k: [pid for pid, _ in obs] for k, obs in est.track_buf.items()} == {
            k: [pid for pid, _ in obs] for k, obs in ref.track_buf.items()}
        assert window_ids(est) == window_ids(ref)
        assert (want is None) == (len(seen) == n_seen)
        if want is not None:
            for got, ref_rows in zip(seen[-1], want):
                assert got.shape == ref_rows.shape
                assert np.abs(got - ref_rows).max() <= 1e-12 * np.abs(ref_rows).max()


def _backends_agree(ds, window, step):
    """Step kf, srif and pcsrif at binary64 through ds, each frame by
    `step(est, frame)`, and check that their newest positions agree within
    1e-6 at every frame."""
    positions = {}
    for estimator in ("kf", "srif", "pcsrif"):
        est = vins.VinsEstimator(ds, FilterConfig(estimator=estimator,
                                                  window=window))
        positions[estimator] = []
        for frame in ds.frames[1:]:
            step(est, frame)
            positions[estimator].append(est.x.positions[-1].copy())
    ref = np.array(positions["srif"])
    for estimator, pos in positions.items():
        div = float(np.abs(np.array(pos) - ref).max())
        assert div <= 1e-6, f"{estimator} diverged by {div}"


class TestUnreachedBranches:
    """Engine branches no pinned scenario takes, each forced through the
    model binding `srifkit.vins` looks up: the documented outcome, and the
    three backends still agreeing."""

    def test_failed_capped_slam_candidate_leaves_the_buffer(
            self, monkeypatch):
        # at window 4 a would-be SLAM feature is first tried in the frame
        # that caps its track; every even-numbered one fails there, once,
        # and leaves the buffer instead of being tried as a short track
        ds = gen_dataset(_short(seed=0, duration=6.0))
        slam = {px.tobytes(): int(fid) for frame in ds.frames
                for fid, kind, px in zip(frame.feature_ids, frame.kinds,
                                         frame.pixels)
                if kind == 0 and fid % 2 == 0}
        kernel = vins.triangulate_inverse_depth
        failed = []

        def failing(pixels, *args, **kwargs):
            tri = kernel(pixels, *args, **kwargs)
            fids = [slam.get(px.tobytes()) for px in pixels[:, 0]]
            hit = np.array([fid is not None for fid in fids])
            tri.theta[hit] = np.nan
            tri.status[hit] = DEGENERATE
            failed.extend(fid for fid in fids if fid is not None)
            return tri

        monkeypatch.setattr(vins, "triangulate_inverse_depth", failing)
        entered = set()

        def step(est, frame):
            est._propagate(frame)
            est._marginalize(frame)
            n = len(failed)
            est._update(frame)
            assert len(set(failed[n:])) == len(failed[n:])
            for fid in failed[n:]:
                assert fid not in est.track_buf
                assert fid not in est.x.feature_ids
            entered.update(est.x.feature_ids.tolist())

        _backends_agree(ds, 4, step)
        assert failed
        assert entered and all(fid % 2 for fid in entered)

    def test_frame_whose_rows_all_drop_makes_no_update(self, monkeypatch):
        # every 5th frame's observations all lie behind their camera, so
        # `_assemble_rows` returns None: the frame applies no update, and
        # each SLAM feature it observed is flagged and leaves at the next
        # frame's marginalization
        project = vins.project_feature
        behind = {"on": False}

        def maybe_behind(*args):
            p = project(*args)
            if behind["on"]:
                p = p._replace(in_front=np.zeros_like(p.in_front))
            return p

        apply = vins.VinsEstimator._apply_update
        applied = []

        def counted(self, H2, r, t):
            applied.append(t)
            return apply(self, H2, r, t)

        monkeypatch.setattr(vins, "project_feature", maybe_behind)
        monkeypatch.setattr(vins.VinsEstimator, "_apply_update", counted)
        ds = gen_dataset(_short(seed=0, duration=8.0))
        flagged = []

        def step(est, frame):
            est._propagate(frame)
            drop = set(est._drop_next)
            est._marginalize(frame)
            assert not drop & set(est.x.feature_ids.tolist())
            behind["on"] = frame.index % 5 == 0
            n = len(applied)
            try:
                est._update(frame)
            finally:
                behind["on"] = False
            if frame.index % 5 == 0:
                assert len(applied) == n
                observed = (set(frame.feature_ids.tolist())
                            & set(est.x.feature_ids.tolist()))
                assert est._drop_next == observed
                flagged.append(len(observed))

        _backends_agree(ds, 11, step)
        assert applied and max(flagged) > 0


class TestLayerAttribution:
    """The benchmark times the models by the names `srifkit.vins` looks up;
    the engine must still reach them through those globals."""

    NAMES = ("project_feature", "triangulate_inverse_depth",
             "msckf_nullspace_project")

    def test_engine_reaches_the_models_through_vins(self, monkeypatch):
        calls = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            fn = getattr(vins, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(vins, name, counted)
        ds = gen_dataset(_short(seed=0, duration=4.0))
        est = vins.VinsEstimator(ds, FilterConfig(estimator="kf"))
        seen = _capture_updates(est)
        for frame in ds.frames[1:]:
            before, n_seen = dict(calls), len(seen)
            for phase in (est._propagate, est._marginalize, est._update):
                phase(frame)
            # at most one call of each per frame, and every update's rows
            # come from the frame's projection
            assert all(calls[name] - before[name] <= 1 for name in self.NAMES)
            if len(seen) > n_seen:
                assert calls["project_feature"] - before["project_feature"] == 1
        assert len(seen) >= len(ds.frames) - 3
        assert calls["triangulate_inverse_depth"] > 0
        assert calls["msckf_nullspace_project"] > 0


class TestNoiselessTracking:
    def test_final_position_error(self):
        # exact measurements and aligned clocks: the only error source left
        # is the integrator's O(dt^2) discretization
        spec = ScenarioSpec(duration=30.0, imu_rate=200.0, cam_rate=4.0,
                            noise=ImuNoise(0.0, 0.0, 0.0, 0.0),
                            sigma_px=0.0, true_tsync=0.0, seed=3)
        ds = gen_dataset(spec)
        res = run_filter(ds, FilterConfig(estimator="srif"))
        err = np.linalg.norm(res.positions[-1] - ds.truth.positions[-1])
        assert err <= 1e-4
        assert not res.events


class TestCrossEstimatorEquivalence:
    def test_all_backends_agree(self):
        ds = gen_dataset(_short(seed=1))
        runs = {est: run_filter(ds, FilterConfig(estimator=est))
                for est in ESTIMATORS}
        ref = runs["srif"].positions
        for est in ESTIMATORS:
            div = np.abs(runs[est].positions - ref).max()
            assert div <= 1e-6, f"{est} diverged by {div}"

    def test_backends_agree_through_reanchoring(self, monkeypatch):
        # at window 4 SLAM features outlive their anchor pose, which the
        # default window of 11 never lets happen on this scenario
        calls = []
        reanchor = vins.reanchor_feature

        def counted(*args, **kwargs):
            calls.append(1)
            return reanchor(*args, **kwargs)

        monkeypatch.setattr(vins, "reanchor_feature", counted)
        ds = gen_dataset(_short(seed=0, duration=20.0))
        runs = {}
        for est in ("kf", "srif", "pcsrif"):
            before = len(calls)
            runs[est] = run_filter(ds, FilterConfig(estimator=est, window=4))
            assert len(calls) > before, f"{est} never reanchored"
        ref = runs["srif"].positions
        for est, res in runs.items():
            div = np.abs(res.positions - ref).max()
            assert div <= 1e-6, f"{est} diverged by {div}"

    def test_flop_phases_reported(self):
        ds = gen_dataset(_short(seed=1, duration=5.0))
        res = run_filter(ds, FilterConfig(estimator="pcsrif"))
        assert set(res.flops) == {"propagation", "marginalization", "update"}
        assert all(v > 0 for v in res.flops.values())

    def test_kf_and_srif_agree_after_every_phase(self):
        # a wrong index map in propagation or marginalization shows up here
        # as a covariance mismatch at the phase that made it, not as drift
        ds = gen_dataset(_short(seed=0, duration=6.0))
        kf = vins.VinsEstimator(ds, FilterConfig(estimator="kf", window=4))
        sr = vins.VinsEstimator(ds, FilterConfig(estimator="srif", window=4))
        for frame in ds.frames[1:]:
            for phase in ("_propagate", "_marginalize", "_update"):
                getattr(kf, phase)(frame)
                getattr(sr, phase)(frame)
                assert window_ids(kf) == window_ids(sr)
                every = np.arange(layout_of(kf.x).n)
                P_kf, P_sr = kf.P, vins._covariance_block(sr.R, every)
                s = np.sqrt(np.diag(P_sr))
                div = float(np.abs((P_kf - P_sr) / np.outer(s, s)).max())
                assert div <= 1e-9, f"{phase} at t={frame.t}: {div}"
        assert sr.x.pose_ids[0] > 0  # the window slid

    def test_feature_behind_its_new_anchor_is_dropped(self, monkeypatch):
        # no pinned scenario puts a reanchored feature behind its new
        # anchor; flagging the first feature of each estimator's first
        # reanchoring as behind walks the drop path
        reanchor = vins.reanchor_feature
        calls = []

        def first_behind(*args):
            re = reanchor(*args)
            calls.append(1)
            if len(calls) <= 2:
                in_front = re.in_front.copy()
                in_front[0] = False
                re = re._replace(in_front=in_front)
            return re

        monkeypatch.setattr(vins, "reanchor_feature", first_behind)
        ds = gen_dataset(_short(seed=0, duration=8.0))
        kf = vins.VinsEstimator(ds, FilterConfig(estimator="kf", window=4))
        sr = vins.VinsEstimator(ds, FilterConfig(estimator="srif", window=4))
        removed, moved = [], []   # per estimator and phase

        def spy(est):
            blocks, move = est._marginalize_blocks, est._reanchor

            def marginalize(features, poses):
                removed.append((est.x.feature_ids[features].tolist(),
                                est.x.pose_ids[poses].tolist()))
                return blocks(features, poses)

            def reanchor(k, *ids):
                moved.append(est.x.feature_ids[k].tolist())
                return move(k, *ids)

            est._marginalize_blocks, est._reanchor = marginalize, reanchor

        spy(kf)
        spy(sr)
        for frame in ds.frames[1:]:
            for phase in ("_propagate", "_marginalize", "_update"):
                first = not calls
                departing = kf.x.pose_ids[0]
                for est in (kf, sr):
                    removed.clear()
                    moved.clear()
                    getattr(est, phase)(frame)
                    if first and calls:
                        # the flagged feature leaves the state with the
                        # departing pose, in one call, and the others
                        # move to the newest pose
                        (feats,) = moved
                        ((gone, poses),) = removed
                        assert feats[0] in gone and poses == [departing]
                        anchors = dict(zip(est.x.feature_ids.tolist(),
                                           est.x.anchor_ids.tolist()))
                        assert feats[0] not in anchors
                        assert all(anchors[fid] == est.x.pose_ids[-1]
                                   for fid in feats[1:])
                assert window_ids(kf) == window_ids(sr)
                every = np.arange(layout_of(kf.x).n)
                P_kf, P_sr = kf.P, vins._covariance_block(sr.R, every)
                s = np.sqrt(np.diag(P_sr))
                div = float(np.abs((P_kf - P_sr) / np.outer(s, s)).max())
                assert div <= 1e-9, f"{phase} at t={frame.t}: {div}"
        assert len(calls) > 2


    def test_every_feature_behind_its_new_anchor_leaves_with_the_pose(
            self, monkeypatch):
        # no pinned scenario puts every moving feature behind its new
        # anchor; flagging all of them walks `_reanchor`'s early return,
        # which leaves the factor or covariance and the estimate as they
        # were, and each of those features leaves with the pose
        reanchor = vins.reanchor_feature

        def all_behind(*args):
            re = reanchor(*args)
            return re._replace(in_front=np.zeros_like(re.in_front))

        move = vins.VinsEstimator._reanchor
        moved = []   # (departing pose id, ids of the features it kept)

        def checked(est, k, old_id, new_id):
            factor = est.P if est.is_kf else est.R
            before = factor.tobytes(), state_bytes(est.x)
            behind = move(est, k, old_id, new_id)
            assert behind.tolist() == k.tolist()
            assert (factor.tobytes(), state_bytes(est.x)) == before
            moved.append((old_id, est.x.feature_ids[behind].tolist()))
            return behind

        monkeypatch.setattr(vins, "reanchor_feature", all_behind)
        monkeypatch.setattr(vins.VinsEstimator, "_reanchor", checked)

        def step(est, frame):
            est._propagate(frame)
            n_moved = len(moved)
            est._marginalize(frame)
            for old_id, ids in moved[n_moved:]:
                assert old_id not in est.x.pose_ids
                assert not set(ids) & set(est.x.feature_ids.tolist())
            est._update(frame)

        _backends_agree(gen_dataset(_short(seed=0, duration=8.0)), 4, step)
        assert any(ids for _, ids in moved)


class TestMarginalizationPass:
    def test_one_call_per_frame(self, monkeypatch):
        # at window 4 a pose leaves every frame, often with features whose
        # track broke; everything that leaves goes in one call
        calls = []
        block = vins.filters.marginalize_block

        def counted(R, indices, flops=UNCOUNTED):
            calls.append(len(indices))
            return block(R, indices, flops=flops)

        monkeypatch.setattr(vins.filters, "marginalize_block", counted)
        ds = gen_dataset(_short(seed=0, duration=10.0))
        for est in ("kf", "srif"):
            e = vins.VinsEstimator(ds, FilterConfig(estimator=est, window=4))
            removed = []
            blocks = e._marginalize_blocks
            e._marginalize_blocks = lambda features, poses, _f=blocks: (
                removed.append((features.any(), poses.any())),
                _f(features, poses))[1]
            together = 0
            for frame in ds.frames[1:]:
                e._propagate(frame)
                n_removed, n_calls = len(removed), len(calls)
                e._marginalize(frame)
                assert len(removed) - n_removed <= 1
                assert len(calls) - n_calls == (
                    0 if est == "kf" else len(removed) - n_removed)
                if len(removed) > n_removed:
                    together += removed[-1] == (True, True)
                e._update(frame)
            assert together > 0, est

    def test_kf_reanchoring_flops(self):
        # the dense 3k x n rows J times the n x n P, then (J P) J.T
        ds = gen_dataset(_short(seed=0, duration=10.0))
        est = vins.VinsEstimator(ds, FilterConfig(estimator="kf", window=4))
        fc = est.flops["marginalization"]
        counted = []
        move = est._reanchor

        def reanchor(k, *ids):
            before, n = fc.total(), layout_of(est.x).n
            behind = move(k, *ids)
            counted.append((fc.total() - before, len(k) - len(behind), n))
            return behind

        est._reanchor = reanchor
        res = est.run()
        assert counted
        for got, k, n in counted:
            assert got == 3 * k * (n + 3 * k) * (2 * n - 1)
        assert res.flops["marginalization"] == sum(got for got, _, _ in counted) > 0


class TestEmbeddingOrder:
    SITES = ("_propagate", "_insert_features", "_marginalize_blocks",
             "_reanchor", "_apply_update")

    @pytest.mark.parametrize("estimator", vins.ESTIMATORS)
    def test_every_site_keeps_the_gaussian_in_its_order(self, estimator):
        # after each site that writes the Gaussian, R is column-major, as
        # ?tpqrt, ?potrf and ?lasr write and read it (a unit row stride and
        # a column stride of at least a column; a view into a larger factor
        # counts), and the KF's P is C-ordered, as the products that read it
        # expect: BLAS roundoff depends on memory order
        ds = gen_dataset(_short(seed=0, duration=8.0))
        est = vins.VinsEstimator(ds, FilterConfig(estimator=estimator,
                                                  window=4))
        seen = {site: [] for site in self.SITES}

        def checked(site, call):
            def wrapper(*args):
                out = call(*args)
                if est.is_kf:
                    seen[site].append(est.P.flags.c_contiguous)
                else:
                    R = est.R
                    seen[site].append(R.strides[0] == R.itemsize and
                                      R.strides[1] >= R.shape[0] * R.itemsize)
                return out
            return wrapper

        for site in self.SITES:
            setattr(est, site, checked(site, getattr(est, site)))
        est.run()
        for site, ok in seen.items():
            assert ok and all(ok), site


class TestTrackBuffer:
    @pytest.mark.parametrize("window", [4, 5, 11])
    @pytest.mark.parametrize("estimator", ["kf", "srif"])
    def test_no_buffered_observation_outlives_the_window(self, estimator,
                                                         window):
        # an update uses or drops every track that reaches window - 1
        # observations or ends, so a track left in the buffer holds at most
        # window - 2, all at window poses, and none at the pose that
        # leaves next
        ds = gen_dataset(_short(seed=0, duration=15.0))
        est = vins.VinsEstimator(ds, FilterConfig(estimator=estimator,
                                                  window=window))
        longest = 0
        for frame in ds.frames[1:]:
            est._propagate(frame)
            departing = est.x.pose_ids[0]
            est._marginalize(frame)
            if est.x.pose_ids[0] != departing:
                assert all(pid != departing for obs in est.track_buf.values()
                           for pid, _ in obs)
            est._update(frame)
            pose_ids = set(est.x.pose_ids.tolist())
            for obs in est.track_buf.values():
                assert len(obs) <= window - 2
                assert all(pid in pose_ids for pid, _ in obs)
                longest = max(longest, len(obs))
        assert est.x.pose_ids[0] > 0   # the window slid
        assert longest == window - 2


class TestDeterminism:
    def test_bit_identical_runs(self):
        spec = _short(seed=2, duration=8.0)
        a = run_filter(gen_dataset(spec), FilterConfig(estimator="srif"))
        b = run_filter(gen_dataset(spec), FilterConfig(estimator="srif"))
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.quats.tobytes() == b.quats.tobytes()


@pytest.fixture(scope="module")
def ten_seconds():
    return gen_dataset(_short(seed=0, duration=10.0))


class TestFlopTotals:
    """Each phase's counted FLOPs on 10 s of `default` seed 0, pinned: they
    cover every kernel's closed form, `kf_update`'s and `srif_augment`'s
    and, at window 4, the reanchoring counts of both backends."""

    @pytest.mark.parametrize("estimator,precision,window,flops", [
        ("kf", "binary64", 11, (2553900, 0, 237981963)),
        ("srif", "binary64", 11, (21163075, 5563323, 38198171)),
        ("pcsrif", "binary32", 11, (21163075, 5563323, 60250932)),
        ("pcsrif", "binary64", 11, (21163075, 5563323, 60250932)),
        ("if-oracle", "binary32", 11, (21163075, 5563323, 50543918)),
        ("kf", "binary64", 4, (1950990, 4505895, 98332814)),
        ("srif", "binary64", 4, (10977856, 4771647, 14539229)),
    ])
    def test_per_phase_totals(self, ten_seconds, estimator, precision, window,
                              flops):
        res = run_filter(ten_seconds, FilterConfig(
            estimator=estimator, precision=precision, window=window))
        assert res.flops == dict(zip(vins.PHASES, flops))


def perturbed_position_nees(ds, rng):
    """Per-frame NEES of the newest position of a srif run whose initial
    state is drawn from its prior, so the error the filter starts from
    is the one its covariance claims."""
    est = vins.VinsEstimator(ds, FilterConfig(estimator="srif"))
    lay = layout_of(est.x)
    est.x = boxplus(est.x, rng.normal(size=lay.n) * vins._prior_sigmas(lay))
    est.motion[0] = est.x.v, ds.truth.omegas[0] - est.x.bg
    nees = []
    for frame in ds.frames[1:]:
        for phase in (est._propagate, est._marginalize, est._update):
            phase(frame)
        lay = layout_of(est.x)
        off = lay.pose_cols(lay.n_poses - 1)[0]
        e = est.x.positions[-1] - ds.truth.positions[
            frame.index * est._step_per_frame]
        P = vins._covariance_block(est.R, np.arange(off, off + 3))
        nees.append(float(e @ np.linalg.solve(P, e)))
    return np.array(nees)


class TestConsistency:
    def test_position_nees_envelope(self):
        # average position NEES across 20 seeds against the 95% chi-square
        # envelope; a consistent filter lands outside at ~5% of frames by
        # construction, so the gate is the exceedance rate, not every frame
        n_seeds = 20
        per_seed = []
        for seed in range(n_seeds):
            ds = gen_dataset(_short(seed=seed, duration=30.0))
            per_seed.append(perturbed_position_nees(
                ds, np.random.default_rng(1000 + seed)))
        mean_nees = np.mean(per_seed, axis=0)
        lo = chi2.ppf(0.025, 3 * n_seeds) / n_seeds
        hi = chi2.ppf(0.975, 3 * n_seeds) / n_seeds
        outside = np.mean((mean_nees < lo) | (mean_nees > hi))
        assert lo <= mean_nees.mean() <= hi
        assert outside <= 0.10


class TestSinglePrecision:
    def test_pcsrif_stays_positive_definite(self):
        ds = gen_dataset(_short(seed=4))
        r32 = run_filter(ds, FilterConfig(estimator="pcsrif",
                                          precision="binary32"))
        r64 = run_filter(ds, FilterConfig(estimator="pcsrif"))
        assert not any(e.kind == "not-positive-definite" for e in r32.events)
        drift = np.abs(r32.positions - r64.positions).max()
        assert drift <= 5e-2

    def test_unpartitioned_information_filter_degrades(self):
        spec = dataclasses.replace(conditioning_scenario(5), duration=60.0)
        ds = gen_dataset(spec)
        res = run_filter(ds, FilterConfig(estimator="if-oracle",
                                          precision="binary32"))
        assert len(res.events) >= 1


class TestConditioningLog:
    def test_records_on_stride(self):
        ds = gen_dataset(_short(seed=6, duration=10.0))
        res = run_filter(ds, FilterConfig(estimator="srif"))
        assert len(res.conditioning) >= 3
        for rec in res.conditioning:
            assert rec.kappa2_r22_post >= 1.0
            assert rec.kappa2_r22_post_precond <= rec.kappa2_r22_post * 1.001

    def test_stride_counts_frames_from_the_first(self, monkeypatch):
        monkeypatch.setattr(vins, "SVD_STRIDE", 3)
        ds = gen_dataset(_short(seed=6, duration=4.0))
        res = run_filter(ds, FilterConfig(estimator="srif"))
        assert [rec.t for rec in res.conditioning] == [
            f.t for f in ds.frames[1::3]]


def _workers():
    return [t for t in threading.enumerate()
            if t.name.startswith(vins.DIAGNOSTICS_THREAD)]


def _record_bytes(records):
    return np.array([dataclasses.astuple(r) for r in records]).tobytes()


@pytest.fixture(scope="module")
def twenty_five_seconds():
    return gen_dataset(_short(seed=0, duration=25.0))


class TestDiagnosticsWorker:
    """run() computes the conditioning records on one worker thread beside
    the frames; stepped by hand, the engine computes none."""

    @staticmethod
    def _patch_record(monkeypatch, fail_at=None):
        """record_conditioning raising on its fail_at-th call; returns the
        names of the threads each call ran on."""
        threads = []
        record = vins.record_conditioning

        def faulty(*args):
            threads.append(threading.current_thread().name)
            if len(threads) == fail_at:
                raise ValueError("record failed")
            return record(*args)

        monkeypatch.setattr(vins, "record_conditioning", faulty)
        return threads

    @pytest.mark.parametrize("config", [
        dict(estimator="pcsrif", precision="binary32"),
        dict(estimator="srif", precision="binary64", window=4),
    ])
    def test_run_records_equal_records_stepped_by_hand(
            self, monkeypatch, twenty_five_seconds, config):
        ds, cfg = twenty_five_seconds, FilterConfig(**config)
        threads = self._patch_record(monkeypatch)
        # switching threads every 10 us interleaves the worker's Python
        # steps with the frames' as finely as it can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            res = run_filter(ds, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert all(nm.startswith(vins.DIAGNOSTICS_THREAD) for nm in threads)
        # the reference: each record computed on this thread from the
        # snapshot of its frame, right after the frame's update
        est = vins.VinsEstimator(ds, cfg)
        want = []
        for frame in ds.frames[1:]:
            for phase in (est._propagate, est._marginalize, est._update):
                phase(frame)
            if (frame.index - 1) % vins.SVD_STRIDE == 0:
                want.append(est._condition(*est._snapshot(frame)))
        assert [r.t for r in res.conditioning] == [
            f.t for f in ds.frames[1::vins.SVD_STRIDE]]
        assert _record_bytes(res.conditioning) == _record_bytes(want)
        assert not _workers()

    def test_stepping_by_hand_records_nothing(self, monkeypatch):
        # the phases change the estimate only; the records are run()'s
        ds = gen_dataset(_short(seed=6, duration=4.0))
        threads = self._patch_record(monkeypatch)
        est = vins.VinsEstimator(ds, FilterConfig(estimator="srif"))
        for frame in ds.frames[1:]:
            for phase in (est._propagate, est._marginalize, est._update):
                phase(frame)
        assert len(ds.frames[1::vins.SVD_STRIDE]) >= 2
        assert threads == []

    def test_failed_record_aborts_at_its_frame(self, monkeypatch):
        ds = gen_dataset(_short(seed=1, duration=8.0))
        self._patch_record(monkeypatch, fail_at=3)
        with pytest.raises(vins.EstimatorAbort) as info:
            run_filter(ds, FilterConfig(estimator="pcsrif"))
        assert info.value.t == ds.frames[1 + 2 * vins.SVD_STRIDE].t
        assert info.value.phase == "update"
        assert str(info.value.__cause__) == "record failed"
        assert not _workers()

    def test_failed_record_aborts_before_a_later_frame(self, monkeypatch):
        # the first record fails, and the update of the frame after it
        # raises too, most likely while the record is still on the worker
        ds = gen_dataset(_short(seed=1, duration=5.0))
        self._patch_record(monkeypatch, fail_at=1)
        update = vins.filters.pcsrif_update
        calls = []

        def faulty(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise NotPositiveDefinite(0)
            return update(*args, **kwargs)

        monkeypatch.setattr(vins.filters, "pcsrif_update", faulty)
        with pytest.raises(vins.EstimatorAbort) as info:
            run_filter(ds, FilterConfig(estimator="pcsrif"))
        assert info.value.t == ds.frames[1].t
        assert str(info.value.__cause__) == "record failed"
        assert not _workers()

    def test_kf_run_starts_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread.name)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        ds = gen_dataset(_short(seed=6, duration=4.0))
        res = run_filter(ds, FilterConfig(estimator="kf"))
        assert res.conditioning == [] and started == []
        run_filter(ds, FilterConfig(estimator="srif"))
        assert len(started) == 1
        assert started[0].startswith(vins.DIAGNOSTICS_THREAD)


class TestCheckedInputs:
    def test_nan_gyro_sample_aborts_with_a_named_error(self):
        ds = gen_dataset(_short(seed=2, duration=3.0))
        ds.imu_omega[150, 1] = np.nan    # a gyro sample of frame 7
        with pytest.raises(vins.EstimatorAbort) as info:
            run_filter(ds, FilterConfig(estimator="srif"))
        assert info.value.phase == "propagation"
        cause = info.value.__cause__
        assert isinstance(cause, ValueError)
        assert str(cause).startswith("non-finite IMU sample")


class TestCholeskyFallback:
    @staticmethod
    def _fail_once(monkeypatch, at_call=3):
        calls = []
        update = vins.filters.pcsrif_update

        def faulty(*args, **kwargs):
            calls.append(1)
            if len(calls) == at_call:
                raise NotPositiveDefinite(0)
            return update(*args, **kwargs)

        monkeypatch.setattr(vins.filters, "pcsrif_update", faulty)
        return calls

    def test_aborts_without_fallback(self, monkeypatch):
        ds = gen_dataset(_short(seed=1, duration=5.0))
        self._fail_once(monkeypatch)
        with pytest.raises(vins.EstimatorAbort) as info:
            run_filter(ds, FilterConfig(estimator="pcsrif"))
        assert info.value.phase == "update"
        assert isinstance(info.value.__cause__, NotPositiveDefinite)


class TestTracedBindings:
    PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

    def _spans(self):
        spec = importlib.util.spec_from_file_location(
            "perfbench_spans", self.PERFBENCH / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        assert spans.TARGETS
        return spans

    def test_every_span_target_resolves(self):
        # the benchmark's tracer rebinds these names; one a refactor drops
        # would crash a traced run or silently stop tracing it
        for modname, attr, _ in self._spans().TARGETS:
            fn = getattr(importlib.import_module(modname), attr, None)
            assert callable(fn), f"{modname}.{attr} is gone"

    def test_every_span_target_names_a_catalogued_metric(self):
        # a span's metric is named after the module that defines the
        # function; a function moved to another module would trace under
        # a name the catalogue does not list, and its metrics would read 0
        spans = self._spans()
        catalogue = json.loads((self.PERFBENCH / "metrics.json").read_text())
        names = [m["name"] for m in catalogue["per_layer"]]
        for modname, attr, _ in spans.TARGETS:
            layer = spans.layer_name(getattr(importlib.import_module(modname),
                                             attr))
            assert any(nm.startswith(layer + ".") for nm in names), (
                f"{modname}.{attr} traces as {layer}, which no metric in "
                f"perfbench/metrics.json names")
