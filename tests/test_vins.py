"""End-to-end filter runs on synthetic visual-inertial scenarios."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from srifkit import vins
from srifkit.linalg import NotPositiveDefinite
from srifkit.models import ImuNoise
from srifkit.sim import (
    ScenarioSpec,
    conditioning_scenario,
    default_scenario,
    gen_dataset,
)
from srifkit.vins import ESTIMATORS, FilterConfig, run_filter


def _short(seed=0, duration=15.0):
    return dataclasses.replace(default_scenario(seed), duration=duration)


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
                assert kf.layout.blocks == sr.layout.blocks
                P_kf, P_sr = kf._covariance(), sr._covariance()
                s = np.sqrt(np.diag(P_sr))
                div = float(np.abs((P_kf - P_sr) / np.outer(s, s)).max())
                assert div <= 1e-9, f"{phase} at t={frame.t}: {div}"
        assert sr.x.poses[0].id > 0  # the window slid


class TestDeterminism:
    def test_bit_identical_runs(self):
        spec = _short(seed=2, duration=8.0)
        a = run_filter(gen_dataset(spec), FilterConfig(estimator="srif"))
        b = run_filter(gen_dataset(spec), FilterConfig(estimator="srif"))
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.quats.tobytes() == b.quats.tobytes()


class TestConsistency:
    def test_position_nees_envelope(self):
        # average position NEES across 20 seeds against the 95% chi-square
        # envelope; a consistent filter lands outside at ~5% of frames by
        # construction, so the gate is the exceedance rate, not every frame
        n_seeds = 20
        per_seed = []
        for seed in range(n_seeds):
            ds = gen_dataset(_short(seed=seed, duration=30.0))
            res = run_filter(ds, FilterConfig(estimator="srif"),
                             with_nees=True,
                             perturb_rng=np.random.default_rng(1000 + seed))
            per_seed.append(np.asarray(res.nees))
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
        res = run_filter(ds, FilterConfig(estimator="srif", svd_stride=10))
        assert len(res.conditioning) >= 3
        for rec in res.conditioning:
            assert rec.kappa2_r22_post >= 1.0
            assert rec.kappa2_r22_post_precond <= rec.kappa2_r22_post * 1.001


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

    def test_redoes_the_step_via_qr(self, monkeypatch):
        ds = gen_dataset(_short(seed=1, duration=5.0))
        clean = run_filter(ds, FilterConfig(estimator="pcsrif"))
        calls = self._fail_once(monkeypatch)
        res = run_filter(ds, FilterConfig(estimator="pcsrif",
                                          fallback_qr=True))
        assert len(calls) > 3
        assert [e.kind for e in res.events] == ["not-positive-definite"]
        assert np.abs(res.positions - clean.positions).max() <= 1e-6
        assert np.abs(res.quats - clean.quats).max() <= 1e-6

    def test_aborts_without_fallback(self, monkeypatch):
        ds = gen_dataset(_short(seed=1, duration=5.0))
        self._fail_once(monkeypatch)
        with pytest.raises(vins.EstimatorAbort) as info:
            run_filter(ds, FilterConfig(estimator="pcsrif"))
        assert info.value.phase == "update"
        assert isinstance(info.value.__cause__, NotPositiveDefinite)


class TestTracedBindings:
    def test_every_span_target_resolves(self):
        # the benchmark's tracer rebinds these names; one a refactor drops
        # would crash a traced run or silently stop tracing it
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        assert spans.TARGETS
        for modname, attr, _ in spans.TARGETS:
            fn = getattr(importlib.import_module(modname), attr, None)
            assert callable(fn), f"{modname}.{attr} is gone"
