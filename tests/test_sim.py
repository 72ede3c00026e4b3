import json

import numpy as np
import pytest

from srifkit.models import GRAVITY, ImuNoise
from srifkit.sim import (
    Frame,
    ScenarioSpec,
    gen_ground_truth,
    gen_imu,
    gen_tracks,
    gen_trajectory,
)
from srifkit.state import quat_to_mat


def noiseless_spec(**kw):
    kw.setdefault("noise", ImuNoise(0.0, 0.0, 0.0, 0.0))
    kw.setdefault("sigma_px", 0.0)
    return ScenarioSpec(**kw)


class TestSpec:
    def test_rate_divisibility(self):
        with pytest.raises(ValueError):
            ScenarioSpec(imu_rate=100.0, cam_rate=7.0)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ScenarioSpec(trajectory="spiral")

    def test_json_roundtrip(self):
        spec = ScenarioSpec(duration=12.0, seed=7, trajectory="figure-eight")
        back = ScenarioSpec.from_json(spec.to_json())
        assert back == spec

    # each reaches the simulator or the filter otherwise: a division by a
    # zero period, a negative array size, silently noiseless pixels, no
    # visible feature, a zero focal length, overflowing trigonometry
    # the first field named is the one the error names
    BAD = [{"duration": np.nan}, {"duration": 0.0}, {"imu_rate": np.inf},
           {"period": 0.0}, {"period": -1.0}, {"amplitude": np.inf},
           {"n_features": -1}, {"sigma_px": np.nan}, {"sigma_px": -1.0},
           {"max_depth": 1.0, "min_depth": 5.0}, {"max_depth": np.nan},
           {"min_depth": 0.0}, {"intrinsics": (0.0, 0.0, 320.0, 240.0)},
           {"intrinsics": (400.0, 400.0, np.nan, 240.0)},
           {"p_ic": (0.05, np.inf, 0.02)}, {"true_tsync": np.nan},
           # a zero or non-unit camera rotation, noise densities that are
           # negative or not finite, and counts that are not non-negative
           # ints; a dotted name is a field of the noise
           {"q_ic": (0.0, 0.0, 0.0, 0.0)}, {"q_ic": (1.0, 1.0, 0.0, 0.0)},
           {"noise.accel_density": -1.0}, {"noise.gyro_density": np.nan},
           {"noise.gyro_bias_rw": np.inf}, {"n_features": 2.5},
           {"n_features": True}, {"seed": -1}, {"seed": 1.5},
           # a duration that is not a whole number of camera periods
           {"duration": 10.1}]

    @pytest.mark.parametrize("kw", BAD, ids=lambda kw: ",".join(
        f"{k}={v}" for k, v in kw.items()))
    @pytest.mark.parametrize("via", ["constructor", "from_json"])
    def test_bad_value_rejected_with_the_field_named(self, via, kw):
        top = {k: v for k, v in kw.items() if "." not in k}
        noise = {k.split(".")[1]: v for k, v in kw.items() if "." in k}
        with pytest.raises(ValueError, match=next(iter(kw))):
            if via == "constructor":
                ScenarioSpec(**top, noise=ImuNoise(**noise))
            else:
                d = json.loads(ScenarioSpec().to_json())
                d.update(top)
                d["noise"].update(noise)
                ScenarioSpec.from_json(json.dumps(d))

    def test_noiseless_pixels_are_valid(self):
        assert ScenarioSpec(sigma_px=0.0).sigma_px == 0.0

    def test_json_rejects_unknown_keys_by_name(self):
        d = json.loads(ScenarioSpec().to_json())
        d["durations"] = 6.0
        d["noise"]["gyro_densty"] = 1e-3
        with pytest.raises(ValueError,
                           match="durations, noise.gyro_densty"):
            ScenarioSpec.from_json(json.dumps(d))

    @pytest.mark.parametrize("text", ["[1, 2]", '{"noise": 5}'])
    def test_json_that_is_not_an_object_is_rejected(self, text):
        with pytest.raises(ValueError, match="JSON objects"):
            ScenarioSpec.from_json(text)

    def test_json_rejects_unknown_format(self):
        d = json.loads(ScenarioSpec().to_json())
        d["format"] = "other/9"
        with pytest.raises(ValueError):
            ScenarioSpec.from_json(json.dumps(d))


class TestTrajectory:
    def test_circle_speed(self):
        spec = ScenarioSpec(trajectory="circle", amplitude=2.0, period=10.0)
        _, _, v, _, _ = gen_trajectory(spec, 0.0)
        assert np.isclose(np.linalg.norm(v), 2 * np.pi * 2.0 / 10.0)

    @pytest.mark.parametrize("kind", ["circle", "sinusoid-3d", "figure-eight"])
    def test_velocity_accel_vs_finite_difference(self, kind):
        spec = ScenarioSpec(trajectory=kind)
        h = 1e-6
        for t in np.linspace(0.5, 9.5, 7):
            pm, _, vm, _, _ = gen_trajectory(spec, t - h)
            pp, _, vp, _, _ = gen_trajectory(spec, t + h)
            p, q, v, _, acc = gen_trajectory(spec, t)
            v_fd = (pp - pm) / (2 * h)
            assert np.abs(v_fd - v).max() <= 1e-6 * max(1.0, np.abs(v).max())
            a_fd = (vp - vm) / (2 * h)
            a_body = quat_to_mat(q).T @ (a_fd - np.asarray(GRAVITY))
            assert np.abs(a_body - acc).max() <= 1e-4

    @pytest.mark.parametrize("kind", ["circle", "sinusoid-3d", "figure-eight"])
    def test_omega_vs_finite_difference(self, kind):
        spec = ScenarioSpec(trajectory=kind)
        h = 1e-6
        for t in [0.3, 2.7, 6.1]:
            _, qm, _, _, _ = gen_trajectory(spec, t - h)
            _, qp, _, _, _ = gen_trajectory(spec, t + h)
            _, q, _, om, _ = gen_trajectory(spec, t)
            R = quat_to_mat(q)
            dR = (quat_to_mat(qp) - quat_to_mat(qm)) / (2 * h)
            W = R.T @ dR  # should be skew(omega)
            om_fd = np.array([W[2, 1], W[0, 2], W[1, 0]])
            assert np.abs(om_fd - om).max() <= 1e-5

    @pytest.mark.parametrize("kind", ["circle", "figure-eight", "sinusoid-3d"])
    def test_array_of_times_equals_per_time_calls(self, kind):
        spec = ScenarioSpec(trajectory=kind, period=10.0)
        # t = 0 and 5 s put yaw and pitch at or near zero
        times = np.concatenate([[0.0, 5.0], np.linspace(0.013, 23.9, 37)])
        batch = gen_trajectory(spec, times)
        for k, t in enumerate(times):
            for a, b in zip(batch, gen_trajectory(spec, t)):
                assert a[k].tobytes() == np.asarray(b).tobytes(), (k, t)

    def test_periodicity(self):
        spec = ScenarioSpec(trajectory="circle", period=10.0)
        a = gen_trajectory(spec, 0.0)
        b = gen_trajectory(spec, 10.0)
        for i, (x, y) in enumerate(zip(a, b)):
            if i == 1:  # quaternion: same rotation up to global sign
                assert np.abs(quat_to_mat(x) - quat_to_mat(y)).max() <= 1e-9
            else:
                assert np.abs(np.asarray(x) - np.asarray(y)).max() <= 1e-9


class TestImu:
    def test_noiseless_matches_analytic(self):
        spec = noiseless_spec(duration=2.0)
        truth = gen_ground_truth(spec)
        omega, accel, dt = gen_imu(spec, truth)
        mid = truth.times[:-1] + 0.5 * dt
        for i in [0, 50, 199]:
            _, _, _, om, acc = gen_trajectory(spec, mid[i])
            assert np.array_equal(omega[i], om)
            assert np.array_equal(accel[i], acc)

    def test_white_noise_variance(self):
        spec = ScenarioSpec(duration=50.0, imu_rate=200.0, cam_rate=4.0,
                            noise=ImuNoise(1e-3, 1e-2, 0.0, 0.0), seed=3)
        truth = gen_ground_truth(spec)
        omega, accel, dt = gen_imu(spec, truth)
        mid = truth.times[:-1] + 0.5 * dt
        true_om = np.array([gen_trajectory(spec, t)[3] for t in mid])
        resid = omega - true_om
        var = resid.var()
        target = (1e-3) ** 2 * 200.0
        assert abs(var - target) <= 0.10 * target

    def test_deterministic(self):
        spec = ScenarioSpec(duration=3.0, seed=11)
        t1 = gen_ground_truth(spec)
        t2 = gen_ground_truth(spec)
        a = gen_imu(spec, t1)
        b = gen_imu(spec, t2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert np.array_equal(t1.features, t2.features)
        assert np.array_equal(t1.gyro_bias, t2.gyro_bias)


class TestTracks:
    def test_caps(self):
        spec = ScenarioSpec(duration=30.0, n_features=400, seed=2)
        truth = gen_ground_truth(spec)
        frames = gen_tracks(spec, truth)
        assert len(frames) > 0
        for fr in frames:
            assert (fr.kinds == 0).sum() <= 15
            assert (fr.kinds == 1).sum() <= 35

    def test_noiseless_projection_consistency(self):
        from model_reference import camera_pose_at
        spec = noiseless_spec(duration=5.0, true_tsync=0.0)
        truth = gen_ground_truth(spec)
        frames = gen_tracks(spec, truth)
        fx, fy, cx, cy = spec.intrinsics
        step = int(round(spec.imu_rate / spec.cam_rate))
        for fr in frames[:5]:
            i = fr.index * step
            cr, cc = camera_pose_at(truth.positions[i], truth.quats[i],
                                    np.asarray(spec.p_ic),
                                    np.asarray(spec.q_ic))[:2]
            for fid, px in zip(fr.feature_ids, fr.pixels):
                y = cr.T @ (truth.features[fid] - cc)
                pred = np.array([fx * y[0] / y[2] + cx, fy * y[1] / y[2] + cy])
                assert np.abs(pred - px).max() <= 1e-9

    def test_label_persistent_within_track(self):
        spec = ScenarioSpec(duration=20.0, seed=5)
        frames = gen_tracks(spec, gen_ground_truth(spec))
        last = {}
        for fr in frames:
            seen = set()
            for fid, kind in zip(fr.feature_ids, fr.kinds):
                if fid in last:
                    assert last[fid] == kind
                last[fid] = kind
                seen.add(fid)
            last = {f: k for f, k in last.items() if f in seen}
