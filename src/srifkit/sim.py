"""Synthetic visual-inertial scenarios with analytic ground truth.

Trajectories are closed-form (position, orientation, and their derivatives
are evaluated exactly, never integrated numerically), so downstream
consistency oracles see no integration error. The truth is one evaluation
over all IMU timestamps and the IMU stream one over all sample midpoints;
each row is bitwise what the trajectory gives at that time alone. IMU
streams add seeded bias random walks and white noise on top of the
analytic rates; feature tracks are projected through the true camera
model, shifted by the true time offset, and capped at 15 SLAM / 35 short
(multi-state-constraint) tracks per frame.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .models import GRAVITY, ImuNoise, _mv, check_imu_samples
from .state import quat_from_rotvec, quat_mul, quat_to_mat

SCENARIO_FORMAT = "srifkit-scenario/1"

SLAM_CAP = 15
MSCKF_CAP = 35

_EX = np.array([1.0, 0.0, 0.0])
_EZ = np.array([0.0, 0.0, 1.0])


@dataclass
class ScenarioSpec:
    duration: float = 60.0
    imu_rate: float = 200.0
    cam_rate: float = 5.0
    trajectory: str = "circle"      # circle | sinusoid-3d | figure-eight
    amplitude: float = 2.0          # m (circle radius / sinusoid amplitude)
    period: float = 10.0            # s
    pitch_amplitude: float = 0.15   # rad, superimposed rocking
    noise: ImuNoise = field(default_factory=ImuNoise)
    sigma_px: float = 1.0
    n_features: int = 120
    feature_lo: tuple = (-8.0, -8.0, -2.5)
    feature_hi: tuple = (8.0, 8.0, 2.5)
    true_tsync: float = 0.002       # s
    intrinsics: tuple = (400.0, 400.0, 320.0, 240.0)
    p_ic: tuple = (0.05, 0.0, 0.02)
    # xyzw, IMU-from-camera: optical axis forward (+x IMU), image y down
    q_ic: tuple = (0.5, -0.5, 0.5, -0.5)
    min_depth: float = 0.3
    max_depth: float = 30.0
    seed: int = 0

    def __post_init__(self):
        # JSON round-trips tuples as lists; normalize so specs compare equal
        for f in fields(self):
            if isinstance(getattr(self, f.name), (list, np.ndarray)):
                setattr(self, f.name, tuple(getattr(self, f.name)))
        values = {f.name: (getattr(self, f.name), f.default) for f in fields(self)
                  if f.name not in ("trajectory", "noise")} | {
            f"noise.{f.name}": (getattr(self.noise, f.name), f.default)
            for f in fields(self.noise)}
        # every number finite and shaped as its default; counts are ints, and
        # no number is a bool
        for name, (value, default) in values.items():
            arr = np.asarray(value)
            kinds = "iu" if isinstance(default, int) else "iuf"
            if not (arr.dtype.kind in kinds and arr.shape == np.shape(default)
                    and np.isfinite(arr).all()):
                raise ValueError(f"{name} = {value!r} is out of range")
        # and these inside their ranges
        positive = ("duration", "imu_rate", "cam_rate", "period", "min_depth")
        at_least_0 = ("sigma_px", "n_features", "seed",
                      *(name for name in values if name.startswith("noise.")))
        inside = {name: values[name][0] > 0 for name in positive} | {
            name: values[name][0] >= 0 for name in at_least_0} | {
            "intrinsics": min(self.intrinsics[:2]) > 0,
            "q_ic": abs(np.linalg.norm(self.q_ic) - 1.0) <= 1e-9,
            "max_depth": self.max_depth > self.min_depth}
        for name, ok in inside.items():
            if not ok:
                raise ValueError(f"{name} = {values[name][0]!r} is out of range")
        ratio = self.imu_rate / self.cam_rate
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("cam_rate must divide imu_rate")
        # the last frame is stamped at duration, the end of the IMU stream
        frames = self.duration * self.cam_rate
        if round(frames) < 1 or abs(frames - round(frames)) > 1e-9:
            raise ValueError(f"duration = {self.duration!r} is not a positive "
                             "whole number of camera periods")
        if self.trajectory not in ("circle", "sinusoid-3d", "figure-eight"):
            raise ValueError(f"unknown trajectory kind {self.trajectory!r}")

    def to_json(self):
        d = asdict(self)
        d["format"] = SCENARIO_FORMAT
        return json.dumps(d, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text):
        d = json.loads(text)
        noise = d.pop("noise", {}) if isinstance(d, dict) else None
        if not isinstance(noise, dict):
            raise ValueError("a scenario and its noise are JSON objects")
        fmt = d.pop("format", SCENARIO_FORMAT)
        if fmt != SCENARIO_FORMAT:
            raise ValueError(f"unsupported scenario format {fmt!r}")
        unknown = sorted(d.keys() - {f.name for f in fields(ScenarioSpec)}) + [
            f"noise.{k}" for k in sorted(noise.keys() - {
                f.name for f in fields(ImuNoise)})]
        if unknown:
            raise ValueError(f"unknown scenario keys: {', '.join(unknown)}")
        return ScenarioSpec(**d, noise=ImuNoise(**noise))


@dataclass
class GroundTruth:
    times: np.ndarray        # (N,) IMU-rate timestamps
    positions: np.ndarray    # (N, 3)
    quats: np.ndarray        # (N, 4) xyzw, global-from-IMU
    velocities: np.ndarray   # (N, 3) global
    omegas: np.ndarray       # (N, 3) body rates
    gyro_bias: np.ndarray    # (N, 3)
    accel_bias: np.ndarray   # (N, 3)
    features: np.ndarray     # (F, 3) global points


@dataclass
class Frame:
    index: int
    t: float                 # nominal frame timestamp
    feature_ids: np.ndarray  # (k,) int
    kinds: np.ndarray        # (k,) 0 = slam, 1 = msckf
    pixels: np.ndarray       # (k, 2)


@dataclass
class Dataset:
    spec: ScenarioSpec
    truth: GroundTruth
    imu_omega: np.ndarray    # (M, 3) measured body rates
    imu_accel: np.ndarray    # (M, 3) measured specific force
    imu_dt: np.ndarray       # (M,)
    frames: list             # of Frame

    def imu_samples(self, i0, i1):
        """Samples i0 .. i1 - 1 as (K, 3) rates, (K, 3) specific forces and
        (K,) periods, once `check_imu_samples` has passed them."""
        return check_imu_samples(self.imu_omega[i0:i1], self.imu_accel[i0:i1],
                                 self.imu_dt[i0:i1])


# --------------------------------------------------------------------------
# analytic trajectory
# --------------------------------------------------------------------------


def _translation(spec, t):
    """Closed-form position and its first two derivatives."""
    A, w = spec.amplitude, 2.0 * np.pi / spec.period
    t = np.asarray(t, dtype=float)
    if spec.trajectory == "circle":
        c, s = np.cos(w * t), np.sin(w * t)
        p = np.stack([A * c, A * s, np.zeros_like(t)], axis=-1)
        v = np.stack([-A * w * s, A * w * c, np.zeros_like(t)], axis=-1)
        a = np.stack([-A * w * w * c, -A * w * w * s, np.zeros_like(t)], axis=-1)
    elif spec.trajectory == "figure-eight":
        c, s = np.cos(w * t), np.sin(w * t)
        c2, s2 = np.cos(2 * w * t), np.sin(2 * w * t)
        z = 0.15 * A
        p = np.stack([A * s, 0.5 * A * s2, z * s2], axis=-1)
        v = np.stack([A * w * c, A * w * c2, 2 * z * w * c2], axis=-1)
        a = np.stack([-A * w * w * s, -2 * A * w * w * s2,
                      -4 * z * w * w * s2], axis=-1)
    else:  # sinusoid-3d
        w2, w3 = 2.0 * w, 3.0 * w
        s1, s2, s3 = np.sin(w * t), np.sin(w2 * t), np.sin(w3 * t)
        c1, c2, c3 = np.cos(w * t), np.cos(w2 * t), np.cos(w3 * t)
        p = np.stack([A * s1, A * s2, 0.3 * A * s3], axis=-1)
        v = np.stack([A * w * c1, A * w2 * c2, 0.3 * A * w3 * c3], axis=-1)
        a = np.stack([-A * w * w * s1, -A * w2 * w2 * s2,
                      -0.3 * A * w3 * w3 * s3], axis=-1)
    return p, v, a


def _heading(spec, t):
    """Yaw/pitch angles and rates; orientation = Rz(yaw) Rx(pitch)."""
    w = 2.0 * np.pi / spec.period
    if spec.trajectory == "circle":
        yaw, dyaw = w * t + np.pi / 2.0, w
    else:
        yaw = 0.8 * np.sin(w * t)
        dyaw = 0.8 * w * np.cos(w * t)
    pitch = spec.pitch_amplitude * np.sin(2.0 * w * t)
    dpitch = 2.0 * spec.pitch_amplitude * w * np.cos(2.0 * w * t)
    return yaw, dyaw, pitch, dpitch


def gen_trajectory(spec, t):
    """True (position, quat, velocity, body rate, body specific force) at
    time t, or at each of an array of times (one row per time).

    The specific force is what an ideal accelerometer reads:
    R^T (a_world - gravity).
    """
    p, v, a = _translation(spec, t)
    yaw, dyaw, pitch, dpitch = _heading(spec, t)
    qz = quat_from_rotvec(np.multiply.outer(yaw, _EZ))
    qx = quat_from_rotvec(np.multiply.outer(pitch, _EX))
    q = quat_mul(qz, qx)
    # body rate of Rz(yaw) Rx(pitch): pitch-frame pullback of the yaw rate
    Rx_t = quat_to_mat(qx).swapaxes(-1, -2)
    omega = (_mv(Rx_t, np.multiply.outer(dyaw, _EZ))
             + np.multiply.outer(dpitch, _EX))
    accel_body = _mv(quat_to_mat(q).swapaxes(-1, -2), a - GRAVITY)
    return p, q, v, omega, accel_body


def gen_ground_truth(spec):
    n = int(round(spec.duration * spec.imu_rate)) + 1
    times = np.arange(n) / spec.imu_rate
    positions, quats, velocities, omegas, _ = gen_trajectory(spec, times)

    ss = np.random.SeedSequence(spec.seed)
    rng_bias, rng_feat = [np.random.default_rng(s) for s in ss.spawn(2)]
    dt = 1.0 / spec.imu_rate
    gyro_bias = np.zeros((n, 3))
    accel_bias = np.zeros((n, 3))
    if spec.noise.gyro_bias_rw > 0 or spec.noise.accel_bias_rw > 0:
        steps_g = rng_bias.normal(size=(n - 1, 3)) * (
            spec.noise.gyro_bias_rw * np.sqrt(dt))
        steps_a = rng_bias.normal(size=(n - 1, 3)) * (
            spec.noise.accel_bias_rw * np.sqrt(dt))
        gyro_bias[1:] = np.cumsum(steps_g, axis=0)
        accel_bias[1:] = np.cumsum(steps_a, axis=0)

    lo = np.asarray(spec.feature_lo)
    hi = np.asarray(spec.feature_hi)
    features = rng_feat.uniform(lo, hi, size=(spec.n_features, 3))
    return GroundTruth(times, positions, quats, velocities, omegas,
                       gyro_bias, accel_bias, features)


def gen_imu(spec, truth):
    """Measured IMU stream: one sample per inter-timestamp interval.

    Sample i reads the true rates at the interval midpoint plus the bias
    at t_i plus seeded white noise at the per-sample variance density^2 * rate.
    """
    ss = np.random.SeedSequence(spec.seed)
    rng = np.random.default_rng(ss.spawn(3)[2])
    m = len(truth.times) - 1
    dt = np.diff(truth.times)
    _, _, _, omega, accel = gen_trajectory(spec, truth.times[:-1] + 0.5 * dt)
    omega += truth.gyro_bias[:-1]
    accel += truth.accel_bias[:-1]
    if spec.noise.gyro_density > 0:
        omega += rng.normal(size=(m, 3)) * (
            spec.noise.gyro_density * np.sqrt(spec.imu_rate))
    if spec.noise.accel_density > 0:
        accel += rng.normal(size=(m, 3)) * (
            spec.noise.accel_density * np.sqrt(spec.imu_rate))
    return omega, accel, dt


def _project_all(spec, points, t):
    """Pixels + visibility mask for all points at true exposure time t."""
    p, q, _, _, _ = gen_trajectory(spec, t)
    R_wc = quat_to_mat(q) @ quat_to_mat(np.asarray(spec.q_ic))
    t_wc = p + quat_to_mat(q) @ np.asarray(spec.p_ic)
    y = (points - t_wc) @ R_wc
    fx, fy, cx, cy = spec.intrinsics
    z = y[:, 2]
    safe = np.where(z > 1e-9, z, 1.0)
    px = np.stack([fx * y[:, 0] / safe + cx, fy * y[:, 1] / safe + cy], axis=-1)
    depth = np.linalg.norm(y, axis=1)
    vis = ((z > spec.min_depth) & (depth < spec.max_depth)
           & (px[:, 0] >= 0) & (px[:, 0] <= 2 * cx)
           & (px[:, 1] >= 0) & (px[:, 1] <= 2 * cy))
    return px, vis


def gen_tracks(spec, truth):
    """Per-frame feature observations with persistent SLAM/MSCKF labels.

    A feature keeps its label while continuously visible; its slot frees
    when the track breaks. At most 15 SLAM and 35 MSCKF observations are
    emitted per frame.
    """
    ss = np.random.SeedSequence(spec.seed)
    rng = np.random.default_rng(ss.spawn(4)[3])
    n_frames = int(round(spec.duration * spec.cam_rate)) + 1
    active = {}  # fid -> 0 (slam) | 1 (msckf)
    frames = []
    for k in range(n_frames):
        t = k / spec.cam_rate
        px, vis = _project_all(spec, truth.features, t + spec.true_tsync)
        visible = set(np.flatnonzero(vis).tolist())
        active = {f: kind for f, kind in active.items() if f in visible}
        n_slam = sum(1 for kd in active.values() if kd == 0)
        n_msckf = len(active) - n_slam
        for f in sorted(visible - set(active)):
            if n_slam < SLAM_CAP:
                active[f] = 0
                n_slam += 1
            elif n_msckf < MSCKF_CAP:
                active[f] = 1
                n_msckf += 1
        fids = np.array(sorted(active), dtype=np.int64)
        kinds = np.array([active[f] for f in fids], dtype=np.int64)
        obs = px[fids]
        if spec.sigma_px > 0 and len(fids):
            obs = obs + rng.normal(size=obs.shape) * spec.sigma_px
        frames.append(Frame(k, t, fids, kinds, obs))
    return frames


def gen_dataset(spec):
    truth = gen_ground_truth(spec)
    omega, accel, dt = gen_imu(spec, truth)
    frames = gen_tracks(spec, truth)
    return Dataset(spec, truth, omega, accel, dt, frames)


# --------------------------------------------------------------------------
# pinned scenarios
# --------------------------------------------------------------------------


def default_scenario(seed=0):
    """60 s circle at moderate rates; the cross-estimator benchmark."""
    return ScenarioSpec(duration=60.0, imu_rate=100.0, cam_rate=4.0, seed=seed)


def conditioning_scenario(seed=0):
    """Long run whose growing unobservable-direction variance drives the
    square-root information factor past single-precision conditioning."""
    return ScenarioSpec(duration=360.0, imu_rate=100.0, cam_rate=4.0,
                        trajectory="circle", seed=seed)
