import numpy as np
import pytest

from srifkit.diag import (
    compute_ate,
    compute_metrics,
    compute_rte,
    record_conditioning,
)
from srifkit.filters import apply_preconditioner_inverse, build_preconditioner
from srifkit.state import quat_from_rotvec, quat_mul

from tolerances import cond2


def straight_trajectory(n=51, dt=0.1, speed=1.0):
    times = np.arange(n) * dt
    pos = np.zeros((n, 3))
    pos[:, 0] = speed * times
    quats = np.tile([0.0, 0.0, 0.0, 1.0], (n, 1))
    return times, pos, quats


def yawed_shifted(pos, quats, yaw_deg=10.0, shift=(1.0, 0.0, 0.0)):
    th = np.radians(yaw_deg)
    c, s = np.cos(th), np.sin(th)
    Rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    qz = quat_from_rotvec(np.array([0.0, 0.0, th]))
    pos2 = pos @ Rz.T + np.asarray(shift)
    quats2 = np.array([quat_mul(qz, q) for q in quats])
    return pos2, quats2


class TestConditioningRecord:
    def test_identity_all_unit(self):
        R22 = np.eye(8)
        rec = record_conditioning(0.0, R22, [0], np.eye(8))
        assert rec.kappa2_r22_post == 1.0
        assert rec.kappa2_r22_post_scaled == 1.0
        assert rec.kappa2_r22_post_precond == 1.0
        assert rec.sigma_max_p == rec.sigma_min_p == 1.0

    def test_singular_factor_records_infinite_kappas(self):
        # sigma_min = 0 reads inf, with no division warning
        R22 = np.eye(8)
        R22[7, 7] = 0.0
        rec = record_conditioning(0.0, R22, [0], np.eye(8))
        assert (rec.kappa2_r22_post == rec.kappa2_r22_post_scaled
                == rec.kappa2_r22_post_precond == float("inf"))

    def test_all_kappas_at_least_one(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(12, 12)) * 0.4
        from srifkit.linalg import cholesky_upper
        R22 = cholesky_upper(A @ A.T + np.eye(12))
        rec = record_conditioning(1.5, R22, [0, 6], np.eye(12))
        for v in (rec.kappa2_r22_post, rec.kappa2_r22_post_scaled,
                  rec.kappa2_r22_post_precond):
            assert v >= 1.0

    def test_precond_kappa_reuses_the_preconditioners_product(self):
        # the preconditioner built from the posterior holds R22 M_SPAI^-1;
        # scaled, it is the preconditioned posterior a second solve gives
        rng = np.random.default_rng(1)
        A = rng.normal(size=(19, 19)) * 0.4
        from srifkit.linalg import cholesky_upper
        R22 = cholesky_upper(A @ A.T + np.eye(19))
        offsets = [1, 7, 13]
        rec = record_conditioning(2.0, R22, offsets, np.eye(19))
        k = cond2(apply_preconditioner_inverse(
            build_preconditioner(R22, offsets), R22))
        assert rec.kappa2_r22_post_precond == k * k


class TestAte:
    def test_exact_estimate(self):
        times, pos, quats = straight_trajectory()
        ate = compute_ate(times, pos, quats, times, pos, quats)
        assert np.allclose(ate, (0.0, 0.0), atol=1e-12)

    def test_yaw_shift_absorbed(self):
        times, pos, quats = straight_trajectory()
        pos2, quats2 = yawed_shifted(pos, quats)
        ate = compute_ate(times, pos2, quats2, times, pos, quats)
        assert np.allclose(ate, (0.0, 0.0), atol=1e-9)
        rte = compute_rte(times, pos2, quats2, times, pos, quats)
        assert np.allclose(rte, (0.0, 0.0), atol=1e-9)

    def test_constant_offset_rms_oracle(self):
        # a zero-mean alternating offset survives alignment; brute-force RMS
        times, pos, quats = straight_trajectory(n=10, dt=1.0)
        bias = np.zeros((10, 3))
        bias[::2, 2] = 0.1
        bias[1::2, 2] = -0.1
        ate_t, _ = compute_ate(times, pos + bias, quats, times, pos, quats)
        resid = bias - bias.mean(axis=0)
        ref = np.sqrt(np.mean(np.sum(resid ** 2, axis=1)))
        assert np.isclose(ate_t, ref, rtol=1e-9)

    def test_no_overlap(self):
        times, pos, quats = straight_trajectory()
        with pytest.raises(ValueError):
            compute_ate(times + 1e6, pos, quats, times, pos, quats)

    def test_time_reversal_symmetry(self):
        rng = np.random.default_rng(1)
        times, pos, quats = straight_trajectory()
        pos_e = pos + rng.normal(size=pos.shape) * 0.05
        m1 = compute_metrics(times, pos_e, quats, times, pos, quats)
        rev = slice(None, None, -1)
        t2 = times[-1] - times[rev]
        m2 = compute_metrics(t2, pos_e[rev], quats[rev], t2, pos[rev],
                             quats[rev])
        assert np.isclose(m1.ate_translation, m2.ate_translation)
        assert np.isclose(m1.rte_translation, m2.rte_translation)


class TestRte:
    def test_unaligned_offset_invisible_to_rte(self):
        # constant offset cancels in relative motion
        times, pos, quats = straight_trajectory()
        rte = compute_rte(times, pos + [5.0, 0, 0], quats, times, pos, quats)
        assert np.allclose(rte, (0.0, 0.0), atol=1e-12)

    def test_interval_too_long(self):
        times, pos, quats = straight_trajectory(n=5, dt=0.1)
        with pytest.raises(ValueError):
            compute_rte(times, pos, quats, times, pos, quats)

    def test_metrics_report_nan_rte_without_a_pair(self):
        times, pos, quats = straight_trajectory(n=5, dt=0.1)
        m = compute_metrics(times, pos, quats, times, pos, quats)
        assert np.allclose((m.ate_translation, m.ate_rotation), 0.0,
                           atol=1e-12)
        assert np.isnan(m.rte_translation) and np.isnan(m.rte_rotation)
