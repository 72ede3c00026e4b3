"""Acceptance suite: one pass/fail line per headline claim.

Each test exercises a full claim end to end and prints a single
`[PASS]`/`[FAIL]` line (visible under `pytest -s` or in failure output)
before asserting.
"""

import dataclasses
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import srifkit

from srifkit.filters import (
    apply_preconditioner_inverse,
    build_preconditioner,
    marginalize_block,
    pcsrif_update,
    srif_update_partitioned,
)
from srifkit.linalg import FlopCounter
from srifkit.sim import conditioning_scenario, default_scenario, gen_dataset
from srifkit.state import boxplus, layout_of
from srifkit.vins import FilterConfig, run_filter

from householder_reference import marginalize_oracle_householder
from test_filters import random_factor, schur_marginal_info
from model_reference import BehindCamera
from test_models import make_scene, project_one, scene_motion


def report(number, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {number}. {label}{suffix}")
    assert ok, f"{label}{suffix}"


@pytest.fixture(scope="module")
def conditioning_runs():
    ds = gen_dataset(conditioning_scenario(0))
    return {
        "dataset": ds,
        "srif64": run_filter(ds, FilterConfig(estimator="srif",
                                              precision="binary64")),
        "pcsrif32": run_filter(ds, FilterConfig(estimator="pcsrif",
                                                precision="binary32")),
        "if32": run_filter(ds, FilterConfig(estimator="if-oracle",
                                            precision="binary32")),
    }


def _ate(res, truth):
    from srifkit.diag import compute_metrics
    return compute_metrics(res.times, res.positions, res.quats,
                           truth.times, truth.positions, truth.quats)


def test_1_estimator_equivalence():
    ds = gen_dataset(default_scenario(0))
    t0 = time.perf_counter()
    runs = {est: run_filter(ds, FilterConfig(estimator=est))
            for est in ("kf", "srif", "pcsrif")}
    elapsed = time.perf_counter() - t0
    ref = runs["srif"]
    worst = 0.0
    for res in runs.values():
        scale = np.maximum(1.0, np.abs(ref.positions))
        worst = max(worst, float(
            (np.abs(res.positions - ref.positions) / scale).max()))
        worst = max(worst, float(np.abs(res.quats - ref.quats).max()))
    report(1, "KF/SRIF/PC-SRIF equivalence on 60 s scenario",
           worst <= 1e-6 and elapsed <= 120.0,
           f"max normalized divergence {worst:.2e}, {elapsed:.0f} s")


def test_2_marginalization_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(5, 61))
        R = random_factor(rng, n)
        for p in range(n):
            out = marginalize_block(R, [p])
            ref = schur_marginal_info(R, p)
            worst = max(worst, np.linalg.norm(out.T @ out - ref)
                        / np.linalg.norm(ref))
            hh = marginalize_oracle_householder(R, p)
            worst = max(worst, np.linalg.norm(out.T @ out - hh.T @ hh)
                        / np.linalg.norm(ref))
    report(2, "marginalization matches Schur complement over 200 factors",
           worst <= 1e-10, f"worst relative error {worst:.2e}")


def test_3_marginalization_complexity():
    rng = np.random.default_rng(1)
    n = 128
    # p <= 0.35 n keeps the leading-order term dominant; the exact cost of
    # both paths tapers as p approaches n
    ps = np.array([20, 30, 45])
    giv, hh = [], []
    for p in ps:
        R = random_factor(rng, n)
        fg, fh = FlopCounter(), FlopCounter()
        marginalize_block(R, [int(p)], flops=fg)
        marginalize_oracle_householder(R, int(p), flops=fh)
        giv.append(fg.total())
        hh.append(fh.total())
    slope_g = np.polyfit(np.log(ps), np.log(giv), 1)[0]
    slope_h = np.polyfit(np.log(ps), np.log(hh), 1)[0]
    R = random_factor(rng, 120)
    fg, fh = FlopCounter(), FlopCounter()
    marginalize_block(R, [119], flops=fg)
    marginalize_oracle_householder(R, 119, flops=fh)
    ratio = fg.total() / fh.total()
    ok = (abs(slope_g - 1.0) <= 0.2 and abs(slope_h - 2.0) <= 0.2
          and ratio <= 0.2)
    report(3, "Givens marginalization is O(np) vs O(np^2) Householder", ok,
           f"slopes {slope_g:.2f}/{slope_h:.2f}, cost ratio {ratio:.3f} at "
           f"p=n=120")


def test_4_update_flop_ratios():
    rng = np.random.default_rng(2)
    m, n1, n2 = 995, 9, 122
    offsets = [1 + 6 * i for i in range(11)]
    R = random_factor(rng, n1 + n2)
    H2 = rng.normal(size=(m, n2))
    r = rng.normal(size=m)
    fq = FlopCounter()
    srif_update_partitioned(R, H2, r, n1, flops=fq)
    target = 2 * m * n2 * n2
    fp = FlopCounter()
    pcsrif_update(R, H2, r, n1, offsets, flops=fp)
    pc = build_preconditioner(R[n1:, n1:], offsets)
    fa = FlopCounter()
    apply_preconditioner_inverse(pc, H2, flops=fa)
    apply_preconditioner_inverse(pc, R[n1:, n1:], flops=fa)
    ok = (abs(fq.total() - target) <= 0.15 * target
          and fp.total() <= 0.75 * fq.total()
          and fa.total() <= 0.10 * fq.total())
    report(4, "update FLOPs: QR ~ 2mn2^2, Cholesky path <= 0.75x, "
              "preconditioning <= 10%", ok,
           f"QR/2mn2^2 = {fq.total() / target:.3f}, "
           f"PC/QR = {fp.total() / fq.total():.3f}, "
           f"precond/QR = {fa.total() / fq.total():.3f}")


def test_5_conditioning_reproduction(conditioning_runs):
    rec = conditioning_runs["srif64"].conditioning
    ts = np.array([c.t for c in rec])
    k_post = np.array([c.kappa2_r22_post for c in rec])
    k_scaled = np.array([c.kappa2_r22_post_scaled for c in rec])
    k_pc = np.array([c.kappa2_r22_post_precond for c in rec])
    smax = np.array([c.sigma_max_p for c in rec])
    smin = np.array([c.sigma_min_p for c in rec])
    i10 = int(np.searchsorted(ts, 10.0))
    smax_growth = smax[-1] / smax[i10]
    smin_growth = max(smin[-1] / smin[i10], smin[i10] / smin[-1])
    ok = (k_post.max() > 8.4e6 and k_scaled.max() > 8.4e6
          and k_pc.max() < 1e5
          and smax_growth >= 10.0 and smin_growth < 10.0)
    report(5, "conditioning growth, diagonal scaling insufficient, "
              "preconditioner sufficient", ok,
           f"max k2 {k_post.max():.2e}, scaled {k_scaled.max():.2e}, "
           f"precond {k_pc.max():.2e}, sigma_max x{smax_growth:.1f}, "
           f"sigma_min x{smin_growth:.1f}")


def test_6_mixed_precision_stability(conditioning_runs):
    truth = conditioning_runs["dataset"].truth
    r32 = conditioning_runs["pcsrif32"]
    r64 = conditioning_runs["srif64"]
    npd = sum(1 for e in r32.events if e.kind == "not-positive-definite")
    ate32 = _ate(r32, truth).ate_translation
    ate64 = _ate(r64, truth).ate_translation
    n_if = len(conditioning_runs["if32"].events)
    ok = (npd == 0 and abs(ate32 - ate64) <= 0.05 * ate64 and n_if >= 1)
    report(6, "binary32 PC-SRIF stays stable where the information filter "
              "does not", ok,
           f"PC-SRIF NPD events {npd}, ATE {ate32:.4f} vs {ate64:.4f} m, "
           f"IF instability events {n_if}")


def test_7_jacobian_and_posterior_properties():
    worst_jac = 0.0
    checked = 0
    h = 1e-6
    for seed in range(100):
        st = make_scene(seed=seed, tsync=0.001)
        motion = scene_motion()
        lay = layout_of(st)
        try:
            px, blocks = project_one(st, 0, 2, motion)
        except BehindCamera:
            continue
        checked += 1
        # each block's columns, by its error-state offset
        for off, J in blocks.items():
            for k in range(J.shape[1]):
                d = np.zeros(lay.n)
                d[off + k] = h
                pp, _ = project_one(boxplus(st, d), 0, 2, motion)
                pm, _ = project_one(boxplus(st, -d), 0, 2, motion)
                fd = (pp - pm) / (2 * h)
                scale = max(np.abs(J).max(), 1.0)
                worst_jac = max(worst_jac,
                                float(np.abs(fd - J[:, k]).max() / scale))
    rng = np.random.default_rng(3)
    worst_post = 0.0
    triangular = True
    for _ in range(100):
        n1 = int(rng.integers(1, 6))
        n2 = int(rng.integers(4, 20))
        m = int(rng.integers(3, 40))
        R = random_factor(rng, n1 + n2)
        H2 = rng.normal(size=(m, n2))
        res = srif_update_partitioned(R, H2, rng.normal(size=m), n1)
        H = np.zeros((m, n1 + n2))
        H[:, n1:] = H2
        info = R.T @ R + H.T @ H
        worst_post = max(worst_post,
                         np.linalg.norm(res.R_post.T @ res.R_post - info)
                         / np.linalg.norm(info))
        triangular &= bool(np.allclose(np.tril(res.R_post, -1), 0.0))
    ok = (checked >= 80 and worst_jac <= 1e-4 and worst_post <= 1e-9
          and triangular)
    report(7, "Jacobians match finite differences; posterior factor exact "
              "and triangular", ok,
           f"{checked} scenes, worst Jacobian error {worst_jac:.2e}, "
           f"worst posterior identity {worst_post:.2e}")


def test_8_determinism(tmp_path):
    spec = dataclasses.replace(default_scenario(5), duration=10.0)
    scen = tmp_path / "scen.json"
    scen.write_text(spec.to_json())
    # the CLI runs the srifkit these tests import, installed or not
    src = str(Path(srifkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cp = subprocess.run(
            [sys.executable, "-m", "srifkit.cli", "run",
             "--scenario", str(scen), "--estimator", "pcsrif",
             "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert cp.returncode == 0, cp.stderr
        outs.append(out)
    identical = True
    for name in ("trajectory.txt", "conditioning.csv", "metrics.csv",
                 "flops.csv", "events.csv", "manifest.json"):
        identical &= ((outs[0] / name).read_bytes()
                      == (outs[1] / name).read_bytes())
    report(8, "repeated invocations are byte-identical", identical)
