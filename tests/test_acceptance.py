"""Acceptance suite: one pass/fail line per headline claim.

Each of claims 1-7 is a `measure_<k>` function that returns the claim's
numbers, beside a `verdict_<k>` that reads them: the claim's label, whether
it holds, and the numbers its line shows. Each test prints a single
`[PASS]`/`[FAIL]` line (visible under `pytest -s` or in failure output)
before asserting.

Run as a script, the file measures claims 1-7 once, prints their lines and
writes the claims file: JSON holding each claim's label, pass flag and
numbers, the update-kernel sweep's counted FLOPs, all wall times apart
under "noisy", and the environment manifest.json records. Run from the
repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_acceptance.py OUTPUT.json
"""

import collections
import dataclasses
import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import srifkit

from srifkit import cli
from srifkit.diag import compute_metrics
from srifkit.filters import (
    apply_preconditioner_inverse,
    build_preconditioner,
    if_update_oracle,
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


def line(number, label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    return f"[{'PASS' if ok else 'FAIL'}] {number}. {label}{suffix}"


def report(number, label, ok, detail=""):
    text = line(number, label, ok, detail)
    print(text)
    assert ok, text


class Measured(dict):
    """Claim number -> its numbers, measured on first lookup and then kept,
    so claims 5 and 6 share one set of conditioning runs and the claims
    file holds what the claim tests measured."""

    @functools.cached_property
    def conditioning_runs(self):
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

    def __missing__(self, k):
        measure = CLAIMS[k][0]
        self[k] = (measure(self.conditioning_runs) if k in (5, 6)
                   else measure())
        return self[k]


@pytest.fixture(scope="module")
def measured():
    return Measured()


def _ate(res, truth):
    m = compute_metrics(res.times, res.positions, res.quats,
                        truth.times, truth.positions, truth.quats)
    return {"ate_translation_m": m.ate_translation,
            "ate_rotation_deg": m.ate_rotation}


def measure_1():
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
    return {
        "scenario": json.loads(ds.spec.to_json()),
        "estimators": {est: {
            **_ate(res, ds.truth),
            "update_flops": res.flops["update"],
            "max_position_divergence_from_srif_m": float(
                np.abs(res.positions - ref.positions).max()),
        } for est, res in runs.items()},
        "max_normalized_divergence": worst,
        "noisy": {"elapsed_s": elapsed},
    }


def verdict_1(m):
    worst, elapsed = m["max_normalized_divergence"], m["noisy"]["elapsed_s"]
    return ("KF/SRIF/PC-SRIF equivalence on 60 s scenario",
            worst <= 1e-6 and elapsed <= 120.0,
            f"max normalized divergence {worst:.2e}, {elapsed:.0f} s")


def measure_2():
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
    return {"factors": 200, "worst_relative_error": float(worst)}


def verdict_2(m):
    worst = m["worst_relative_error"]
    return ("marginalization matches Schur complement over 200 factors",
            worst <= 1e-10, f"worst relative error {worst:.2e}")


def _marginalization_flops(rng, n, p):
    R = random_factor(rng, n)
    fg, fh = FlopCounter(), FlopCounter()
    marginalize_block(R, [p], flops=fg)
    marginalize_oracle_householder(R, p, flops=fh)
    return {"n": n, "p": p, "givens_flops": fg.total(),
            "householder_flops": fh.total(),
            "ratio": fg.total() / fh.total()}


def measure_3():
    rng = np.random.default_rng(1)
    table = [_marginalization_flops(rng, 128, p)
             for p in (8, 16, 20, 30, 32, 45, 64, 120)]
    # p <= 0.35 n keeps the leading-order term dominant; the exact cost of
    # both paths tapers as p approaches n
    fit = [row for row in table if row["p"] in (20, 30, 45)]
    logp = np.log([row["p"] for row in fit])
    slopes = {f"slope_{path}": float(np.polyfit(
        logp, np.log([row[f"{path}_flops"] for row in fit]), 1)[0])
        for path in ("givens", "householder")}
    return {"table": table, **slopes,
            "last_state": _marginalization_flops(rng, 120, 119)}


def verdict_3(m):
    slope_g, slope_h = m["slope_givens"], m["slope_householder"]
    ratio = m["last_state"]["ratio"]
    return ("Givens marginalization is O(np) vs O(np^2) Householder",
            abs(slope_g - 1.0) <= 0.2 and abs(slope_h - 2.0) <= 0.2
            and ratio <= 0.2,
            f"slopes {slope_g:.2f}/{slope_h:.2f}, cost ratio {ratio:.3f} at "
            f"p=n=120")


def measure_4():
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
    return {"m": m, "n1": n1, "n2": n2, "qr_flops": fq.total(),
            "two_m_n2_squared": target, "pc_flops": fp.total(),
            "preconditioning_flops": fa.total(),
            "qr_over_two_m_n2_squared": fq.total() / target,
            "pc_over_qr": fp.total() / fq.total(),
            "preconditioning_over_qr": fa.total() / fq.total()}


def verdict_4(m):
    qr, pc, pre = (m["qr_over_two_m_n2_squared"], m["pc_over_qr"],
                   m["preconditioning_over_qr"])
    return ("update FLOPs: QR ~ 2mn2^2, Cholesky path <= 0.75x, "
            "preconditioning <= 10%",
            abs(qr - 1.0) <= 0.15 and pc <= 0.75 and pre <= 0.10,
            f"QR/2mn2^2 = {qr:.3f}, PC/QR = {pc:.3f}, "
            f"precond/QR = {pre:.3f}")


def measure_5(runs):
    rec = runs["srif64"].conditioning
    ts = np.array([c.t for c in rec])
    smax = np.array([c.sigma_max_p for c in rec])
    smin = np.array([c.sigma_min_p for c in rec])
    i10 = int(np.searchsorted(ts, 10.0))
    return {
        "scenario": json.loads(runs["dataset"].spec.to_json()),
        "records": [{k: float(v) for k, v in dataclasses.asdict(c).items()}
                    for c in rec],
        **{f"max_{field}": max(float(getattr(c, field)) for c in rec)
           for field in ("kappa2_r22_post", "kappa2_r22_post_scaled",
                         "kappa2_r22_post_precond")},
        "sigma_max_growth": float(smax[-1] / smax[i10]),
        "sigma_min_growth": float(max(smin[-1] / smin[i10],
                                      smin[i10] / smin[-1])),
    }


def verdict_5(m):
    k_post, k_scaled, k_pc = (m["max_kappa2_r22_post"],
                              m["max_kappa2_r22_post_scaled"],
                              m["max_kappa2_r22_post_precond"])
    smax_growth, smin_growth = m["sigma_max_growth"], m["sigma_min_growth"]
    return ("conditioning growth, diagonal scaling insufficient, "
            "preconditioner sufficient",
            k_post > 8.4e6 and k_scaled > 8.4e6 and k_pc < 1e5
            and smax_growth >= 10.0 and smin_growth < 10.0,
            f"max k2 {k_post:.2e}, scaled {k_scaled:.2e}, "
            f"precond {k_pc:.2e}, sigma_max x{smax_growth:.1f}, "
            f"sigma_min x{smin_growth:.1f}")


def measure_6(runs):
    truth = runs["dataset"].truth
    out = {name: {"ate_translation_m": _ate(runs[name], truth)[
                      "ate_translation_m"],
                  "events": len(runs[name].events),
                  "events_by_kind": dict(collections.Counter(
                      e.kind for e in runs[name].events))}
           for name in ("srif64", "pcsrif32", "if32")}
    ate32 = out["pcsrif32"]["ate_translation_m"]
    ate64 = out["srif64"]["ate_translation_m"]
    out["pcsrif32_ate_relative_difference"] = abs(ate32 - ate64) / ate64
    first = runs["if32"].events[:1]
    out["first_if_event"] = ({"t": first[0].t, "kind": first[0].kind}
                             if first else None)
    return out


def verdict_6(m):
    npd = m["pcsrif32"]["events_by_kind"].get("not-positive-definite", 0)
    ate32 = m["pcsrif32"]["ate_translation_m"]
    ate64 = m["srif64"]["ate_translation_m"]
    n_if = m["if32"]["events"]
    return ("binary32 PC-SRIF stays stable where the information filter "
            "does not",
            npd == 0 and m["pcsrif32_ate_relative_difference"] <= 0.05
            and n_if >= 1,
            f"PC-SRIF NPD events {npd}, ATE {ate32:.4f} vs {ate64:.4f} m, "
            f"IF instability events {n_if}")


def measure_7():
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
    return {"scenes_checked": checked, "worst_jacobian_error": worst_jac,
            "worst_posterior_identity_error": float(worst_post),
            "triangular": triangular}


def verdict_7(m):
    checked = m["scenes_checked"]
    worst_jac = m["worst_jacobian_error"]
    worst_post = m["worst_posterior_identity_error"]
    return ("Jacobians match finite differences; posterior factor exact "
            "and triangular",
            checked >= 80 and worst_jac <= 1e-4 and worst_post <= 1e-9
            and m["triangular"],
            f"{checked} scenes, worst Jacobian error {worst_jac:.2e}, "
            f"worst posterior identity {worst_post:.2e}")


CLAIMS = {1: (measure_1, verdict_1), 2: (measure_2, verdict_2),
          3: (measure_3, verdict_3), 4: (measure_4, verdict_4),
          5: (measure_5, verdict_5), 6: (measure_6, verdict_6),
          7: (measure_7, verdict_7)}


def test_1_estimator_equivalence(measured):
    report(1, *verdict_1(measured[1]))


def test_2_marginalization_oracle(measured):
    report(2, *verdict_2(measured[2]))


def test_3_marginalization_complexity(measured):
    report(3, *verdict_3(measured[3]))


def test_4_update_flop_ratios(measured):
    report(4, *verdict_4(measured[4]))


def test_5_conditioning_reproduction(measured):
    report(5, *verdict_5(measured[5]))


def test_6_mixed_precision_stability(measured):
    report(6, *verdict_6(measured[6]))


def test_7_jacobian_and_posterior_properties(measured):
    report(7, *verdict_7(measured[7]))


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


# The update-kernel sweep runs on perfbench's update-m995 input (its first
# input set at seed 0: the prior is the Cholesky factor of I + A A^T with
# A of scale 0.3, H2 and r are Gaussian), cut to its first m rows.
SWEEP_ROWS = (36, 100, 254, 500, 663, 995)
SWEEP_N1, SWEEP_N2 = 9, 122
SWEEP_OFFSETS = [1 + 6 * i for i in range(11)]
SWEEP_ROUNDS = 25


def sweep_input():
    rng = np.random.default_rng(0)
    n = SWEEP_N1 + SWEEP_N2
    A = rng.normal(size=(n, n)) * 0.3
    R = np.linalg.cholesky(A @ A.T + np.eye(n)).T
    return (R, rng.normal(size=(max(SWEEP_ROWS), SWEEP_N2)),
            rng.normal(size=max(SWEEP_ROWS)))


def sweep_calls(R, H2, r, m):
    """Each kernel at each precision on the first m rows, as a call that
    takes the FlopCounter."""
    calls = {}
    for bits, dtype in (("32", np.float32), ("64", np.float64)):
        args = [x.astype(dtype) for x in (R, H2[:m], r[:m])]
        calls["srif" + bits] = functools.partial(
            srif_update_partitioned, *args, SWEEP_N1)
        calls["pcsrif" + bits] = functools.partial(
            pcsrif_update, *args, SWEEP_N1, SWEEP_OFFSETS)
        calls["if" + bits] = functools.partial(
            if_update_oracle, *args, SWEEP_N1)
    return calls


def sweep_flops(calls):
    counts = {}
    for name, call in calls.items():
        fc = FlopCounter()
        call(flops=fc)
        counts[name] = fc.total()
    return counts


def measure_kernels():
    """Counted FLOPs of every kernel at each m, and under "noisy" the
    median ms of SWEEP_ROUNDS interleaved rounds of calls (each call
    counting its FLOPs, as the engine's do) with pcsrif32's ratios."""
    inp = sweep_input()
    rows, noisy = [], []
    for m in SWEEP_ROWS:
        calls = sweep_calls(*inp, m)
        rows.append({"m": m, "flops": sweep_flops(calls)})
        ms = collections.defaultdict(list)
        for _ in range(SWEEP_ROUNDS):
            for name, call in calls.items():
                t0 = time.perf_counter()
                call(flops=FlopCounter())
                ms[name].append((time.perf_counter() - t0) * 1e3)
        med = {name: float(np.median(v)) for name, v in ms.items()}
        noisy.append({"m": m, "median_ms": med, **{
            f"pcsrif32_over_{k}": med["pcsrif32"] / med[k]
            for k in ("srif64", "srif32", "if32")}})
    return {"n1": SWEEP_N1, "n2": SWEEP_N2, "poses": len(SWEEP_OFFSETS),
            "rounds": SWEEP_ROUNDS, "rows": rows, "noisy": noisy}


def kernel_line(row, times):
    f, t = row["flops"], times["median_ms"]
    return (f"m={row['m']}: FLOPs QR {f['srif64'] / 1e6:.1f} M, PC "
            f"{f['pcsrif64'] / 1e6:.1f} M; pcsrif32 {t['pcsrif32']:.3f} ms"
            f" = {times['pcsrif32_over_srif64']:.2f}x srif64, "
            f"{times['pcsrif32_over_srif32']:.2f}x srif32, "
            f"{times['pcsrif32_over_if32']:.2f}x if32")


def write_claims(path, measured):
    """Print each of claims 1-7's line, measuring what `measured` does not
    yet hold, and one line per m of the kernel sweep, and write the claims
    file to `path`. True when all claims hold."""
    claims, noisy = {}, {}
    for k, (_, verdict) in CLAIMS.items():
        numbers = dict(measured[k])
        label, ok, detail = verdict(numbers)
        print(line(k, label, ok, detail), flush=True)
        if "noisy" in numbers:
            noisy[str(k)] = numbers.pop("noisy")
        claims[k] = {"label": label, "pass": bool(ok), "numbers": numbers}
    kernels = measure_kernels()
    noisy["kernels"] = kernels.pop("noisy")
    for row, times in zip(kernels["rows"], noisy["kernels"]):
        print(kernel_line(row, times), flush=True)
    Path(path).write_text(json.dumps(
        {"environment": cli.environment(), "claims": claims,
         "kernels": kernels, "noisy": noisy},
        indent=1, sort_keys=True) + "\n")
    return all(claim["pass"] for claim in claims.values())


def test_claims_file(measured, tmp_path, capsys):
    # placed after claims 1-7, so it reuses their numbers; of the file's
    # contents only the kernel sweep is measured here
    path = tmp_path / "BENCH.json"
    assert write_claims(path, measured)
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 7
    assert out.count("x srif64") == len(SWEEP_ROWS)
    data = json.loads(path.read_text())
    assert data["environment"] == cli.environment()
    assert list(data["claims"]) == [str(k) for k in CLAIMS]
    for k, claim in data["claims"].items():
        assert claim["pass"] is True
        exact = {f: v for f, v in measured[int(k)].items() if f != "noisy"}
        assert claim["numbers"] == exact
    # claim 1's counted update FLOPs, every Cholesky counted by
    # `cholesky_upper`'s model
    assert {est: numbers["update_flops"] for est, numbers in
            data["claims"]["1"]["numbers"]["estimators"].items()} == {
        "kf": 1574903378, "srif": 254646841, "pcsrif": 406991012}
    # the sweep's counted FLOPs are exact: a recount gives them, at every
    # precision, and at m = 995 they are the closed-form update totals
    # `test_filters.py::TestUpdateFlopTotals` pins
    kernels = data["kernels"]
    assert [row["m"] for row in kernels["rows"]] == list(SWEEP_ROWS)
    inp = sweep_input()
    for row in kernels["rows"]:
        assert row["flops"] == sweep_flops(sweep_calls(*inp, row["m"]))
        for kind in ("srif", "pcsrif", "if"):
            assert row["flops"][kind + "32"] == row["flops"][kind + "64"]
    assert kernels["rows"][-1]["flops"]["srif64"] == 30406648
    assert kernels["rows"][-1]["flops"]["pcsrif64"] == 17559721
    assert set(data["noisy"]) == {"1", "kernels"}
    assert data["noisy"]["1"] == measured[1]["noisy"]
    names = {f"{kind}{bits}" for kind in ("srif", "pcsrif", "if")
             for bits in ("32", "64")}
    for row in data["noisy"]["kernels"]:
        assert set(row["median_ms"]) == names
        assert all(t > 0 for t in row["median_ms"].values())
        assert {"pcsrif32_over_srif64", "pcsrif32_over_srif32",
                "pcsrif32_over_if32"} < set(row)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTPUT.json")
    sys.exit(0 if write_claims(sys.argv[1], Measured()) else 1)
