"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke runs start each workload through run.py, as the benchmark is
run, with a short time budget; they take about two minutes in all.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from srifkit import filters  # noqa: E402
from srifkit.linalg import FlopCounter  # noqa: E402

CATALOG = json.loads((HERE / "metrics.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_merged_clipped_children():
    #   0: root     [0, 10]
    #   1: a        [1, 4]   child of 0
    #   2: b        [3, 6]   child of 0, overlaps a
    #   3: a's kid  [2, 3]   child of 1
    #   4: c        [8, 12]  child of 0, runs past its parent
    start = [0.0, 1.0, 3.0, 2.0, 8.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    got = spans.self_times(start, end, parent)
    # root: 10 - ([1, 6] merged + [8, 10] clipped) = 10 - 5 - 2
    np.testing.assert_allclose(got, [3.0, 2.0, 3.0, 1.0, 4.0])


def test_layer_totals_of_hand_built_spans():
    tr = spans.Tracer()
    tr.names = ["vins.run_filter", "models.project_feature",
                "models.project_feature"]
    tr.start, tr.end = [0.0, 1.0, 2.0], [5.0, 1.5, 3.0]
    tr.parent = [-1, 0, 0]
    tr.failed = [False, True, False]
    tr.amount, tr.width, tr.flops = [0, 0, 0], [0, 0, 0], [0, 0, 0]
    tot = spans.layer_totals(tr)
    assert tot["models.project_feature"]["calls"] == 2
    assert tot["models.project_feature"]["fail"] == 1
    assert tot["models.project_feature"]["s"] == pytest.approx(1.5)
    assert tot["vins.run_filter"]["s"] == pytest.approx(3.5)


def test_local_scales_use_the_median_of_neighbouring_ticks():
    ref = calibrate.TICK_REF_S
    # a slow phase from operation 3 on; one burst tick at 1
    ticks = [ref, 5 * ref, ref, 2 * ref, 2 * ref, 2 * ref]
    got = calibrate.local_scales(ticks, half=1)
    # windows: [0:2] [0:3] [1:4] [2:5] [3:6] [4:6]
    np.testing.assert_allclose(got, [1 / 3, 1, 1 / 2, 1 / 2, 1 / 2, 1 / 2])


def test_frame_clock_ticks_between_frames_and_times_each_frame():
    class Cal:
        def __init__(self):
            self.calls = 0

        def tick(self):
            self.calls += 1
            return 1e-3

    cal = Cal()
    clock = workloads.FrameClock(["f0", "f1", "f2", "f3"], cal=cal)
    assert clock[0] == "f0"
    assert list(clock[1:]) == ["f1", "f2", "f3"]
    assert cal.calls == 3 and clock.ticks == [1e-3] * 3
    assert len(clock.latencies) == 3
    assert all(t >= 0 for t in clock.latencies)


def _bindings():
    import importlib
    got = {(m, a): getattr(importlib.import_module(m), a)
           for m, a, _ in spans.TARGETS}
    got[("FlopCounter", "add")] = FlopCounter.add
    return got


def test_instrument_restores_original_bindings():
    before = _bindings()
    tr = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.instrument(tr):
            during = _bindings()
            assert all(during[k] is not before[k] for k in before)
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_spans_nest_and_count_flops():
    inp = workloads.update_input(np.random.default_rng(0))
    tr = spans.Tracer()
    with spans.instrument(tr):
        workloads.call_kernel("pcsrif32", inp)
    top = tr.names.index("filters.pcsrif_update")
    assert tr.parent[top] == -1
    assert tr.amount[top] == workloads.M
    assert tr.width[top] == workloads.N2
    assert tr.flops[top] > 0
    assert tr.flop_adds > 0
    kids = {tr.names[i] for i, p in enumerate(tr.parent) if p == top}
    assert {"filters.build_preconditioner", "linalg.cholesky_upper",
            "linalg.form_normal_half"} <= kids
    assert filters.pcsrif_update.__name__ == "pcsrif_update"


def test_catalog_matches_benchmark_json():
    assert ([w["name"] for w in CATALOG["workloads"]]
            == [w["name"] for w in BENCHMARK["workloads"]]
            == list(workloads.WORKLOADS))
    for kind in ("end_to_end", "per_layer"):
        assert ([(m["name"], m["unit"], m["better"]) for m in CATALOG[kind]]
                == [(m["name"], m["unit"], m["better"])
                    for m in BENCHMARK[kind]])


def _smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_end_to_end(workload):
    metrics = _smoke(workload, 0)
    assert list(metrics) == [m["name"] for m in CATALOG["end_to_end"]]
    for m in CATALOG["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_per_layer(workload):
    metrics = _smoke(workload, 1)
    assert list(metrics) == [m["name"] for m in CATALOG["per_layer"]]
    # each layer metric is reached on the workloads that should move it;
    # failures stay 0 and the tracing overhead may read either way
    for m in CATALOG["per_layer"]:
        name = m["name"]
        if workload in m["on"] and not (name.endswith(".fail")
                                        or name == "trace.overhead_s"):
            assert metrics[name]["value"] > 0, name
