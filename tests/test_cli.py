"""Command-line interface: artifacts, determinism, compare semantics."""

import dataclasses
import json
import os

import numpy as np
import pytest

from srifkit import cli
from srifkit.sim import default_scenario, gen_dataset
from srifkit.vins import EstimatorAbort, FilterConfig, run_filter

ARTIFACTS = ("trajectory.txt", "conditioning.csv", "metrics.csv",
             "flops.csv", "timing.csv", "events.csv", "manifest.json")
DETERMINISTIC = tuple(a for a in ARTIFACTS if a != "timing.csv")


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("scen")
    spec = dataclasses.replace(default_scenario(11), duration=6.0,
                               n_features=60)
    path = root / "scen.json"
    path.write_text(spec.to_json())
    return str(path)


def test_run_writes_all_artifacts(scenario_file, tmp_path):
    out = str(tmp_path / "run")
    assert cli.main(["run", "--scenario", scenario_file, "--out", out]) == 0
    for name in ARTIFACTS:
        assert os.path.exists(os.path.join(out, name)), name
    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert manifest["status"] == "completed"
    assert len(manifest["scenario_hash"]) == 64
    # headers carry a format version
    for name in ("conditioning.csv", "metrics.csv", "flops.csv"):
        first = open(os.path.join(out, name)).readline()
        assert first.startswith("# srifkit-")
    conditioning = open(os.path.join(out, "conditioning.csv")).readlines()
    assert conditioning[0] == "# srifkit-conditioning/2\n"
    assert conditioning[2] == ("t,kappa2_r22_post,kappa2_r22_post_scaled,"
                               "kappa2_r22_post_precond,sigma_max_p,"
                               "sigma_min_p\n")
    assert all(len(row.split(",")) == 6 for row in conditioning[2:])
    flops_text = open(os.path.join(out, "flops.csv")).read()
    for row in ("Propagation", "Marginalization", "Update", "Estimator Total"):
        assert f"\n{row}," in flops_text
    env = manifest["environment"]
    assert set(env) == {"python", "numpy", "scipy", "numpy_blas",
                        "scipy_blas", "OPENBLAS_NUM_THREADS"}
    assert env["numpy"] == np.__version__
    for lib in ("numpy_blas", "scipy_blas"):
        assert set(env[lib]) == {"name", "version"}
    assert env["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")


def test_repeat_runs_byte_identical(scenario_file, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        assert cli.main(["run", "--scenario", scenario_file,
                         "--out", out]) == 0
    for name in DETERMINISTIC:
        pa = open(os.path.join(a, name), "rb").read()
        pb = open(os.path.join(b, name), "rb").read()
        assert pa == pb, name


class TestCompare:
    def test_equivalent_estimators(self, scenario_file, tmp_path, capsys):
        dirs = []
        for est in ("srif", "kf", "pcsrif"):
            d = str(tmp_path / est)
            assert cli.main(["run", "--scenario", scenario_file,
                             "--estimator", est, "--out", d]) == 0
            dirs.append(d)
        assert cli.main(["compare", *dirs, "--tolerance", "1e-6"]) == 0
        table = capsys.readouterr().out.splitlines()
        assert "divergence" in table[-4]

    def test_single_run_is_usage_error(self, scenario_file, tmp_path):
        d = str(tmp_path / "only")
        cli.main(["run", "--scenario", scenario_file, "--out", d])
        with pytest.raises(SystemExit) as exc:
            cli.main(["compare", d])
        assert exc.value.code == 2

    @pytest.mark.parametrize("case", [
        "missing", "no-manifest", "aborted", "no-flops", "bad-manifest",
        "list-manifest", "no-hash-manifest", "no-metrics-row",
        "no-update-row"])
    def test_bad_run_directory_is_usage_error(self, case, scenario_file,
                                              tmp_path, capsys, monkeypatch):
        good = str(tmp_path / "good")
        assert cli.main(["run", "--scenario", scenario_file, "--out", good]) == 0
        bad = tmp_path / "bad"
        if case == "no-manifest":
            bad.mkdir()
        elif case == "aborted":
            def boom(dataset, config):
                raise EstimatorAbort(1.25, "update", "synthetic failure")
            with monkeypatch.context() as m:
                m.setattr(cli, "run_filter", boom)
                assert cli.main(["run", "--scenario", scenario_file,
                                 "--out", str(bad)]) == 1
        elif case != "missing":
            assert cli.main(["run", "--scenario", scenario_file,
                             "--out", str(bad)]) == 0
        if case == "no-flops":
            (bad / "flops.csv").unlink()
        elif case == "bad-manifest":
            (bad / "manifest.json").write_text("{not json")
        elif case == "list-manifest":
            (bad / "manifest.json").write_text("[]")
        elif case == "no-hash-manifest":
            manifest = json.loads((bad / "manifest.json").read_text())
            del manifest["scenario_hash"]
            (bad / "manifest.json").write_text(json.dumps(manifest))
        elif case == "no-metrics-row":
            (bad / "metrics.csv").write_text(cli.METRICS_HEADER)
        elif case == "no-update-row":
            rows = (bad / "flops.csv").read_text().splitlines(keepends=True)
            (bad / "flops.csv").write_text("".join(
                row for row in rows if not row.startswith("Update,")))
        cause = {"missing": "does not exist",
                 "no-manifest": "has no manifest.json",
                 "aborted": "did not complete",
                 "no-flops": "has no flops.csv",
                 "bad-manifest": "has a malformed manifest.json",
                 "list-manifest": "has a malformed manifest.json",
                 "no-hash-manifest": "has a malformed manifest.json",
                 "no-metrics-row": "has a malformed metrics.csv",
                 "no-update-row": "has a malformed flops.csv"}[case]
        for dirs in ([good, str(bad)], [str(bad), good]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["compare", *dirs])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"run directory {bad} {cause}" in err
            assert "Traceback" not in err

    def test_scenario_hash_mismatch(self, scenario_file, tmp_path):
        d1 = str(tmp_path / "r1")
        d2 = str(tmp_path / "r2")
        cli.main(["run", "--scenario", scenario_file, "--out", d1])
        cli.main(["run", "--scenario", scenario_file, "--seed", "99",
                  "--out", d2])
        assert cli.main(["compare", d1, d2]) == 1


def test_run_without_one_second_pairs_reports_nan_rte(tmp_path, capsys):
    # frames 2/3 s apart: no two poses lie the RTE interval of 1 s apart
    spec = dataclasses.replace(default_scenario(0), duration=6.0,
                               imu_rate=150.0, cam_rate=1.5)
    path = tmp_path / "scen.json"
    path.write_text(spec.to_json())
    dirs = [str(tmp_path / name) for name in ("srif", "pcsrif")]
    for est, d in zip(("srif", "pcsrif"), dirs):
        assert cli.main(["run", "--scenario", str(path), "--estimator", est,
                         "--out", d]) == 0
        for name in ARTIFACTS:
            assert os.path.exists(os.path.join(d, name)), name
        manifest = json.loads(open(os.path.join(d, "manifest.json")).read())
        assert manifest["status"] == "completed"
        metrics_csv = open(os.path.join(d, "metrics.csv")).read()
        head, row = metrics_csv.splitlines()[2:]
        metrics = dict(zip(head.split(","), row.split(",")))
        assert metrics["rte_translation"] == metrics["rte_rotation"] == "nan"
        assert np.isfinite(float(metrics["ate_translation"]))
    capsys.readouterr()
    assert cli.main(["compare", *dirs]) == 0
    assert "nan" in capsys.readouterr().out


def test_trajectory_text_round_trips_the_run(scenario_file, tmp_path):
    # 17 significant digits carry every float64 exactly
    d = str(tmp_path / "run")
    cli.main(["run", "--scenario", scenario_file, "--out", d])
    with open(os.path.join(d, "trajectory.txt")) as fh:
        t, p, q = cli.parse_trajectory(fh.read())
    res = run_filter(gen_dataset(cli.load_scenario(scenario_file)),
                     FilterConfig())
    assert np.array_equal(t, res.times)
    assert np.array_equal(p, res.positions)
    assert np.array_equal(q, res.quats)


def test_empty_trajectory_formats_to_empty_file():
    assert cli.format_trajectory([], [], []) == ""


def test_abort_is_nonzero_exit_with_failing_step(scenario_file, tmp_path,
                                                 monkeypatch):
    def boom(dataset, config):
        raise EstimatorAbort(1.25, "update", "synthetic failure")

    args = ["run", "--scenario", scenario_file, "--estimator", "pcsrif",
            "--precision", "binary32", "--out"]
    done = str(tmp_path / "done")
    assert cli.main(args + [done]) == 0
    monkeypatch.setattr(cli, "run_filter", boom)
    d = str(tmp_path / "crash")
    assert cli.main(args + [d]) == 1
    manifest = json.loads(open(os.path.join(d, "manifest.json")).read())
    assert manifest["status"] == "aborted"
    assert manifest["failed_at_t"] == 1.25
    assert manifest["failed_phase"] == "update"
    # the aborted manifest replays the run as a completed one does
    completed = json.loads(open(os.path.join(done, "manifest.json")).read())
    outcome = {"status", "n_events", "failed_at_t", "failed_phase", "error"}
    assert ({k: v for k, v in manifest.items() if k not in outcome}
            == {k: v for k, v in completed.items() if k not in outcome})
    assert completed["format"] == "srifkit-run/2"
    assert (completed["estimator"], completed["precision"],
            completed["window"]) == ("pcsrif", "binary32", 11)


@pytest.mark.parametrize("flag", [["--fallback-qr"], ["--svd-stride", "3"]])
def test_removed_run_flags_are_refused(scenario_file, tmp_path, flag):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--scenario", scenario_file, *flag,
                  "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_simulate_subcommand_is_gone(scenario_file, tmp_path):
    out = tmp_path / "scen.bin"
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--scenario", scenario_file, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


# each: the file's bytes, or an edit of a good scenario's JSON, and a
# fragment of the cause the error gives
BAD_SCENARIOS = {
    "unknown-preset": (None, "No such file"),
    "missing-path": (None, "No such file"),
    "not-json": (b"duration: 6.0\n", "Expecting value"),
    "binary": (b"SRIM\x01\x00" + bytes(range(128, 256)), "can't decode"),
    "unknown-key": (lambda d: {**d, "durations": 6.0},
                    "unknown scenario keys: durations"),
    "out-of-range": (lambda d: {**d, "noise": {**d["noise"],
                                               "gyro_density": np.nan}},
                     "noise.gyro_density = nan is out of range"),
    "partial-period": (lambda d: {**d, "duration": 6.1},
                       "duration = 6.1 is not a positive whole number of "
                       "camera periods"),
}


@pytest.mark.parametrize("case", BAD_SCENARIOS)
def test_bad_scenario_is_usage_error(case, scenario_file, tmp_path,
                                     monkeypatch, capsys):
    content, cause = BAD_SCENARIOS[case]
    monkeypatch.chdir(tmp_path)
    scenario = "nosuch" if case == "unknown-preset" else str(tmp_path / "s")
    if callable(content):
        content = json.dumps(content(json.loads(open(scenario_file).read())))
        content = content.encode()
    if content is not None:
        (tmp_path / "s").write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--scenario", scenario, "--out", "run"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--scenario {scenario}: " in err and cause in err
    assert not (tmp_path / "run").exists()


def test_manifest_replays_the_run(scenario_file, tmp_path):
    # the manifest's scenario, at the seed the run was given, is all a
    # replay needs
    first, again = tmp_path / "first", tmp_path / "again"
    assert cli.main(["run", "--scenario", scenario_file, "--seed", "4",
                     "--estimator", "pcsrif", "--precision", "binary32",
                     "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(manifest["scenario"]))
    assert cli.main(["run", "--scenario", str(replay),
                     "--estimator", manifest["estimator"],
                     "--precision", manifest["precision"],
                     "--out", str(again)]) == 0
    for name in DETERMINISTIC:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name
    replayed = json.loads((again / "manifest.json").read_text())
    assert manifest["seed"] == 4
    assert ((replayed["scenario_hash"], replayed["seed"])
            == (manifest["scenario_hash"], manifest["seed"]))
