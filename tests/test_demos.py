"""Smoke tests that run the demos as scripts, as a reader would."""

import os
import subprocess
import sys
from pathlib import Path

import srifkit

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name):
    # the demo runs the srifkit these tests import, installed or not
    src = str(Path(srifkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, str(DEMOS / name)],
                          capture_output=True, text=True, env=env)


def test_conditioning_growth_demo_runs():
    cp = run_demo("02_conditioning_growth.py")
    assert cp.returncode == 0, cp.stderr
    header = next(line for line in cp.stdout.splitlines() if "k2(R22)" in line)
    assert "k2(R22/M)" in header
    assert "max k2 preconditioned:" in cp.stdout


def test_flop_economics_demo_runs():
    cp = run_demo("04_flop_economics.py")
    assert cp.returncode == 0, cp.stderr
    header = next(line for line in cp.stdout.splitlines() if "givens" in line)
    assert "householder" in header


def test_cli_pipeline_demo_runs():
    cp = run_demo("05_cli_pipeline.py")
    assert cp.returncode == 0, cp.stderr
    assert "divergence" in cp.stdout and "trajectory.txt holds" in cp.stdout
