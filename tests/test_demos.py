"""Smoke test that runs the demo as a script, as a reader would."""

import os
import subprocess
import sys
from pathlib import Path

import srifkit

DEMO = Path(__file__).resolve().parents[1] / "demos" / "05_cli_pipeline.py"


def test_cli_pipeline_demo_runs():
    # the demo runs the srifkit these tests import, installed or not
    src = str(Path(srifkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    cp = subprocess.run([sys.executable, str(DEMO)],
                        capture_output=True, text=True, env=env)
    assert cp.returncode == 0, cp.stderr
    assert "divergence" in cp.stdout and "trajectory.txt holds" in cp.stdout
