"""The batch pipeline, end to end, through the command-line interface.

Writes a scenario JSON, runs three estimators on it, compares them, and
reads one run's trajectory text -- the same flow you would drive from a
shell:

    srifkit run --scenario scen.json --estimator srif --out runs/srif
    srifkit compare runs/* --tolerance 1e-6
    head -1 runs/srif/trajectory.txt

scen.json is what `ScenarioSpec.to_json` writes; a preset name (default,
conditioning) serves in its place.
"""

import dataclasses
import tempfile
from pathlib import Path

from srifkit import cli
from srifkit.sim import default_scenario

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    spec = dataclasses.replace(default_scenario(seed=3), duration=20.0)
    (tmp / "scen.json").write_text(spec.to_json())

    rundirs = []
    for est in ("kf", "srif", "pcsrif"):
        out = tmp / f"run-{est}"
        cli.main(["run", "--scenario", str(tmp / "scen.json"),
                  "--estimator", est, "--out", str(out)])
        rundirs.append(str(out))

    print()
    cli.main(["compare", *rundirs, "--tolerance", "1e-6"])

    print()
    lines = (Path(rundirs[1]) / "trajectory.txt").read_text().splitlines()
    print(f"trajectory.txt holds {len(lines)} poses; first line:")
    print(" ", lines[0])
    print("\nrun directory contents:", *sorted(
        p.name for p in Path(rundirs[1]).iterdir()))
