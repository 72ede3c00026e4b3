"""srifkit benchmark: wall time per frame and per update, end to end and per
layer.

    python3 perfbench/run.py --workload default-pcsrif32 --seed 0 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Run from the root of a checkout; the program is imported from its `src/`.
BLAS and OpenMP are pinned to one thread before numpy is imported. With
`--trace 0` the metrics are the end-to-end ones, with times scaled to a
reference host speed (see calibrate.py), and with `--trace 1` the
per-layer ones from spans around srifkit's public calls (see spans.py);
BENCHMARK.json lists both and perfbench/metrics.json says what each means.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The full result, with the
environment, goes to `.perfbench_out/` in the checkout, next to the spans
of a traced run.

Exit status: 0 when every check passes, 1 when a check fails, 2 when the
program cannot be imported from this checkout.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
CATALOG = json.loads((HERE / "metrics.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in CATALOG["workloads"])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_workloads():
    """Import the benchmark's workload module against ROOT/src only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import srifkit
        found = Path(srifkit.__file__).resolve().parent
        if found != src / "srifkit":
            raise ImportError(f"srifkit resolved to {found}")
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import srifkit from {src}: {exc}",
              file=sys.stderr)
        return None
    return workloads


def fresh_import():
    """A fresh interpreter imports the workload module, and with it numpy,
    scipy and srifkit; the workloads time it as part of set-up."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(HERE), str(ROOT / "src")])}
    subprocess.run([sys.executable, "-c", "import workloads"], env=env,
                   cwd=ROOT, check=True)


def run_one(args):
    workloads = import_workloads()
    if workloads is None:
        return 2
    env = workloads.environment(ROOT, args.seed)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    out = workloads.run(args.workload, args.seed, args.seconds,
                        bool(args.trace), fresh_import)

    kind = "per_layer" if args.trace else "end_to_end"
    catalog = CATALOG[kind]
    missing = [m["name"] for m in catalog if m["name"] not in out.metrics]
    if kind == "end_to_end" and out.correct and missing:
        out.check("every metric measured", False, ", ".join(missing))
    metrics = {m["name"]: {"value": out.metrics.get(m["name"], 0),
                           "unit": m["unit"]} for m in catalog}

    for name, ok, detail in out.checks:
        if not ok or args.trace == 0:
            print(f"check {'ok  ' if ok else 'FAIL'} {name}"
                  + (f": {detail}" if detail else ""))
    for name, note in out.notes.items():
        print(f"note {name} = {note}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if out.tracer is not None:
        out.tracer.save(stem.with_name(stem.name + "-spans.npz"))
    result = {"correct": out.correct, "attempted": int(out.attempted),
              "failed": int(out.failed), "metrics": metrics}
    stem.with_suffix(".json").write_text(json.dumps(
        {**result, "workload": args.workload, "seconds": args.seconds,
         "environment": env, "notes": out.notes,
         "checks": [{"name": n, "ok": ok, "detail": d}
                    for n, ok, d in out.checks]}, indent=1, default=float))
    print(json.dumps(result))
    return 0 if out.correct else 1


def run_all(args):
    """Each workload in a fresh process; a table of the results at the end."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode in (0, 1) and lines:
            rows.append((name, json.loads(lines[-1])))
    print("\nsummary")
    for name, res in rows:
        vals = "  ".join(f"{k}={v['value']:.4g}{v['unit']}"
                         for k, v in res["metrics"].items()
                         if args.trace == 0)
        print(f"{name:22s} correct={res['correct']} failed={res['failed']}/"
              f"{res['attempted']}  {vals}")
    return status


def main(argv=None):
    args = parse_args(argv)
    # must precede the first numpy import, here or in a child process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
