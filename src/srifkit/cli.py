"""Batch command-line entry point.

Subcommands:
  run       execute an estimator on a scenario and emit report artifacts
  compare   side-by-side report across completed run directories

A scenario is a preset name or a scenario JSON path; the dataset is
generated from it at its seed, or at --seed. A scenario that cannot be read,
or that holds a bad value, is a usage error (exit code 2), as is a compare
run directory that is missing, did not complete, or lacks an artifact or
holds a malformed one.

A run directory contains:
  trajectory.txt    one line per pose: t x y z qx qy qz qw (17 sig. digits)
  conditioning.csv  posterior R22 condition numbers (versioned header)
  metrics.csv       ATE/RTE (versioned header); RTE nan with no poses 1 s apart
  flops.csv         counted FLOPs per phase (versioned header)
  timing.csv        wall-clock seconds per phase (not deterministic)
  events.csv        numerical instability events, if any
  manifest.json     config, seed, scenario hash, versions; replays the run

All artifacts except timing.csv are byte-identical across repeated
invocations with the same configuration and seed.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import sys

import numpy as np
import scipy

from . import __version__
from .diag import compute_metrics
from .sim import (
    ScenarioSpec,
    conditioning_scenario,
    default_scenario,
    gen_dataset,
)
from .vins import ESTIMATORS, PRECISIONS, EstimatorAbort, FilterConfig, run_filter

MANIFEST_FORMAT = "srifkit-run/2"
CONDITIONING_HEADER = (
    "# srifkit-conditioning/2\n"
    "# t [s], squared condition numbers [unitless], sigma [unitless]\n"
    "t,kappa2_r22_post,kappa2_r22_post_scaled,kappa2_r22_post_precond,"
    "sigma_max_p,sigma_min_p\n")
METRICS_HEADER = (
    "# srifkit-metrics/1\n"
    "# ate_translation [m RMS], ate_rotation [deg RMS],"
    " rte_translation [m RMS over 1 s], rte_rotation [deg RMS over 1 s]\n"
    "ate_translation,ate_rotation,rte_translation,rte_rotation\n")
FLOPS_HEADER = ("# srifkit-flops/1\n"
                "# phase, counted floating-point operations [flop]\n"
                "phase,flops\n")
TIMING_HEADER = ("# srifkit-timing/1\n"
                 "# phase, wall-clock [s]; hardware-dependent\n"
                 "phase,seconds\n")
EVENTS_HEADER = ("# srifkit-events/1\n"
                 "# t [s], kind, relative solution error [unitless]\n"
                 "t,kind,detail\n")
PHASE_LABELS = (("propagation", "Propagation"),
                ("marginalization", "Marginalization"),
                ("update", "Update"))


def scenario_hash(spec):
    return hashlib.sha256(spec.to_json().encode()).hexdigest()


def load_scenario(path_or_name, seed=None):
    """The scenario of a preset name or a scenario JSON path, at `seed` when
    one is given and at the scenario's own seed otherwise."""
    presets = {"default": default_scenario, "conditioning": conditioning_scenario}
    if path_or_name in presets:
        spec = presets[path_or_name](0 if seed is None else seed)
    else:
        with open(path_or_name, encoding="utf-8") as fh:
            spec = ScenarioSpec.from_json(fh.read())
        if seed is not None:
            spec = dataclasses.replace(spec, seed=seed)
    return spec


def format_trajectory(times, positions, quats):
    lines = []
    for t, p, q in zip(times, positions, quats):
        vals = [t, p[0], p[1], p[2], q[0], q[1], q[2], q[3]]
        lines.append(" ".join(f"{v:.17g}" for v in vals))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_trajectory(text):
    rows = [[float(v) for v in ln.split()] for ln in text.splitlines() if ln]
    arr = np.array(rows).reshape(-1, 8)
    return arr[:, 0], arr[:, 1:4], arr[:, 4:8]


def write_run_artifacts(outdir, spec, cfg, res, truth):
    os.makedirs(outdir, exist_ok=True)

    def put(name, text):
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(text)

    put("trajectory.txt", format_trajectory(res.times, res.positions, res.quats))

    rows = [",".join(f"{v:.17g}" for v in (
                r.t, r.kappa2_r22_post, r.kappa2_r22_post_scaled,
                r.kappa2_r22_post_precond, r.sigma_max_p, r.sigma_min_p))
            for r in res.conditioning]
    put("conditioning.csv", CONDITIONING_HEADER + "\n".join(rows)
        + ("\n" if rows else ""))

    m = compute_metrics(res.times, res.positions, res.quats,
                        truth.times, truth.positions, truth.quats)
    put("metrics.csv", METRICS_HEADER +
        f"{m.ate_translation:.17g},{m.ate_rotation:.17g},"
        f"{m.rte_translation:.17g},{m.rte_rotation:.17g}\n")

    total = sum(res.flops.values())
    put("flops.csv", FLOPS_HEADER + "".join(
        f"{label},{res.flops[key]}\n" for key, label in PHASE_LABELS)
        + f"Estimator Total,{total}\n")
    tot_s = sum(res.seconds.values())
    put("timing.csv", TIMING_HEADER + "".join(
        f"{label},{res.seconds[key]:.6f}\n" for key, label in PHASE_LABELS)
        + f"Estimator Total,{tot_s:.6f}\n")

    put("events.csv", EVENTS_HEADER + "".join(
        f"{e.t:.17g},{e.kind},{e.detail:.17g}\n" for e in res.events))

    write_manifest(outdir, spec, cfg, status="completed",
                   n_events=len(res.events))
    return m


def write_manifest(outdir, spec, cfg, **outcome):
    """manifest.json: the scenario, its hash and every config choice, which
    replay the run, then the run's outcome."""
    os.makedirs(outdir, exist_ok=True)
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": __version__,
        "scenario": json.loads(spec.to_json()),
        "scenario_hash": scenario_hash(spec),
        "seed": spec.seed,
        **dataclasses.asdict(cfg),
        **outcome,
        "environment": environment(),
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def environment():
    """The interpreter, numpy, scipy and the BLAS each bundles, and the BLAS
    thread setting: what a run's numbers and times depend on besides its
    configuration. manifest.json and the claims file both record it."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "numpy_blas": _blas(np), "scipy_blas": _blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _blas(module):
    """The BLAS numpy or scipy was built with; each bundles its own, and
    scipy's LAPACK is the one the kernels call."""
    dep = module.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"name": dep["name"], "version": dep["version"]}


# -- subcommands ------------------------------------------------------------


def cmd_run(args):
    ds, spec = gen_dataset(args.spec), args.spec
    cfg = FilterConfig(estimator=args.estimator, precision=args.precision)
    try:
        res = run_filter(ds, cfg)
    except EstimatorAbort as abort:
        write_manifest(args.out, spec, cfg, status="aborted",
                       failed_at_t=abort.t, failed_phase=abort.phase,
                       error=str(abort))
        print(f"error: {abort}", file=sys.stderr)
        return 1
    m = write_run_artifacts(args.out, spec, cfg, res, ds.truth)
    print(f"{args.estimator}/{args.precision}: "
          f"ATE {m.ate_translation:.4f} m / {m.ate_rotation:.3f} deg, "
          f"RTE {m.rte_translation:.4f} m, {len(res.events)} events "
          f"-> {args.out}")
    return 0


def _read_run(d):
    """A completed run's manifest fields, positions, ATE, RTE and update
    FLOPs; ValueError names the directory, and the file when one is
    missing or malformed."""
    if not os.path.isdir(d):
        raise ValueError(f"run directory {d} does not exist")

    def read(name, parse):
        if not os.path.isfile(os.path.join(d, name)):
            raise ValueError(f"run directory {d} has no {name}")
        with open(os.path.join(d, name)) as fh:
            text = fh.read()
        try:
            return parse(text)
        except (ValueError, IndexError, KeyError, TypeError) as err:
            raise ValueError(f"run directory {d} has a malformed {name} "
                             f"({err!r})") from err

    def manifest(text):
        fields = json.loads(text)
        return {k: fields[k] for k in
                ("status", "scenario_hash", "estimator", "precision")}

    def csv_rows(text):
        return [ln.split(",") for ln in text.splitlines()
                if not ln.startswith("#")]

    def metrics(text):
        head, *rows = csv_rows(text)
        row = dict(zip(head, rows[0]))
        return float(row["ate_translation"]), float(row["rte_translation"])

    def update_flops(text):
        return {k: int(v) for k, v in csv_rows(text)[1:]}["Update"]

    fields = read("manifest.json", manifest)
    if fields["status"] != "completed":
        raise ValueError(f"run directory {d} did not complete "
                         f"(status {fields['status']!r})")
    _, positions, _ = read("trajectory.txt", parse_trajectory)
    return (fields, positions, *read("metrics.csv", metrics),
            read("flops.csv", update_flops))


def cmd_compare(args):
    ref_hash = args.runs[0][0]["scenario_hash"]
    for d, (man, *_rest) in zip(args.rundirs, args.runs):
        if man["scenario_hash"] != ref_hash:
            print(f"error: {d} was produced on a different scenario "
                  f"({man['scenario_hash'][:12]} != {ref_hash[:12]})",
                  file=sys.stderr)
            return 1
    ref_pos = args.runs[0][1]
    name_w = max(len(os.path.basename(os.path.normpath(d)))
                 for d in args.rundirs)
    hdr = (f"{'run':<{name_w}}  {'estimator':<10} {'prec':<8} "
           f"{'ATE[m]':>10} {'RTE[m]':>10} {'update flops':>14} "
           f"{'divergence[m]':>14}")
    print(hdr)
    worst = 0.0
    for d, (man, pos, ate, rte, update_flops) in zip(args.rundirs,
                                                     args.runs):
        n = min(len(pos), len(ref_pos))
        div = float(np.abs(pos[:n] - ref_pos[:n]).max())
        worst = max(worst, div)
        print(f"{os.path.basename(os.path.normpath(d)):<{name_w}}  "
              f"{man['estimator']:<10} {man['precision']:<8} "
              f"{ate:>10.4f} {rte:>10.4f} "
              f"{update_flops:>14d} {div:>14.3e}")
    if args.tolerance is not None and worst > args.tolerance:
        print(f"error: max divergence {worst:.3e} exceeds tolerance "
              f"{args.tolerance:.3e}", file=sys.stderr)
        return 1
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="srifkit",
        description="square-root information filtering on synthetic "
                    "visual-inertial scenarios")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", help="run one estimator, write artifacts")
    sp.add_argument("--scenario", default="default",
                    help="preset name (default, conditioning) or scenario "
                         "JSON path")
    sp.add_argument("--seed", type=int, default=None,
                    help="override the scenario seed")
    sp.add_argument("--estimator", choices=ESTIMATORS, default="srif")
    sp.add_argument("--precision", choices=sorted(PRECISIONS), default="binary64")
    sp.add_argument("--out", required=True, help="output run directory")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("compare", help="cross-run report")
    sp.add_argument("rundirs", nargs="+", help="two or more run directories")
    sp.add_argument("--tolerance", type=float, default=None,
                    help="fail if any pairwise position divergence exceeds this")
    sp.set_defaults(fn=cmd_compare)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compare":
        if len(args.rundirs) < 2:
            parser.error("compare needs at least two run directories")
        try:
            args.runs = [_read_run(d) for d in args.rundirs]
        except ValueError as err:
            parser.error(str(err))
    if args.command == "run":
        try:
            args.spec = load_scenario(args.scenario, args.seed)
        except (OSError, ValueError) as err:
            parser.error(f"--scenario {args.scenario}: {err}")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
