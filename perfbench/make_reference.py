"""Record the ATE of each engine workload's datasets in reference.json.

    python3 perfbench/make_reference.py --seeds 20

Covers the datasets of benchmark seeds 0..N-1. Runs are checked against
these values; seeds outside the table only against a ceiling.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=20)
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads as w
    from srifkit import sim, vins

    ref = {"scenario_s": w.SCENARIO_S, "datasets": w.DATASETS, "ate_m": {}}
    for name in w.ENGINE:
        cfg = vins.FilterConfig(**w.ENGINE[name])
        table = {}
        for seed in range(args.seeds):
            for spec in w.engine_specs(name, seed):
                ds = sim.gen_dataset(spec)
                table[str(spec.seed)] = w.ate_m(ds, vins.run_filter(ds, cfg))
            print(name, seed, flush=True)
        ref["ate_m"][name] = table
    (HERE / "reference.json").write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
