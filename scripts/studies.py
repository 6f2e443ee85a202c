#!/usr/bin/env python3
"""Desk-scale runs of the paper's studies: one bitalloc run per instance size.

    studies.py compare         # both solvers on grids, d = 13, 29, 56
    studies.py rounding-gap    # rounding gap against its bound, d = 13, 29, 56
    studies.py uniform-sweep   # optimized against uniform bits, d = 50
    studies.py sensor-scaling  # per-iteration cost as m grows, d = 10, 20

For each size d the driver writes the instance config <stem>_d<d>.json and
runs `bitalloc <study> --config <stem>_d<d>.json --out <stem>_d<d>.csv` on
it, so the same command with the same options reruns one size.  Every option
other than --sizes and --out-dir (--trials, --seed, --threads, --sweep,
--time-limit) goes to bitalloc unchanged; a --sweep given here replaces the
study's default sweep.  The exit code is the largest that bitalloc returned.
"""

import argparse
import csv
import json
from pathlib import Path

import numpy as np

from bitalloc import cli

# study -> (instance kind, default sizes d = m, default sweep)
STUDIES = {
    "compare": ("grid-laplacian", "13,29,56", ()),
    "rounding-gap": ("grid-laplacian", "13,29,56", ()),
    "uniform-sweep": ("grid-laplacian", "50", ("--sweep", "2,2.5,3,4,5,7")),
    "sensor-scaling": ("random-gaussian", "10,20", ("--sweep", "5,20,50,200,500")),
}


def _print_scaling_slope(d: int, aggregates: str) -> None:
    """Log-log slope of the median per-iteration time against m, when two or more ratios ran."""
    with open(aggregates, newline="") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) > 1:
        m = np.log([float(row["m"]) for row in rows])
        seconds = np.log([float(row["median_per_iteration_seconds"]) for row in rows])
        print(f"  d={d}: log-log slope of per-iteration time vs m: {np.polyfit(m, seconds, 1)[0]:.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("study", choices=STUDIES)
    parser.add_argument("--sizes", help="comma-separated d = m values (default: the study's)")
    parser.add_argument("--out-dir", default="results", help="directory for configs and CSVs")
    args, passthrough = parser.parse_known_args(argv)
    kind, sizes, sweep = STUDIES[args.study]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    exit_code = 0
    for d in (int(s) for s in (args.sizes or sizes).split(",")):
        stem = out_dir / f"{args.study.replace('-', '_')}_d{d}"
        Path(f"{stem}.json").write_text(json.dumps({"kind": kind, "d": d, "m": d}) + "\n")
        code = cli.main([args.study, "--config", f"{stem}.json", "--out", f"{stem}.csv", *sweep, *passthrough])
        exit_code = max(exit_code, code)
        if args.study == "sensor-scaling" and code == 0:
            _print_scaling_slope(d, f"{stem}.aggregates.csv")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
