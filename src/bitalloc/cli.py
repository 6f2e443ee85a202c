"""Command-line front end.

Subcommands mirror the experiment harness: solve, compare, rounding-gap,
uniform-sweep, sensor-scaling, validate.  Exit codes: 0 on success, 1 for a
plan or configuration error, 2 when every trial failed (or validation did
not pass).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .experiments import (
    EXIT_PLAN_ERROR,
    Experiment,
    ExperimentPlan,
    SolverChoice,
    run,
    write_outputs,
)
from .instances import InstanceKind, InstanceSpec, load_spec
from .model import BitAllocationError

_DEFAULT_SPECS = {
    Experiment.SOLVE: InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=13),
    Experiment.COMPARE_SOLVERS: InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=13),
    Experiment.ROUNDING_GAP: InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=13),
    Experiment.UNIFORM_SWEEP: InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=50),
    Experiment.SENSOR_SCALING: InstanceSpec(kind=InstanceKind.RANDOM_GAUSSIAN, d=10, m=10),
    Experiment.VALIDATE: InstanceSpec(kind=InstanceKind.RANDOM_GAUSSIAN, d=5, m=8),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; plan errors are 1
        self.print_usage(sys.stderr)
        self.exit(EXIT_PLAN_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per experiment; each flag's dest is the ExperimentPlan field it sets."""
    parser = _Parser(prog="bitalloc", description="Bit-budget allocation across quantized linear sensors")
    commands = parser.add_subparsers(required=True)
    for experiment in Experiment:
        sub = commands.add_parser(experiment.value, argument_default=argparse.SUPPRESS)
        sub.set_defaults(experiment=experiment)
        sub.add_argument("--config", help="instance spec JSON (kind, d, m, kappa.*, budget_per_sensor, seed, paths.*)")
        sub.add_argument("--out", dest="output_path", help="summary CSV path; aggregates/traces land next to it")
        sub.add_argument("--seed", type=int, help="plan seed; trial t uses seed+t")
        sub.add_argument("--threads", type=int, help="worker processes across trials")
        if experiment is not Experiment.VALIDATE:  # validate draws one instance and runs no solver
            sub.add_argument("--trials", type=int, help=f"independent trials (default {ExperimentPlan.trials})")
            sub.add_argument("--time-limit", type=float, help="per-solve wall clock limit in seconds")
        if experiment is Experiment.SOLVE:
            sub.add_argument("--solver", choices=[s.value for s in SolverChoice])
        if experiment in (Experiment.UNIFORM_SWEEP, Experiment.SENSOR_SCALING):
            sub.add_argument("--sweep", dest="sweep_values", help="comma-separated budgets per sensor, or m/d ratios")
        if experiment is Experiment.VALIDATE:
            sub.add_argument("--samples", dest="mc_samples", type=int, help="Monte-Carlo sample count")
    return parser


def _plan_from_args(args) -> ExperimentPlan:
    options = vars(args)
    experiment = options.pop("experiment")
    config = options.pop("config", None)
    spec = load_spec(config) if config else _DEFAULT_SPECS[experiment]
    if "sweep_values" in options:  # an empty --sweep is the empty sweep, which the plan rejects
        sweep = options["sweep_values"]
        options["sweep_values"] = tuple(float(v) for v in sweep.split(",")) if sweep else ()
    if "solver" in options:
        options["solver"] = SolverChoice(options["solver"])
    return ExperimentPlan(experiment, spec, **options)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        plan = _plan_from_args(args)
        if plan.output_path is not None:  # before any trial runs, so a bad --out loses no results
            out = Path(plan.output_path)
            out.parent.mkdir(parents=True, exist_ok=True)
            if out.is_dir():
                raise IsADirectoryError(f"--out names a directory, not a CSV path: {out}")
            if not os.access(out if out.exists() else out.parent, os.W_OK):  # a check, not an open: creates no file
                raise PermissionError(f"--out cannot be written: {out}")
    except (BitAllocationError, ValueError, OSError) as exc:
        print(f"bitalloc: plan error: {exc}", file=sys.stderr)
        return EXIT_PLAN_ERROR
    result = run(plan)
    write_outputs(plan, result)
    _print_summary(plan, result)
    return result.exit_code


def _print_summary(plan, result) -> None:
    failed = sum(1 for rec in result.records if rec.get("error"))
    print(f"{plan.experiment.value}: {len(result.records)} rows, {failed} failed")
    for agg in result.aggregates:
        parts = ", ".join(f"{k}={v}" for k, v in agg.items())
        print(f"  {parts}")
    if plan.experiment is Experiment.VALIDATE:
        for rec in result.records:
            status = "pass" if rec.get("passed") is True else "FAIL"
            print(f"  {rec['mode']}: {status} (mse_sigmas={rec.get('mse_sigmas')}, "
                  f"max_mean_error_sigmas={rec.get('max_mean_error_sigmas')})")
    if plan.output_path:
        print(f"  wrote {plan.output_path}")


if __name__ == "__main__":
    sys.exit(main())
