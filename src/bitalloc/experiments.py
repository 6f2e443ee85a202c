"""Experiment harness: randomized trials, sweeps, and machine-readable outputs.

Every experiment expands into an ordered list of independent tasks (one per
trial, or per sweep-value x trial).  Trial t draws its instance from
seed = plan_seed + t, recorded in the output, so any single row can be rerun
in isolation.  Tasks may execute on a pool of forked worker processes; row
order follows task order regardless of completion order, and all randomness
is seeded, so a plan's non-timing output is reproducible byte for byte.
Timing output is every column ending in ``_seconds``, plus the aggregates of
such columns: compare's ``statistic`` rows ``fw_seconds`` and
``barrier_seconds``, and sensor-scaling's ``iqr_low`` and ``iqr_high``.

Individual trial failures are recorded in the row's ``error`` column and do
not abort the plan; a plan whose trials all fail exits with code 2.
Every solver cell is one that a solve row holds: rounding-gap rows are the
barrier's solve rows under their own header, and keep no trace; compare rows
hold both solvers' cells under ``fw_`` and ``barrier_`` (objective, slack and
seconds shorten three names), and uniform-sweep rows hold the barrier's.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

from ._blas import single_blas_thread
from .barrier import BarrierConfig, solve_barrier
from .frank_wolfe import FwConfig, StepRule, separable_warm_start, solve_fw
from .instances import InstanceKind, InstanceSpec, generate, save_results, uniform_allocation
from .model import BitAllocationError, ProblemInstance, evaluate
from .quantizer import DitherMode, QuantizerBank, simulate_lmmse
from .rounding import RoundingPreconditionError, round_with_guarantees
from .trace import SolveTrace, write_trace

EXIT_OK = 0
EXIT_PLAN_ERROR = 1
EXIT_ALL_FAILED = 2

# Sweeps used when a plan gives none: budgets per sensor, and m/d ratios.
DEFAULT_BUDGET_SWEEP = (2.0, 3.0, 4.0, 5.0, 7.0)
DEFAULT_RATIO_SWEEP = (5.0, 50.0, 500.0)
# sensor-scaling: a fixed count of short steps with no gap stop, so every trial does the same work
_SCALING_CONFIG = FwConfig(max_iterations=30, gap_tolerance=1e-300, step_rule=StepRule.SHORT_STEP)


class Experiment(Enum):
    SOLVE = "solve"
    COMPARE_SOLVERS = "compare"
    ROUNDING_GAP = "rounding-gap"
    UNIFORM_SWEEP = "uniform-sweep"
    SENSOR_SCALING = "sensor-scaling"
    VALIDATE = "validate"


class SolverChoice(Enum):
    FW = "fw"
    BARRIER = "barrier"
    BOTH = "both"


@dataclass(frozen=True)
class ExperimentPlan:
    experiment: Experiment
    instance_spec: InstanceSpec
    trials: int = 30
    sweep_values: tuple[float, ...] | None = None
    solver: SolverChoice = SolverChoice.BOTH
    output_path: str | None = None
    seed: int = 0
    time_limit: float = 600.0
    threads: int = 1
    mc_samples: int = 100_000

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.mc_samples < 2:
            raise ValueError("samples must be at least 2 for a standard error")
        if not self.time_limit > 0.0:  # also rejects NaN
            raise ValueError(f"time limit must be positive, got {self.time_limit}")
        if self.experiment in (Experiment.UNIFORM_SWEEP, Experiment.SENSOR_SCALING):
            uniform = self.experiment is Experiment.UNIFORM_SWEEP
            if self.sweep_values is None:
                object.__setattr__(self, "sweep_values", DEFAULT_BUDGET_SWEEP if uniform else DEFAULT_RATIO_SWEEP)
            elif not self.sweep_values:
                raise ValueError(f"{self.experiment.value} needs a nonempty sweep")
            if not all(np.isfinite(v) and (v >= 0.0 if uniform else v > 0.0) for v in self.sweep_values):
                raise ValueError(f"{self.experiment.value} sweep needs finite values {'>=' if uniform else '>'} 0")
        if self.experiment is Experiment.SENSOR_SCALING and self.instance_spec.kind is not InstanceKind.RANDOM_GAUSSIAN:
            raise ValueError("sensor-scaling sweeps m on random-gaussian instances only")


@dataclass
class RunResult:
    records: list[dict]
    aggregates: list[dict]
    traces: list[tuple[int, str, SolveTrace]] = field(default_factory=list)
    exit_code: int = EXIT_OK


def _quantiles(values) -> tuple[float, float, float]:
    data = sorted(values)
    return statistics.median(data), float(np.percentile(data, 25)), float(np.percentile(data, 75))


def _adopt(worker, tasks):
    # pool initializer: sets the global in each forked worker, never in the caller
    global _TASKS
    _TASKS = worker, tasks


def _run_task(index: int):
    worker, tasks = _TASKS
    return worker(tasks[index])


def _run_tasks(tasks, worker, threads: int):
    """Run ``worker`` over ``tasks`` in task order, on up to ``threads`` forked processes.

    Fork hands ``worker`` (often a closure) and ``tasks`` to every process
    unpickled; only task indices and results cross the pipe.  What a worker
    records on the side, such as a tracer's spans, stays in that worker.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(threads, len(tasks), cpus)
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [worker(task) for task in tasks]
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork, initializer=_adopt, initargs=(worker, tasks)) as pool:
        return list(pool.map(_run_task, range(len(tasks))))


@single_blas_thread()
def run(plan: ExperimentPlan) -> RunResult:
    """Run every task of the plan's experiment through its trial, then aggregate."""
    fields, tasks, trial, aggregate = _TABLES[plan.experiment]

    def worker(task):
        row = dict.fromkeys(fields.split(), "")
        try:
            return row, trial(plan, task, row)
        except BitAllocationError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
            return row, None

    outcomes = _run_tasks(tasks(plan), worker, plan.threads)
    records = [row for row, _ in outcomes]
    traces = [(row["trial"], row["solver"], trace) for row, trace in outcomes if trace is not None and "solver" in row]
    if plan.experiment is Experiment.VALIDATE:
        # the model check fails as soon as one dither mode does not pass
        failed = any(rec["error"] or rec["passed"] is not True for rec in records)
    else:
        failed = all(rec["error"] for rec in records)
    return RunResult(records, aggregate(plan, records), traces, EXIT_ALL_FAILED if failed else EXIT_OK)


def write_outputs(plan: ExperimentPlan, result: RunResult) -> None:
    """Write the summary, aggregate and trace CSVs into the output path's directory, which must exist."""
    if plan.output_path is None:
        return
    out = Path(plan.output_path)
    save_results(out, result.records)
    if result.aggregates:
        save_results(out.with_name(out.stem + ".aggregates.csv"), result.aggregates)
    for trial, solver, trace in result.traces:
        write_trace(out.with_name(out.stem + f".trace-{trial}-{solver}.csv"), trace)


def _statistics(keys: tuple[str, ...], plan: ExperimentPlan, records: list[dict]) -> list[dict]:
    """One ``statistic`` row per key, over the rows that measured every key."""
    ok = [r for r in records if not r["error"] and all(r[key] != "" for key in keys)]
    rows = []
    if ok:
        for key in keys:
            med, lo, hi = _quantiles(float(r[key]) for r in ok)
            rows.append({"statistic": key, "median": med, "iqr_low": lo, "iqr_high": hi, "count": len(ok)})
    return rows


def _per_sweep_value(column: str, key: str, carried: tuple[str, ...], plan: ExperimentPlan, records: list[dict]):
    """One row per sweep value: median and quartiles of ``key`` over its rows."""
    rows = []
    for value in plan.sweep_values:
        ok = [r for r in records if r[column] == value and not r["error"]]
        if ok:
            med, lo, hi = _quantiles(float(r[key]) for r in ok)
            row = {column: value, **{name: ok[0][name] for name in carried}}
            rows.append({**row, f"median_{key}": med, "iqr_low": lo, "iqr_high": hi, "count": len(ok)})
    return rows


def _solve_tasks(plan: ExperimentPlan) -> list[tuple[int, str]]:
    solvers = ("fw", "barrier") if plan.solver is SolverChoice.BOTH else (plan.solver.value,)
    return [(trial, solver) for trial in range(plan.trials) for solver in solvers]


def _sweep_tasks(plan: ExperimentPlan) -> list[tuple[float, int]]:
    return [(value, trial) for value in plan.sweep_values for trial in range(plan.trials)]


def _fill(row: dict, cells: dict, prefix: str = "") -> None:
    """Set each cell whose name, after ``prefix``, is a column of the row."""
    row.update((prefix + key, value) for key, value in cells.items() if prefix + key in row)


def _trial_instance(plan: ExperimentPlan, trial: int, row: dict, **overrides) -> ProblemInstance:
    """Generate trial ``trial``'s instance (seed = plan seed + trial) and fill the trial, seed, d, m
    and budget cells the row has: trial and seed first, so a row whose instance fails still names it."""
    spec = replace(plan.instance_spec, seed=plan.seed + trial, **overrides)
    _fill(row, {"trial": trial, "seed": spec.seed})
    instance = generate(spec)
    _fill(row, {key: getattr(instance, key) for key in ("d", "m", "budget")})
    return instance


def _solve_one(plan, instance, solver: str):
    """Run one solver; returns its trace and its cells under the solve row's column names."""
    t_start = time.perf_counter()
    if solver == "fw":
        trace = solve_fw(instance, FwConfig(time_limit=plan.time_limit), start=separable_warm_start(instance))
        cells = dict(min_gap=trace.certificate.min_gap, certificate_bound=trace.certificate.rate_bound)
    else:
        trace, kkt = solve_barrier(instance, BarrierConfig(time_limit=plan.time_limit))
        cells = dict(stationarity=kkt.stationarity_residual, complementarity=kkt.complementarity_residual)
    cells.update(
        wall_seconds=time.perf_counter() - t_start,
        objective_relaxed=trace.final_objective,
        budget_slack=instance.budget - trace.final_bits.total,
        iterations=trace.iterations,
        termination=trace.termination.value,
    )
    return trace, cells


def _rounding_cells(instance: ProblemInstance, trace: SolveTrace) -> dict:
    report = round_with_guarantees(instance, trace.final_bits)
    return {
        "objective_rounded": trace.final_objective + report.gap_actual,
        "gap_actual": report.gap_actual,
        "gap_bound": report.gap_bound,
        "simplified_gap_bound": report.simplified_gap_bound,
        "gap_ratio": report.gap_actual / report.gap_bound if report.gap_bound > 0 else "",
        "distance_squared": report.distance_squared,
        "distance_bound": report.distance_bound,
        "residual_budget": report.residual_budget,
    }


def _solve_trial(plan: ExperimentPlan, task: tuple[int, str], row: dict) -> SolveTrace:
    """Solve, then round; once rounding is done, fill the cells the row's header names."""
    trial, solver = task
    _fill(row, {"solver": solver})
    instance = _trial_instance(plan, trial, row)
    trace, cells = _solve_one(plan, instance, solver)
    try:
        cells.update(_rounding_cells(instance, trace))
    except RoundingPreconditionError as exc:
        if "rounding_note" not in row:  # a rounding-gap row has nothing to show without rounding
            raise
        cells["rounding_note"] = str(exc)
    _fill(row, cells)
    return trace


def _compare_trial(plan: ExperimentPlan, trial: int, row: dict) -> None:
    short = {"objective_relaxed": "objective", "budget_slack": "slack", "wall_seconds": "seconds"}
    instance = _trial_instance(plan, trial, row)
    for solver in ("fw", "barrier"):
        _, cells = _solve_one(plan, instance, solver)
        _fill(row, {short.get(key, key): value for key, value in cells.items()}, f"{solver}_")
    row["relative_difference"] = abs(row["fw_objective"] - row["barrier_objective"]) / row["barrier_objective"]


def _uniform_sweep_trial(plan: ExperimentPlan, task: tuple[float, int], row: dict) -> None:
    c, trial = task
    row["budget_per_sensor"] = c
    instance = _trial_instance(plan, trial, row, budget_per_sensor=float(c))
    trace, cells = _solve_one(plan, instance, "barrier")
    cells.update(_rounding_cells(instance, trace))
    _fill(row, cells)
    uniform_objective = evaluate(instance, uniform_allocation(instance)).objective
    row.update(
        uniform_objective=uniform_objective,
        relaxed_objective=trace.final_objective,
        rounded_objective=cells["objective_rounded"],
        improvement_percent=100.0 * (uniform_objective - cells["objective_rounded"]) / uniform_objective,
    )


def _sensor_scaling_trial(plan: ExperimentPlan, task: tuple[float, int], row: dict) -> None:
    ratio, trial = task
    d = plan.instance_spec.d
    m = max(int(round(ratio * d)), 1)
    row["ratio"] = ratio
    # total budget pinned to 2d across the sweep, not 2m
    instance = _trial_instance(plan, trial, row, m=m, budget_per_sensor=2.0 * d / m)
    t0 = time.perf_counter()
    trace = solve_fw(instance, replace(_SCALING_CONFIG, time_limit=plan.time_limit))
    wall = time.perf_counter() - t0
    evaluations = len(trace.iterates)  # one factorization per record
    row.update(
        iterations=trace.iterations,
        final_objective=trace.final_objective,
        final_gap=trace.iterates[-1].gap,
        wall_seconds=wall,
        per_iteration_seconds=wall / evaluations,
    )


def _validate_trial(plan: ExperimentPlan, mode: DitherMode, row: dict) -> None:
    row["mode"] = mode.value
    instance = _trial_instance(plan, 0, row)
    bits = uniform_allocation(instance)
    bank = QuantizerBank.for_allocation(instance, bits, mode, seed=plan.seed + 7919)
    report = simulate_lmmse(instance, bits, plan.mc_samples, bank)
    mse_sigmas = float("inf")
    if report.standard_error > 0:
        mse_sigmas = abs(report.empirical_mse - report.analytic_mse) / report.standard_error
    mean_sigmas = float(np.max(np.abs(report.empirical_error_mean) / report.empirical_error_se))
    passed = mean_sigmas <= 4.0 and (mode is DitherMode.NON_SUBTRACTIVE or mse_sigmas <= 3.0)
    row.update(
        sample_count=report.sample_count,
        empirical_mse=report.empirical_mse,
        analytic_mse=report.analytic_mse,
        standard_error=report.standard_error,
        mse_sigmas=mse_sigmas,
        max_mean_error_sigmas=mean_sigmas,
        passed=passed,
    )


# Experiment -> (summary columns, task list, trial, aggregate).  A trial fills
# its blank row in place and returns the solve trace to write, or None.
_TABLES = {
    Experiment.SOLVE: (
        "trial seed solver d m budget objective_relaxed budget_slack iterations termination "
        "min_gap certificate_bound stationarity complementarity objective_rounded gap_actual "
        "gap_bound gap_ratio distance_squared distance_bound residual_budget rounding_note "
        "wall_seconds error",
        _solve_tasks,
        _solve_trial,
        partial(_statistics, ("objective_relaxed",)),
    ),
    Experiment.COMPARE_SOLVERS: (
        "trial seed d m budget fw_objective barrier_objective relative_difference fw_iterations "
        "fw_termination fw_min_gap fw_certificate_bound barrier_iterations barrier_termination "
        "barrier_stationarity barrier_slack fw_seconds barrier_seconds error",
        lambda plan: range(plan.trials),
        _compare_trial,
        partial(_statistics, ("relative_difference", "fw_seconds", "barrier_seconds")),
    ),
    Experiment.ROUNDING_GAP: (
        "trial seed m budget objective_relaxed objective_rounded gap_actual gap_bound "
        "simplified_gap_bound gap_ratio residual_budget distance_squared distance_bound "
        "stationarity budget_slack termination wall_seconds error",
        lambda plan: [(trial, "barrier") for trial in range(plan.trials)],
        _solve_trial,
        partial(_statistics, ("gap_actual", "gap_bound", "gap_ratio")),
    ),
    Experiment.UNIFORM_SWEEP: (
        "budget_per_sensor trial seed budget uniform_objective relaxed_objective rounded_objective "
        "improvement_percent gap_bound stationarity termination wall_seconds error",
        _sweep_tasks,
        _uniform_sweep_trial,
        partial(_per_sweep_value, "budget_per_sensor", "improvement_percent", ()),
    ),
    Experiment.SENSOR_SCALING: (
        "ratio m d trial seed iterations final_objective final_gap wall_seconds per_iteration_seconds error",
        _sweep_tasks,
        _sensor_scaling_trial,
        partial(_per_sweep_value, "ratio", "per_iteration_seconds", ("m",)),
    ),
    Experiment.VALIDATE: (
        "mode sample_count empirical_mse analytic_mse standard_error mse_sigmas "
        "max_mean_error_sigmas passed error",
        lambda plan: [DitherMode.SUBTRACTIVE, DitherMode.NON_SUBTRACTIVE],
        _validate_trial,
        partial(_statistics, ()),
    ),
}
