"""Experiment harness: randomized trials, sweeps, and machine-readable outputs.

Every experiment expands into an ordered list of independent tasks (one per
trial, or per sweep-value x trial).  Trial t draws its instance from
seed = plan_seed + t, recorded in the output, so any single row can be rerun
in isolation.  Tasks may execute on a thread pool; row order follows task
order regardless of completion order, and all randomness is seeded, so a
plan's non-timing output is reproducible byte for byte.  Timing output is
every column ending in ``_seconds``, plus the aggregates of such columns:
compare's ``statistic`` rows ``fw_seconds`` and ``barrier_seconds``, and
sensor-scaling's ``iqr_low`` and ``iqr_high``.

Individual trial failures are recorded in the row's ``error`` column and do
not abort the plan; a plan whose trials all fail exits with code 2.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

from ._blas import single_blas_thread
from .barrier import BarrierConfig, solve_barrier
from .frank_wolfe import FwConfig, StepRule, separable_warm_start, solve_fw
from .instances import InstanceKind, InstanceSpec, generate, save_results, trial_spec, uniform_allocation
from .model import BitAllocationError, ProblemInstance, evaluate
from .quantizer import DitherMode, QuantizerBank, simulate_lmmse
from .rounding import RoundingPreconditionError, RoundingReport, round_with_guarantees
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
        if self.experiment in (Experiment.UNIFORM_SWEEP, Experiment.SENSOR_SCALING):
            if self.sweep_values is None:
                uniform = self.experiment is Experiment.UNIFORM_SWEEP
                object.__setattr__(self, "sweep_values", DEFAULT_BUDGET_SWEEP if uniform else DEFAULT_RATIO_SWEEP)
            elif not self.sweep_values:
                raise ValueError(f"{self.experiment.value} needs a nonempty sweep")
        if self.experiment is Experiment.SENSOR_SCALING and self.instance_spec.kind is not InstanceKind.RANDOM_GAUSSIAN:
            raise ValueError("sensor-scaling sweeps m on random-gaussian instances only")


@dataclass
class RunResult:
    records: list[dict]
    aggregates: list[dict]
    traces: list[tuple[int, str, SolveTrace]] = field(default_factory=list)
    exit_code: int = EXIT_OK


def _barrier_config(plan: ExperimentPlan) -> BarrierConfig:
    if plan.experiment is Experiment.UNIFORM_SWEEP:
        # sweep budgets reach B = 7m; the saturation slack mu/lambda must
        # clear the rounding gate 1e-6 * B even on weakly identified trials
        return BarrierConfig(time_limit=plan.time_limit, mu_final=1e-11)
    return BarrierConfig(time_limit=plan.time_limit)


def _quantiles(values) -> tuple[float, float, float]:
    data = sorted(values)
    return statistics.median(data), float(np.percentile(data, 25)), float(np.percentile(data, 75))


def _run_tasks(tasks, worker, threads: int):
    if threads <= 1:
        return [worker(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, tasks))


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
    traces = [(row["trial"], row["solver"], trace) for row, trace in outcomes if trace is not None]
    if plan.experiment is Experiment.VALIDATE:
        # the model check fails as soon as one dither mode does not pass
        failed = any(rec["error"] or rec["passed"] is not True for rec in records)
    else:
        failed = all(rec["error"] for rec in records)
    return RunResult(records, aggregate(plan, records), traces, EXIT_ALL_FAILED if failed else EXIT_OK)


def write_outputs(plan: ExperimentPlan, result: RunResult) -> None:
    if plan.output_path is None:
        return
    out = Path(plan.output_path)
    out.parent.mkdir(parents=True, exist_ok=True)
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


def _trial_instance(plan: ExperimentPlan, trial: int, row: dict, **overrides) -> ProblemInstance:
    """Generate trial ``trial``'s instance and record its trial index and seed."""
    spec = replace(trial_spec(plan.instance_spec, plan.seed, trial), **overrides)
    row.update(trial=trial, seed=spec.seed)
    return generate(spec)


def _solve_one(plan, instance, solver: str):
    """Run one solver; returns (trace, KKT certificate or None for fw, wall seconds)."""
    t_start = time.perf_counter()
    if solver == "fw":
        config = FwConfig(max_iterations=2000, step_rule=StepRule.ADAPTIVE_LIPSCHITZ, time_limit=plan.time_limit)
        start = separable_warm_start(instance) if instance.budget > 0.0 else None
        trace, kkt = solve_fw(instance, config, start=start), None
    else:
        trace, kkt = solve_barrier(instance, _barrier_config(plan))
    return trace, kkt, time.perf_counter() - t_start


def _barrier_and_round(plan, instance):
    """Barrier solve then rounding; returns (trace, kkt, report, wall seconds of both)."""
    t0 = time.perf_counter()
    trace, kkt = solve_barrier(instance, _barrier_config(plan))
    report = round_with_guarantees(instance, trace.final_bits)
    return trace, kkt, report, time.perf_counter() - t0


def _rounding_columns(relaxed: float, report: RoundingReport) -> dict:
    return {
        "objective_rounded": relaxed + report.gap_actual,
        "gap_actual": report.gap_actual,
        "gap_bound": report.gap_bound,
        "gap_ratio": report.gap_actual / report.gap_bound if report.gap_bound > 0 else "",
        "distance_squared": report.distance_squared,
        "distance_bound": report.distance_bound,
        "residual_budget": report.residual_budget,
    }


def _solve_trial(plan: ExperimentPlan, task: tuple[int, str], row: dict) -> SolveTrace:
    trial, solver = task
    row["solver"] = solver
    instance = _trial_instance(plan, trial, row)
    row.update(d=instance.d, m=instance.m, budget=instance.budget)
    trace, kkt, wall = _solve_one(plan, instance, solver)
    row.update(
        objective_relaxed=trace.final_objective,
        budget_slack=instance.budget - trace.final_bits.total,
        iterations=trace.iterations,
        termination=trace.termination.value,
        wall_seconds=wall,
    )
    if kkt is None:
        row.update(min_gap=trace.certificate.min_gap, certificate_bound=trace.certificate.rate_bound)
    else:
        row.update(stationarity=kkt.stationarity_residual, complementarity=kkt.complementarity_residual)
    try:
        report = round_with_guarantees(instance, trace.final_bits)
    except RoundingPreconditionError as exc:
        row["rounding_note"] = str(exc)
    else:
        row.update(_rounding_columns(trace.final_objective, report))
    return trace


def _compare_trial(plan: ExperimentPlan, trial: int, row: dict) -> None:
    instance = _trial_instance(plan, trial, row)
    row.update(d=instance.d, m=instance.m, budget=instance.budget)
    fw, _, fw_wall = _solve_one(plan, instance, "fw")
    ba, kkt, ba_wall = _solve_one(plan, instance, "barrier")
    row.update(
        fw_objective=fw.final_objective,
        barrier_objective=ba.final_objective,
        relative_difference=abs(fw.final_objective - ba.final_objective) / ba.final_objective,
        fw_iterations=fw.iterations,
        fw_termination=fw.termination.value,
        fw_min_gap=fw.certificate.min_gap,
        fw_certificate_bound=fw.certificate.rate_bound,
        barrier_iterations=ba.iterations,
        barrier_termination=ba.termination.value,
        barrier_stationarity=kkt.stationarity_residual,
        barrier_slack=instance.budget - ba.final_bits.total,
        fw_seconds=fw_wall,
        barrier_seconds=ba_wall,
    )


def _rounding_gap_trial(plan: ExperimentPlan, trial: int, row: dict) -> None:
    instance = _trial_instance(plan, trial, row)
    row.update(m=instance.m, budget=instance.budget)
    trace, kkt, report, wall = _barrier_and_round(plan, instance)
    row.update(
        objective_relaxed=trace.final_objective,
        simplified_gap_bound=report.simplified_gap_bound,
        stationarity=kkt.stationarity_residual,
        budget_slack=instance.budget - trace.final_bits.total,
        termination=trace.termination.value,
        wall_seconds=wall,
        **_rounding_columns(trace.final_objective, report),
    )


def _uniform_sweep_trial(plan: ExperimentPlan, task: tuple[float, int], row: dict) -> None:
    c, trial = task
    row["budget_per_sensor"] = c
    instance = _trial_instance(plan, trial, row, budget_per_sensor=float(c))
    row["budget"] = instance.budget
    trace, kkt, report, wall = _barrier_and_round(plan, instance)
    uniform_objective = evaluate(instance, uniform_allocation(instance)).objective
    rounded_objective = trace.final_objective + report.gap_actual
    row.update(
        uniform_objective=uniform_objective,
        relaxed_objective=trace.final_objective,
        rounded_objective=rounded_objective,
        improvement_percent=100.0 * (uniform_objective - rounded_objective) / uniform_objective,
        gap_bound=report.gap_bound,
        stationarity=kkt.stationarity_residual,
        termination=trace.termination.value,
        wall_seconds=wall,
    )


def _sensor_scaling_trial(plan: ExperimentPlan, task: tuple[float, int], row: dict) -> None:
    ratio, trial = task
    d = plan.instance_spec.d
    m = max(int(round(ratio * d)), 1)
    row.update(ratio=ratio, m=m, d=d)
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
    instance = generate(trial_spec(plan.instance_spec, plan.seed, 0))
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
        lambda plan: range(plan.trials),
        _rounding_gap_trial,
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
