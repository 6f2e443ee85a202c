import csv
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from bitalloc import experiments
from bitalloc.experiments import (
    EXIT_ALL_FAILED,
    EXIT_OK,
    Experiment,
    ExperimentPlan,
    SolverChoice,
    run,
    write_outputs,
)
from bitalloc.frank_wolfe import FwConfig, solve_fw
from bitalloc.instances import InstanceKind, InstanceSpec, generate
from bitalloc.trace import Termination

SMALL_GRID = InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=6)
SMALL_GAUSSIAN = InstanceSpec(kind=InstanceKind.RANDOM_GAUSSIAN, d=3, m=5)


def drop_timing(records):
    return [
        {k: v for k, v in rec.items() if not k.endswith("_seconds")} for rec in records
    ]


class TestSolvePlan:
    def test_both_solvers_and_rounding(self):
        plan = ExperimentPlan(
            experiment=Experiment.SOLVE, instance_spec=SMALL_GRID, trials=2, seed=5
        )
        result = run(plan)
        assert result.exit_code == EXIT_OK
        assert len(result.records) == 4  # 2 trials x 2 solvers
        for rec in result.records:
            assert rec["error"] == ""
            assert float(rec["objective_relaxed"]) > 0
        barrier_rows = [r for r in result.records if r["solver"] == "barrier"]
        for rec in barrier_rows:
            assert rec["rounding_note"] == ""
            assert float(rec["gap_actual"]) <= float(rec["gap_bound"]) + 1e-9
        assert len(result.traces) == 4

    def test_zero_budget_fw_rows(self):
        # the warm start of a zero budget is the origin, where the gap is already zero
        spec = InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=4, budget_per_sensor=0.0)
        plan = ExperimentPlan(Experiment.SOLVE, spec, trials=2, solver=SolverChoice.FW)
        result = run(plan)
        assert result.exit_code == EXIT_OK
        for rec in result.records:
            assert rec["error"] == ""
            assert rec["termination"] == "gap-converged"
            assert rec["iterations"] == 0
            assert rec["budget_slack"] == 0.0
            assert rec["objective_rounded"] == rec["objective_relaxed"]

    def test_seed_recorded_per_trial(self):
        plan = ExperimentPlan(
            experiment=Experiment.SOLVE,
            instance_spec=SMALL_GRID,
            trials=3,
            seed=100,
            solver=SolverChoice.BARRIER,
        )
        result = run(plan)
        assert [rec["seed"] for rec in result.records] == [100, 101, 102]


class TestComparePlan:
    def test_agreement_on_small_grid(self):
        plan = ExperimentPlan(
            experiment=Experiment.COMPARE_SOLVERS, instance_spec=SMALL_GRID, trials=2, seed=1
        )
        result = run(plan)
        assert result.exit_code == EXIT_OK
        for rec in result.records:
            assert rec["error"] == ""
            assert float(rec["relative_difference"]) < 1e-2
        stats = {agg["statistic"] for agg in result.aggregates}
        assert {"relative_difference", "fw_seconds", "barrier_seconds"} <= stats


class TestRoundingGapPlan:
    def test_ratio_aggregates(self):
        plan = ExperimentPlan(
            experiment=Experiment.ROUNDING_GAP, instance_spec=SMALL_GRID, trials=3, seed=2
        )
        result = run(plan)
        assert result.exit_code == EXIT_OK
        ratios = [float(rec["gap_ratio"]) for rec in result.records]
        assert all(0.0 <= ratio < 1.0 for ratio in ratios)
        agg = {a["statistic"]: a for a in result.aggregates}
        assert agg["gap_ratio"]["count"] == 3

    def test_all_trials_failed_exit_code(self):
        # zero budget has no barrier interior, so every trial errors out
        spec = InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=4, budget_per_sensor=0.0)
        plan = ExperimentPlan(experiment=Experiment.ROUNDING_GAP, instance_spec=spec, trials=2)
        result = run(plan)
        assert result.exit_code == EXIT_ALL_FAILED
        assert all("BoundaryError" in rec["error"] for rec in result.records)


class TestUniformSweepPlan:
    def test_improvement_recorded_per_budget(self):
        plan = ExperimentPlan(
            experiment=Experiment.UNIFORM_SWEEP,
            instance_spec=InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=8),
            trials=2,
            sweep_values=(2.0, 3.0),
            seed=3,
        )
        result = run(plan)
        assert result.exit_code == EXIT_OK
        assert len(result.records) == 4
        for rec in result.records:
            assert rec["error"] == ""
            assert float(rec["improvement_percent"]) > -1e-6
        assert [agg["budget_per_sensor"] for agg in result.aggregates] == [2.0, 3.0]


    def test_fw_iteration_cap_scales_with_sensors(self):
        # solve_fw's default cap: pairwise steps move one pair of coordinates
        # each, so m = 600 gets 5m = 3,000 of them, above the floor of 2,000
        instance = generate(InstanceSpec(kind=InstanceKind.RANDOM_GAUSSIAN, d=3, m=600))
        trace = solve_fw(instance, FwConfig(gap_tolerance=1e-300))
        assert trace.termination is Termination.MAX_ITERATIONS
        assert trace.iterations == 3000


class TestSensorScalingPlan:
    def test_per_iteration_timing(self):
        plan = ExperimentPlan(
            experiment=Experiment.SENSOR_SCALING,
            instance_spec=InstanceSpec(kind=InstanceKind.RANDOM_GAUSSIAN, d=4, m=4),
            trials=2,
            sweep_values=(2.0, 5.0),
            seed=4,
        )
        result = run(plan)
        assert result.exit_code == EXIT_OK
        for rec in result.records:
            assert rec["error"] == ""
            assert rec["iterations"] == 30
            assert float(rec["per_iteration_seconds"]) > 0.0
        assert [agg["ratio"] for agg in result.aggregates] == [2.0, 5.0]
        assert result.aggregates[0]["m"] == 8


class TestValidatePlan:
    def test_passes_at_moderate_sample_count(self):
        plan = ExperimentPlan(
            experiment=Experiment.VALIDATE,
            instance_spec=SMALL_GAUSSIAN,
            trials=1,
            seed=6,
            mc_samples=30_000,
        )
        result = run(plan)
        assert result.exit_code == EXIT_OK
        modes = {rec["mode"] for rec in result.records}
        assert modes == {"subtractive", "non-subtractive"}
        assert all(rec["passed"] is True for rec in result.records)


class TestDeterminism:
    def test_rerun_identical_without_timing(self):
        plan = ExperimentPlan(
            experiment=Experiment.SOLVE, instance_spec=SMALL_GRID, trials=2, seed=9
        )
        first = run(plan)
        second = run(plan)
        assert drop_timing(first.records) == drop_timing(second.records)

    def test_threads_do_not_change_rows(self):
        base = ExperimentPlan(
            experiment=Experiment.ROUNDING_GAP, instance_spec=SMALL_GRID, trials=4, seed=11
        )
        threaded = ExperimentPlan(
            experiment=Experiment.ROUNDING_GAP,
            instance_spec=SMALL_GRID,
            trials=4,
            seed=11,
            threads=3,
        )
        assert drop_timing(run(base).records) == drop_timing(run(threaded).records)


USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def untimed(trace):
    iterates = tuple(replace(rec, elapsed_seconds=0.0) for rec in trace.iterates)
    return iterates, trace.final_bits.bits.tolist(), trace.termination, trace.certificate


class TestProcessPool:
    def test_pool_never_larger_than_tasks_or_cpus(self, monkeypatch):
        sizes = []

        class Inline:
            """Records the pool size and runs the tasks in this process."""

            def __init__(self, max_workers, mp_context, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", Inline)
        monkeypatch.setattr(experiments, "_TASKS", None, raising=False)
        plan = ExperimentPlan(Experiment.ROUNDING_GAP, SMALL_GRID, trials=2, seed=11, threads=10_000)
        assert run(plan).exit_code == EXIT_OK
        assert all(size <= min(2, USABLE_CPUS) for size in sizes)
        assert len(sizes) == (USABLE_CPUS > 1)

    @pytest.mark.skipif(USABLE_CPUS < 2, reason="a pool of one worker runs serially")
    def test_processes_match_serial_traces_and_exit(self, monkeypatch):
        pools = []

        class Recording(experiments.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", Recording)
        plan = ExperimentPlan(experiment=Experiment.SOLVE, instance_spec=SMALL_GRID, trials=2, seed=9)
        serial = run(plan)
        forked = run(replace(plan, threads=2))
        assert len(pools) == 1
        assert multiprocessing.active_children() == []
        assert drop_timing(forked.records) == drop_timing(serial.records)
        assert [(t, s) for t, s, _ in forked.traces] == [(t, s) for t, s, _ in serial.traces]
        assert [untimed(trace) for *_, trace in forked.traces] == [untimed(trace) for *_, trace in serial.traces]


class TestOutputs:
    def test_files_written(self, tmp_path):
        out = tmp_path / "solve.csv"
        plan = ExperimentPlan(
            experiment=Experiment.SOLVE,
            instance_spec=SMALL_GRID,
            trials=1,
            seed=12,
            solver=SolverChoice.BARRIER,
            output_path=str(out),
        )
        result = run(plan)
        write_outputs(plan, result)
        assert out.exists()
        assert (tmp_path / "solve.aggregates.csv").exists()
        assert (tmp_path / "solve.trace-0-barrier.csv").exists()
        header = out.read_text().splitlines()[0]
        assert header.startswith("trial,seed,solver")

    def test_barrier_trace_cells_are_numbers(self, tmp_path):
        # seed 5 takes steps capped by the budget slack's fraction to the boundary
        plan = ExperimentPlan(
            experiment=Experiment.SOLVE,
            instance_spec=SMALL_GRID,
            trials=2,
            seed=5,
            solver=SolverChoice.BARRIER,
            output_path=str(tmp_path / "solve.csv"),
        )
        write_outputs(plan, run(plan))
        traces = sorted(tmp_path.glob("solve.trace-*-barrier.csv"))
        assert len(traces) == 2
        for path in traces:
            with path.open(newline="") as handle:
                for row in csv.DictReader(handle):
                    for name, cell in row.items():
                        if cell or name not in ("vertex", "barrier_mu"):
                            float(cell)

    def test_no_output_path_is_noop(self):
        plan = ExperimentPlan(
            experiment=Experiment.VALIDATE, instance_spec=SMALL_GAUSSIAN, trials=1, mc_samples=2_000
        )
        write_outputs(plan, run(plan))  # must not raise


class TestPlanValidation:
    def test_trials_positive(self):
        with pytest.raises(ValueError):
            ExperimentPlan(experiment=Experiment.SOLVE, instance_spec=SMALL_GRID, trials=0)

    def test_threads_positive(self):
        with pytest.raises(ValueError):
            ExperimentPlan(experiment=Experiment.SOLVE, instance_spec=SMALL_GRID, threads=0)

    @pytest.mark.parametrize("samples", [1, 0])
    def test_samples_at_least_two(self, samples):
        with pytest.raises(ValueError, match="samples"):
            ExperimentPlan(experiment=Experiment.VALIDATE, instance_spec=SMALL_GAUSSIAN, mc_samples=samples)

    @pytest.mark.parametrize(
        "field, value",
        [
            (field, value)
            for field, below in (("trials", 0), ("threads", 0), ("seed", -1), ("mc_samples", 1))
            for value in (2.5, float("nan"), float("inf"), None, "3", below)
        ],
    )
    def test_counts_and_seed_are_integers_at_their_minimum(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentPlan(experiment=Experiment.VALIDATE, instance_spec=SMALL_GAUSSIAN, **{field: value})

    def test_numpy_integers_pass(self):
        counts = {"trials": np.int64(2), "threads": np.int32(1), "seed": np.int64(5), "mc_samples": np.int64(200)}
        plan = ExperimentPlan(experiment=Experiment.SOLVE, instance_spec=SMALL_GRID, **counts)
        assert all(getattr(plan, name) == value and type(getattr(plan, name)) is int for name, value in counts.items())

    def test_fractional_trials_fail_before_run(self, monkeypatch):
        started = []
        monkeypatch.setattr(experiments, "_run_tasks", lambda *args: started.append(args))
        with pytest.raises(ValueError, match="trials"):
            run(ExperimentPlan(experiment=Experiment.SOLVE, instance_spec=SMALL_GRID, trials=2.5))
        assert started == []

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            ExperimentPlan(
                experiment=Experiment.UNIFORM_SWEEP, instance_spec=SMALL_GRID, sweep_values=()
            )

    @pytest.mark.parametrize("time_limit", [0.0, -1.0, float("nan")])
    def test_time_limit_positive(self, time_limit):
        with pytest.raises(ValueError, match="time limit"):
            ExperimentPlan(experiment=Experiment.SOLVE, instance_spec=SMALL_GRID, time_limit=time_limit)

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf"), float("-inf")])
    def test_uniform_sweep_budgets_finite_and_nonnegative(self, value):
        with pytest.raises(ValueError, match="finite values >= 0"):
            ExperimentPlan(
                experiment=Experiment.UNIFORM_SWEEP, instance_spec=SMALL_GRID, sweep_values=(2.0, value)
            )

    def test_uniform_sweep_allows_zero_budget(self):
        plan = ExperimentPlan(experiment=Experiment.UNIFORM_SWEEP, instance_spec=SMALL_GRID, sweep_values=(0.0,))
        assert plan.sweep_values == (0.0,)

    @pytest.mark.parametrize("value", [0.0, -5.0, float("nan"), float("inf")])
    def test_sensor_scaling_ratios_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="finite values > 0"):
            ExperimentPlan(
                experiment=Experiment.SENSOR_SCALING, instance_spec=SMALL_GAUSSIAN, sweep_values=(value,)
            )

    def test_sensor_scaling_rejects_other_kinds(self):
        # the sweep sets m = ratio * d, which only a Gaussian spec can take
        with pytest.raises(ValueError, match="random-gaussian"):
            ExperimentPlan(experiment=Experiment.SENSOR_SCALING, instance_spec=SMALL_GRID)
