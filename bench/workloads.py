"""The benchmark's workloads: seeded inputs, the pipeline each request runs, and its gate.

Each workload is a closed loop with one caller: the next request is sent
after the previous one has returned and passed its checks.  A run draws a
fixed pool of requests from ``--seed`` and cycles through it until the
measuring time is used up; the first pass over the pool defines the
deterministic outputs (objective ratios, gate results, digest) and every
later pass must reproduce them byte for byte.

Functions of the program are looked up as module attributes at call time
(``barrier.solve_barrier`` rather than an imported name) so the tracer's
wrappers see the calls the benchmark itself makes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bitalloc import barrier, cli, frank_wolfe, instances, model, quantizer, rounding
from bitalloc.trace import Termination


@dataclass
class Outcome:
    """What one request produced, and whether it passed the gate."""

    instances: int
    ok: int
    ratios: list = field(default_factory=list)
    digest: bytes = b""
    problems: list = field(default_factory=list)
    mc: list = field(default_factory=list)  # (empirical - analytic, standard error)


def _check(outcome: Outcome, condition, message: str) -> bool:
    if not condition:
        outcome.problems.append(message)
    return bool(condition)


def _rounding_ok(outcome: Outcome, instance, report, label: str) -> bool:
    """Integral, exactly on budget, inside the distance bound and the gap bound."""
    bits = report.rounded_bits
    return all([
        _check(outcome, bits.is_integral, f"{label}: rounded bits not integral"),
        _check(outcome, bits.total == instance.budget, f"{label}: rounded total {bits.total!r} != {instance.budget!r}"),
        _check(outcome, report.distance_squared <= report.distance_bound + 1e-12,
               f"{label}: distance {report.distance_squared!r} > bound {report.distance_bound!r}"),
        _check(outcome, report.gap_actual <= report.gap_bound + 1e-9,
               f"{label}: gap {report.gap_actual!r} > bound {report.gap_bound!r}"),
    ])


def _rounded_digest(report, *objectives) -> bytes:
    return report.rounded_bits.bits.tobytes() + "|".join(repr(float(v)) for v in objectives).encode()


def _uniform_objective(instance) -> float:
    return model.evaluate(instance, instances.uniform_allocation(instance)).objective


def _seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, 0xB17A])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


class GridBarrier:
    """The uniform sweep's traffic: barrier solves on d=50 grids, then rounding.

    A request is one generated grid solved at both sweep budgets, c = 2 and
    c = 7 bits per sensor, so it carries two instances.  Solving the two
    budgets together keeps per-request cost unimodal (c = 2 solves take about
    twice as long), which keeps the median steady across seeds.
    """

    name = "grid-barrier"
    budgets = (2.0, 7.0)
    instances_per_request = len(budgets)
    seconds_per_request = 3.4

    def __init__(self, tiny: bool = False):
        self.d = 8 if tiny else 50
        self.config = barrier.BarrierConfig(mu_final=1e-11)

    def pool(self, seed: int, count: int) -> list:
        return _seeds(seed, count)

    def warm_up(self) -> None:
        spec = instances.InstanceSpec(kind=instances.InstanceKind.GRID_LAPLACIAN, d=5, seed=1)
        self._solve(instances.generate(spec), Outcome(1, 0), "warm-up", barrier.BarrierConfig())

    def run(self, grid_seed: int) -> Outcome:
        outcome = Outcome(instances=self.instances_per_request, ok=0)
        for c in self.budgets:
            spec = instances.InstanceSpec(
                kind=instances.InstanceKind.GRID_LAPLACIAN, d=self.d, seed=grid_seed, budget_per_sensor=c
            )
            outcome.ok += self._solve(instances.generate(spec), outcome, f"grid {grid_seed} c={c:g}")
        return outcome

    def _solve(self, instance, outcome: Outcome, label: str, config=None) -> bool:
        solve_trace, _ = barrier.solve_barrier(instance, config or self.config)
        slack = instance.budget - solve_trace.final_bits.total
        ok = _check(outcome, 0.0 < slack <= 1e-6 * instance.budget, f"{label}: budget slack {slack!r}")
        ok &= _check(outcome, isinstance(solve_trace.termination, Termination), f"{label}: no termination")
        report = rounding.round_with_guarantees(instance, solve_trace.final_bits)
        ok &= _rounding_ok(outcome, instance, report, label)
        rounded = solve_trace.final_objective + report.gap_actual
        uniform = _uniform_objective(instance)
        outcome.ratios.append(rounded / uniform)
        outcome.digest += _rounded_digest(report, solve_trace.final_objective, rounded, uniform)
        return ok


class SensorRich:
    """Tall Gaussian sensing (d=50, m=1000) at a total budget of 2d bits.

    Warm start, conditional gradient, rounding, then a subtractive-dither
    Monte-Carlo run on the rounded bits.  The gradient kernel is BLAS-bound
    here and the quantizer factors an m x m Gram matrix, which no other
    workload does.  The iteration count is pinned (gap tolerance 1e-300, as
    the sensor-scaling experiment pins it): left to the default tolerance,
    a seed either converges in about 15 iterations or runs to the cap, and
    that bimodal cost makes the median request time jump between seeds.
    """

    name = "sensor-rich"
    instances_per_request = 1
    seconds_per_request = 1.8

    def __init__(self, tiny: bool = False):
        self.d, self.m = (5, 40) if tiny else (50, 1000)
        self.samples = 2_000 if tiny else 10_000
        iterations = 20 if tiny else 300
        self.config = frank_wolfe.FwConfig(max_iterations=iterations, gap_tolerance=1e-300)

    def pool(self, seed: int, count: int) -> list:
        return _seeds(seed, count)

    def warm_up(self) -> None:
        spec = instances.InstanceSpec(
            kind=instances.InstanceKind.RANDOM_GAUSSIAN, d=4, m=20, seed=1, budget_per_sensor=0.4
        )
        config = frank_wolfe.FwConfig(max_iterations=5, gap_tolerance=1e-300)
        self._solve(instances.generate(spec), config, 200, 1, Outcome(1, 0), "warm-up")

    def run(self, instance_seed: int) -> Outcome:
        spec = instances.InstanceSpec(
            kind=instances.InstanceKind.RANDOM_GAUSSIAN,
            d=self.d,
            m=self.m,
            seed=instance_seed,
            budget_per_sensor=2.0 * self.d / self.m,
        )
        outcome = Outcome(instances=1, ok=0)
        instance = instances.generate(spec)
        outcome.ok += self._solve(instance, self.config, self.samples, instance_seed, outcome, f"gaussian {instance_seed}")
        return outcome

    def _solve(self, instance, config, samples: int, dither_seed: int, outcome: Outcome, label: str) -> bool:
        start = frank_wolfe.separable_warm_start(instance)
        fw = frank_wolfe.solve_fw(instance, config, start=start)
        bits = fw.final_bits.bits
        ok = _check(outcome, fw.certificate.holds, f"{label}: certificate fails")
        ok &= _check(outcome, bits.min() >= -1e-12 and bits.sum() <= instance.budget * (1.0 + 1e-12) + 1e-12,
                     f"{label}: infeasible iterate")
        report = rounding.round_with_guarantees(instance, fw.final_bits)
        ok &= _rounding_ok(outcome, instance, report, label)
        bank = quantizer.QuantizerBank.for_allocation(
            instance, report.rounded_bits, quantizer.DitherMode.SUBTRACTIVE, seed=dither_seed
        )
        mc = quantizer.simulate_lmmse(instance, report.rounded_bits, samples, bank)
        outcome.mc.append((mc.empirical_mse - mc.analytic_mse, mc.standard_error))
        rounded = fw.final_objective + report.gap_actual
        uniform = _uniform_objective(instance)
        outcome.ratios.append(rounded / uniform)
        outcome.digest += _rounded_digest(report, fw.final_objective, rounded, uniform, mc.empirical_mse)
        return ok


class CliPlan:
    """``bitalloc solve --solver both --threads 2`` on d=13 grids, in-process.

    The only path through the CLI, the harness's thread pool and the CSV and
    trace writers.  A request is one CLI invocation of ``trials`` trials; each
    trial is one instance solved by both solvers.
    """

    name = "cli-plan"
    seconds_per_request = 3.7

    def __init__(self, tiny: bool = False, workdir: Path | None = None):
        self.tiny = tiny
        self.trials = self.instances_per_request = 2 if tiny else 4
        self.workdir = workdir

    def pool(self, seed: int, count: int) -> list:
        # consecutive plans use disjoint instance seeds (trial t uses plan seed + t)
        base = _seeds(seed, 1)[0] % (2**30)
        return [base + k * self.trials for k in range(count)]

    def _config(self, d: int) -> Path:
        path = self.workdir / f"grid-d{d}.json"
        path.write_text(json.dumps({"kind": "grid-laplacian", "d": d}))
        return path

    def warm_up(self) -> None:
        self._invoke(1, 1, self._config(4), "warm-up", Outcome(1, 0))

    def run(self, plan_seed: int) -> Outcome:
        outcome = Outcome(instances=self.trials, ok=0)
        config = self._config(6) if self.tiny else None
        outcome.ok = self._invoke(plan_seed, self.trials, config, f"plan {plan_seed}", outcome)
        return outcome

    def _invoke(self, plan_seed: int, trials: int, config, label: str, outcome: Outcome) -> int:
        out_dir = self.workdir / "plan"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        out = out_dir / "rows.csv"
        argv = ["solve", "--solver", "both", "--threads", "2", "--trials", str(trials),
                "--seed", str(plan_seed), "--out", str(out)]
        code = cli.main(argv + (["--config", str(config)] if config else []))
        _check(outcome, code == 0, f"{label}: exit code {code}")
        rows = _read_csv(out) if out.exists() else []
        traces = sorted(out_dir.glob("rows.trace-*.csv"))
        _check(outcome, len(traces) == len(rows), f"{label}: {len(traces)} trace files for {len(rows)} rows")
        ok_trials = 0
        for trial in range(trials):
            trial_rows = [r for r in rows if r["trial"] == str(trial)]
            good = len(trial_rows) == 2 and code == 0
            for row in trial_rows:
                good &= _check(outcome, not row["error"], f"{label} trial {trial}: {row['error']}")
                good &= _check(outcome, not row["rounding_note"], f"{label} trial {trial}: {row['rounding_note']}")
                if row["objective_rounded"]:
                    outcome.ratios.append(float(row["objective_rounded"]) / self._uniform(row))
            ok_trials += good
        for path in [out, out_dir / "rows.aggregates.csv", *traces]:
            if path.exists():
                outcome.digest += path.name.encode() + _csv_digest(path)
        return ok_trials

    @staticmethod
    def _uniform(row: dict) -> float:
        spec = instances.InstanceSpec(kind=instances.InstanceKind.GRID_LAPLACIAN, d=int(row["d"]),
                                      seed=int(row["seed"]))
        return _uniform_objective(instances.generate(spec))


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def _csv_digest(path: Path) -> bytes:
    """Every column except the timing ones (names ending in ``_seconds``)."""
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    keep = [i for i, name in enumerate(rows[0]) if not name.endswith("_seconds")]
    return "\n".join(",".join(row[i] for i in keep) for row in rows).encode()


def mc_zscore(outcomes) -> float:
    """Pooled deviation of the Monte-Carlo MSEs from the model, in standard errors."""
    pairs = [pair for outcome in outcomes for pair in outcome.mc]
    if not pairs:
        return 0.0
    return sum(diff for diff, _ in pairs) / math.sqrt(sum(se * se for _, se in pairs))


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(outcome.digest)
    return h.hexdigest()


WORKLOADS = {cls.name: cls for cls in (GridBarrier, SensorRich, CliPlan)}
