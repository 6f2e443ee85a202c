"""bitalloc benchmark: one closed-loop workload per invocation.

    python3 bench/run.py --workload grid-barrier --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Runs from the root of a source checkout and imports the package from its
``src`` directory (never an installed copy).  With ``--trace 0`` it prints
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones; the last line of standard output is the JSON result.  Any failed
correctness check makes the exit code nonzero.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORKDIR = BENCH / ".work"
SETUP_REPEATS = 5
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_package():
    """Import bitalloc from this checkout's src/, refusing any other copy."""
    if not (SRC / "bitalloc" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'bitalloc'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import bitalloc

    if Path(bitalloc.__file__).resolve().parent != (SRC / "bitalloc").resolve():
        raise SystemExit(f"bench: imported bitalloc from {bitalloc.__file__}, not {SRC}")
    return bitalloc


def _make(name: str, tiny: bool):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliPlan:
        WORKDIR.mkdir(parents=True, exist_ok=True)
        return cls(tiny=tiny, workdir=WORKDIR)
    return cls(tiny=tiny)


def _pool_size(workload, seconds: float) -> int:
    return max(1, round(seconds / workload.seconds_per_request))


def setup_probe(name: str, seed: int, seconds: float, tiny: bool) -> None:
    """Body of a fresh set-up process: prepare the pool, first call into each entry point."""
    workload = _make(name, tiny)
    workload.pool(seed, _pool_size(workload, seconds))
    workload.warm_up()


def _setup_seconds(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def environment() -> dict:
    """Machine and library facts the numbers depend on; BLAS thread variables are reported, never set."""
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 prints instead of returning
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it, with the sample count."""
    n = len(values)
    if n <= 10:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value_s": sorted(values)[n - 11], "samples": n}


class Run:
    """The closed loop: pass over the pool once, then cycle until time is up."""

    def __init__(self, workload, pool: list):
        self.workload = workload
        self.pool = pool
        self.first: list = []
        self.latencies: list[float] = []
        self.instances = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def request(self, item, index: int) -> None:
        t0 = time.perf_counter()
        try:
            outcome = self.workload.run(item)
        except Exception as exc:  # a raising request counts as failed, and the run goes on
            outcome = workloads.Outcome(self.workload.instances_per_request, 0)
            outcome.problems.append(f"{item}: {type(exc).__name__}: {exc}")
        self.latencies.append(time.perf_counter() - t0)
        self.instances += outcome.instances
        self.attempted += outcome.instances
        self.failed += outcome.instances - outcome.ok
        self.problems += outcome.problems
        if index < len(self.pool):
            self.first.append(outcome)
        elif outcome.digest != self.first[index % len(self.pool)].digest:
            self.failed += outcome.instances
            self.problems.append(f"{item}: rerun output differs from the first pass")

    def loop(self, seconds: float) -> float:
        t0 = time.perf_counter()
        index = 0
        while index < len(self.pool) or time.perf_counter() - t0 < seconds:
            self.request(self.pool[index % len(self.pool)], index)
            index += 1
        return time.perf_counter() - t0


def run_workload(args) -> dict:
    """Measure one workload; returns the result object printed as the last line."""
    workload = _make(args.workload, args.tiny)
    setup = [] if args.trace else _setup_seconds(args)
    seconds = args.seconds / 2 if args.trace else args.seconds
    pool = workload.pool(args.seed, _pool_size(workload, seconds))
    workload.warm_up()

    run = Run(workload, pool)
    if args.trace:
        import tracer

        # each request runs untraced, then traced, so drift hits both sides alike
        traced = Run(workload, pool)
        spans = tracer.Tracer()
        for index, item in enumerate(pool):
            run.request(item, index)
            spans.set_instance(item)
            with spans:
                traced.request(item, index)
        wall_plain, wall_traced = sum(run.latencies), sum(traced.latencies)
        overhead = (wall_traced - wall_plain) / wall_plain
        metrics = tracer.layer_metrics(spans.spans, wall_traced, traced.instances, overhead)
        run.attempted += traced.attempted
        run.failed += traced.failed
        run.problems += traced.problems
        for a, b in zip(run.first, traced.first):
            if a.digest != b.digest:
                run.failed += b.instances
                run.problems.append("traced output differs from the untraced pass")
    else:
        cpu0 = _cpu_seconds()
        wall = run.loop(seconds)
        cpu = _cpu_seconds() - cpu0
        ok = sum(o.ok for o in run.first)
        metrics = {
            "setup_s": statistics.median(setup),
            "instances_per_s": run.instances / wall,
            "latency_p50_s": statistics.median(run.latencies),
            "cpu_s_per_instance": cpu / run.instances,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": ok / sum(o.instances for o in run.first),
            # geometric mean: the two grid budgets give two clusters of ratios, whose median jumps
            "objective_ratio": math.exp(statistics.fmean(math.log(r) for o in run.first for r in o.ratios)),
        }

    z = workloads.mc_zscore(run.first)
    if abs(z) > 3.0:
        run.failed += sum(o.instances for o in run.first)
        run.problems.append(f"Monte-Carlo MSE is {z:.2f} pooled standard errors from the model")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "requests": len(run.latencies),
        "pool": len(pool),
        "digest": workloads.digest(run.first),
        "mc_pooled_z": z,
        "problems": run.problems[:20],
    }
    if not args.trace:
        report.update(setup_samples_s=setup, latency_tail=_tail(run.latencies))
    print("report:", json.dumps(report), flush=True)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(args) -> int:
    """Every workload in its own process; prints each result and a table."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if results[name] is None:
            print(f"{name}: exit code {proc.returncode}, no result")
    for name, result in results.items():
        if result:
            for metric, entry in result["metrics"].items():
                print(f"{name:13s} {metric:34s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    global workloads
    _import_package()
    import workloads

    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.seconds, args.tiny)
        return 0
    print("env:", json.dumps(environment()), flush=True)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    try:
        result = run_workload(args)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    units = _units()
    result["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
