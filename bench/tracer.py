"""Span tracer that wraps bitalloc's functions where their callers look them up.

A traced run replaces module attributes such as ``bitalloc.barrier.objective_value``
with a wrapper that records one span per call: name, start, end, parent span,
instance id and optional shape information.  Spans are kept in memory (one
list and one span stack per thread, because the CLI runs trials on a thread
pool) and are only read after the run.  Every wrapped attribute is restored
when the ``with`` block exits, also on error.

The program is not modified: this is the same monkeypatching idiom the
acceptance tests use on ``frank_wolfe.evaluate``.
"""

from __future__ import annotations

import itertools
import threading
import time
from pathlib import Path

from bitalloc import barrier, cli, experiments, frank_wolfe, instances, model, quantizer, rounding, trace

# Span record fields, kept as plain lists to keep the per-call cost small.
ID, NAME, START, END, PARENT, INSTANCE, INFO = range(7)


def _model_shape(args, result):
    inst = args[0]
    return {"d": inst.d, "m": inst.m}


def _barrier_result(args, result):
    solve_trace, _ = result
    steps = [rec.step_size for rec in solve_trace.iterates if rec.step_size > 0.0]
    return {
        "accepted": len(steps),
        "short": sum(1 for s in steps if s < 1e-3),
        "final_grad_norm": solve_trace.iterates[-1].gap,
    }


def _fw_result(args, result):
    return {
        "iterations": result.iterations,
        "max_iterations": result.termination is trace.Termination.MAX_ITERATIONS,
    }


def _simulate_shape(args, result):
    inst, _, samples = args[0], args[1], args[2]
    return {"d": inst.d, "m": inst.m, "n": int(samples)}


def _file_size(args, result):
    return {"bytes": Path(args[0]).stat().st_size}


# (module, attribute, span name, info hook).  Every site where a caller looks
# a public function up is listed, so a call is traced whichever module makes it.
PATCHES = (
    (model, "evaluate", "model.evaluate", _model_shape),
    (barrier, "evaluate", "model.evaluate", _model_shape),
    (frank_wolfe, "evaluate", "model.evaluate", _model_shape),
    (rounding, "evaluate", "model.evaluate", _model_shape),
    (quantizer, "evaluate", "model.evaluate", _model_shape),
    (experiments, "evaluate", "model.evaluate", _model_shape),
    (model, "objective_value", "model.objective_value", _model_shape),
    (barrier, "objective_value", "model.objective_value", _model_shape),
    (model, "cholesky_lower", "model.cholesky", None),
    (quantizer, "cholesky_lower", "quantizer.cholesky", None),
    (barrier, "solve_barrier", "barrier.solve", _barrier_result),
    (experiments, "solve_barrier", "barrier.solve", _barrier_result),
    (frank_wolfe, "separable_warm_start", "frank_wolfe.warm_start", None),
    (experiments, "separable_warm_start", "frank_wolfe.warm_start", None),
    (frank_wolfe, "solve_fw", "frank_wolfe.solve", _fw_result),
    (experiments, "solve_fw", "frank_wolfe.solve", _fw_result),
    (rounding, "round_with_guarantees", "rounding.round", None),
    (experiments, "round_with_guarantees", "rounding.round", None),
    (quantizer, "simulate_lmmse", "quantizer.simulate", _simulate_shape),
    (experiments, "simulate_lmmse", "quantizer.simulate", _simulate_shape),
    (instances, "generate", "instances.generate", None),
    (experiments, "generate", "instances.generate", None),
    (experiments, "save_results", "instances.write", _file_size),
    (experiments, "write_trace", "trace.write", _file_size),
    (experiments, "run", "experiments.run", None),
    (cli, "run", "experiments.run", None),
    (cli, "write_outputs", "experiments.write_outputs", None),
    (cli, "main", "cli.main", None),
)


class Tracer:
    """Records spans for the calls made inside its ``with`` block."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[list] = []
        self._saved: list = []

    # -- per-thread state -------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            local.instance = None
            with self._lock:
                self._per_thread.append(local.spans)
        return local

    def set_instance(self, instance_id) -> None:
        """Tag the spans this thread records from now on with ``instance_id``."""
        self._state().instance = instance_id

    @property
    def spans(self) -> list:
        with self._lock:
            return [span for spans in self._per_thread for span in spans]

    # -- wrapping -----------------------------------------------------------
    def _wrap(self, fn, name, info):
        clock = time.perf_counter
        ids = self._ids
        state = self._state

        def traced(*args, **kwargs):
            local = state()
            stack = local.stack
            span = [next(ids), name, clock(), 0.0, stack[-1][ID] if stack else None, local.instance, None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                local.spans.append(span)
            if info is not None:
                span[INFO] = info(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_run_tasks(self, fn):
        """Wrap the harness's task runner so each task becomes a span.

        Worker threads start with an empty span stack, so the task span's
        parent is passed in explicitly from the calling thread.
        """
        clock = time.perf_counter
        ids = self._ids
        state = self._state

        def traced(tasks, worker, threads):
            outer = state()
            parent = outer.stack[-1][ID] if outer.stack else None
            base = outer.instance

            def task_worker(task):
                local = state()
                local.instance = (base, task)
                span = [next(ids), "experiments.task", clock(), 0.0, parent, local.instance, None]
                local.stack.append(span)
                cpu = time.thread_time()
                try:
                    return worker(task)
                finally:
                    span[END] = clock()
                    span[INFO] = {"cpu": time.thread_time() - cpu}
                    local.stack.pop()
                    local.spans.append(span)

            return fn(tasks, task_worker, threads)

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        try:
            for module, attr, name, info in PATCHES:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, info))
            original = experiments._run_tasks
            self._saved.append((experiments, "_run_tasks", original))
            experiments._run_tasks = self._wrap_run_tasks(original)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


# -- per-layer metrics ----------------------------------------------------

def _objective_flops(d: int, m: int) -> float:
    """Flops of one objective: scale rows (md), Gram (2md^2), Cholesky (d^3/3),
    triangular inverse against the identity (d^3) and the squared sum (2d^2)."""
    return m * d + 2.0 * m * d * d + d**3 / 3.0 + d**3 + 2.0 * d * d


def _evaluate_flops(d: int, m: int) -> float:
    """Objective plus the gradient: cho_solve against H' (2d^2 m) and the column norms (2dm)."""
    return _objective_flops(d, m) + 2.0 * d * d * m + 2.0 * d * m


def _simulate_bytes(d: int, m: int, n: int) -> float:
    """Bytes of the float64 arrays simulate_lmmse writes and reads once each:
    normal draws and states (2dn), clean, uniform draws, dither, readings and
    their errors (5mn), the solve's right-hand side and result (2mn), the
    estimates and their errors (2dn), and the m x m Gram with its factor (2m^2)."""
    return 8.0 * (4.0 * d * n + 7.0 * m * n + 2.0 * m * m)


def _median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list, wall: float, instance_count: int, overhead_frac: float) -> dict:
    """Per-layer figures from the spans of one traced pass.

    ``wall`` is the traced pass's wall time and ``instance_count`` the number
    of problem instances it carried; layers the workload bypasses read 0.
    """
    by_id = {span[ID]: span for span in spans}
    children: dict = {}
    for span in spans:
        children.setdefault(span[PARENT], []).append(span)
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def named(name):
        return by_name.get(name, [])

    def dur(span):
        return span[END] - span[START]

    def descendants(span, name):
        out, todo = 0, list(children.get(span[ID], []))
        while todo:
            child = todo.pop()
            out += child[NAME] == name
            todo.extend(children.get(child[ID], []))
        return out

    def self_time(span):
        return dur(span) - _covered((c[START], c[END]) for c in children.get(span[ID], []))

    def is_model(span):
        return span is not None and span[NAME].startswith("model.")

    per_instance = max(instance_count, 1)
    model_top = [s for s in spans if is_model(s) and not is_model(by_id.get(s[PARENT]))]
    model_time = sum(dur(s) for s in model_top)
    flops = sum(
        _evaluate_flops(s[INFO]["d"], s[INFO]["m"]) if s[NAME] == "model.evaluate"
        else _objective_flops(s[INFO]["d"], s[INFO]["m"])
        for s in model_top
        if s[NAME] in ("model.evaluate", "model.objective_value")
    )

    solves = named("barrier.solve")
    accepted = [s[INFO]["accepted"] for s in solves]
    factorizations = [descendants(s, "model.cholesky") for s in solves]
    trials = [descendants(s, "model.objective_value") for s in solves]

    warm = named("frank_wolfe.warm_start")
    fw = named("frank_wolfe.solve")
    fw_iters = [s[INFO]["iterations"] for s in fw]
    fw_evals = [descendants(s, "model.evaluate") for s in fw]

    rounds = named("rounding.round")
    sims = named("quantizer.simulate")
    sim_time = sum(dur(s) for s in sims)
    writes = named("instances.write")
    runs = named("experiments.run")
    tasks = named("experiments.task")

    def concurrency(run):
        # CPU time of the task threads themselves: tasks that hold the GIL in turn overlap
        # in wall time but add up to about one busy core
        busy = sum(t[INFO]["cpu"] for t in tasks if _ancestor(by_id, t, run[ID]))
        return _ratio(busy, dur(run))

    def cli_overhead(main):
        inner = sum(dur(c) for c in children.get(main[ID], [])
                    if c[NAME] in ("experiments.run", "experiments.write_outputs"))
        return dur(main) - inner

    def mean_ms(items, scale=1e3):
        return _ratio(sum(dur(s) for s in items), len(items)) * scale

    return {
        "model.cholesky.calls": len(named("model.cholesky")) / per_instance,
        "model.objective_value.calls": len(named("model.objective_value")) / per_instance,
        "model.objective_value.us": mean_ms(named("model.objective_value"), 1e6),
        "model.evaluate.calls": len(named("model.evaluate")) / per_instance,
        "model.evaluate.us": mean_ms(named("model.evaluate"), 1e6),
        "model.busy_frac": _ratio(model_time, wall),
        "model.gflops_computed": _ratio(flops, model_time) / 1e9,
        "barrier.solve_s": _median(dur(s) for s in solves),
        "barrier.self_frac": _ratio(sum(self_time(s) for s in solves), sum(dur(s) for s in solves)),
        "barrier.accepted_steps": _median(accepted),
        "barrier.factorizations_per_step": _median(_ratio(f, a) for f, a in zip(factorizations, accepted)),
        "barrier.ls_accept_ratio": _median(_ratio(a, t) for a, t in zip(accepted, trials)),
        "barrier.short_step_frac": _ratio(sum(s[INFO]["short"] for s in solves), sum(accepted)),
        "barrier.final_grad_norm": _median(s[INFO]["final_grad_norm"] for s in solves),
        "frank_wolfe.warm_start_s": _median(dur(s) for s in warm),
        "frank_wolfe.warm_start_evals": _median(descendants(s, "model.evaluate") for s in warm),
        "frank_wolfe.solve_s": _median(dur(s) for s in fw),
        "frank_wolfe.iterations": _median(fw_iters),
        "frank_wolfe.evals_per_iter": _ratio(sum(fw_evals), sum(fw_iters)),
        "frank_wolfe.max_iter_frac": _ratio(sum(s[INFO]["max_iterations"] for s in fw), len(fw)),
        "rounding.us": mean_ms(rounds, 1e6),
        "rounding.evals_per_call": _ratio(sum(descendants(s, "model.evaluate") for s in rounds), len(rounds)),
        "quantizer.simulate_s": _median(dur(s) for s in sims),
        "quantizer.samples_per_s": _ratio(sum(s[INFO]["n"] for s in sims), sim_time),
        "quantizer.gbps_computed": _ratio(
            sum(_simulate_bytes(s[INFO]["d"], s[INFO]["m"], s[INFO]["n"]) for s in sims), sim_time) / 1e9,
        "instances.generate_ms": mean_ms(named("instances.generate")),
        "instances.write_ms": mean_ms(writes),
        "instances.bytes_written": _ratio(sum(s[INFO]["bytes"] for s in writes), len(runs)),
        "trace.write_ms": mean_ms(named("trace.write")),
        "experiments.run_s": _median(dur(s) for s in runs),
        "experiments.task_s_p50": _median(dur(s) for s in tasks),
        "experiments.concurrency": _median(concurrency(r) for r in runs),
        "cli.overhead_ms": _median(cli_overhead(s) for s in named("cli.main")) * 1e3,
        "tracing.overhead_frac": overhead_frac,
    }


def _ancestor(by_id: dict, span, ancestor_id) -> bool:
    parent = span[PARENT]
    while parent is not None:
        if parent == ancestor_id:
            return True
        parent = by_id[parent][PARENT]
    return False
