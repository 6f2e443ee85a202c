"""The bench tracer's hooks: every name it wraps exists and is restored on exit.

``bench/tracer.py`` wraps package functions by module attribute.  A refactor
that renames or drops one of those attributes fails here, in the unit suite,
rather than only in a traced benchmark run.
"""

import importlib
import math
import time
from pathlib import Path

from bitalloc import barrier, experiments
from bitalloc.instances import InstanceKind, InstanceSpec, generate

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_restores_every_hooked_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in tracer.PATCHES]
    originals.append((experiments, "_run_tasks", experiments._run_tasks))
    with tracer.Tracer():
        for module, attr, original in originals:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr} not wrapped"
    for module, attr, original in originals:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"


def test_layer_metrics_of_a_traced_barrier_solve_are_finite(monkeypatch):
    # an uncapped Newton step on this grid puts a line-search trial where the
    # objective raises, and a raised call leaves a span without shape information
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    instance = generate(InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=50, seed=1876105222, budget_per_sensor=2.0))
    t0 = time.perf_counter()
    with tracer.Tracer() as traced:
        barrier.solve_barrier(instance, barrier.BarrierConfig(mu_final=1e-11))
    metrics = tracer.layer_metrics(traced.spans, time.perf_counter() - t0, 1, 0.0)
    assert metrics["barrier.accepted_steps"] > 0
    assert all(math.isfinite(value) for value in metrics.values()), metrics
