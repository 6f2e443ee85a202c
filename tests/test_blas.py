"""The one-BLAS-thread scope: both bundled OpenBLAS libraries, nesting, threads, decorated solvers."""

import multiprocessing
import threading

import numpy as np
import pytest

from bitalloc import _blas, model, quantizer
from bitalloc.barrier import solve_barrier
from bitalloc.experiments import Experiment, ExperimentPlan, run
from bitalloc.frank_wolfe import FwConfig, separable_warm_start, solve_fw
from bitalloc.instances import InstanceKind, InstanceSpec, generate
from bitalloc.quantizer import DitherMode, QuantizerBank, simulate_lmmse
from bitalloc.rounding import round_with_guarantees

CONTROLS = _blas._controls()

pytestmark = pytest.mark.skipif(len(CONTROLS) < 2, reason="numpy's and scipy's bundled OpenBLAS not both found")

PRIOR = 2  # a count other than one, so a scope that forgets to restore shows


def counts() -> list[int]:
    return [get_count() for get_count, _ in CONTROLS]


@pytest.fixture(autouse=True)
def known_counts():
    saved = counts()
    for _, set_count in CONTROLS:
        set_count(PRIOR)
    yield
    for (_, set_count), count in zip(CONTROLS, saved):
        set_count(count)


def test_one_thread_inside_prior_count_after():
    with _blas.single_blas_thread():
        assert counts() == [1, 1]
    assert counts() == [PRIOR, PRIOR]


def test_nested_scopes_keep_one_until_outermost_exits():
    with _blas.single_blas_thread():
        with _blas.single_blas_thread():
            assert counts() == [1, 1]
        assert counts() == [1, 1]
    assert counts() == [PRIOR, PRIOR]


def test_overlapping_scopes_on_two_threads():
    entered, release = threading.Event(), threading.Event()
    seen = []

    def other():
        with _blas.single_blas_thread():
            entered.set()
            release.wait(10)
        seen.append(counts())

    worker = threading.Thread(target=other)
    worker.start()
    try:
        assert entered.wait(10)
        with _blas.single_blas_thread():
            release.set()
            worker.join(10)
            assert seen == [[1, 1]]  # the other thread left first: still one thread
            assert counts() == [1, 1]
    finally:
        release.set()
        worker.join(10)
    assert counts() == [PRIOR, PRIOR]


def test_without_handles_the_scope_does_nothing(monkeypatch):
    monkeypatch.setattr(_blas, "_controls", lambda: ())

    @_blas.single_blas_thread()
    def decorated():
        return counts()

    assert decorated() == [PRIOR, PRIOR]
    assert counts() == [PRIOR, PRIOR]


GRID = generate(InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=6, seed=3))
GRID_BITS = np.full(GRID.m, GRID.budget / GRID.m)
BANK = QuantizerBank.for_allocation(GRID, np.floor(GRID_BITS), DitherMode.SUBTRACTIVE, seed=1)
SWEEP_PLAN = ExperimentPlan(
    Experiment.UNIFORM_SWEEP, InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=4), trials=2, sweep_values=(2.0,), threads=2
)


ENTRY_POINTS = {
    "solve_barrier": lambda: solve_barrier(GRID),
    "solve_fw": lambda: solve_fw(GRID, FwConfig(max_iterations=5)),
    "separable_warm_start": lambda: separable_warm_start(GRID),
    "round_with_guarantees": lambda: round_with_guarantees(GRID, GRID_BITS),
    "simulate_lmmse": lambda: simulate_lmmse(GRID, np.floor(GRID_BITS), 200, BANK),
    "hessian_exact": lambda: model.hessian_exact(GRID, GRID_BITS),
    # the sweep's uniform baseline is evaluated by the harness itself, outside any solver
    "experiments.run": lambda: run(SWEEP_PLAN),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_factor_on_one_thread(name, monkeypatch):
    # experiments.run factors in forked worker processes: a wrong count raises
    # there and is re-raised here, and the factorizations are counted in shared memory
    factorizations = multiprocessing.Value("i", 0)

    def counting(matrix):
        if counts() != [1, 1]:
            raise AssertionError(f"factored on BLAS thread counts {counts()}")
        with factorizations.get_lock():
            factorizations.value += 1
        return factor(matrix)

    factor = model.cholesky_lower
    monkeypatch.setattr(model, "cholesky_lower", counting)
    monkeypatch.setattr(quantizer, "cholesky_lower", counting)
    ENTRY_POINTS[name]()
    assert factorizations.value > 0
    assert counts() == [PRIOR, PRIOR]
