"""Conditional-gradient (Frank-Wolfe) solver for the relaxed allocation.

The feasible set {b >= 0, sum(b) <= B} is a simplex scaled by the budget, so
the linear minimization oracle is closed form: the best vertex is either the
origin or B times the coordinate with the most negative gradient entry.  The
stationarity gap <b - s, grad> is therefore free once the gradient is known,
and doubles as the convergence certificate.

Two step rules are provided.  The short step gap/(2*L*B^2) uses the global
Lipschitz constant and is extremely conservative on real instances; the
adaptive rule maintains a local estimate L_hat (halve once per iteration,
double until the sufficient-decrease test passes, never above the global L),
which keeps the certificate valid while taking usefully large steps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._blas import single_blas_thread
from .model import (
    MAX_BITS,
    BitRangeError,
    BitVector,
    DimensionMismatchError,
    Evaluation,
    FactorizationError,
    ProblemInstance,
    allocation_array,
    evaluate,
    lipschitz_constant,
)
from .trace import GapCertificate, IterationRecord, SolveTrace, Termination

_L_HAT_FLOOR = 1e-12
_DECREASE_SLACK = 1e-12
_WARM_START_REFINEMENTS = 60
_WARM_START_DAMPING = 0.5


class StepRule(Enum):
    SHORT_STEP = "short-step"
    ADAPTIVE_LIPSCHITZ = "adaptive-lipschitz"


@dataclass(frozen=True)
class FwConfig:
    max_iterations: int = 500
    gap_tolerance: float = 1e-6
    time_limit: float = 600.0
    step_rule: StepRule = StepRule.ADAPTIVE_LIPSCHITZ

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.gap_tolerance <= 0.0:
            raise ValueError("gap_tolerance must be positive")
        if self.time_limit <= 0.0:
            raise ValueError("time_limit must be positive")


def _gradient_array(gradient) -> np.ndarray:
    g = np.atleast_1d(np.asarray(gradient, dtype=float))
    if g.size == 0:
        raise DimensionMismatchError("gradient must not be empty")
    if not np.all(np.isfinite(g)):
        raise DimensionMismatchError("gradient has non-finite components")
    return g


def lmo(gradient, budget: float) -> BitVector:
    """Best vertex of the budget simplex for a linear objective.

    Returns B*e_i at the most negative gradient coordinate (ties broken by
    lowest index), or the zero vector when no coordinate is negative.
    """
    g = _gradient_array(gradient)
    origin = np.zeros(g.size)
    return BitVector(_convex_step(origin, 1.0, _oracle(origin, g, budget)[0], budget))


def fw_gap(bits, gradient, budget: float) -> float:
    """Stationarity gap <b - s(b), grad> with s(b) the oracle vertex.

    With strictly negative gradients this is the explicit form
    <b, grad> - B * min_i grad_i; the general form only differs when some
    gradient entries are nonnegative, where the oracle returns the origin.
    """
    g = _gradient_array(gradient)
    arr = allocation_array(bits)
    if arr.shape != g.shape:
        raise DimensionMismatchError(f"allocation shape {arr.shape} does not match gradient shape {g.shape}")
    return _oracle(arr, g, budget)[1]


def _oracle(b: np.ndarray, g: np.ndarray, budget: float) -> tuple[int | None, float]:
    """The oracle vertex's coordinate (None for the origin) and the gap <b - s, g>."""
    i_star = int(np.argmin(g))
    return (i_star if g[i_star] < 0.0 else None), float(b @ g - budget * min(0.0, g[i_star]))


def _waterfill(levels: np.ndarray, budget: float) -> np.ndarray:
    """min(MAX_BITS, max(0, levels + theta)) with theta chosen so the total meets the budget.

    Box-constrained water-filling (Segall 1976): fill without the cap, pin
    every coordinate that lands above it at MAX_BITS, and refill the others
    with the budget that is left.  Pinning only raises the water level, so a
    pinned coordinate never comes back under the cap.  A budget above
    MAX_BITS per coordinate leaves every coordinate at the cap.
    """
    out = np.full(levels.size, MAX_BITS)
    free = np.arange(levels.size)
    while free.size:
        fill = _waterfill_nonnegative(levels[free], budget - MAX_BITS * (levels.size - free.size))
        over = fill > MAX_BITS
        if not over.any():
            out[free] = fill
            break
        free = free[~over]
    return out


def _waterfill_nonnegative(levels: np.ndarray, budget: float) -> np.ndarray:
    """max(0, levels + theta) with theta chosen so the total meets the budget."""
    order = np.argsort(-levels)
    sorted_levels = levels[order]
    prefix = np.cumsum(sorted_levels)
    out = np.zeros(levels.size)
    for k in range(1, levels.size + 1):
        theta = (budget - prefix[k - 1]) / k
        if sorted_levels[k - 1] + theta > 0.0 and (k == levels.size or sorted_levels[k] + theta <= 0.0):
            active = order[:k]
            out[active] = levels[active] + theta
            return out
    return out


@single_blas_thread()
def separable_warm_start(instance: ProblemInstance) -> BitVector:
    """Water-filling start from successively refitted separable models.

    Fits the bit-loading surrogate sum_i a_i 4**(-b_i) to the true gradient
    at the current point (a_i = |grad_i| * 4**b_i / ln 4), water-fills it in
    closed form with each sensor capped at MAX_BITS, and repeats with damping
    1/2, at most 60 times.  A fixed point equalizes gradient magnitudes over
    the support, which is exactly first-order stationarity on the budget
    face, so this lands at or very near a stationary point for a few dozen
    evaluations.  Weak sensors are cut to exactly zero rather than drained
    asymptotically, which is what makes it an effective start for the
    conditional-gradient solver.
    """
    if instance.budget <= 0.0:
        return BitVector.zeros(instance.m)
    bits = np.full(instance.m, min(instance.budget / instance.m, MAX_BITS))
    for _ in range(_WARM_START_REFINEMENTS):
        gradient = evaluate(instance, bits).gradient
        levels = bits + np.log(np.maximum(np.abs(gradient), 1e-300)) / np.log(4.0)
        refined = (1.0 - _WARM_START_DAMPING) * bits + _WARM_START_DAMPING * _waterfill(levels, instance.budget)
        converged = np.max(np.abs(refined - bits)) < 1e-12
        bits = refined
        if converged:
            break
    return BitVector(np.maximum(bits, 0.0))


def _convex_step(b: np.ndarray, gamma: float, vertex: int | None, budget: float) -> np.ndarray:
    out = (1.0 - gamma) * b
    if vertex is not None:
        out[vertex] += gamma * budget
    return out


def _adaptive_step(instance, b, ev, gap, vertex, l_hat, l_cap, budget):
    """Halve the local Lipschitz estimate, then double until sufficient decrease.

    A trial that overflows the bit-range guard or breaks the factorization
    numerically counts as a rejection.  At the global-L cap the step is
    accepted regardless: the decrease test holds there by smoothness, up to
    roundoff.
    """
    l_hat = max(l_hat / 2.0, _L_HAT_FLOOR)
    denom = 2.0 * budget * budget
    while True:
        gamma = min(gap / (l_hat * denom), 1.0) if denom > 0.0 else 0.0
        trial = _convex_step(b, gamma, vertex, budget)
        ev_trial = _evaluate_or_none(instance, trial)
        if ev_trial is not None:
            if l_hat >= l_cap or ev_trial.objective <= ev.objective - 0.5 * gamma * gap + _DECREASE_SLACK:
                return gamma, trial, ev_trial, l_hat
        elif l_hat >= l_cap:
            break
        l_hat = min(2.0 * l_hat, l_cap)
    # not even representable at the cap: shrink until it is
    while ev_trial is None:
        gamma *= 0.5
        trial = _convex_step(b, gamma, vertex, budget)
        ev_trial = _evaluate_or_none(instance, trial)
    return gamma, trial, ev_trial, l_hat


def _evaluate_or_none(instance, bits):
    """Evaluation at a trial point, or None where 4**b overflows or the factorization fails."""
    try:
        return evaluate(instance, bits)
    except (BitRangeError, FactorizationError):
        return None


@single_blas_thread()
def solve_fw(instance: ProblemInstance, config: FwConfig | None = None, start=None) -> SolveTrace:
    """Run the conditional-gradient method from the origin or a warm start.

    Every iterate is a convex combination of feasible points, so feasibility
    is preserved exactly.  The returned certificate pairs the best observed
    gap with the max(2*h0, 2*L*B^2)/sqrt(T+1) envelope, where h0 is the
    observed objective drop.
    """
    cfg = config or FwConfig()
    budget = instance.budget
    if start is None:
        b = np.zeros(instance.m)
    else:
        b = np.array(allocation_array(start))
        if b.shape != (instance.m,):
            raise DimensionMismatchError(f"start must have length {instance.m}")
        if not BitVector(b).feasible_for(budget):
            raise DimensionMismatchError(f"start exceeds budget: sum {b.sum():.6g} > {budget:.6g}")
    lip = lipschitz_constant(instance)

    records: list[IterationRecord] = []
    clock = time.perf_counter
    t0 = clock()
    ev: Evaluation = evaluate(instance, b)
    l_hat = 1.0
    for t in range(cfg.max_iterations + 1):
        vertex, gap = _oracle(b, ev.gradient, budget)
        elapsed = clock() - t0
        termination = (
            Termination.GAP_CONVERGED if gap <= cfg.gap_tolerance
            else Termination.TIME_LIMIT if elapsed >= cfg.time_limit
            else Termination.MAX_ITERATIONS if t == cfg.max_iterations
            else None
        )
        if termination is not None:  # the last record takes no step
            records.append(IterationRecord(t, ev.objective, gap, 0.0, vertex, None, elapsed))
            break
        if cfg.step_rule is StepRule.SHORT_STEP:
            gamma = min(gap / (2.0 * lip * budget * budget), 1.0) if budget > 0.0 else 0.0
            b_next = _convex_step(b, gamma, vertex, budget)
            ev_next = evaluate(instance, b_next)
        else:
            gamma, b_next, ev_next, l_hat = _adaptive_step(instance, b, ev, gap, vertex, l_hat, lip, budget)
        records.append(IterationRecord(t, ev.objective, gap, gamma, vertex, None, elapsed))
        b, ev = b_next, ev_next

    objectives = [rec.objective for rec in records]
    h0 = objectives[0] - min(objectives)
    bound = max(2.0 * h0, 2.0 * lip * budget * budget) / np.sqrt(len(records))
    certificate = GapCertificate(min_gap=min(rec.gap for rec in records), rate_bound=float(bound))
    return SolveTrace(
        iterates=tuple(records),
        final_bits=BitVector(b),
        termination=termination,
        certificate=certificate,
    )
