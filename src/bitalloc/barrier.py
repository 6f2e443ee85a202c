"""Log-barrier interior-point solver with damped Newton inner loops.

The constrained relaxation is replaced by a sequence of unconstrained
subproblems  F(b) - w * sum(log b_i) - w * log(s)  in the allocation b and
the budget slack s.  The weight w = mu * f(b0) and every tolerance are
relative to the objective at the start point, which is minimizing F / f(b0)
(objective scaling, Waechter & Biegler 2006, sec. 3.8): a rescaled instance
takes the same steps.  mu goes from _MU_INITIAL = 1e-4 by a factor of 10
per stage to the configured final value (IPOPT starts at 0.1 of its scaled
objective).  A start at mu = 1, a weight equal to f(b0), spent about half
the steps of a d=50 grid solve in the stages above 1e-4, and it steered some
solves into higher basins.  Each subproblem is minimized by Newton steps on
the exact Hessian of that merit, grad^2 F + diag(w/b^2) + (w/s^2) 11', where
grad^2 F is built from the G = H C of the step's evaluation: O(m^2 d) to
build, O(m^3) to factor.  The paper's solver approximates it by L-BFGS.
grad^2 F is a positive semidefinite Schur product plus diag(ln(4) grad F),
and grad F < 0, so that diagonal is the only indefinite term; where the
merit Hessian does not factor, it is dropped, which leaves a positive
definite matrix (a Hessian modification, Nocedal & Wright, sec. 3.4): at
most two factorizations per step.  Armijo backtracking, capped by the
fraction to the boundary, keeps every iterate strictly interior; a trial is
one evaluation of F, kept as the iterate's when accepted.  No trial moves a
coordinate by more than _MAX_BIT_STEP = 4 bits: a quadratic model of 4**b is
not trustworthy further out.

Each cut of mu starts with one predictor step along the tangent of the
central path (Fiacco & McCormick, SUMT, 1968, ch. 5): the centre satisfies
grad F - w/b + w/s 1 = 0, so db/dw = M^-1 (1/b - 1/s 1) with M the merit
Hessian at the old weight, and the step is (w_new - w_old) db/dw, cut by the
fraction to the boundary and the 4-bit cap.  It is one trial, kept only if
it is defined and the new stage's gradient max-norm there is below that at
the old centre; otherwise Newton starts from the old centre.  Its cost per
stage is one Hessian build, a freshly computed factor (at most two
factorizations) and one evaluation.  A kept step is the new stage's first
trace record.

The slack is its own variable, updated by s -= t * sum(p): recomputed as
B - sum b, its cancellation puts an error of about w * ulp(B) / s^2 into the
gradient, above the tolerance near the final mu.  When the predicted
decrease -g'p is below what merit values resolve (_VALUE_NOISE relative to
f(b0) or the merit: F carries 2e-10 relative rounding noise on d=50 grids at
7 bits per sensor), the capped Newton step is taken without trials.

A solve is ``gap-converged`` only if the final stage meets its gradient
tolerance of 1e-8 * f(b0), ``max-iterations`` if that stage runs out of inner
iterations and ``time-limit`` if the clock runs out first.  The reported
multipliers are the central-path ones, w/b and w/s, so stationarity is the
final barrier-gradient max-norm and complementarity is w, both in the
objective's units; trace records carry the relative mu.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import model
from ._blas import single_blas_thread
from .model import (
    LN4,
    BitAllocationError,
    BitRangeError,
    BitVector,
    FactorizationError,
    ProblemInstance,
    allocation_array,
    evaluate,
    objective_value,  # noqa: F401  not called here; bench/tracer.py patches it as a barrier attribute
)
from .trace import IterationRecord, SolveTrace, Termination

_MU_INITIAL = 1e-4
_MU_DECREASE_FACTOR = 0.1
_INNER_GRADIENT_TOLERANCE = 1e-8
_MAX_INNER_ITERATIONS = 500
_ARMIJO_C1 = 1e-4
_BOUNDARY_FRACTION = 0.995
_MAX_BACKTRACKS = 60
_VALUE_NOISE = 1e-8
# Intermediate subproblems only need to track the central path to O(mu).
_PATH_TRACK_FACTOR = 1e-2
_MAX_BIT_STEP = 4.0


class BoundaryError(BitAllocationError):
    """Barrier function requested at a point that is not strictly interior."""


class LineSearchError(BitAllocationError):
    """No feasible decrease found while the barrier gradient is still large."""

    def __init__(self, message: str, mu: float, iteration: int, gradient_norm: float):
        super().__init__(message)
        self.mu = mu
        self.iteration = iteration
        self.gradient_norm = gradient_norm


@dataclass(frozen=True)
class BarrierConfig:
    """Final mu, relative (the last weight is mu_final * f(b0)), and wall-clock limit in s.

    mu_final must lie below the schedule's starting mu, _MU_INITIAL = 1e-4.
    """

    mu_final: float = 1e-9
    time_limit: float = 600.0

    def __post_init__(self):
        if not 0.0 < self.mu_final < _MU_INITIAL:
            raise ValueError(f"need 0 < mu_final < {_MU_INITIAL:g}, the starting mu")
        if not self.time_limit > 0.0:  # also rejects NaN
            raise ValueError("time_limit must be positive")


@dataclass(frozen=True)
class KktCertificate:
    """First-order optimality certificate recovered from the final barrier iterate."""

    budget_multiplier: float
    bound_multipliers: np.ndarray
    stationarity_residual: float
    complementarity_residual: float


def _merit(ev, mu, b, slack):
    """Barrier merit at (b, slack) and its gradient in b, from the Evaluation of F at b."""
    value = ev.objective - mu * float(np.log(b).sum()) - mu * math.log(slack)
    return value, ev.gradient - mu / b + mu / slack


def _trial(instance, mu, b, slack):
    """Merit, gradient and Evaluation at a line-search trial; an infinite merit where it is undefined."""
    if (b <= 0.0).any() or slack <= 0.0:
        return np.inf, None, None
    try:
        ev = evaluate(instance, b)
    except (BitRangeError, FactorizationError):
        # extreme trial allocations can overflow 4**b or lose definiteness
        # in floating point; treat as off-limits
        return np.inf, None, None
    return (*_merit(ev, mu, b, slack), ev)


def _newton_direction(instance, mu, b, slack, grad, ev):
    """Solve grad^2 merit p = -grad; where that matrix is indefinite, drop diag(ln(4) grad F) from it."""
    hess = model.objective_hessian(instance, ev)  # a fresh array, shifted in place
    hess += mu / (slack * slack)
    diagonal = hess.reshape(-1)[:: hess.shape[0] + 1]
    diagonal += mu / (b * b)
    try:
        factor = model.cholesky_lower(hess)
    except FactorizationError:
        diagonal -= LN4 * ev.gradient
        factor = model.cholesky_lower(hess)
    return -model.cholesky_solve(factor, grad)


def _fraction_to_boundary(b, p, slack, advance):
    t_max = min(1.0, _MAX_BIT_STEP / float(np.abs(p).max()))
    neg = p < 0.0
    if neg.any():
        t_max = min(t_max, _BOUNDARY_FRACTION * float((b[neg] / -p[neg]).min()))
    if advance > 0.0:
        t_max = min(t_max, _BOUNDARY_FRACTION * slack / advance)
    return t_max


def _predict(instance, old_weight, weight, b, slack, ev, grad_norm):
    """One step along the central path's tangent from the old centre, or None.

    db/dw = M^-1 (1/b - 1/s), with M the merit Hessian at the old weight; the
    step is kept only if the new stage's gradient max-norm falls.
    """
    p = _newton_direction(instance, old_weight, b, slack, (weight - old_weight) * (1.0 / slack - 1.0 / b), ev)
    if not p.any():
        return None
    advance = float(p.sum())
    t = _fraction_to_boundary(b, p, slack, advance)
    b_new, slack_new = b + t * p, slack - t * advance
    trial = _trial(instance, weight, b_new, slack_new)
    if trial[2] is None or float(np.abs(trial[1]).max()) >= grad_norm:
        return None
    return b_new, slack_new, t, trial


@single_blas_thread()
def solve_barrier(
    instance: ProblemInstance, config: BarrierConfig | None = None, start=None
) -> tuple[SolveTrace, KktCertificate]:
    """Drive mu down a geometric schedule, solving each subproblem in turn.

    Intermediate subproblems are solved loosely (enough to track the central
    path); the final one runs at the configured tolerance.  F does not depend
    on mu: a stage starts from the Evaluation already held, and every stage
    after the first tries one predictor step from it (_predict): a Hessian
    build, at most two factorizations and one evaluation.  Returns the trace
    of accepted steps, predictor steps included, and the central-path KKT
    certificate.
    """
    cfg = config or BarrierConfig()
    budget = instance.budget
    if budget <= 0.0:
        raise BoundaryError("barrier solver needs a strictly positive budget")
    if start is None:
        start = np.full(instance.m, (budget / instance.m) * (1.0 - 1e-6))
    b = np.array(allocation_array(start, instance.m))
    slack = budget - b.sum()
    if np.any(b <= 0.0) or slack <= 0.0:
        raise BoundaryError(
            f"barrier undefined outside the strict interior (min b = {b.min():.3e}, slack = {slack:.3e})"
        )

    clock = time.perf_counter
    t0 = clock()
    records: list[IterationRecord] = []

    mus = [_MU_INITIAL]
    while mus[-1] * _MU_DECREASE_FACTOR > cfg.mu_final * (1.0 + 1e-9):
        mus.append(mus[-1] * _MU_DECREASE_FACTOR)
    mus.append(cfg.mu_final)

    ev = evaluate(instance, b)
    scale = ev.objective
    out_of_time = False
    for stage, mu in enumerate(mus):
        weight = mu * scale
        tol = _INNER_GRADIENT_TOLERANCE * scale
        if stage < len(mus) - 1:
            tol = max(tol, _PATH_TRACK_FACTOR * weight)
        val, grad = _merit(ev, weight, b, slack)
        grad_norm = float(np.abs(grad).max())
        if stage > 0:
            predicted = _predict(instance, mus[stage - 1] * scale, weight, b, slack, ev, grad_norm)
            if predicted is not None:
                b, slack, t, (val, grad, ev) = predicted
                grad_norm = float(np.abs(grad).max())
                records.append(IterationRecord(len(records), ev.objective, grad_norm, t, None, mu, clock() - t0))
        for inner in range(_MAX_INNER_ITERATIONS):
            if grad_norm <= tol:
                break
            if clock() - t0 >= cfg.time_limit:
                out_of_time = True
                break
            p = _newton_direction(instance, weight, b, slack, grad, ev)
            advance = float(p.sum())
            t = _fraction_to_boundary(b, p, slack, advance)
            directional = float(grad @ p)
            trial = None
            if -directional > _VALUE_NOISE * max(scale, abs(val)):
                for _ in range(_MAX_BACKTRACKS):
                    trial = _trial(instance, weight, b + t * p, slack - t * advance)
                    if trial[0] <= val + _ARMIJO_C1 * t * directional:
                        break
                    t *= 0.5
                else:
                    raise LineSearchError(
                        f"no feasible decrease at mu={mu:.3e} (inner iteration {inner}, "
                        f"gradient norm {grad_norm:.3e})",
                        mu=mu,
                        iteration=inner,
                        gradient_norm=grad_norm,
                    )
            b = b + t * p
            slack -= t * advance
            if trial is None:  # a step below the merit's noise skips the trials
                ev = evaluate(instance, b)
                trial = (*_merit(ev, weight, b, slack), ev)
            val, grad, ev = trial
            grad_norm = float(np.abs(grad).max())
            records.append(IterationRecord(len(records), ev.objective, grad_norm, t, None, mu, clock() - t0))
        if out_of_time:
            break

    if out_of_time:
        termination = Termination.TIME_LIMIT
    elif grad_norm > tol:
        termination = Termination.MAX_ITERATIONS
    else:
        termination = Termination.GAP_CONVERGED
    if not records:
        records.append(IterationRecord(0, ev.objective, grad_norm, 0.0, None, mu, clock() - t0))

    bound_multipliers = weight / b
    certificate = KktCertificate(
        budget_multiplier=weight / slack,
        bound_multipliers=bound_multipliers,
        stationarity_residual=grad_norm,
        complementarity_residual=float(np.max(bound_multipliers * b)),
    )
    return SolveTrace(tuple(records), BitVector(b), termination), certificate
