"""Log-barrier interior-point solver with limited-memory quasi-Newton inner loops.

The constrained relaxation is replaced by a sequence of unconstrained
subproblems  F(b) - mu * sum(log b_i) - mu * log(B - sum b)  with mu driven
down geometrically, from 1 by a factor of 10 per stage to the configured
final value.  Each subproblem is minimized by L-BFGS (memory 10) with an
Armijo backtracking line search and a fraction-to-boundary step cap, so every
iterate stays strictly interior.  Within a stage, each backtrack starts at
twice the last accepted step instead of at 1 (Nocedal & Wright, section 3.5):
accepted steps are often orders of magnitude below 1, and restarting every
search at 1 spent about 16 rejected trials, each a factorization, per
accepted step.  The schedule, the memory, the inner tolerance, the step
growth and the inner iteration and stall limits are module constants; only
the final mu and the wall-clock limit are configurable.

Two implementation choices matter for conditioning.  First, the seed matrix
of the two-loop recursion is not a scalar: the barrier's own curvature
(mu/b^2 on the diagonal plus a rank-one mu/slack^2 term along the all-ones
direction) is known exactly and is applied through a Sherman-Morrison solve,
which keeps inner iteration counts flat as mu shrinks.  Second, line-search
trials use the objective-only evaluation; the gradient is computed once per
accepted step.

KKT multipliers are recovered from the final barrier iterate: the bound
multipliers as mu/b_i, and the budget multiplier as the least-squares fit
mean(mu/b - grad F), which removes the pure centering error that a raw
mu/slack estimate carries.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .model import (
    BitAllocationError,
    BitRangeError,
    BitVector,
    DimensionMismatchError,
    FactorizationError,
    ProblemInstance,
    allocation_array,
    evaluate,
    objective_value,
)
from .trace import IterationRecord, SolveTrace, Termination

_MU_INITIAL = 1.0
_MU_DECREASE_FACTOR = 0.1
_INNER_GRADIENT_TOLERANCE = 1e-8
_LBFGS_MEMORY = 10
_MAX_INNER_ITERATIONS = 500
_STALL_WINDOW = 60
_ARMIJO_C1 = 1e-4
_BOUNDARY_FRACTION = 0.995
_MAX_BACKTRACKS = 60
# First trial step of a backtrack, as a multiple of the stage's last accepted step.
_STEP_GROWTH = 2.0
_PAIR_SKIP = 1e-8
# Residual level below which a failed line search is treated as the numerical
# floor of double precision rather than an error.
_STALL_FLOOR = 1e-4
# Intermediate subproblems only need to track the central path to O(mu).
_PATH_TRACK_FACTOR = 1e-2
# Coordinates at or below this value count as pinned to their lower bound for
# multiplier recovery (central-path values there are of order mu / multiplier).
_ACTIVE_BOUND_THRESHOLD = 1e-4


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
    mu_final: float = 1e-9
    time_limit: float = 600.0

    def __post_init__(self):
        if not 0.0 < self.mu_final < _MU_INITIAL:
            raise ValueError(f"need 0 < mu_final < {_MU_INITIAL:g}")
        if self.time_limit <= 0.0:
            raise ValueError("time_limit must be positive")


@dataclass(frozen=True)
class KktCertificate:
    """First-order optimality certificate recovered from the final barrier iterate."""

    budget_multiplier: float
    bound_multipliers: np.ndarray
    stationarity_residual: float
    complementarity_residual: float


def _interior_or_raise(instance: ProblemInstance, bits) -> np.ndarray:
    arr = allocation_array(bits)
    if arr.shape != (instance.m,):
        raise DimensionMismatchError(f"allocation must have length {instance.m}")
    slack = instance.budget - arr.sum()
    if np.any(arr <= 0.0) or slack <= 0.0:
        raise BoundaryError(
            f"barrier undefined outside the strict interior (min b = {arr.min():.3e}, slack = {slack:.3e})"
        )
    return arr


def barrier_objective(instance: ProblemInstance, bits, mu: float) -> tuple[float, np.ndarray]:
    """Value and gradient of F(b) - mu*sum(log b) - mu*log(B - sum b)."""
    arr = _interior_or_raise(instance, bits)
    value, gradient, _ = _Subproblem(instance, mu).value_grad(arr)
    return value, gradient


class _Subproblem:
    """One barrier subproblem at fixed mu, solved by seeded L-BFGS."""

    def __init__(self, instance, mu):
        self.instance = instance
        self.budget = instance.budget
        self.mu = mu
        self.s_pairs: list[np.ndarray] = []
        self.y_pairs: list[np.ndarray] = []

    def value_grad(self, b):
        ev = evaluate(self.instance, b)
        slack = self.budget - b.sum()
        value = ev.objective - self.mu * float(np.log(b).sum()) - self.mu * math.log(slack)
        grad = ev.gradient - self.mu / b + self.mu / slack
        return value, grad, ev

    def value_only(self, b):
        slack = self.budget - b.sum()
        if np.any(b <= 0.0) or slack <= 0.0:
            return np.inf
        f = objective_value(self.instance, b)
        return f - self.mu * float(np.log(b).sum()) - self.mu * math.log(slack)

    def direction(self, b, grad):
        """Two-loop recursion seeded with the exact barrier curvature.

        The seed inverse is (g0^-1 I + mu/b^2 + (mu/slack^2) 11')^-1 applied
        via Sherman-Morrison, where g0 is the usual last-pair scaling.
        """
        if self.s_pairs:
            s, y = self.s_pairs[-1], self.y_pairs[-1]
            gamma0 = max((s @ y) / (y @ y), 1e-12)
        else:
            gamma0 = 1.0
        slack = self.budget - b.sum()
        diag = 1.0 / gamma0 + self.mu / (b * b)
        rank1 = self.mu / (slack * slack)

        def apply_seed(v):
            dv = v / diag
            od = 1.0 / diag
            return dv - (rank1 * dv.sum() / (1.0 + rank1 * od.sum())) * od

        q = grad.copy()
        alphas = []
        for s, y in zip(reversed(self.s_pairs), reversed(self.y_pairs)):
            a = (s @ q) / (y @ s)
            alphas.append(a)
            q -= a * y
        q = apply_seed(q)
        for (s, y), a in zip(zip(self.s_pairs, self.y_pairs), reversed(alphas)):
            beta = (y @ q) / (y @ s)
            q += (a - beta) * s
        p = -q
        if p @ grad >= 0.0:  # safeguard: fall back to seeded steepest descent
            self.s_pairs.clear()
            self.y_pairs.clear()
            p = -apply_seed(grad)
        return p

    def push_pair(self, s_vec, y_vec):
        if s_vec @ y_vec > _PAIR_SKIP * np.linalg.norm(s_vec) * np.linalg.norm(y_vec):
            self.s_pairs.append(s_vec)
            self.y_pairs.append(y_vec)
            if len(self.s_pairs) > _LBFGS_MEMORY:
                self.s_pairs.pop(0)
                self.y_pairs.pop(0)


def _fraction_to_boundary(b, p, slack):
    t_max = 1.0
    neg = p < 0.0
    if np.any(neg):
        t_max = min(t_max, _BOUNDARY_FRACTION * float(np.min(b[neg] / -p[neg])))
    advance = p.sum()
    if advance > 0.0:
        t_max = min(t_max, _BOUNDARY_FRACTION * slack / advance)
    return t_max


def solve_barrier(
    instance: ProblemInstance, config: BarrierConfig | None = None, start=None
) -> tuple[SolveTrace, KktCertificate]:
    """Drive mu down a geometric schedule, solving each subproblem in turn.

    Intermediate subproblems are solved loosely (enough to track the central
    path); the final one runs at the configured tolerance.  Returns the trace
    of accepted inner steps and the recovered KKT certificate.
    """
    cfg = config or BarrierConfig()
    budget = instance.budget
    if budget <= 0.0:
        raise BoundaryError("barrier solver needs a strictly positive budget")
    if start is None:
        b = np.full(instance.m, (budget / instance.m) * (1.0 - 1e-6))
    else:
        b = np.array(allocation_array(start))
    b = _interior_or_raise(instance, b)

    clock = time.perf_counter
    t0 = clock()
    records: list[IterationRecord] = []
    termination = Termination.GAP_CONVERGED
    global_iter = 0

    mus = [_MU_INITIAL]
    while mus[-1] * _MU_DECREASE_FACTOR > cfg.mu_final * (1.0 + 1e-9):
        mus.append(mus[-1] * _MU_DECREASE_FACTOR)
    mus.append(cfg.mu_final)

    out_of_time = False
    for stage, mu in enumerate(mus):
        final_stage = stage == len(mus) - 1
        tol = _INNER_GRADIENT_TOLERANCE * max(1.0, mu)
        if not final_stage:
            tol = max(tol, _PATH_TRACK_FACTOR * mu)
        sub = _Subproblem(instance, mu)
        val, grad, ev = sub.value_grad(b)
        grad_norm = float(np.max(np.abs(grad)))
        history = [grad_norm]
        inner = 0
        window = 2 * _STALL_WINDOW if final_stage else _STALL_WINDOW
        t_prev = math.inf  # no accepted step yet at this mu
        while grad_norm > tol and inner < _MAX_INNER_ITERATIONS:
            if clock() - t0 >= cfg.time_limit:
                out_of_time = True
                break
            if len(history) > window and min(history[-window:]) > 0.7 * min(history[:-window]):
                break  # numerical progress exhausted at this mu
            p = sub.direction(b, grad)
            slack = budget - b.sum()
            t = min(_fraction_to_boundary(b, p, slack), _STEP_GROWTH * t_prev)
            directional = float(grad @ p)
            accepted = False
            for _ in range(_MAX_BACKTRACKS):
                trial = b + t * p
                try:
                    trial_val = sub.value_only(trial)
                except (BitRangeError, FactorizationError):
                    # extreme trial allocations can overflow 4**b or lose
                    # definiteness in floating point; treat as off-limits
                    trial_val = np.inf
                if trial_val <= val + _ARMIJO_C1 * t * directional:
                    accepted = True
                    break
                t *= 0.5
            if not accepted:
                if grad_norm <= _STALL_FLOOR * max(1.0, mu):
                    break  # already at the achievable floor for this mu
                raise LineSearchError(
                    f"no feasible decrease at mu={mu:.3e} (inner iteration {inner}, "
                    f"gradient norm {grad_norm:.3e})",
                    mu=mu,
                    iteration=inner,
                    gradient_norm=grad_norm,
                )
            t_prev = t
            b_new = b + t * p
            val_new, grad_new, ev_new = sub.value_grad(b_new)
            sub.push_pair(b_new - b, grad_new - grad)
            b, val, grad, ev = b_new, val_new, grad_new, ev_new
            grad_norm = float(np.max(np.abs(grad)))
            history.append(grad_norm)
            inner += 1
            records.append(
                IterationRecord(global_iter, ev.objective, grad_norm, t, None, mu, clock() - t0)
            )
            global_iter += 1
        if out_of_time:
            termination = Termination.TIME_LIMIT
            break

    if not records:
        records.append(
            IterationRecord(0, ev.objective, float(np.max(np.abs(grad))), 0.0, None, mus[-1], clock() - t0)
        )

    # Multiplier recovery; mu holds the last stage actually entered.  The
    # budget multiplier is fit over coordinates away from their lower bound,
    # which removes the pure centering error of the raw mu/slack estimate.
    # Coordinates pinned at zero carry a free bound multiplier: matching it
    # to the fitted gradient offset is the standard active-set estimate and
    # keeps complementarity at the order of mu.
    bound_multipliers = mu / b
    active = b <= _ACTIVE_BOUND_THRESHOLD
    reference = ~active if np.any(~active) else np.ones_like(active, dtype=bool)
    budget_multiplier = max(float(np.mean(bound_multipliers[reference] - ev.gradient[reference])), 0.0)
    if np.any(active):
        bound_multipliers = bound_multipliers.copy()
        bound_multipliers[active] = np.maximum(ev.gradient[active] + budget_multiplier, 0.0)
    stationarity = float(np.max(np.abs(ev.gradient + budget_multiplier - bound_multipliers)))
    complementarity = float(np.max(np.abs(bound_multipliers * b)))
    certificate = KktCertificate(
        budget_multiplier=budget_multiplier,
        bound_multipliers=bound_multipliers,
        stationarity_residual=stationarity,
        complementarity_residual=complementarity,
    )
    trace = SolveTrace(
        iterates=tuple(records),
        final_bits=BitVector(b),
        termination=termination,
        certificate=None,
    )
    return trace, certificate
