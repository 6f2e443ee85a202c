"""Conditional-gradient (Frank-Wolfe) solver for the relaxed allocation.

The feasible set {b >= 0, sum(b) <= B} is a simplex scaled by the budget,
with vertices 0 and B*e_i, so the linear minimization oracle is closed form:
the best vertex is either the origin or B times the coordinate with the most
negative gradient entry.  The stationarity gap <b - s, grad> is therefore
free once the gradient is known, and doubles as the convergence certificate.

Two step rules are provided.  The short step gap/(2*L*B^2) toward the oracle
vertex uses the global Lipschitz constant L, is extremely conservative on
real instances, and evaluates (one Cholesky factorization) every iterate.
The default rule takes pairwise steps (Lacoste-Julien & Jaggi, NeurIPS
2015): it moves weight from the away vertex (the origin while budget is
left, else the support coordinate with the largest gradient) to the oracle
vertex, so at most two coordinates change and the information matrix
changes by a rank-two term.  The solver keeps G = H C, tr C and the
precisions current by the Woodbury identity in O(md) per step without ever
forming C, and finds the step length by a safeguarded secant search on the
directional derivative.  A trial step needs only k x k algebra (k <= 2),
done on Python floats with one numpy call: about 4 us, against 19 us for
the same formulas as numpy calls on k-element arrays.  A step
that empties the away vertex drops that coordinate to exactly zero, which
is what lets pinned coordinates leave the support in one step instead of
draining geometrically.  The state is rebuilt from a fresh evaluation every
_REFRESH_STEPS steps, after an update it cannot trust (a Woodbury pivot far
from 1, or a point whose Cholesky factorization is not assured) and before
the solver stops, so the returned objective and gap always come from a
fresh evaluation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._blas import single_blas_thread
from .model import (
    LN4,
    MAX_BITS,
    BitVector,
    DimensionMismatchError,
    FactorizationError,
    ProblemInstance,
    allocation_array,
    evaluate,
    gradient_from_cov_h,
    integer_at_least,
    lipschitz_constant,
)
from .trace import GapCertificate, IterationRecord, SolveTrace, Termination

_WARM_START_REFINEMENTS = 60
_WARM_START_DAMPING = 0.5
# Pairwise steps: rank-two updates between fresh evaluations; the Woodbury
# pivots 1 + M_kk * drho_k are trusted within [_PIVOT_FLOOR, 1/_PIVOT_FLOOR]
# (outside it the update shrinks or grows C along h_k so far that its
# roundoff shows); the condition-number bound above which a new point is
# checked by a fresh evaluation; budget slack below which the origin no
# longer counts as an away vertex (roundoff); and the limits of the line
# search along the pair.
_REFRESH_STEPS = 50
_PIVOT_FLOOR = 1e-4
_CONDITION_LIMIT = 1e12
_SLACK_FLOOR = 1e-12
_SECANT_STEPS = 60
_SLOPE_TOL = 1e-8
_HALVINGS = 10


class StepRule(Enum):
    """How solve_fw picks its next iterate.

    SHORT_STEP moves toward the oracle vertex by gap/(2*L*B^2), with L the
    global Lipschitz constant, and evaluates every iterate.
    PAIRWISE (the default) takes pairwise steps from the away vertex to the
    oracle vertex on rank-two updated state: a line search along the pair,
    then the sufficient-decrease test f_next <= f - gamma*gap/2.
    """

    SHORT_STEP = "short-step"
    PAIRWISE = "pairwise"


@dataclass(frozen=True)
class FwConfig:
    """Stopping rules and step rule; max_iterations None leaves the cap to solve_fw, which scales it with m."""

    max_iterations: int | None = None
    gap_tolerance: float = 1e-6
    time_limit: float = 600.0
    step_rule: StepRule = StepRule.PAIRWISE

    def __post_init__(self):
        if self.max_iterations is not None:
            object.__setattr__(self, "max_iterations", integer_at_least(self.max_iterations, 1, "max_iterations"))
        if not self.gap_tolerance > 0.0:  # also rejects NaN
            raise ValueError("gap_tolerance must be positive")
        if not self.time_limit > 0.0:
            raise ValueError("time_limit must be positive")


def _gradient_array(gradient) -> np.ndarray:
    g = np.atleast_1d(np.asarray(gradient, dtype=float))
    if g.ndim != 1 or g.size == 0:
        raise DimensionMismatchError(f"gradient must be a nonempty 1-D vector, got shape {g.shape}")
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
    return _oracle(allocation_array(bits, g.size), g, budget)[1]


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
    bits = np.full(instance.m, min(instance.budget / instance.m, MAX_BITS))
    for _ in range(_WARM_START_REFINEMENTS):
        gradient = evaluate(instance, bits).gradient
        levels = bits + np.log(np.maximum(np.abs(gradient), 1e-300)) / np.log(4.0)
        fill = _waterfill(levels, instance.budget)
        refined = (1.0 - _WARM_START_DAMPING) * bits + _WARM_START_DAMPING * fill
        converged = np.max(np.abs(refined - bits)) < 1e-12
        bits = refined
        if converged:
            break
    bits[fill == 0.0] = 0.0  # damping alone only halves a cut sensor's bits at each refit
    return BitVector(bits)


def _convex_step(b: np.ndarray, gamma: float, vertex: int | None, budget: float) -> np.ndarray:
    out = (1.0 - gamma) * b
    if vertex is not None:
        out[vertex] += gamma * budget
    return out


class _State:
    """G = H C (row k is (C h_k)'), f = tr C, the precisions and the gradient at one allocation.

    Built from one evaluation, then kept current by rank-two updates;
    ``updates`` counts them since that evaluation.
    """

    def __init__(self, instance: ProblemInstance, bits: np.ndarray):
        ev = evaluate(instance, bits)
        self.sensing = instance.sensing_matrix
        self.cov_h = ev.cov_h
        self.objective = ev.objective
        self.rho = ev.precisions
        self.gradient = ev.gradient
        self.updates = 0
        self.row_sq = np.einsum("ij,ij->i", self.sensing, self.sensing)
        self.prior_info_trace = float(np.trace(instance.prior_inverse))

    def trusts(self, pair: "_Pair", drho: list, decrease: float) -> bool:
        """Whether the rank-two update is accurate and the new point surely factorizes.

        Not when a pivot 1 + M_kk * drho_k leaves [_PIVOT_FLOOR, 1/_PIVOT_FLOOR],
        and not when tr(J) * tr(C), a bound on the condition number of the
        information matrix J, exceeds _CONDITION_LIMIT, where its Cholesky
        factorization is no longer assured.
        """
        pivots = [1.0 + pair.m[i][i] * change for i, change in enumerate(drho)]
        info_trace = self.prior_info_trace + self.rho @ self.row_sq + drho @ self.row_sq[pair.idx]
        return bool(
            all(_PIVOT_FLOOR <= pivot <= 1.0 / _PIVOT_FLOOR for pivot in pivots)
            and info_trace * (self.objective - decrease) <= _CONDITION_LIMIT
        )

    def update(self, pair: "_Pair", k: list, drho: list, decrease: float) -> None:
        """Apply C' = C - W K W' for the precision change drho on the pair (W = G[idx]')."""
        self.cov_h -= (self.cov_h @ pair.rows_t) @ (np.array(k) @ pair.w.T)
        self.objective -= decrease
        self.rho[pair.idx] += drho
        self.gradient = gradient_from_cov_h(self.rho, self.cov_h)
        self.updates += 1


class _Pair:
    """The k <= 2 coordinates idx a pairwise step moves, and the algebra of a trial along them.

    ``bits``, ``dirs`` (+-B per coordinate) and ``rho`` are Python floats,
    ``m`` and ``n`` the rows of M = H[idx] W and N = W'W, with W = G[idx]'.
    A trial is k x k algebra, and on Python floats it costs a fifth of what
    the numpy calls on k-element arrays cost.
    """

    def __init__(self, state: _State, b: np.ndarray, idx: list[int], dirs: list[float], gamma_max: float, pin):
        self.idx, self.dirs, self.gamma_max, self.pin = idx, dirs, gamma_max, pin
        self.bits = b[idx].tolist()
        self.rho = state.rho[idx].tolist()
        self.w = state.cov_h[idx].T
        rows = state.sensing[idx]
        self.rows_t = rows.T.copy()  # C-ordered: G H[idx]' is then a third of the time
        self.m = (rows @ self.w).tolist()
        self.n = (self.w.T @ self.w).tolist()

    def trial(self, gamma: float):
        """(bits, drho, K, decrease of tr C, directional derivative) at step gamma along the pair.

        With S = diag(drho), K = S (I + M S)^-1 and R = (I + S M)^-1 = (I + M S)^-T,
        the decrease is sum(K * N) and the derivative sum_k dirs_k * -ln4 *
        (rho_k + drho_k) * [R' N R]_kk.  A pivot that cancels to zero gives a
        NaN decrease and derivative, which fail every test of the step.
        """
        moved = [min(max(bit + gamma * step, 0.0), MAX_BITS) for bit, step in zip(self.bits, self.dirs)]
        if gamma == self.gamma_max and self.pin is not None:
            moved[self.pin[0]] = self.pin[1]
        # numpy's expm1 on the array, not math.expm1: the two differ in the last bit
        growth = np.expm1([LN4 * (new - bit) for new, bit in zip(moved, self.bits)]).tolist()
        drho = [rho * grown for rho, grown in zip(self.rho, growth)]
        try:
            if len(drho) == 1:
                (s0,), ((m00,),), ((n00,),), (d0,) = drho, self.m, self.n, self.dirs
                i00 = 1.0 / (1.0 + m00 * s0)
                k = [[s0 * i00]]
                decrease = k[0][0] * n00
                slope = -LN4 * (self.rho[0] + s0) * (i00 * (n00 * i00)) * d0
                return moved, drho, k, decrease, slope
            (s0, s1), ((m00, m01), (m10, m11)), ((n00, n01), (n10, n11)), (d0, d1) = drho, self.m, self.n, self.dirs
            # I + M S entry by entry; 0.0 + turns a -0.0 product into 0.0, as adding the identity's zeros does
            a00, a01, a10, a11 = 1.0 + m00 * s0, 0.0 + m01 * s1, 0.0 + m10 * s0, 1.0 + m11 * s1
            det = a00 * a11 - a01 * a10
            i00, i01, i10, i11 = a11 / det, -a01 / det, -a10 / det, a00 / det
        except ZeroDivisionError:
            return moved, drho, None, math.nan, math.nan
        k = [[s0 * i00, s0 * i01], [s1 * i10, s1 * i11]]
        decrease = ((k[0][0] * n00 + k[0][1] * n01) + k[1][0] * n10) + k[1][1] * n11
        # column j of R is row j of the inverse; t_j = [R' N R]_jj
        t0 = i00 * (n00 * i00 + n01 * i01) + i01 * (n10 * i00 + n11 * i01)
        t1 = i10 * (n00 * i10 + n01 * i11) + i11 * (n10 * i10 + n11 * i11)
        slope = -LN4 * (self.rho[0] + s0) * t0 * d0 + -LN4 * (self.rho[1] + s1) * t1 * d1
        return moved, drho, k, decrease, slope


def _pairwise_step(instance, state: _State, b: np.ndarray, gap: float, vertex: int | None, budget: float):
    """Move weight from the away vertex to the oracle vertex; returns (gamma, bits, state).

    The largest step empties the away vertex (slack/B for the origin, b_j/B
    for coordinate j), or fills the oracle coordinate to MAX_BITS if that
    comes first.  Along the pair, a trial costs one k x k inverse
    (:meth:`_Pair.trial`).  A secant search brackets a zero of the
    directional derivative; the step is then halved until
    f_next <= f - gamma * gap / 2 (gap, the FW gap, is at most the pair's).
    Where the update is not trusted, the new point must factorize and the
    test is repeated on its fresh objective.  A step with no such point
    within _HALVINGS halvings (the gap at roundoff level) is a zero step.
    """
    g = state.gradient
    slack = budget - float(b.sum())
    if slack > _SLACK_FLOOR * budget:
        away, gamma_max = None, slack / budget
    else:
        support = np.flatnonzero(b > 0.0)
        away = int(support[np.argmax(g[support])])
        gamma_max = float(b[away]) / budget
    idx = [k for k in (vertex, away) if k is not None]
    pin = None if away is None else (len(idx) - 1, 0.0)  # the coordinate that gamma_max sets exactly
    if vertex is not None and (MAX_BITS - float(b[vertex])) / budget < gamma_max:
        gamma_max, pin = (MAX_BITS - float(b[vertex])) / budget, (0, MAX_BITS)
    if vertex == away or gamma_max <= 0.0:
        return 0.0, b, state
    dirs = [budget if k == vertex else -budget for k in idx]
    gap_pair = -float(g[idx] @ dirs)
    pair = _Pair(state, b, idx, dirs, gamma_max, pin)

    gamma = gamma_max
    moved, drho, k, decrease, slope = pair.trial(gamma)
    if slope > 0.0:
        lo, slope_lo, hi, slope_hi, kept = 0.0, -gap_pair, gamma_max, slope, 0
        for _ in range(_SECANT_STEPS):
            gamma = lo - slope_lo * (hi - lo) / (slope_hi - slope_lo)
            if not lo < gamma < hi:
                gamma = 0.5 * (lo + hi)
            moved, drho, k, decrease, slope = pair.trial(gamma)
            if abs(slope) <= _SLOPE_TOL * gap_pair or hi - lo <= 1e-15 * gamma_max:
                break
            # Illinois rule: halve the slope kept at an end that survives twice running
            if slope < 0.0:
                lo, slope_lo = gamma, slope
                slope_hi *= 0.5 if kept > 0 else 1.0
                kept = max(kept, 0) + 1
            else:
                hi, slope_hi = gamma, slope
                slope_lo *= 0.5 if kept < 0 else 1.0
                kept = min(kept, 0) - 1
    for _ in range(_HALVINGS):
        if decrease >= 0.5 * gamma * gap:
            b_next = b.copy()
            b_next[idx] = moved
            if state.trusts(pair, drho, decrease):
                if state.updates + 1 >= _REFRESH_STEPS:
                    return gamma, b_next, _State(instance, b_next)
                state.update(pair, k, drho, decrease)
                return gamma, b_next, state
            try:
                fresh = _State(instance, b_next)
            except FactorizationError:
                fresh = None  # 4**b spans too wide a range for the Cholesky factorization
            if fresh is not None and fresh.objective <= state.objective - 0.5 * gamma * gap:
                return gamma, b_next, fresh
        gamma *= 0.5
        moved, drho, k, decrease, slope = pair.trial(gamma)
    return 0.0, b, state


@single_blas_thread()
def solve_fw(instance: ProblemInstance, config: FwConfig | None = None, start=None) -> SolveTrace:
    """Run the conditional-gradient method from the origin or a warm start.

    Every iterate is a convex combination of feasible points, so feasibility
    holds up to roundoff: each coordinate of a step is rounded on its own,
    and the total can exceed the budget by a few ulps of B (7.1e-15 on the
    golden solve-fw-steps case), far inside the 1e-9 that
    BitVector.feasible_for accepts.  The default step rule takes pairwise
    steps on rank-two updated state (see the module docstring):
    intermediate records carry the updated objective and gap, and the final
    record, the returned objective and the stopping test come from a fresh
    evaluation at the returned point.  The certificate pairs the best
    recorded gap with the max(2*h0, 2*L*B^2)/sqrt(T+1) envelope, where h0 is
    the observed objective drop.  Without a configured cap it stops after
    the larger of 2000 and 5m iterations: a pairwise step moves only one pair
    of coordinates.
    """
    cfg = config or FwConfig()
    budget = instance.budget
    if start is None:
        b = np.zeros(instance.m)
    else:
        b = np.array(allocation_array(start, instance.m))
        if not BitVector(b).feasible_for(budget):
            raise DimensionMismatchError(f"start exceeds budget: sum {b.sum():.6g} > {budget:.6g}")
    cap = cfg.max_iterations or max(2000, 5 * instance.m)
    lip = lipschitz_constant(instance)
    pairwise = cfg.step_rule is StepRule.PAIRWISE

    records: list[IterationRecord] = []
    clock = time.perf_counter
    t0 = clock()
    state = _State(instance, b) if pairwise else evaluate(instance, b)
    stuck = False  # a zero pairwise step leaves everything as it was, so each later step repeats it
    while True:
        t = len(records)
        vertex, gap = _oracle(b, state.gradient, budget)
        elapsed = clock() - t0
        termination = (
            Termination.GAP_CONVERGED if gap <= cfg.gap_tolerance
            else Termination.TIME_LIMIT if elapsed >= cfg.time_limit
            else Termination.MAX_ITERATIONS if t == cap
            else None
        )
        if termination is not None and pairwise and state.updates:
            state, stuck = _State(instance, b), False  # stop only on a fresh evaluation
            continue
        if termination is not None:  # the last record takes no step
            records.append(IterationRecord(t, state.objective, gap, 0.0, vertex, None, elapsed))
            break
        objective = state.objective
        if pairwise:
            gamma, b, state = (0.0, b, state) if stuck else _pairwise_step(instance, state, b, gap, vertex, budget)
            stuck = gamma == 0.0
        else:
            gamma = min(gap / (2.0 * lip * budget * budget), 1.0) if budget > 0.0 else 0.0
            b = _convex_step(b, gamma, vertex, budget)
            state = evaluate(instance, b)
        records.append(IterationRecord(t, objective, gap, gamma, vertex, None, elapsed))

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
