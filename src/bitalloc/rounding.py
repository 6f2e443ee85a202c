"""Largest-remainder rounding from continuous to integral allocations.

Floor every component, then hand the leftover integer budget to the
coordinates with the largest fractional parts (ties to the lowest index).
Among all ways of rounding each coordinate up or down, this is a nearest
integral point in Euclidean distance, its squared distance is bounded by
sum r_i (1 - r_i), and at a first-order stationary point of the relaxation
the objective increase is at most L/2 times that same sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._blas import single_blas_thread
from .model import (
    BitAllocationError,
    BitVector,
    DimensionMismatchError,
    ProblemInstance,
    allocation_array,
    evaluate,
    lipschitz_constant,
)

# Budget saturation required of the continuous input, relative for budgets
# above one.  Interior-point output lands orders of magnitude inside this.
SLACK_TOL = 1e-6


class RoundingPreconditionError(BitAllocationError):
    """Continuous input is not budget-saturated (or violates nonnegativity)."""


@dataclass(frozen=True)
class RoundingReport:
    rounded_bits: BitVector
    remainder_vector: np.ndarray
    residual_budget: int
    distance_squared: float
    distance_bound: float
    gap_bound: float | None = None
    simplified_gap_bound: float | None = None
    gap_actual: float | None = None


def _continuous_array(b_bar) -> np.ndarray:
    arr = allocation_array(b_bar)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatchError("continuous allocation must be a nonempty 1-D vector")
    if np.any(arr < -1e-12):
        raise RoundingPreconditionError(f"negative component {arr.min():.3e} in continuous allocation")
    return np.maximum(arr, 0.0)


def _residual_budget(budget: float, floors: np.ndarray) -> int:
    """How many coordinates round up: budget - sum(floor(b)), rounded down to keep it feasible."""
    return max(math.floor(budget - floors.sum() + 1e-9), 0)  # 1e-9: roundoff never loses a whole unit


def round_largest_remainder(b_bar, budget: float) -> RoundingReport:
    """Round a budget-saturated continuous allocation to integers.

    The residual budget is recovered in integer arithmetic from
    budget - sum(floor(b)), so saturation slack up to SLACK_TOL * max(1, B)
    cannot change how many coordinates round up.
    """
    arr = _continuous_array(b_bar)
    slack = budget - arr.sum()
    tol = SLACK_TOL * max(1.0, budget)
    if abs(slack) > tol:
        raise RoundingPreconditionError(
            f"continuous allocation must saturate the budget: |{budget} - {arr.sum():.9g}| = "
            f"{abs(slack):.3e} exceeds {tol:.3e}"
        )
    floors = np.floor(arr)
    remainders = arr - floors
    residual = _residual_budget(budget, floors)
    order = np.argsort(-remainders, kind="stable")  # stable: ties go to the lowest index
    lift = np.zeros(arr.size)
    lift[order[:residual]] = 1.0
    rounded = floors + lift
    distance_squared = float(np.sum((rounded - arr) ** 2))
    distance_bound = float(np.sum(remainders * (1.0 - remainders)))
    return RoundingReport(
        rounded_bits=BitVector(rounded),
        remainder_vector=remainders,
        residual_budget=residual,
        distance_squared=distance_squared,
        distance_bound=distance_bound,
    )


def verify_nearest_point(b_bar, rounded: BitVector) -> bool:
    """Brute-force check that ``rounded`` is a nearest feasible round-up choice.

    Enumerates every 0/1 lift with the same residual budget; quadratic growth
    caps this at m <= 20.
    """
    arr = _continuous_array(b_bar)
    m = arr.size
    if m > 20:
        raise DimensionMismatchError(f"brute-force nearest-point check limited to m <= 20, got m = {m}")
    hat = allocation_array(rounded)
    floors = np.floor(arr)
    residual = int(round(float((hat - floors).sum())))
    achieved = float(np.sum((hat - arr) ** 2))
    best = np.inf
    for subset in itertools.combinations(range(m), residual):
        lift = np.zeros(m)
        lift[list(subset)] = 1.0
        best = min(best, float(np.sum((floors + lift - arr) ** 2)))
    return achieved <= best + 1e-12


def rounding_gap_bound(instance: ProblemInstance, b_bar) -> tuple[float, float]:
    """Objective-increase bound L/2 * sum r(1-r), and the coarser L/2 * min(R, m/4).

    R is the number of coordinates :func:`round_largest_remainder` rounds up.
    """
    arr = _continuous_array(b_bar)
    if arr.size != instance.m:
        raise DimensionMismatchError(f"allocation must have length {instance.m}")
    lip = lipschitz_constant(instance)
    floors = np.floor(arr)
    remainders = arr - floors
    bound = 0.5 * lip * float(np.sum(remainders * (1.0 - remainders)))
    simplified = 0.5 * lip * min(float(_residual_budget(instance.budget, floors)), instance.m / 4.0)
    return bound, simplified


@single_blas_thread()
def round_with_guarantees(instance: ProblemInstance, b_bar) -> RoundingReport:
    """Full rounding report: geometry, objective gap, and its bounds."""
    report = round_largest_remainder(b_bar, instance.budget)
    gap_bound, simplified = rounding_gap_bound(instance, b_bar)
    objective_before = evaluate(instance, b_bar).objective
    objective_after = evaluate(instance, report.rounded_bits).objective
    return replace(
        report,
        gap_bound=gap_bound,
        simplified_gap_bound=simplified,
        gap_actual=objective_after - objective_before,
    )
