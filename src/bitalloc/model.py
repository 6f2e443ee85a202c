"""Problem data model and the estimation-error objective.

A bank of m linear sensors observes a d-dimensional zero-mean state through
the rows of a sensing matrix.  Sensor i transmits its reading with b_i bits,
which makes its effective measurement precision kappa_i * 4**b_i.  The merit
of an allocation b is the trace of the error covariance of the linear MMSE
state estimate, to be driven down subject to a total bit budget.

This module owns the instance container and the evaluation kernel: objective
value, analytic gradient, a global Lipschitz constant for the gradient, and the
dense bit-space Hessian behind the barrier's Newton steps.  One call to
:func:`evaluate` costs exactly one Cholesky factorization of the d x d
information matrix, whose triangular inverse from LAPACK ``dtrtri`` gives the
objective and G = H C.  The evaluation keeps G, not the factor; the gradient
and the Hessian ln(4)^2 * 2 (rho o GH') o (GG' o rho) + diag(ln(4) grad) (o
elementwise) are read from G in O(m^2 d), with no further solve.  Every
factorization goes through :func:`cholesky_lower`, so tests can count or
sabotage them.  :func:`evaluate` is the kernel's one body
(:func:`objective_value` returns its objective); it and
:func:`hessian_exact` run inside :func:`~bitalloc._blas.single_blas_thread`,
so a bare call does not leave an OpenBLAS worker spinning on another core;
inside a solver, which holds the scope already, that costs about a
microsecond per call.  At d = m = 50 (one BLAS thread, 2 shared x86_64
cores) an evaluation takes about 57 us, of which the factorization and the
triangular inverse are about 33 us, and :func:`objective_hessian`, built in
place on its two products, about 24 us.  The three LAPACK routines are
scipy's own f2py wrappers, loaded by :func:`~bitalloc._blas.lapack_routines`
from scipy's compiled ``_flapack`` extension without the ``scipy.linalg``
package import, which would take most of ``import bitalloc``'s time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from ._blas import lapack_routines, single_blas_thread

dpotrf, dpotrs, dtrtri = lapack_routines()

LN4 = math.log(4.0)

# 4**b overflows double precision near b ~ 512; reject far before that.
MAX_BITS = 256.0

# Componentwise negativity tolerated on allocations (roundoff from convex
# combinations), matching the feasibility slack asserted on solver output.
NEGATIVITY_TOL = 1e-12

# Budget overshoot that BitVector.feasible_for still accepts.
_BUDGET_TOL = 1e-9


class BitAllocationError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatchError(BitAllocationError):
    """An array argument has the wrong shape or length."""


class BitRangeError(BitAllocationError):
    """Bit values are non-finite or beyond the overflow guard MAX_BITS."""


class FactorizationError(BitAllocationError):
    """A matrix that must be SPD failed its Cholesky factorization.

    The 1-based index of the offending leading minor is kept in ``pivot``
    when the backend reports one.  For the information matrix this usually
    signals an invalid prior covariance or an overflowing 4**b term.
    """

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


def cholesky_lower(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    Single chokepoint for every SPD factorization in the package, so the
    one-factorization-per-evaluation contract is observable from tests.
    """
    factor, info = dpotrf(matrix, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise FactorizationError(
            f"matrix is not positive definite: leading minor {info} is not positive",
            pivot=int(info),
        )
    if info < 0:
        raise FactorizationError(f"invalid input to factorization (argument {-info})")
    return factor


def cholesky_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs from the lower Cholesky factor of A: the package's one SPD solve."""
    solution, info = dpotrs(factor, rhs, lower=1)
    if info != 0:
        raise FactorizationError(f"Cholesky solve failed (info {info})")
    return solution


@dataclass(frozen=True)
class BitVector:
    """A per-sensor bit allocation, continuous or integral.

    ``is_integral`` is derived at construction; integral vectors are exactly
    representable so the check is an equality, not a tolerance.
    """

    bits: np.ndarray
    is_integral: bool = field(init=False)

    def __post_init__(self):
        arr = allocation_array(self.bits)
        if np.any(arr < -NEGATIVITY_TOL):
            raise BitRangeError(f"negative bit value {arr.min():.3e} below tolerance")
        object.__setattr__(self, "bits", arr)
        object.__setattr__(self, "is_integral", bool(np.all(arr == np.floor(arr))))

    def __len__(self) -> int:
        return self.bits.size

    @property
    def total(self) -> float:
        return float(self.bits.sum())

    def feasible_for(self, budget: float) -> bool:
        return self.total <= budget + _BUDGET_TOL


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable problem data: sensing matrix, prior, precisions, budget.

    Derived quantities that every evaluation needs (prior factor, prior
    inverse, spectral norm of the prior) are computed once here and cached.
    An exact identity prior takes them in closed form, skipping the
    factorization and the eigensolve.
    """

    sensing_matrix: np.ndarray
    prior_covariance: np.ndarray
    kappa: np.ndarray
    budget: float
    prior_factor: np.ndarray = field(init=False, repr=False)
    prior_inverse: np.ndarray = field(init=False, repr=False)
    prior_spectral_norm: float = field(init=False)

    def __post_init__(self):
        h = np.asarray(self.sensing_matrix, dtype=float)
        if h.ndim != 2:
            raise DimensionMismatchError(f"sensing matrix must be 2-D, got shape {h.shape}")
        m, d = h.shape
        if not np.all(np.isfinite(h)):
            raise DimensionMismatchError("sensing matrix has non-finite entries")
        row_norms = np.linalg.norm(h, axis=1)
        if np.any(row_norms == 0.0):
            bad = int(np.argmin(row_norms))
            raise DimensionMismatchError(f"sensing matrix row {bad} is zero; every sensor must observe something")

        kappa = np.atleast_1d(np.asarray(self.kappa, dtype=float))
        if kappa.shape != (m,):
            raise DimensionMismatchError(f"kappa must have length {m}, got shape {kappa.shape}")
        if not np.all(np.isfinite(kappa)) or np.any(kappa <= 0.0):
            raise DimensionMismatchError("kappa must be strictly positive and finite")

        budget = float(self.budget)
        if not math.isfinite(budget) or budget < 0.0:
            raise DimensionMismatchError(f"budget must be a finite nonnegative real, got {budget}")

        cov = np.asarray(self.prior_covariance, dtype=float)
        if cov.shape != (d, d):
            raise DimensionMismatchError(f"prior covariance must be {d}x{d}, got shape {cov.shape}")
        if not np.all(np.isfinite(cov)):
            raise DimensionMismatchError("prior covariance has non-finite entries")
        if np.array_equal(cov, np.eye(d)):
            factor = np.eye(d)
            inverse = np.eye(d)
            spectral = 1.0
        else:
            scale = float(np.abs(cov).max()) or 1.0
            if not np.allclose(cov, cov.T, atol=1e-10 * scale, rtol=0.0):
                raise DimensionMismatchError("prior covariance must be symmetric")
            cov = 0.5 * (cov + cov.T)
            factor = cholesky_lower(cov)  # SPD check happens here
            inverse = cholesky_solve(factor, np.eye(d))
            inverse = 0.5 * (inverse + inverse.T)
            try:
                spectral = float(np.linalg.eigvalsh(cov)[-1])
            except np.linalg.LinAlgError as exc:
                raise FactorizationError(f"prior covariance eigensolve did not converge: {exc}") from exc

        object.__setattr__(self, "sensing_matrix", h)
        object.__setattr__(self, "prior_covariance", cov)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "prior_factor", factor)
        object.__setattr__(self, "prior_inverse", inverse)
        object.__setattr__(self, "prior_spectral_norm", spectral)

    @classmethod
    def with_identity_prior(cls, sensing_matrix, kappa, budget) -> "ProblemInstance":
        """Constructor for the common unit-prior setting."""
        h = np.asarray(sensing_matrix, dtype=float)
        if h.ndim != 2:
            raise DimensionMismatchError(f"sensing matrix must be 2-D, got shape {h.shape}")
        return cls(h, np.eye(h.shape[1]), kappa, budget)

    @property
    def m(self) -> int:
        return self.sensing_matrix.shape[0]

    @property
    def d(self) -> int:
        return self.sensing_matrix.shape[1]


@dataclass(frozen=True)
class Evaluation:
    """Objective, gradient, precisions and G = H C at one allocation."""

    objective: float
    gradient: np.ndarray
    precisions: np.ndarray
    cov_h: np.ndarray

    def __post_init__(self):
        if self.objective <= 0.0:
            raise BitAllocationError(f"objective must be positive, got {self.objective}")


def integer_at_least(value, minimum: int, name: str, error: type[Exception] = ValueError) -> int:
    """The package's one integer rule: ``value`` as an int of at least ``minimum`` (numpy ints pass; 2.0, True fail)."""
    try:
        integer = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        integer = None
    if integer is None or integer < minimum:
        raise error(f"{name} must be at least {minimum} and an integer, got {value!r}")
    return integer


def allocation_array(bits, m: int | None = None) -> np.ndarray:
    """The package's one allocation check: a finite, nonempty 1-D float array, of length m when given.

    A BitVector passes through as its own array, unchecked but for the
    length: it was checked when it was built.
    """
    if isinstance(bits, BitVector):
        arr = bits.bits
    else:
        arr = np.atleast_1d(np.asarray(bits, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionMismatchError(f"allocation must be a nonempty 1-D vector, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise BitRangeError("allocation has non-finite components")
    if m is not None and arr.size != m:
        raise DimensionMismatchError(f"allocation must have length {m}, got {arr.size}")
    return arr


def guarded_allocation(bits, m: int) -> np.ndarray:
    """:func:`allocation_array` of length m with no component above MAX_BITS, so 2**b and 4**b stay finite."""
    arr = allocation_array(bits, m)
    if (arr > MAX_BITS).any():
        bad = int(np.argmax(arr))
        raise BitRangeError(f"bit value {arr[bad]:.6g} at index {bad} exceeds overflow guard {MAX_BITS:g}")
    return arr


def precision_from_bits(instance: ProblemInstance, bits) -> np.ndarray:
    """Per-channel precision kappa_i * 4**b_i for an allocation."""
    return instance.kappa * 4.0 ** guarded_allocation(bits, instance.m)


def information_matrix(instance: ProblemInstance, weights: np.ndarray) -> np.ndarray:
    """P^-1 + H' diag(weights) H from the rows of H scaled by sqrt(weights), a copy freed on return."""
    scaled = instance.sensing_matrix * np.sqrt(weights)[:, None]
    return instance.prior_inverse + scaled.T @ scaled


def gradient_from_cov_h(rho: np.ndarray, cov_h: np.ndarray) -> np.ndarray:
    """The gradient -ln(4) * rho_i * ||(C h_i)||^2 from the rows of G = H C."""
    return -LN4 * rho * np.einsum("ij,ij->i", cov_h, cov_h)


@single_blas_thread()
def evaluate(instance: ProblemInstance, bits) -> Evaluation:
    """Objective and gradient at an allocation, via one Cholesky factorization.

    The information matrix is assembled as a symmetric rank-k update of the
    prior inverse with the sensing matrix scaled rowwise by sqrt(precision).
    LAPACK ``dtrtri`` inverts its Cholesky factor L; the objective, the trace
    of the error covariance C = L^-T L^-1, is the squared Frobenius norm of
    that inverse.  The gradient comes from one product with the explicit
    inverse: row i of H C is (C h_i)', and each gradient component is its
    squared norm scaled by -ln(4) * precision.  The m x m product of sensing
    rows is never formed; the cost is O(d^3 + d^2 m).

    Accepts a BitVector or any length-m array.  Negative components are
    allowed (the objective is defined on all of R^m); values above MAX_BITS
    raise BitRangeError before they can overflow.
    """
    rho = precision_from_bits(instance, bits)
    inv_factor, status = dtrtri(cholesky_lower(information_matrix(instance, rho)), lower=1, overwrite_c=1)
    if status != 0:
        raise FactorizationError(f"triangular inverse failed (info {status})")
    cov_h = instance.sensing_matrix @ (inv_factor.T @ inv_factor)
    return Evaluation(float((inv_factor * inv_factor).sum()), gradient_from_cov_h(rho, cov_h), rho, cov_h)


def objective_value(instance: ProblemInstance, bits) -> float:
    """Objective alone, ``evaluate(instance, bits).objective``; no solver calls it, the benchmark's tracer hooks it."""
    return evaluate(instance, bits).objective


def lipschitz_constant(instance: ProblemInstance) -> float:
    """Global Lipschitz constant of the gradient over the budget simplex.

    Instance-constant: (ln 4)^2 * ||prior||_2 * (2m + 1).
    """
    return LN4 * LN4 * instance.prior_spectral_norm * (2 * instance.m + 1)


def objective_hessian(instance: ProblemInstance, ev: Evaluation) -> np.ndarray:
    """Dense Hessian of the objective in bit space, from an Evaluation's G = H C.

    No solve: X = G H' (h_i' C h_j) and Y = G G' (h_i' C^2 h_j) cost O(m^2 d).
    The Hessian is ln(4)^2 * 2 (rho o X) o (Y o rho) + diag(ln(4) * gradient).
    Its first term is positive semidefinite (Schur product theorem), and the
    negative diagonal from the chain rule through 4**b is what makes the
    bit-space problem nonconvex.  Symmetrized to kill roundoff asymmetry.
    """
    rho = ev.precisions
    # Built in place on the two fresh products, in the order of
    # (2 ln(4)^2 * (rho o X)) o (Y o rho): each factor is scaled separately, so
    # the balanced products stay representable even when allocations differ
    # by hundreds of bits.
    hess = ev.cov_h @ instance.sensing_matrix.T
    cross_sq = ev.cov_h @ ev.cov_h.T
    hess *= rho[:, None]
    hess *= 2.0 * LN4 * LN4
    cross_sq *= rho[None, :]
    hess *= cross_sq
    hess.reshape(-1)[:: hess.shape[0] + 1] += LN4 * ev.gradient
    return np.multiply(0.5, np.add(hess, hess.T, out=cross_sq), out=cross_sq)


@single_blas_thread()
def hessian_exact(instance: ProblemInstance, bits) -> np.ndarray:
    """Dense Hessian of the objective in bit space at an allocation.

    One :func:`evaluate` then :func:`objective_hessian`: O(d^3 + m^2 d).
    """
    return objective_hessian(instance, evaluate(instance, bits))
