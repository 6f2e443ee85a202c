"""Dithered uniform quantization and Monte-Carlo validation of the MSE model.

The optimizer trusts an additive-noise picture: a b-bit channel with dynamic
range R behaves like the clean measurement plus noise of variance
Delta^2 / 12, Delta = R / 2^b.  This module simulates the actual quantizer to
test that picture.  With non-subtractive uniform dither the quantized value
is conditionally unbiased but its error variance is signal-dependent (up to
Delta^2/4 near bin edges); subtracting the dither at the decoder makes the
error exactly uniform on (-Delta/2, Delta/2) and independent of the signal,
so in subtractive mode the analytic error covariance is exact and the
Monte-Carlo check is sharp.  The estimator under test is the LMMSE estimator
in information form, so its one factorization is of a d x d matrix.

Sampling is single-threaded and seed-deterministic.  Anyone splitting the
sample loop across workers must partition a jumpable or counter-based stream
per worker so a fixed partition count stays reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._blas import single_blas_thread
from .model import (
    DimensionMismatchError,
    ProblemInstance,
    allocation_array,
    cholesky_lower,
    cholesky_solve,
    evaluate,
)


class DitherMode(Enum):
    NON_SUBTRACTIVE = "non-subtractive"
    SUBTRACTIVE = "subtractive"


@dataclass(frozen=True)
class QuantizerBank:
    """Per-channel bin widths plus the dither convention and RNG seed."""

    bin_widths: np.ndarray
    dither_mode: DitherMode
    rng_seed: int

    def __post_init__(self):
        widths = np.atleast_1d(np.asarray(self.bin_widths, dtype=float))
        if np.any(widths <= 0.0) or not np.all(np.isfinite(widths)):
            raise DimensionMismatchError("bin widths must be positive and finite")
        object.__setattr__(self, "bin_widths", widths)

    @classmethod
    def for_allocation(cls, instance: ProblemInstance, bits, mode: DitherMode, seed: int) -> "QuantizerBank":
        """Bin widths implied by an allocation: R_i / 2^{b_i} with R_i = sqrt(12/kappa_i)."""
        arr = allocation_array(bits)
        if arr.shape != (instance.m,):
            raise DimensionMismatchError(f"allocation must have length {instance.m}")
        dynamic_range = np.sqrt(12.0 / instance.kappa)
        return cls(dynamic_range / 2.0 ** arr, mode, seed)


@dataclass(frozen=True)
class MonteCarloReport:
    sample_count: int
    empirical_mse: float
    analytic_mse: float
    empirical_error_mean: np.ndarray
    empirical_error_se: np.ndarray
    standard_error: float


def quantize(value, bin_width, dither, mode: DitherMode):
    """Mid-rise uniform quantizer with additive dither.

    Returns Delta * (floor((v + tau)/Delta) + 1/2); in subtractive mode the
    dither is removed again after quantization.  Accepts scalars or arrays
    (broadcasting applies).
    """
    level = bin_width * (np.floor((value + dither) / bin_width) + 0.5)
    if mode is DitherMode.SUBTRACTIVE:
        return level - dither
    return level


@single_blas_thread()
def simulate_lmmse(instance: ProblemInstance, bits, sample_count: int, bank: QuantizerBank) -> MonteCarloReport:
    """Monte-Carlo MSE of the linear MMSE estimator fed by quantized readings.

    Draws states from the prior (through its cached Cholesky factor),
    quantizes each clean channel with independent uniform dither, applies the
    information-form estimator  (C_x^{-1} + H' W H)^{-1} H' W y  with
    W = diag(12/Delta^2), and compares the empirical MSE against the model
    prediction from the evaluation kernel.  The estimator factors one d x d
    information matrix, which stays positive definite when nearly noiseless
    channels make the m x m measurement-space Gram  H C_x H' + W^{-1}
    numerically singular.
    """
    if sample_count < 1:
        raise DimensionMismatchError("sample_count must be at least 1")
    if bank.bin_widths.shape != (instance.m,):
        raise DimensionMismatchError(f"bank must have {instance.m} channels")
    rng = np.random.default_rng(bank.rng_seed)
    h = instance.sensing_matrix
    n = int(sample_count)

    states = instance.prior_factor @ rng.standard_normal((instance.d, n))
    clean = h @ states
    widths = bank.bin_widths[:, None]
    dither = rng.uniform(-0.5, 0.5, size=clean.shape) * widths
    readings = quantize(clean, widths, dither, bank.dither_mode)

    weights = 12.0 / bank.bin_widths**2
    scaled = h * np.sqrt(weights)[:, None]
    factor = cholesky_lower(instance.prior_inverse + scaled.T @ scaled)
    estimates = cholesky_solve(factor, h.T @ (weights[:, None] * readings))

    squared_errors = np.sum((estimates - states) ** 2, axis=0)
    empirical_mse = float(squared_errors.mean())
    standard_error = float(squared_errors.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0

    channel_errors = readings - clean
    error_mean = channel_errors.mean(axis=1)
    error_se = channel_errors.std(axis=1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(instance.m)

    analytic = evaluate(instance, bits).objective
    return MonteCarloReport(
        sample_count=n,
        empirical_mse=empirical_mse,
        analytic_mse=analytic,
        empirical_error_mean=error_mean,
        empirical_error_se=error_se,
        standard_error=standard_error,
    )
