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

The simulation streams over blocks of _CHANNEL_BLOCK channel rows and never
holds an m x n array.  Each block is drawn, quantized and reduced in place in
three buffers of k x n, allocated once, so memory is O((d + 3k) n) for n
samples and block height k, not O(m n).  A row-major (m, n) uniform draw is the same stream as
its row blocks drawn in order, so the dither does not depend on the block
height, and each clean reading is the same dot product.  The readings and the
per-channel error statistics are therefore those of an unblocked run whenever
the BLAS rounds a row of H x the same in a block as in the whole product
(the bundled OpenBLAS does at n = 2,000 and n = 10,000, not at every n).  The
one sum that is reassociated by design is the one over channels in the
estimator's right-hand side H' W y.

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

# Channel rows quantized per block of the Monte-Carlo simulation.
_CHANNEL_BLOCK = 64


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
        dynamic_range = np.sqrt(12.0 / instance.kappa)
        return cls(dynamic_range / 2.0 ** allocation_array(bits, instance.m), mode, seed)


@dataclass(frozen=True)
class MonteCarloReport:
    sample_count: int
    empirical_mse: float
    analytic_mse: float
    empirical_error_mean: np.ndarray
    empirical_error_se: np.ndarray
    standard_error: float


def quantize(value, bin_width, dither, mode: DitherMode, out=None):
    """Mid-rise uniform quantizer with additive dither.

    Returns Delta * (floor((v + tau)/Delta) + 1/2); in subtractive mode the
    dither is removed after quantization.  Takes scalars or arrays (they
    broadcast); as with a ufunc, every step is written into ``out`` if given.
    """
    level = np.add(value, dither, out=out)
    level = np.divide(level, bin_width, out=out)
    level = np.floor(level, out=out)
    level = np.add(level, 0.5, out=out)
    level = np.multiply(level, bin_width, out=out)
    if mode is DitherMode.SUBTRACTIVE:
        level = np.subtract(level, dither, out=out)
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

    Channels are processed in row blocks, each adding its share of H' W y
    into one d x n right-hand side, so peak memory is O((d + 3k) n) with
    k = _CHANNEL_BLOCK rather than O(m n).  The dither stream is the one an
    (m, n) draw would give (see the module docstring); the channel sum in
    H' W y is reassociated, which moves the empirical MSE in its last digits
    once m exceeds one block.  The allocation is checked by the evaluation
    kernel before any sampling.  The standard errors need at least two
    samples.
    """
    if sample_count < 2:
        raise DimensionMismatchError("sample_count must be at least 2 for a standard error")
    if bank.bin_widths.shape != (instance.m,):
        raise DimensionMismatchError(f"bank must have {instance.m} channels")
    analytic = evaluate(instance, bits).objective
    rng = np.random.default_rng(bank.rng_seed)
    h = instance.sensing_matrix
    n = int(sample_count)

    states = instance.prior_factor @ rng.standard_normal((instance.d, n))
    weights = 12.0 / bank.bin_widths**2
    rhs = np.zeros((instance.d, n))
    product = np.empty((instance.d, n))
    error_mean = np.empty(instance.m)
    error_se = np.empty(instance.m)
    # A lone last row joins the block before it: numpy sends a one-row product
    # to BLAS gemv, whose sums can differ from gemm's.
    edges = list(range(0, max(instance.m - 1, 1), _CHANNEL_BLOCK)) + [instance.m]
    blocks = np.empty((3, max(np.diff(edges)), n))
    for lo, hi in zip(edges[:-1], edges[1:]):
        rows = slice(lo, hi)
        clean, dither, readings = blocks[:, : hi - lo]
        np.matmul(h[rows], states, out=clean)
        widths = bank.bin_widths[rows, None]
        # rng.uniform(-0.5, 0.5) draws the same doubles and adds -0.5 to each
        rng.random(out=dither)
        dither -= 0.5
        dither *= widths
        quantize(clean, widths, dither, bank.dither_mode, out=readings)
        weighted = np.multiply(weights[rows, None], readings, out=dither)
        rhs += np.matmul(h[rows].T, weighted, out=product)
        # per-channel errors, then the steps of mean and std(ddof=1)
        errors = np.subtract(readings, clean, out=clean)
        means = np.sum(errors, axis=1) / n
        error_mean[rows] = means
        errors -= means[:, None]
        errors *= errors
        error_se[rows] = np.sqrt(np.sum(errors, axis=1) / (n - 1)) / np.sqrt(n)

    scaled = h * np.sqrt(weights)[:, None]
    factor = cholesky_lower(instance.prior_inverse + scaled.T @ scaled)
    estimates = cholesky_solve(factor, rhs)
    # the spent right-hand side takes the errors in place; it is C-ordered
    # like states, so the sum over axis 0 adds each sample's squares row by
    # row (over a Fortran-ordered buffer it would sum them pairwise, and the
    # last digit of the mean would move)
    errors = np.subtract(estimates, states, out=rhs)
    errors *= errors
    squared_errors = errors.sum(axis=0)
    empirical_mse = float(squared_errors.mean())
    standard_error = float(squared_errors.std(ddof=1) / np.sqrt(n))

    return MonteCarloReport(
        sample_count=n,
        empirical_mse=empirical_mse,
        analytic_mse=analytic,
        empirical_error_mean=error_mean,
        empirical_error_se=error_se,
        standard_error=standard_error,
    )
