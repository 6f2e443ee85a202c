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
holds an m x n array.  Each block's clean readings H x come from one gemm into
a k x n plane; the dither draw, the quantizer, the weighting and the error
statistics then run on row tiles of t rows (t = _TILE_DOUBLES / n, so a tile
stays in cache) in two t x n buffers, and write the weighted readings into a
second k x n plane, whose gemm adds the block's share of H' W y into the
d x n right-hand side in place (beta = 1).  The buffers are allocated once,
so memory is O((d + 2k) n + 2tn) for n samples, block height k and tile
height t, not O(m n).  A row-major (m, n) uniform draw is the same stream as
its row tiles drawn in order, so the dither does not depend on k or t, and
each clean reading is the same dot product.  The readings and the
per-channel error statistics are therefore those of an unblocked run whenever
the BLAS rounds a row of H x the same in a block as in the whole product
(the bundled OpenBLAS does at n = 2,000 and n = 10,000, not at every n).  The
tile height changes no bit: every product keeps the block's shape, and each
channel's sums run along its own row.  The one sum that is reassociated by
design is the one over channels in the estimator's right-hand side H' W y,
added block by block.

Sampling is single-threaded and seed-deterministic.  Anyone splitting the
sample loop across workers must partition a jumpable or counter-based stream
per worker so a fixed partition count stays reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._blas import blas_dgemm, single_blas_thread
from .model import (
    DimensionMismatchError,
    ProblemInstance,
    cholesky_lower,
    cholesky_solve,
    evaluate,
    guarded_allocation,
    information_matrix,
    integer_at_least,
)

# Channel rows quantized per block of the Monte-Carlo simulation.
_CHANNEL_BLOCK = 64
# Doubles per row tile of a block, in each of the two tile buffers; 256 KiB,
# so a tile's dither, readings and block rows fit a 2 MiB L2 cache together.
_TILE_DOUBLES = 1 << 15


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
        object.__setattr__(self, "rng_seed", integer_at_least(self.rng_seed, 0, "rng_seed", DimensionMismatchError))

    @classmethod
    def for_allocation(cls, instance: ProblemInstance, bits, mode: DitherMode, seed: int) -> "QuantizerBank":
        """Bin widths implied by an allocation (bits at most MAX_BITS): R_i / 2^{b_i} with R_i = sqrt(12/kappa_i)."""
        dynamic_range = np.sqrt(12.0 / instance.kappa)
        return cls(dynamic_range / 2.0 ** guarded_allocation(bits, instance.m), mode, seed)


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


def _weighted_readings(h: np.ndarray, states: np.ndarray, bank: QuantizerBank, weights: np.ndarray, rng):
    """Quantize every channel of H x over the sampled states x: (H' W y, per-channel error means, their se)."""
    (m, d), n = h.shape, states.shape[1]
    rhs = np.zeros((d, n))
    rhs_t = rhs.T  # Fortran-ordered, so gemm accumulates into it in place
    error_mean = np.empty(m)
    error_se = np.empty(m)
    # A lone last row joins the block before it: numpy sends a one-row product
    # to BLAS gemv, whose sums can differ from gemm's.
    edges = list(range(0, max(m - 1, 1), _CHANNEL_BLOCK)) + [m]
    planes = np.empty((2, max(np.diff(edges)), n))
    tile = min(max(_TILE_DOUBLES // n, 1), planes.shape[1])
    tiles = np.empty((2, tile, n))
    dgemm = blas_dgemm()
    for lo, hi in zip(edges[:-1], edges[1:]):
        clean, weighted = planes[:, : hi - lo]
        np.matmul(h[lo:hi], states, out=clean)
        for top in range(0, hi - lo, tile):
            bottom = min(top + tile, hi - lo)
            rows = slice(lo + top, lo + bottom)
            dither, readings = tiles[:, : bottom - top]
            widths = bank.bin_widths[rows, None]
            # rng.uniform(-0.5, 0.5) draws the same doubles and adds -0.5 to each
            rng.random(out=dither)
            dither -= 0.5
            dither *= widths
            quantize(clean[top:bottom], widths, dither, bank.dither_mode, out=readings)
            np.multiply(weights[rows, None], readings, out=weighted[top:bottom])
            # per-channel errors, then the steps of mean and std(ddof=1)
            errors = np.subtract(readings, clean[top:bottom], out=readings)
            means = np.sum(errors, axis=1) / n
            error_mean[rows] = means
            errors -= means[:, None]
            errors *= errors
            error_se[rows] = np.sqrt(np.sum(errors, axis=1) / (n - 1)) / np.sqrt(n)
        # rhs' += weighted' H[lo:hi], the block's share of H' W y added by gemm itself (beta = 1)
        if dgemm(1.0, weighted.T, h[lo:hi].T, beta=1.0, c=rhs_t, trans_b=1, overwrite_c=1) is not rhs_t:
            raise RuntimeError("dgemm did not accumulate into the right-hand side")
    return rhs, error_mean, error_se


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

    Channels run in blocks of k = _CHANNEL_BLOCK rows and row tiles of t
    rows (see the module docstring), in two k x n planes and two t x n tiles,
    so peak memory is O((d + 2k) n + 2tn) rather than O(m n); the block
    buffers are freed before the d x d solve.  The channel sum in H' W y is
    reassociated by block, which moves the empirical MSE in its last digits
    once m exceeds one block.  The allocation is checked by the evaluation
    kernel, and ``sample_count`` (an integer of at least 2, for the standard
    errors) before it, both before any sampling.
    """
    n = integer_at_least(sample_count, 2, "sample_count", DimensionMismatchError)
    if bank.bin_widths.shape != (instance.m,):
        raise DimensionMismatchError(f"bank must have {instance.m} channels")
    analytic = evaluate(instance, bits).objective
    rng = np.random.default_rng(bank.rng_seed)
    h = instance.sensing_matrix
    states = instance.prior_factor @ rng.standard_normal((instance.d, n))
    weights = 12.0 / bank.bin_widths**2
    rhs, error_mean, error_se = _weighted_readings(h, states, bank, weights, rng)

    factor = cholesky_lower(information_matrix(instance, weights))
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
