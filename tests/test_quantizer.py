import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitalloc import quantizer
from bitalloc._blas import single_blas_thread
from bitalloc.model import (
    MAX_BITS,
    BitRangeError,
    DimensionMismatchError,
    ProblemInstance,
    cholesky_lower,
    cholesky_solve,
    evaluate,
)
from bitalloc.quantizer import DitherMode, MonteCarloReport, QuantizerBank, quantize, simulate_lmmse

from conftest import random_instance


class TestQuantize:
    def test_hand_example(self):
        assert quantize(0.6, 1.0, 0.0, DitherMode.NON_SUBTRACTIVE) == pytest.approx(0.5)

    def test_bin_center_fixed_point(self):
        for k in (-3, 0, 5):
            center = 0.25 * (k + 0.5)
            assert quantize(center, 0.25, 0.0, DitherMode.NON_SUBTRACTIVE) == pytest.approx(center)

    def test_subtractive_removes_dither(self):
        value, width, tau = 0.6, 1.0, 0.3
        non_sub = quantize(value, width, tau, DitherMode.NON_SUBTRACTIVE)
        sub = quantize(value, width, tau, DitherMode.SUBTRACTIVE)
        assert sub == pytest.approx(non_sub - tau)

    @settings(max_examples=60, deadline=None)
    @given(
        value=st.floats(min_value=-50.0, max_value=50.0),
        width=st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_subtractive_error_within_half_bin(self, value, width):
        rng = np.random.default_rng(abs(hash((value, width))) % 2**32)
        tau = rng.uniform(-width / 2, width / 2)
        err = quantize(value, width, tau, DitherMode.SUBTRACTIVE) - value
        assert abs(err) <= width / 2 * (1 + 1e-9) + 1e-12

    def test_conditionally_unbiased_over_dither(self):
        rng = np.random.default_rng(11)
        value, width = 1.234, 0.5
        taus = rng.uniform(-width / 2, width / 2, size=200_000)
        outputs = quantize(value, width, taus, DitherMode.NON_SUBTRACTIVE)
        se = outputs.std(ddof=1) / np.sqrt(outputs.size)
        assert abs(outputs.mean() - value) <= 4.0 * se

    def test_vectorized(self):
        out = quantize(np.array([0.6, 1.6]), 1.0, 0.0, DitherMode.NON_SUBTRACTIVE)
        np.testing.assert_allclose(out, [0.5, 1.5])


class TestQuantizerBank:
    def test_widths_from_allocation(self):
        inst = ProblemInstance.with_identity_prior(np.eye(2), [3.0, 12.0], 4.0)
        bank = QuantizerBank.for_allocation(inst, [1.0, 0.0], DitherMode.SUBTRACTIVE, 0)
        np.testing.assert_allclose(bank.bin_widths, [1.0, 1.0])  # sqrt(12/3)/2 and sqrt(12/12)/1

    def test_width_consistent_with_precision(self):
        inst = random_instance(5, d=3, m=4)
        bits = np.array([1.0, 2.0, 0.0, 3.0])
        bank = QuantizerBank.for_allocation(inst, bits, DitherMode.SUBTRACTIVE, 0)
        rho = inst.kappa * 4.0**bits
        np.testing.assert_allclose(bank.bin_widths**2 / 12.0, 1.0 / rho, rtol=1e-12)

    def test_rejects_nonpositive_widths(self):
        with pytest.raises(DimensionMismatchError):
            QuantizerBank(np.array([1.0, 0.0]), DitherMode.SUBTRACTIVE, 0)


@pytest.fixture(scope="module")
def setup():
    inst = random_instance(123, d=2, m=3, budget_per_sensor=2.0)
    bits = np.array([2.0, 2.0, 2.0])
    return inst, bits


class TestSimulate:
    def test_subtractive_matches_model(self, setup):
        inst, bits = setup
        bank = QuantizerBank.for_allocation(inst, bits, DitherMode.SUBTRACTIVE, seed=77)
        report = simulate_lmmse(inst, bits, 100_000, bank)
        assert abs(report.empirical_mse - report.analytic_mse) <= 3.0 * report.standard_error

    def test_non_subtractive_unbiased(self, setup):
        inst, bits = setup
        bank = QuantizerBank.for_allocation(inst, bits, DitherMode.NON_SUBTRACTIVE, seed=78)
        report = simulate_lmmse(inst, bits, 100_000, bank)
        sigmas = np.abs(report.empirical_error_mean) / report.empirical_error_se
        assert np.all(sigmas <= 4.0)

    def test_subtractive_error_uniform_ks(self, setup):
        # Kolmogorov-Smirnov distance of per-channel errors against U(-w/2, w/2)
        inst, bits = setup
        rng = np.random.default_rng(9)
        n = 100_000
        states = inst.prior_factor @ rng.standard_normal((inst.d, n))
        clean = inst.sensing_matrix @ states
        widths = np.sqrt(12.0 / inst.kappa)[:, None] / 2.0 ** np.asarray(bits)[:, None]
        tau = rng.uniform(-0.5, 0.5, size=clean.shape) * widths
        errors = quantize(clean, widths, tau, DitherMode.SUBTRACTIVE) - clean
        for channel in range(inst.m):
            sample = np.sort(errors[channel])
            width = widths[channel, 0]
            cdf = np.clip(sample / width + 0.5, 0.0, 1.0)
            empirical = np.arange(1, n + 1) / n
            ks = np.max(np.maximum(np.abs(empirical - cdf), np.abs(empirical - 1.0 / n - cdf)))
            assert ks <= 0.01

    def test_reproducible(self, setup):
        inst, bits = setup
        bank = QuantizerBank.for_allocation(inst, bits, DitherMode.SUBTRACTIVE, seed=5)
        first = simulate_lmmse(inst, bits, 5_000, bank)
        second = simulate_lmmse(inst, bits, 5_000, bank)
        assert first.empirical_mse == second.empirical_mse
        np.testing.assert_array_equal(first.empirical_error_mean, second.empirical_error_mean)

    def test_analytic_matches_evaluation_kernel(self, setup):
        inst, bits = setup
        bank = QuantizerBank.for_allocation(inst, bits, DitherMode.SUBTRACTIVE, seed=5)
        report = simulate_lmmse(inst, bits, 10, bank)
        assert report.analytic_mse == evaluate(inst, bits).objective

    def test_fine_quantization_limit(self):
        inst = random_instance(7, d=3, m=5)
        bits = np.full(inst.m, 12.0)
        bank = QuantizerBank.for_allocation(inst, bits, DitherMode.SUBTRACTIVE, seed=3)
        report = simulate_lmmse(inst, bits, 20_000, bank)
        assert report.analytic_mse < 1e-5
        assert report.empirical_mse < 1e-4

    def test_nearly_noiseless_channels(self):
        # six 150-bit channels on a d = 3 state make the m x m measurement-space
        # Gram H H' + D singular in floating point (its leading minor 4 fails)
        inst = random_instance(30, d=3, m=12)
        bits = np.concatenate([np.full(6, 150.0), np.zeros(6)])
        bank = QuantizerBank.for_allocation(inst, bits, DitherMode.SUBTRACTIVE, seed=2)
        report = simulate_lmmse(inst, bits, 2_000, bank)
        assert report.analytic_mse < 1e-80
        assert report.empirical_mse < 1e-25

    def test_sample_count_validated(self, setup):
        inst, bits = setup
        bank = QuantizerBank.for_allocation(inst, bits, DitherMode.SUBTRACTIVE, seed=1)
        for count in (0, 1):
            with pytest.raises(DimensionMismatchError):
                simulate_lmmse(inst, bits, count, bank)

    def test_channel_count_validated(self, setup):
        inst, bits = setup
        bank = QuantizerBank(np.ones(2), DitherMode.SUBTRACTIVE, 1)
        with pytest.raises(DimensionMismatchError):
            simulate_lmmse(inst, bits, 10, bank)


@single_blas_thread()
def unblocked_reference(instance, sample_count, bank):
    """The simulation as one (m, n) draw: error mean and se per channel, MSE and its se."""
    rng = np.random.default_rng(bank.rng_seed)
    h = instance.sensing_matrix
    states = instance.prior_factor @ rng.standard_normal((instance.d, sample_count))
    clean = h @ states
    widths = bank.bin_widths[:, None]
    dither = rng.uniform(-0.5, 0.5, size=clean.shape) * widths
    readings = quantize(clean, widths, dither, bank.dither_mode)
    weights = 12.0 / bank.bin_widths**2
    scaled = h * np.sqrt(weights)[:, None]
    factor = cholesky_lower(instance.prior_inverse + scaled.T @ scaled)
    estimates = cholesky_solve(factor, h.T @ (weights[:, None] * readings))
    squared_errors = np.sum((estimates - states) ** 2, axis=0)
    channel_errors = readings - clean
    return (
        channel_errors.mean(axis=1),
        channel_errors.std(axis=1, ddof=1) / np.sqrt(sample_count),
        squared_errors.mean(),
        squared_errors.std(ddof=1) / np.sqrt(sample_count),
    )


class TestChannelBlocks:
    """More channels than one block: the blocked simulation against an unblocked one."""

    # four full blocks and a lone last row, which joins the fourth
    INSTANCE = random_instance(41, d=5, m=257)
    BITS = np.full(257, 2.0)

    @pytest.mark.parametrize("mode", list(DitherMode))
    def test_matches_unblocked_reference(self, mode):
        bank = QuantizerBank.for_allocation(self.INSTANCE, self.BITS, mode, seed=17)
        report = simulate_lmmse(self.INSTANCE, self.BITS, 2_000, bank)
        error_mean, error_se, mse, mse_se = unblocked_reference(self.INSTANCE, 2_000, bank)
        np.testing.assert_array_equal(report.empirical_error_mean, error_mean)
        np.testing.assert_array_equal(report.empirical_error_se, error_se)
        assert report.analytic_mse == evaluate(self.INSTANCE, self.BITS).objective
        assert report.empirical_mse == pytest.approx(mse, rel=1e-12)
        assert report.standard_error == pytest.approx(mse_se, rel=1e-12)

    # Values of the simulation before its block loop ran in reused buffers;
    # the in-place rewrite keeps every float operation and its order.
    PINNED = {
        DitherMode.NON_SUBTRACTIVE: (
            "0.0023864563998772007",
            "3.422636722942555e-05",
            "e08caca9c851410583b2f6ea33e170dbe5f63db137739c7909f1f197c67295ee",
            "b5e3c02abb45aceecebbbe0ecded1475c9c7efdd2322824c4f716ea5e1436be6",
        ),
        DitherMode.SUBTRACTIVE: (
            "0.001225172716120145",
            "1.7616610563320438e-05",
            "8a9811de7a067fc446066341f025f9500ca73ba80818a34973757a2ad9f4a220",
            "318f63abb38e8d73a53be72b026b8c8d3139f0a1f6ef3b19411e73c9a5f5172e",
        ),
    }

    @pytest.mark.parametrize("mode", list(DitherMode))
    def test_pinned_bytes(self, mode):
        bank = QuantizerBank.for_allocation(self.INSTANCE, self.BITS, mode, seed=17)
        report = simulate_lmmse(self.INSTANCE, self.BITS, 2_000, bank)
        assert (
            repr(report.empirical_mse),
            repr(report.standard_error),
            hashlib.sha256(report.empirical_error_mean.tobytes()).hexdigest(),
            hashlib.sha256(report.empirical_error_se.tobytes()).hexdigest(),
        ) == self.PINNED[mode]

    def test_peak_memory_of_reused_block_buffers(self):
        # Three block buffers of _CHANNEL_BLOCK rows and a few d x n arrays;
        # one temporary per elementwise step would add a block buffer each.
        d, m, n = 5, 2_000, 5_000
        instance = random_instance(42, d=d, m=m)
        bits = np.full(m, 2.0)
        bank = QuantizerBank.for_allocation(instance, bits, DitherMode.SUBTRACTIVE, seed=3)
        tracemalloc.start()
        try:
            simulate_lmmse(instance, bits, n, bank)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (4 * 64 * n + 4 * d * n)

    def test_peak_memory_below_quarter_of_one_channel_array(self):
        d, m, n = 5, 2_000, 5_000
        instance = random_instance(42, d=d, m=m)
        bits = np.full(m, 2.0)
        bank = QuantizerBank.for_allocation(instance, bits, DitherMode.SUBTRACTIVE, seed=3)
        tracemalloc.start()
        try:
            simulate_lmmse(instance, bits, n, bank)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * n / 4

    @pytest.mark.parametrize(
        "bad_bits, error",
        [(np.full(256, 2.0), DimensionMismatchError), (np.full(257, MAX_BITS + 1.0), BitRangeError)],
        ids=["length", "range"],
    )
    def test_bad_allocation_raises_before_sampling(self, bad_bits, error, monkeypatch):
        factored = []
        monkeypatch.setattr(quantizer, "cholesky_lower", lambda matrix: factored.append(matrix))
        bank = QuantizerBank.for_allocation(self.INSTANCE, self.BITS, DitherMode.SUBTRACTIVE, seed=1)
        with pytest.raises(error):
            simulate_lmmse(self.INSTANCE, bad_bits, 50_000, bank)
        assert factored == []
