import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitalloc import _blas, quantizer
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
        # Two block planes of _CHANNEL_BLOCK rows (clean, weighted), two tiles
        # of t rows (dither, readings), the states and the right-hand side, and
        # a few m-vectors; a third plane or a d x n product would break it.
        d, m, n = 5, 2_000, 5_000
        instance = random_instance(42, d=d, m=m)
        bits = np.full(m, 2.0)
        bank = QuantizerBank.for_allocation(instance, bits, DitherMode.SUBTRACTIVE, seed=3)
        tile = quantizer._TILE_DOUBLES // n
        _blas.blas_dgemm()  # the BLAS extension loads on first use; not part of the simulation's memory
        tracemalloc.start()
        try:
            simulate_lmmse(instance, bits, n, bank)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (2 * 64 * n + 2 * tile * n + 2 * d * n + 4 * m)

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


def report_digest(report):
    """The reprs of the two MSE figures and the sha256 of the two per-channel arrays."""
    return (
        repr(report.empirical_mse),
        repr(report.standard_error),
        hashlib.sha256(report.empirical_error_mean.tobytes()).hexdigest(),
        hashlib.sha256(report.empirical_error_se.tobytes()).hexdigest(),
    )


class TestRowTiles:
    """The dither, quantizer and error reductions run on row tiles of each block, H' W y accumulates in place."""

    # Recorded before the block loop ran on row tiles with gemm accumulating
    # H' W y: (d, m, n) with instance random_instance(1000 + m, d, m), 2 bits
    # per channel and dither seed m + n.  m = 1, 2 and 65 are one block (the
    # lone last row of 65 joins it), 129 is two, 257 and 1,000 are more.
    PINNED = {
        ((50, 1000, 10000), DitherMode.NON_SUBTRACTIVE): (
            "0.006580625602089853",
            "1.3474694994089326e-05",
            "461af4fd748946335118269f0ceed819f3b467fdac9d6fa1b45fc3d031f23c3c",
            "729d17dcdc4236a70b26f6a8457b69a1dbace5be65cad8b129b16cd79a9cf0f7",
        ),
        ((50, 1000, 10000), DitherMode.SUBTRACTIVE): (
            "0.0033001399527727636",
            "6.6970731449794655e-06",
            "331a9e848cb092effd248c35c6375ac4d245c9922272426e78afdc8c942d3ff3",
            "afcdf6297f4dd11911b6f7e6b3b63daf906cdc5cc1c9055145d2e576959a0474",
        ),
        ((5, 1, 2001), DitherMode.NON_SUBTRACTIVE): (
            "4.017427812287063",
            "0.06329020376005579",
            "996b69ab5845362c70e3687acfe5eb18a3d026ac70e7f439e3b5e96676d4e016",
            "3a9540a0d68738a952a48592dbe76ac89a709a9d427fe063f8a15fd408422b39",
        ),
        ((5, 1, 2001), DitherMode.SUBTRACTIVE): (
            "4.005513647987901",
            "0.06328059352663257",
            "391c75b8b607b21fdd590a5f7d649d3399f0bce9f120e62323ac7db22700732e",
            "1bdd09d4dda0de0a672dd99a151e8da7e602950a785f47e4e5af6636a38132a3",
        ),
        ((5, 2, 2001), DitherMode.NON_SUBTRACTIVE): (
            "3.0269898536936064",
            "0.054195823733226164",
            "a1835617c280512f2e298ba5be5b11fa226ede53cb10c283fb806265e8e3e5b0",
            "4f7234950c173c09bff4f68ecb1904a880f1e1d60cf24ddddc8be549657e2a7f",
        ),
        ((5, 2, 2001), DitherMode.SUBTRACTIVE): (
            "3.002976836000964",
            "0.05415868243383152",
            "bd0c5376bdc20fbd7ef8fb5ddcb6489bb136819ebaec6cb130fe1a09ed82eff7",
            "848e20258d188057964a1556e59eaf6607d0cd7dc4b7c5db283fc049cf8ccce9",
        ),
        ((5, 65, 9999), DitherMode.NON_SUBTRACTIVE): (
            "0.009777715594060496",
            "6.205195394712132e-05",
            "102a2d62eacb79e20f63fdec5a12b0bdec892e1a09b635801a7a6a4832e78d80",
            "875b9bc9dbc94d789113f1057e9fbaa14e69855ec6c034dc120ff006629cdca8",
        ),
        ((5, 65, 9999), DitherMode.SUBTRACTIVE): (
            "0.004864557474574026",
            "3.0298640401111152e-05",
            "9af809311b4f2290f719bc342509f7541aeaa179e78f97ee98f9147fcaa0f662",
            "9683387905916a23b5cdc0bd7c957b1c051066094579e38cef153e9bf4be83a9",
        ),
        ((5, 129, 9999), DitherMode.NON_SUBTRACTIVE): (
            "0.0046159379253945705",
            "2.9328334408054126e-05",
            "48b97f92eabab9f4d9a83546c3d26e1e075ed5bd14739820d5955ea69ba97dd3",
            "37e98cceb2e0e312d7d75f9fa8d72a0f59003f3a9b3b660b19f256aa72aaa9e5",
        ),
        ((5, 129, 9999), DitherMode.SUBTRACTIVE): (
            "0.0023107757721291897",
            "1.4458407315548763e-05",
            "1b2072d9e2c80bb23c568aff7a751246329112972dc4c9c70136cc50a79d8c37",
            "1a715fb7f9af78523244e7de5acc22d5b3444387519101d579b5d70c2c04cd41",
        ),
        ((7, 65, 2001), DitherMode.NON_SUBTRACTIVE): (
            "0.014053984266473805",
            "0.0001744468201099062",
            "7db791e27c7c3665e3c7c1b82106b39be2efaf733eae5c1c595ada84cee4690f",
            "458125b94da7b91521269c3026348016ba45e26466af9032382014b62f126385",
        ),
        ((7, 65, 2001), DitherMode.SUBTRACTIVE): (
            "0.007076840973253879",
            "8.204238442981539e-05",
            "dacdf9fa9e9dd46b58c87cb553983ce39d3e56191756778651ed22190aca3c39",
            "3d5f3620570aa627494d631e5df3367ee0e25a64a29e2310d2dbff3312a82376",
        ),
        ((13, 13, 100000), DitherMode.NON_SUBTRACTIVE): (
            "1.9137620584950665",
            "0.005195594323388771",
            "85b16f5c9958fdfbf819c30fed01b2b9e52e97e067ee866c86c2a81c85f1fc62",
            "d8a86dacfdaa477026ae5472f8c5ad20376661492d58208646eb36542d31cfdb",
        ),
        ((13, 13, 100000), DitherMode.SUBTRACTIVE): (
            "1.514768348670995",
            "0.004746949533694395",
            "9b1d91b10ac0e669634a6d04d2e05d6f682f2308ce979a1100d34db1bac75f60",
            "55fc9ec888316925bb0fe3973d15355932e68d4539211d839f7106aac8bfb026",
        ),
        ((50, 1000, 9999), DitherMode.NON_SUBTRACTIVE): (
            "0.006571607985554583",
            "1.3499886929226652e-05",
            "6f5bf44646c9ecaf5822ff8aaadf988a606cfdb617d08459c4e3ac2198054daa",
            "576a1526c2c4e25a903a2a6e9c3232a5402e9666a6d9be9c80c17cc7164717b4",
        ),
        ((50, 1000, 9999), DitherMode.SUBTRACTIVE): (
            "0.0032848973565076144",
            "6.668229544422797e-06",
            "fcc202519d2cd585caa3205e71ff73bf20a0874401f0c10ec7aa193243e4d2e4",
            "e37b9c79d21cc3b683efa248975f71b196a5a0273658e719eec6f80633e8981b",
        ),
        ((5, 257, 2000), DitherMode.NON_SUBTRACTIVE): (
            "0.0024598005165500556",
            "3.5606430063007305e-05",
            "34755cfdcda89a9e3801eb10c67b15f4fa7e1e4290ddb82e89f2195cff5482dc",
            "1603a4ad0e629581a71a62dcd1306a832c85ed3514c8a1876bec5bb7cf77b926",
        ),
        ((5, 257, 2000), DitherMode.SUBTRACTIVE): (
            "0.0012049465836811565",
            "1.7343186757650306e-05",
            "f69e0aa77165181707d625107affae60601c49c0b169f94f55add2e7123333f7",
            "3555d1f217489a69a1424d5bed8b58e6077418cca34d02c31afd73d671385609",
        ),
    }

    @staticmethod
    def simulate(shape, mode):
        d, m, n = shape
        instance = random_instance(1000 + m, d=d, m=m)
        bits = np.full(m, 2.0)
        return simulate_lmmse(instance, bits, n, QuantizerBank.for_allocation(instance, bits, mode, seed=m + n))

    @pytest.mark.parametrize("shape, mode", list(PINNED), ids=lambda value: getattr(value, "name", str(value)))
    def test_pinned_bytes(self, shape, mode):
        assert report_digest(self.simulate(shape, mode)) == self.PINNED[shape, mode]

    @pytest.mark.parametrize("height", [1, 3, quantizer._CHANNEL_BLOCK])
    @pytest.mark.parametrize("shape", [(5, 129, 9_999), (7, 65, 2_001), (5, 257, 2_000)])
    def test_tile_height_moves_no_bit(self, height, shape, monkeypatch):
        monkeypatch.setattr(quantizer, "_TILE_DOUBLES", height * shape[2])
        for mode in DitherMode:
            assert report_digest(self.simulate(shape, mode)) == self.PINNED[shape, mode]

    def test_gemm_accumulates_into_the_right_hand_side(self, monkeypatch):
        outputs = []

        def recording_dgemm(*args, **kwargs):
            outputs.append((dgemm(*args, **kwargs), kwargs["c"]))
            return outputs[-1][0]

        dgemm = _blas.blas_dgemm()
        monkeypatch.setattr(quantizer, "blas_dgemm", lambda: recording_dgemm)
        self.simulate((5, 129, 9_999), DitherMode.SUBTRACTIVE)
        assert len(outputs) == 2 and all(out is c and c.flags.f_contiguous for out, c in outputs)


class TestIntegerArguments:
    """Sample counts and seeds that are not integers are rejected before any sampling."""

    INSTANCE = random_instance(3, d=3, m=4)
    BITS = np.full(4, 2.0)

    @pytest.mark.parametrize("count", [float("nan"), float("inf"), 2.5, 10.0, np.float64(10.0), "10", None])
    def test_non_integer_sample_count(self, count, monkeypatch):
        evaluated = []
        monkeypatch.setattr(quantizer, "evaluate", lambda *args: evaluated.append(args))
        bank = QuantizerBank.for_allocation(self.INSTANCE, self.BITS, DitherMode.SUBTRACTIVE, seed=1)
        with pytest.raises(DimensionMismatchError, match="sample_count"):
            simulate_lmmse(self.INSTANCE, self.BITS, count, bank)
        assert evaluated == []

    @pytest.mark.parametrize("seed", [-1, 1.5, float("nan"), 2.0, "3", None])
    def test_bad_seed(self, seed):
        with pytest.raises(DimensionMismatchError, match="rng_seed"):
            QuantizerBank.for_allocation(self.INSTANCE, self.BITS, DitherMode.SUBTRACTIVE, seed=seed)

    def test_numpy_integers_pass(self):
        bank = QuantizerBank.for_allocation(self.INSTANCE, self.BITS, DitherMode.SUBTRACTIVE, seed=np.int64(5))
        assert bank.rng_seed == 5 and type(bank.rng_seed) is int
        numpy_count = simulate_lmmse(self.INSTANCE, self.BITS, np.int32(200), bank)
        plain = simulate_lmmse(self.INSTANCE, self.BITS, 200, QuantizerBank(bank.bin_widths, bank.dither_mode, 5))
        assert numpy_count.sample_count == 200 and report_digest(numpy_count) == report_digest(plain)
