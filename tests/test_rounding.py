import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitalloc.barrier import solve_barrier
from bitalloc.model import BitVector, DimensionMismatchError, lipschitz_constant
from bitalloc.rounding import (
    RoundingPreconditionError,
    round_largest_remainder,
    round_with_guarantees,
    verify_nearest_point,
)

from conftest import random_instance


class TestLargestRemainder:
    def test_hand_example(self):
        report = round_largest_remainder(np.array([1.7, 0.2, 1.1]), 3.0)
        np.testing.assert_array_equal(report.rounded_bits.bits, [2.0, 0.0, 1.0])
        np.testing.assert_allclose(report.remainder_vector, [0.7, 0.2, 0.1])
        assert report.residual_budget == 1

    def test_already_integral(self):
        report = round_largest_remainder(np.array([2.0, 1.0, 0.0]), 3.0)
        np.testing.assert_array_equal(report.rounded_bits.bits, [2.0, 1.0, 0.0])
        assert report.residual_budget == 0
        assert report.distance_squared == 0.0

    def test_tie_breaks_to_lowest_index(self):
        report = round_largest_remainder(np.array([0.5, 0.5]), 1.0)
        np.testing.assert_array_equal(report.rounded_bits.bits, [1.0, 0.0])

    def test_budget_met_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(2, 30))
            budget = float(rng.integers(1, 4) * m)
            raw = rng.uniform(0.0, 1.0, size=m)
            b_bar = raw * (budget / raw.sum())
            report = round_largest_remainder(b_bar, budget)
            assert report.rounded_bits.is_integral
            assert report.rounded_bits.total == budget  # exact integer arithmetic
            assert np.all(report.rounded_bits.bits >= 0.0)

    def test_distance_identity_and_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(2, 25))
            budget = float(rng.integers(1, 5) * m)
            raw = rng.uniform(0.0, 1.0, size=m)
            b_bar = raw * (budget / raw.sum())
            report = round_largest_remainder(b_bar, budget)
            xi = report.rounded_bits.bits - np.floor(b_bar)
            r = report.remainder_vector
            identity = r @ r + report.residual_budget - 2.0 * (r @ xi)
            assert report.distance_squared == pytest.approx(identity, abs=1e-12)
            assert report.distance_squared <= report.distance_bound + 1e-12

    def test_zero_remainders_never_lifted(self):
        b_bar = np.array([2.0, 1.3, 0.7, 1.0])  # sums to 5
        report = round_largest_remainder(b_bar, 5.0)
        lifted = report.rounded_bits.bits - np.floor(b_bar)
        assert lifted[0] == 0.0 and lifted[3] == 0.0

    def test_small_slack_tolerated(self):
        b_bar = np.array([1.7, 0.2, 1.1]) * (1.0 - 1e-8)
        report = round_largest_remainder(b_bar, 3.0)
        assert report.rounded_bits.total == 3.0

    def test_large_slack_rejected(self):
        with pytest.raises(RoundingPreconditionError, match="saturate"):
            round_largest_remainder(np.array([1.0, 0.5]), 3.0)

    def test_negative_component_rejected(self):
        with pytest.raises(RoundingPreconditionError):
            round_largest_remainder(np.array([-0.5, 3.5]), 3.0)

    @pytest.mark.parametrize("budget", [np.inf, -np.inf, np.nan])
    def test_non_finite_budget_rejected(self, budget):
        with pytest.raises(RoundingPreconditionError, match="finite"):
            round_largest_remainder(np.array([1.0, 2.0]), budget)

    def test_non_integral_budget_stays_feasible(self):
        b_bar = np.array([1.25, 1.25])  # budget 2.5
        report = round_largest_remainder(b_bar, 2.5)
        assert report.rounded_bits.total <= 2.5
        assert report.rounded_bits.is_integral

    def test_accepts_bitvector(self):
        report = round_largest_remainder(BitVector(np.array([1.5, 0.5])), 2.0)
        np.testing.assert_array_equal(report.rounded_bits.bits, [2.0, 0.0])


class TestNearestPoint:
    def test_hand_example(self):
        report = round_largest_remainder(np.array([1.7, 0.2, 1.1]), 3.0)
        assert verify_nearest_point(np.array([1.7, 0.2, 1.1]), report.rounded_bits)

    def test_integral_vacuous(self):
        bits = BitVector(np.array([1.0, 2.0]))
        assert verify_nearest_point(np.array([1.0, 2.0]), bits)

    @settings(max_examples=40, deadline=None)
    @given(
        raw=st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=2, max_size=10),
        base=st.integers(min_value=1, max_value=3),
    )
    def test_always_nearest_on_random_inputs(self, raw, base):
        m = len(raw)
        fractions = np.asarray(raw)
        b_bar = base + fractions * (float(base * m + int(fractions.sum())) - base * m) / max(fractions.sum(), 1e-9)
        budget = float(base * m + int(fractions.sum()))
        report = round_largest_remainder(b_bar, budget)
        assert verify_nearest_point(b_bar, report.rounded_bits)

    def test_size_refusal(self):
        with pytest.raises(DimensionMismatchError, match="m <= 20"):
            verify_nearest_point(np.full(21, 1.0), BitVector(np.full(21, 1.0)))


class TestGapBounds:
    def test_arithmetic_example(self):
        # (m, budget per sensor, b_bar, sum r(1 - r), min(R, m/4)); both bounds are L/2 times these
        cases = [
            # remainders 0.7, 0.2, 0.1; one coordinate rounds up
            (3, 1.0, [0.7, 1.2, 1.1], 0.46, 0.75),
            # B = 26.6 is not integral: two coordinates round up, not round(2.6) = 3
            (12, 26.6 / 12, [2.65] * 4 + [2.0] * 8, 4 * 0.65 * 0.35, 2.0),
        ]
        for m, per_sensor, b_bar, spread, round_ups in cases:
            inst = random_instance(0, d=3, m=m, budget_per_sensor=per_sensor)
            half_lip = 0.5 * lipschitz_constant(inst)
            report = round_with_guarantees(inst, np.array(b_bar))
            assert report.gap_bound == pytest.approx(half_lip * spread, rel=1e-12)
            assert report.simplified_gap_bound == pytest.approx(half_lip * round_ups, rel=1e-12)
            assert report.simplified_gap_bound >= report.gap_bound

    def test_integral_input_gives_zero(self):
        inst = random_instance(1, d=3, m=3, budget_per_sensor=2.0)
        report = round_with_guarantees(inst, np.array([2.0, 2.0, 2.0]))
        assert report.gap_bound == 0.0
        assert report.simplified_gap_bound == 0.0

    def test_gap_bound_holds_at_kkt_points(self):
        for seed in range(3):
            inst = random_instance(seed + 30, d=6, m=6)
            trace, _ = solve_barrier(inst)
            report = round_with_guarantees(inst, trace.final_bits)
            assert report.gap_actual <= report.gap_bound + 1e-9
            assert report.simplified_gap_bound >= report.gap_bound
            assert report.rounded_bits.total == inst.budget

    def test_full_report_fields(self):
        inst = random_instance(40, d=5, m=5)
        trace, _ = solve_barrier(inst)
        report = round_with_guarantees(inst, trace.final_bits)
        assert report.gap_bound is not None
        assert report.gap_actual is not None
        assert report.distance_squared <= report.distance_bound + 1e-12
