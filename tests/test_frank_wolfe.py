import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bitalloc import frank_wolfe as fw_mod
from bitalloc.frank_wolfe import FwConfig, StepRule, fw_gap, lmo, separable_warm_start, solve_fw
from bitalloc.instances import InstanceKind, InstanceSpec, generate
from bitalloc.model import LN4, MAX_BITS, BitVector, DimensionMismatchError, ProblemInstance
from bitalloc.trace import Termination, write_trace

from conftest import random_instance


def one_by_one(budget=2.0):
    return ProblemInstance.with_identity_prior([[1.0]], [1.0], budget)


class TestLmo:
    def test_unique_argmin(self):
        vertex = lmo([-3.0, -1.0, -2.0], 4.0)
        np.testing.assert_array_equal(vertex.bits, [4.0, 0.0, 0.0])

    def test_all_nonnegative_gradient(self):
        vertex = lmo([0.5, 0.2], 4.0)
        np.testing.assert_array_equal(vertex.bits, [0.0, 0.0])

    def test_tie_breaks_to_lowest_index(self):
        vertex = lmo([-2.0, -2.0], 1.0)
        np.testing.assert_array_equal(vertex.bits, [1.0, 0.0])

    def test_empty_gradient(self):
        with pytest.raises(DimensionMismatchError):
            lmo([], 4.0)

    def test_non_finite_gradient(self):
        with pytest.raises(DimensionMismatchError):
            lmo([np.nan, 1.0], 4.0)

    @settings(max_examples=200, deadline=None)
    @given(
        gradient=st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False), min_size=1, max_size=50
        ),
        budget=st.floats(min_value=0.0, max_value=64.0),
    )
    def test_attains_vertex_minimum(self, gradient, budget):
        g = np.asarray(gradient)
        chosen = lmo(g, budget)
        values = [0.0] + [budget * gi for gi in g]
        assert float(chosen.bits @ g) <= min(values) + 1e-12


class TestFwGap:
    def test_at_origin(self):
        assert fw_gap(np.zeros(2), [-3.0, -1.0], 4.0) == pytest.approx(12.0)

    def test_stationary_vertex(self):
        g = np.array([-2.0, -1.0])
        bits = np.array([4.0, 0.0])  # budget vertex at the argmin
        assert fw_gap(bits, g, 4.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_inner_product_with_lmo(self, rng):
        for _ in range(25):
            m = int(rng.integers(1, 30))
            g = rng.normal(scale=5.0, size=m)
            budget = float(rng.uniform(0.0, 20.0))
            bits = rng.uniform(0.0, 1.0, size=m)
            bits *= budget / max(bits.sum(), 1e-12) * rng.uniform(0.0, 1.0)
            explicit = fw_gap(bits, g, budget)
            via_lmo = float((bits - lmo(g, budget).bits) @ g)
            assert explicit == pytest.approx(via_lmo, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fw_gap(np.zeros(3), np.zeros(2), 1.0)


class TestSolve:
    def test_scalar_instance_saturates(self):
        trace = solve_fw(one_by_one(), FwConfig(max_iterations=20000))
        assert trace.termination is Termination.GAP_CONVERGED
        assert trace.final_bits.bits[0] == pytest.approx(2.0, abs=1e-3)
        assert trace.final_objective == pytest.approx(1.0 / 17.0, rel=1e-3)

    def test_all_probed_points_feasible(self, monkeypatch):
        inst = random_instance(2, d=6, m=9)
        seen = []
        original = fw_mod.evaluate
        monkeypatch.setattr(
            fw_mod, "evaluate", lambda instance, bits: seen.append(np.array(bits)) or original(instance, bits)
        )
        solve_fw(inst, FwConfig(max_iterations=60))
        assert seen
        for bits in seen:
            assert bits.min() >= -1e-12
            assert bits.sum() <= inst.budget + 1e-9

    def test_certificate_holds(self):
        for seed in (0, 1, 2):
            inst = random_instance(seed)
            for rule in StepRule:
                trace = solve_fw(inst, FwConfig(max_iterations=80, step_rule=rule))
                assert trace.certificate.holds
                assert trace.certificate.min_gap == min(rec.gap for rec in trace.iterates)

    def test_gap_nonnegative_on_all_iterates(self):
        trace = solve_fw(random_instance(4), FwConfig(max_iterations=100))
        assert all(rec.gap >= -1e-12 for rec in trace.iterates)

    def test_adaptive_per_step_decrease(self):
        inst = random_instance(5, d=8, m=12)
        trace = solve_fw(inst, FwConfig(max_iterations=120, step_rule=StepRule.PAIRWISE))
        recs = trace.iterates
        for before, after in zip(recs, recs[1:]):
            assert after.objective <= before.objective - 0.5 * before.step_size * before.gap + 1e-9

    def test_slack_contracts_with_step_products(self):
        inst = random_instance(6, d=5, m=8)
        trace = solve_fw(inst, FwConfig(max_iterations=150))
        contraction = np.prod([1.0 - rec.step_size for rec in trace.iterates])
        slack = inst.budget - trace.final_bits.total
        assert slack <= inst.budget * contraction + 1e-9

    def test_short_step_uses_global_constant(self):
        inst = random_instance(7, d=4, m=5)
        trace = solve_fw(inst, FwConfig(max_iterations=40, step_rule=StepRule.SHORT_STEP))
        assert trace.iterations == 40
        objectives = [rec.objective for rec in trace.iterates]
        assert objectives == sorted(objectives, reverse=True)  # monotone under the true L

    def test_max_iterations_termination(self):
        trace = solve_fw(random_instance(8), FwConfig(max_iterations=3))
        assert trace.termination is Termination.MAX_ITERATIONS
        assert len(trace.iterates) == 4  # iterates 0..3

    def test_time_limit_termination(self):
        trace = solve_fw(random_instance(9, d=10, m=20), FwConfig(max_iterations=100000, gap_tolerance=1e-300, time_limit=0.05))
        assert trace.termination is Termination.TIME_LIMIT

    def test_warm_start(self):
        inst = random_instance(10, d=4, m=6)
        start = np.full(inst.m, inst.budget / inst.m * 0.9)
        trace = solve_fw(inst, FwConfig(max_iterations=30), start=start)
        assert trace.iterates[0].objective == pytest.approx(
            fw_mod.evaluate(inst, start).objective, rel=1e-12
        )

    def test_infeasible_start_rejected(self):
        inst = random_instance(11, d=3, m=4)
        with pytest.raises(DimensionMismatchError):
            solve_fw(inst, start=np.full(inst.m, inst.budget))

    def test_zero_budget(self):
        inst = ProblemInstance.with_identity_prior([[1.0]], [1.0], 0.0)
        trace = solve_fw(inst)
        assert trace.termination is Termination.GAP_CONVERGED
        assert trace.final_bits.total == 0.0


def _record_steps(monkeypatch):
    """Wrap the pairwise step; returns the list of (bits, state) it accepts."""
    steps = []
    original = fw_mod._pairwise_step

    def recorded(*args):
        gamma, bits, state = original(*args)
        steps.append((bits.copy(), state))
        return gamma, bits, state

    monkeypatch.setattr(fw_mod, "_pairwise_step", recorded)
    return steps


class TestPairwise:
    def test_updated_state_matches_fresh_evaluation(self, monkeypatch):
        # the rank-two updates alone carry the state through 300 or more steps
        monkeypatch.setattr(fw_mod, "_REFRESH_STEPS", 10**9)
        steps = _record_steps(monkeypatch)
        inst = generate(InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=56, seed=505))
        solve_fw(inst, FwConfig(max_iterations=400, gap_tolerance=1e-300), start=separable_warm_start(inst))
        bits, state = steps[-1]
        assert state.updates >= 300
        fresh = fw_mod.evaluate(inst, bits)
        assert state.objective == pytest.approx(fresh.objective, rel=1e-10)
        assert np.max(np.abs(state.gradient - fresh.gradient)) <= 1e-10 * np.max(np.abs(fresh.gradient))

    @pytest.mark.parametrize(
        "inst, warm",
        [
            (random_instance(23), False),  # all 58 bits on one sensor of a d=2 instance: a failed factorization
            (random_instance(3, d=8, m=12), False),
            (generate(InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=13, seed=7)), False),
            (generate(InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=56, seed=504)), True),
        ],
    )
    def test_every_accepted_iterate_feasible(self, monkeypatch, inst, warm):
        steps = _record_steps(monkeypatch)
        start = separable_warm_start(inst) if warm else None
        solve_fw(inst, FwConfig(max_iterations=300), start=start)
        assert steps
        for bits, _ in steps:
            assert bits.min() >= -1e-12
            assert bits.sum() <= inst.budget * (1.0 + 1e-12)

    @pytest.mark.parametrize("m", [1, 3])
    def test_budget_beyond_max_bits(self, monkeypatch, m):
        rng = np.random.default_rng(m)
        inst = ProblemInstance.with_identity_prior(rng.standard_normal((m, 2)), np.ones(m), 600.0)
        steps = _record_steps(monkeypatch)
        trace = solve_fw(inst, FwConfig(max_iterations=200, gap_tolerance=1e-300))
        assert trace.certificate.holds
        assert max(bits.max() for bits, _ in steps) <= MAX_BITS
        assert trace.final_objective == pytest.approx(fw_mod.evaluate(inst, trace.final_bits).objective, rel=1e-12)

    def test_final_record_from_fresh_evaluation(self):
        inst = generate(InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=29, seed=3))
        trace = solve_fw(inst, FwConfig(max_iterations=120), start=separable_warm_start(inst))
        fresh = fw_mod.evaluate(inst, trace.final_bits)
        assert trace.final_objective == fresh.objective
        assert trace.iterates[-1].gap == fw_gap(trace.final_bits, fresh.gradient, inst.budget)


def reference_trial(pair, gamma):
    """A pair trial as numpy calls on k-element arrays: the formulas the scalar trial must reproduce.

    Also returns the slope's scale, the same sum with every term taken in
    absolute value, against which its rounding is measured.
    """
    bits, dirs, rho = np.array(pair.bits), np.array(pair.dirs), np.array(pair.rho)
    m_pair, n_pair = np.array(pair.m), np.array(pair.n)
    moved = np.minimum(np.maximum(bits + gamma * dirs, 0.0), MAX_BITS)
    if gamma == pair.gamma_max and pair.pin is not None:
        moved[pair.pin[0]] = pair.pin[1]
    drho = rho * np.expm1(LN4 * (moved - bits))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = np.eye(bits.size) + m_pair * drho
        if bits.size == 1:
            inv = 1.0 / a
        else:
            inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
        k = drho[:, None] * inv
        r = inv.T
        slope = float(-LN4 * (rho + drho) * (r * (n_pair @ r)).sum(axis=0) @ dirs)
        scale = float(LN4 * np.abs(rho + drho) * (np.abs(r) * (np.abs(n_pair) @ np.abs(r))).sum(axis=0) @ np.abs(dirs))
        return moved, drho, k, float((k * n_pair).sum()), slope, scale


def make_pair(bits, dirs, rho, sensing, cov_h, gamma_max=1.0, pin=None):
    """A _Pair over coordinates 0..k-1 of a stand-in state whose rows are the pair's own."""
    state = SimpleNamespace(rho=np.array(rho, dtype=float), sensing=np.array(sensing), cov_h=np.array(cov_h))
    return fw_mod._Pair(state, np.array(bits, dtype=float), list(range(len(bits))), list(dirs), gamma_max, pin)


def fails_every_test(decrease, slope):
    """Neither the sufficient-decrease test nor the secant's stopping test can accept these values."""
    return not decrease >= 0.0 and not abs(slope) < math.inf


@st.composite
def pair_trials(draw):
    k = draw(st.sampled_from([1, 2]))
    d = draw(st.integers(1, 5))
    entries = st.floats(-10.0, 10.0)
    budget = draw(st.floats(0.1, 1000.0))
    bits = draw(st.lists(st.floats(0.0, 20.0), min_size=k, max_size=k))
    # two coordinates: the oracle's gains bits, the away vertex's loses them; one: either
    dirs = [budget, -budget] if k == 2 else [draw(st.sampled_from([budget, -budget]))]
    rho = draw(st.lists(st.floats(1e-6, 1e3), min_size=k, max_size=k))
    sensing = draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=k, max_size=k))
    cov_h = draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=k, max_size=k))
    gamma_max = draw(st.floats(1e-6, 20.0)) / budget
    pinned = draw(st.booleans())
    pin = (draw(st.integers(0, k - 1)), draw(st.sampled_from([0.0, MAX_BITS]))) if pinned else None
    gamma = gamma_max if pinned else draw(st.floats(0.0, 1.0)) * gamma_max
    return make_pair(bits, dirs, rho, sensing, cov_h, gamma_max, pin), gamma


class TestPairTrial:
    @given(pair_trials())
    @settings(max_examples=400, deadline=None)
    def test_matches_numpy_formulas(self, case):
        pair, gamma = case
        moved, drho, k, decrease, slope = pair.trial(gamma)
        ref_moved, ref_drho, ref_k, ref_decrease, ref_slope, scale = reference_trial(pair, gamma)
        assume(np.all(np.isfinite(ref_k)) and math.isfinite(ref_slope))
        assert np.array(moved).tobytes() == ref_moved.tobytes()
        assert np.array(drho).tobytes() == ref_drho.tobytes()
        assert np.array(k).tobytes() == ref_k.tobytes()
        assert decrease == ref_decrease
        # the scalar slope rounds each product where the BLAS dot and 2x2 product fuse multiply-adds
        assert abs(slope - ref_slope) <= 4 * np.spacing(scale)

    @pytest.mark.parametrize("k", [1, 2])
    def test_cancelling_pivot_fails_every_test(self, k):
        # drho_0 = 1 * expm1(ln 4) = 3 and M_00 = -1/3: the pivot 1 + M_00 * drho_0 is exactly zero
        pair = make_pair([1.0, 1.0][:k], [1.0, -1.0][:k], [1.0, 1.0][:k], np.eye(k), np.eye(k), gamma_max=2.0)
        pair.m = [[-1.0 / 3.0, 0.0], [0.0, 0.0]] if k == 2 else [[-1.0 / 3.0]]
        _, drho, _, decrease, slope = pair.trial(1.0)
        assert drho[0] == 3.0 and 1.0 + pair.m[0][0] * drho[0] == 0.0
        assert fails_every_test(decrease, slope)
        assert not math.isfinite(reference_trial(pair, 1.0)[3])

    @pytest.mark.parametrize("k", [1, 2])
    def test_expm1_overflow_fails_every_test(self, k):
        # 556 bits gained: 4**556 overflows, so drho_0 is infinite
        pair = make_pair([-300.0, 5.0][:k], [1.0, -1.0][:k], [1.0, 1.0][:k], np.ones((k, 2)), np.ones((k, 2)))
        with np.errstate(over="ignore"):
            _, drho, _, decrease, slope = pair.trial(600.0)
            reference = reference_trial(pair, 600.0)
        assert drho[0] == math.inf
        assert fails_every_test(decrease, slope)
        assert not math.isfinite(reference[3])


class TestSeparableWarmStart:
    def test_feasible_and_budget_saturating(self):
        inst = random_instance(20, d=8, m=12)
        start = separable_warm_start(inst)
        assert start.bits.min() >= 0.0
        assert start.total == pytest.approx(inst.budget, abs=1e-9)

    def test_near_stationary_on_square_instances(self):
        # the refit fixed point equalizes gradient magnitudes on the support
        inst = random_instance(21, d=10, m=10)
        start = separable_warm_start(inst)
        gap = fw_gap(start, fw_mod.evaluate(inst, start).gradient, inst.budget)
        assert gap <= 1e-4

    def test_zero_budget(self):
        inst = ProblemInstance.with_identity_prior([[1.0]], [1.0], 0.0)
        assert separable_warm_start(inst).total == 0.0

    def test_levels_capped_at_max_bits(self):
        # uncapped water-filling puts one sensor at 268 bits on this instance
        inst = generate(InstanceSpec(InstanceKind.RANDOM_GAUSSIAN, d=8, m=20, seed=1, budget_per_sensor=150.0))
        start = separable_warm_start(inst)
        assert start.bits.max() <= MAX_BITS
        assert start.total == pytest.approx(inst.budget, rel=1e-12)

    def test_cut_sensors_are_exactly_zero(self):
        # damping alone would leave each cut sensor at 0.5**60 of its start, about 1e-19 bits here
        inst = generate(InstanceSpec(InstanceKind.RANDOM_GAUSSIAN, d=50, m=1000, seed=2, budget_per_sensor=0.1))
        bits = separable_warm_start(inst).bits
        assert np.count_nonzero(bits == 0.0) > 900
        assert not np.any((bits > 0.0) & (bits < 1e-6))
        assert bits.sum() <= inst.budget * (1.0 + 1e-12)

    def test_feeds_solver(self):
        inst = random_instance(22, d=6, m=6)
        trace = solve_fw(inst, FwConfig(max_iterations=5000), start=separable_warm_start(inst))
        assert trace.termination is Termination.GAP_CONVERGED


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"gap_tolerance": 0.0},
            {"time_limit": -1.0},
            {"gap_tolerance": float("nan")},
            {"time_limit": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FwConfig(**kwargs)

    # None is not in the list: it is the default, which leaves the cap to solve_fw
    @pytest.mark.parametrize("value", [2.5, float("nan"), float("inf"), "3", 0, np.float64(3.0), True, False])
    def test_max_iterations_is_an_integer_of_at_least_one(self, value):
        # 2.5 used to be accepted, and t == cap never held, so the solve ran to its time limit
        with pytest.raises(ValueError, match="max_iterations"):
            FwConfig(max_iterations=value)

    def test_numpy_integer_cap_passes(self):
        config = FwConfig(max_iterations=np.int64(3), gap_tolerance=1e-300)
        assert config.max_iterations == 3 and type(config.max_iterations) is int
        assert solve_fw(random_instance(8), config).iterations == 3


def test_trace_serialization_round_trip(tmp_path):
    trace = solve_fw(random_instance(13, d=3, m=4), FwConfig(max_iterations=10))
    path = tmp_path / "trace.csv"
    write_trace(path, trace)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,objective,gap,step_size,vertex,barrier_mu,elapsed_seconds"
    assert len(lines) == len(trace.iterates) + 1
    first = lines[1].split(",")
    assert float(first[1]) == trace.iterates[0].objective
