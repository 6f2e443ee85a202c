import hashlib

import numpy as np
import pytest

from bitalloc import barrier as barrier_mod, model as model_mod
from bitalloc.barrier import BarrierConfig, BoundaryError, LineSearchError, solve_barrier
from bitalloc.frank_wolfe import FwConfig, solve_fw
from bitalloc.instances import InstanceKind, InstanceSpec, KappaRange, generate
from bitalloc.model import BitAllocationError, FactorizationError, ProblemInstance, evaluate
from bitalloc.rounding import round_with_guarantees
from bitalloc.trace import Termination

from conftest import fd_gradient, random_instance


def one_by_one(budget=2.0):
    return ProblemInstance.with_identity_prior([[1.0]], [1.0], budget)


def _solve_and_round_grid(seed):
    """The grid-barrier benchmark's c=2 solve of a d=50 grid: its trace and its rounded objective."""
    instance = generate(InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=50, seed=seed, budget_per_sensor=2.0))
    trace, _ = solve_barrier(instance, BarrierConfig(mu_final=1e-11))
    return trace, trace.final_objective + round_with_guarantees(instance, trace.final_bits).gap_actual


def barrier_merit(instance, bits, mu):
    """Value and gradient of F(b) - mu*sum(log b) - mu*log(B - sum b), through the solver's own merit."""
    b = np.asarray(bits, dtype=float)
    return barrier_mod._merit(evaluate(instance, b), mu, b, instance.budget - b.sum())


class TestBarrierObjective:
    def test_hand_value(self):
        value, gradient = barrier_merit(one_by_one(), [1.0], mu=1.0)
        assert value == pytest.approx(0.2, rel=1e-12)  # F = 1/5, both logs vanish
        assert gradient.shape == (1,)

    def test_vanishing_barrier(self):
        inst = random_instance(0, d=4, m=6)
        bits = np.full(inst.m, inst.budget / inst.m * 0.8)
        value, _ = barrier_merit(inst, bits, mu=1e-14)
        assert value == pytest.approx(evaluate(inst, bits).objective, rel=1e-9)

    def test_gradient_matches_finite_differences(self):
        inst = random_instance(1, d=5, m=7)
        rng = np.random.default_rng(5)
        bits = inst.budget * 0.7 * rng.dirichlet(np.full(inst.m, 3.0))
        for mu in (1.0, 1e-3):
            _, gradient = barrier_merit(inst, bits, mu)
            numeric = fd_gradient(lambda x: barrier_merit(inst, x, mu)[0], bits, step=1e-6)
            np.testing.assert_allclose(gradient, numeric, rtol=1e-6)

    def test_boundary_rejected(self):
        inst = one_by_one()
        with pytest.raises(BoundaryError):
            solve_barrier(inst, start=[0.0])
        with pytest.raises(BoundaryError):
            solve_barrier(inst, start=[2.0])


class TestSolve:
    def test_scalar_instance(self):
        trace, kkt = solve_barrier(one_by_one())
        assert trace.final_bits.bits[0] == pytest.approx(2.0, rel=1e-6)
        assert trace.final_objective == pytest.approx(1.0 / 17.0, rel=1e-4)
        assert trace.termination is Termination.GAP_CONVERGED

    def test_budget_saturation(self):
        for seed in range(4):
            inst = random_instance(seed, d=6, m=10)
            trace, _ = solve_barrier(inst)
            slack = inst.budget - trace.final_bits.total
            assert 0.0 < slack <= 1e-6 * inst.budget

    def test_kkt_certificate_quality(self):
        for seed in range(4):
            inst = random_instance(seed + 20, d=6, m=10)
            trace, kkt = solve_barrier(inst)
            grad = evaluate(inst, trace.final_bits).gradient
            assert kkt.budget_multiplier >= 0.0
            assert np.all(kkt.bound_multipliers >= 0.0)
            assert kkt.stationarity_residual <= 1e-5 * (1.0 + np.abs(grad).max())
            assert kkt.complementarity_residual <= 1e-6

    def test_outer_loop_monotone(self):
        inst = random_instance(3, d=5, m=8)
        trace, _ = solve_barrier(inst)
        stage_finals = {}
        for rec in trace.iterates:
            stage_finals[rec.barrier_mu] = rec.objective  # last record per mu wins
        values = [stage_finals[mu] for mu in sorted(stage_finals, reverse=True)]
        for before, after in zip(values, values[1:]):
            assert after <= before + 1e-10

    def test_iterates_strictly_interior(self, monkeypatch):
        inst = random_instance(4, d=4, m=6)
        seen = []
        original_eval = barrier_mod.evaluate
        original_obj = barrier_mod.objective_value
        monkeypatch.setattr(
            barrier_mod, "evaluate", lambda i, b: seen.append(np.array(b)) or original_eval(i, b)
        )
        monkeypatch.setattr(
            barrier_mod, "objective_value", lambda i, b: seen.append(np.array(b)) or original_obj(i, b)
        )
        solve_barrier(inst)
        assert seen
        for bits in seen:
            assert bits.min() > 0.0
            assert bits.sum() < inst.budget

    def test_factorization_budget(self, monkeypatch):
        # each accepted step should cost a few factorizations, not a long run
        # of rejected line-search trials (about 19 when every backtrack starts at 1)
        calls = []
        original = model_mod.cholesky_lower
        monkeypatch.setattr(model_mod, "cholesky_lower", lambda a: calls.append(1) or original(a))
        ratios = []
        for seed in range(700, 710):
            calls.clear()
            trace, _ = solve_barrier(generate(InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=13, seed=seed)))
            ratios.append(len(calls) / trace.iterations)
        assert np.median(ratios) <= 4.0

    def test_newton_matrix_factored_at_most_twice(self, monkeypatch):
        # the merit Hessian, and only when that is indefinite, the same matrix
        # without its one indefinite term, diag(ln(4) * gradient)
        per_direction, calls = [], []
        original_factor, original_direction = model_mod.cholesky_lower, barrier_mod._newton_direction

        def factor(a):
            calls.append(a.shape)
            return original_factor(a)

        def direction(instance, *args):
            calls.clear()
            p = original_direction(instance, *args)
            per_direction.append(sum(shape == (instance.m, instance.m) for shape in calls))
            return p

        monkeypatch.setattr(model_mod, "cholesky_lower", factor)
        monkeypatch.setattr(barrier_mod, "_newton_direction", direction)
        specs = [InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=13, seed=seed) for seed in range(705, 710)]
        specs += [
            InstanceSpec(InstanceKind.RANDOM_GAUSSIAN, d=8, m=20, kappa=KappaRange(1e-6, 1e6), seed=seed)
            for seed in range(5)
        ]
        for spec in specs:
            solve_barrier(generate(spec))
        assert per_direction and min(per_direction) >= 1
        assert max(per_direction) <= 2

    def test_one_evaluation_per_point(self, monkeypatch):
        # an accepted trial's Evaluation becomes the iterate's, a stage starts from
        # the one already held, and f(b0) is the start's objective: no allocation
        # is factored twice
        evaluated, values = [], []
        original_evaluate, original_value = barrier_mod.evaluate, barrier_mod.objective_value

        def evaluate(instance, bits):
            evaluated.append(np.asarray(bits).tobytes())
            return original_evaluate(instance, bits)

        def value(instance, bits):
            values.append(1)
            return original_value(instance, bits)

        monkeypatch.setattr(barrier_mod, "evaluate", evaluate)
        monkeypatch.setattr(barrier_mod, "objective_value", value)
        for spec in (
            InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=13, seed=700),
            InstanceSpec(InstanceKind.RANDOM_GAUSSIAN, d=8, m=20, kappa=KappaRange(1e-6, 1e6), seed=0),
        ):
            evaluated.clear()
            values.clear()
            trace, _ = solve_barrier(generate(spec))
            assert trace.iterations > 0
            assert len(set(evaluated)) == len(evaluated)
            assert values == []

    def test_predictor_shortens_stages(self):
        # a stage below the starting mu starts with a step along the central path's
        # tangent; restarting Newton from the old centre took a median of 10 steps here
        per_stage = []
        for seed in range(700, 710):
            trace, _ = solve_barrier(generate(InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=13, seed=seed)))
            mus = [rec.barrier_mu for rec in trace.iterates]
            per_stage += [mus.count(mu) for mu in set(mus) if mu < barrier_mod._MU_INITIAL]
        assert np.median(per_stage) <= 5

    def test_predictor_skips_a_zero_tangent(self):
        # 1/b - 1/s vanishes where every b_i equals the slack
        inst = one_by_one()
        predicted = barrier_mod._predict(inst, 1.0, 0.1, np.array([1.0]), 1.0, evaluate(inst, [1.0]), 1.0)
        assert predicted is None

    @pytest.mark.parametrize("mu_final", [1e-9, 1e-11])
    def test_slow_fallback_grid_is_short(self, mu_final):
        # the Hessian-modification fallback converges linearly in some stages of
        # this grid, which took 237 and 257 steps without the predictor
        spec = InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=50, seed=2104691538, budget_per_sensor=2.0)
        trace, _ = solve_barrier(generate(spec), BarrierConfig(mu_final=mu_final))
        assert trace.termination is Termination.GAP_CONVERGED
        assert trace.iterations <= 120

    @pytest.mark.parametrize(
        "seed, answer_from_mu_one",
        [(12842854, 4.91590), (1138324154, 3.77442), (1357569018, 3.94408), (1472057779, 5.07889)],
    )
    def test_early_stages_no_longer_steer_into_higher_basins(self, seed, answer_from_mu_one):
        # a schedule from mu=1 with the predictor rounded these grids to the answers
        # given, in 71-85 records; without the predictor they rounded lower
        trace, rounded = _solve_and_round_grid(seed)
        assert trace.termination is Termination.GAP_CONVERGED
        assert len(trace.iterates) <= 45
        assert rounded <= 0.96 * answer_from_mu_one

    def test_lower_basin_found_by_the_predictor_is_kept(self):
        trace, rounded = _solve_and_round_grid(1456755749)
        assert trace.termination is Termination.GAP_CONVERGED
        assert len(trace.iterates) <= 45
        assert rounded == pytest.approx(4.56506, abs=5e-6)

    def test_agreement_with_conditional_gradient(self):
        # square case: the optimum is interior to the budget face, where the
        # conditional-gradient method converges without boundary drift
        inst = random_instance(6, d=6, m=6)
        trace_b, _ = solve_barrier(inst)
        warm = np.full(inst.m, inst.budget / inst.m * (1.0 - 1e-9))
        trace_f = solve_fw(inst, FwConfig(max_iterations=20000), start=warm)
        rel = abs(trace_f.final_objective - trace_b.final_objective) / trace_b.final_objective
        assert rel <= 1e-3

    def test_default_start_matches_near_uniform(self):
        inst = random_instance(7, d=4, m=5)
        trace, _ = solve_barrier(inst, BarrierConfig(mu_final=0.5 * barrier_mod._MU_INITIAL))
        first = trace.iterates[0]
        assert first.barrier_mu == pytest.approx(barrier_mod._MU_INITIAL)

    def test_explicit_start_validated(self):
        inst = random_instance(8, d=3, m=4)
        with pytest.raises(BoundaryError):
            solve_barrier(inst, start=np.zeros(inst.m))
        with pytest.raises(BoundaryError):
            solve_barrier(inst, start=np.full(inst.m, inst.budget / inst.m))  # exactly on the face

    def test_zero_budget_rejected(self):
        inst = ProblemInstance.with_identity_prior([[1.0]], [1.0], 0.0)
        with pytest.raises(BoundaryError):
            solve_barrier(inst)

    def test_time_limit(self):
        inst = random_instance(9, d=12, m=24)
        trace, _ = solve_barrier(inst, BarrierConfig(time_limit=1e-6))
        assert trace.termination is Termination.TIME_LIMIT

    def test_converged_label_meets_tolerance(self):
        for seed in range(700, 710):
            trace, _ = solve_barrier(generate(InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=13, seed=seed)))
            if trace.termination is Termination.GAP_CONVERGED:
                assert trace.iterates[-1].gap <= 1e-8

    def test_inner_iteration_cap_is_reported(self, monkeypatch):
        monkeypatch.setattr(barrier_mod, "_MAX_INNER_ITERATIONS", 2)
        inst = generate(InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=13, seed=700))
        trace, _ = solve_barrier(inst)
        assert trace.termination is Termination.MAX_ITERATIONS

    def test_line_search_failure_raises(self, monkeypatch):
        # no trial past the start point factors, so the first step backtracks out
        calls = []
        original = barrier_mod.evaluate

        def failing(instance, bits):
            calls.append(1)
            if len(calls) > 1:
                raise FactorizationError("injected")
            return original(instance, bits)

        monkeypatch.setattr(barrier_mod, "evaluate", failing)
        inst = generate(InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=6, seed=1))
        with pytest.raises(LineSearchError) as exc_info:
            solve_barrier(inst)
        assert isinstance(exc_info.value, BitAllocationError)
        assert exc_info.value.mu == barrier_mod._MU_INITIAL
        assert exc_info.value.iteration == 0
        assert np.isfinite(exc_info.value.gradient_norm)
        assert len(calls) == 1 + barrier_mod._MAX_BACKTRACKS

    def test_trace_has_mu_and_no_certificate(self):
        trace, _ = solve_barrier(one_by_one())
        assert trace.certificate is None
        assert all(rec.barrier_mu is not None for rec in trace.iterates)
        assert all(rec.vertex is None for rec in trace.iterates)


class TestScaleFree:
    """The schedule and tolerances are relative to f(b0), so the objective's scale does not matter."""

    def test_kappa_spread_saturates_and_rounds(self):
        # objectives near 1e-8, far below a weight of 1: only a schedule relative
        # to f(b0) drives the budget slack below the rounding gate
        for seed in range(10):
            spec = InstanceSpec(InstanceKind.RANDOM_GAUSSIAN, d=8, m=20, kappa=KappaRange(1e-6, 1e6), seed=seed)
            inst = generate(spec)
            trace, _ = solve_barrier(inst)
            assert trace.termination is Termination.GAP_CONVERGED
            assert 0.0 < inst.budget - trace.final_bits.total <= 1e-6 * inst.budget
            round_with_guarantees(inst, trace.final_bits)

    @pytest.mark.parametrize("alpha", [1e-8, 1e8])
    def test_rescaled_twin_gets_the_same_answer(self, alpha):
        # prior times alpha and kappa over alpha scale C, and so f, by exactly alpha
        for seed in range(500, 503):
            inst = generate(InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=13, seed=seed))
            twin = ProblemInstance(
                inst.sensing_matrix, alpha * inst.prior_covariance, inst.kappa / alpha, inst.budget
            )
            trace, _ = solve_barrier(inst)
            twin_trace, _ = solve_barrier(twin)
            assert twin_trace.termination is Termination.GAP_CONVERGED
            relaxed, twin_relaxed = trace.final_bits.bits, twin_trace.final_bits.bits
            assert np.max(np.abs(twin_relaxed - relaxed)) <= 1e-6 * np.max(np.abs(relaxed))
            np.testing.assert_array_equal(
                round_with_guarantees(twin, twin_trace.final_bits).rounded_bits.bits,
                round_with_guarantees(inst, trace.final_bits).rounded_bits.bits,
            )

    def test_no_line_search_trial_raises(self, monkeypatch):
        # on these grids an uncapped Newton step on an indefinite merit Hessian runs
        # hundreds of bits out, to trials whose information matrix does not factor
        raised = []
        original = barrier_mod.evaluate

        def recording(instance, bits):
            try:
                return original(instance, bits)
            except Exception as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(barrier_mod, "evaluate", recording)
        for seed in (1876105222, 1070547931, 303800737):
            spec = InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=50, seed=seed, budget_per_sensor=2.0)
            solve_barrier(generate(spec), BarrierConfig(mu_final=1e-11))
        assert raised == []

    @pytest.mark.parametrize("seed", [864060812, 1909068573, 324519002, 867255589])
    def test_final_stage_converges_below_merit_noise(self, seed):
        # at 7 bits per sensor these grids put about 2e-10 relative rounding noise
        # into F, above the predicted decrease of the final stage's steps; Armijo on
        # merit values alone backtracked to no step and ran 500 inner iterations
        spec = InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=50, seed=seed, budget_per_sensor=7.0)
        trace, _ = solve_barrier(generate(spec), BarrierConfig(mu_final=1e-11))
        assert trace.termination is Termination.GAP_CONVERGED
        assert trace.iterations < 200


class TestBitIdentity:
    """The in-place per-step kernels reproduce the barrier's arithmetic bit for bit.

    The digests were recorded with a fresh array per operation of the Hessian
    and its shifts, ``np.diag_indices_from`` updates of their diagonals and
    ``dtrtri`` on a copy of the factor (``reference_hessian`` and
    ``reference_evaluate`` in test_model.py keep those formulas).
    """

    # d=50 grids from grid-barrier's seed-1 pool: (seed, c, mu_final or None for
    # the default) -> (sha256 of the final bits, sha256 of every record's
    # objective, gap, step and mu reprs, number of records)
    PINS = {
        (915810598, 2.0, 1e-11): ("79b7b1a17454b77facdbfee9e2f6d8c31c46db9e3bdae14d366111ca016db682",
                                  "a947d8c5b9f27bb02c95d2daec306e077efd5d3f0df98b1782c3f756da57ab9b", 40),
        (915810598, 7.0, 1e-11): ("a956ac981f6c6a429f96823b62d5bc55d4897c2867dfabfd6013a1a7fbd87d89",
                                  "ffa5b1aa3cac49bb7c7e3021c44d3e81523ded84d057359cd72d2e0e66d5b1f8", 21),
        (1070547931, 2.0, 1e-11): ("76736e534c90076d69e6a3f34598b81894c3d3ffde6a00b090e7571152fcbd49",
                                   "450ea71980a1ae67c7b63db5a27df5ea1c3e95a71417e3180250ac878ae04bd4", 39),
        (1070547931, 7.0, 1e-11): ("370c6b91a53a0d67f1b0e327843086628dcd84c9badf0794c906eb701c3beffd",
                                   "363908615b0de9f5170c172d89ed2edaa370f06679835c9fd8891149ce8a0ce0", 21),
        (328512741, 2.0, 1e-11): ("3cba0039d6ef1acd7904f45e8e6797cac9180c84771b13114424aced16a1240d",
                                  "ef1e53113d157b44120313d03318e25f0e7021a860bde399015a08825779f9e2", 39),
        (328512741, 7.0, 1e-11): ("7277b7cc637fca65a17bf058acd355d9678e9839abe30a240666f186a30e8e42",
                                  "2cfd9e9c442609382d976b33d3a34f4ccc17310528068beed99d57085e0ad289", 23),
        (1719006490, 2.0, 1e-11): ("c25340cd2ac4e32b96030193d1847ce374ef686822e81afac04ef20f927c2570",
                                   "4dc5c969f673ee2312b3b589b5032c98ef0d412d77dfb2f855450c49693d7809", 38),
        (1719006490, 7.0, 1e-11): ("63df2a60203c52b0cd70bd38d0065a95361dbb92027260c006647443cacd70c9",
                                   "a2b765059b5ca2e41e4dca6f0fe46d9182bd9dac301f019a73b84acc690e2611", 22),
        (915810598, 2.0, None): ("cc07a0880f455f73b607372e0ad660b986563696e05a8774c8e18baeb63ff57d",
                                 "fb6ff8da9b46c7df83b908f4a533468c8f66f5fd75ee77c4630ff1a301bad0b0", 36),
    }

    @pytest.mark.parametrize("seed, c, mu_final", list(PINS))
    def test_d50_solve_is_pinned(self, seed, c, mu_final):
        spec = InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=50, seed=seed, budget_per_sensor=c)
        config = BarrierConfig() if mu_final is None else BarrierConfig(mu_final=mu_final)
        trace, _ = solve_barrier(generate(spec), config)
        rows = "\n".join(f"{r.objective!r},{r.gap!r},{r.step_size!r},{r.barrier_mu!r}" for r in trace.iterates)
        assert (
            hashlib.sha256(trace.final_bits.bits.tobytes()).hexdigest(),
            hashlib.sha256(rows.encode()).hexdigest(),
            len(trace.iterates),
        ) == self.PINS[seed, c, mu_final]

    def test_newton_direction_mutates_no_input(self, monkeypatch):
        # every direction of a d=50 solve, the Hessian-modification fallback included
        # (this grid takes it in several stages), leaves b, grad and the Evaluation as it found them
        original_factor, original_direction = model_mod.cholesky_lower, barrier_mod._newton_direction
        failed, checked = [], []

        def factor(a):
            try:
                return original_factor(a)
            except FactorizationError:
                failed.append(a.shape)
                raise

        def direction(instance, mu, b, slack, grad, ev):
            before = [np.copy(a) for a in (b, grad, ev.gradient, ev.precisions, ev.cov_h)]
            objective = ev.objective
            failures = len(failed)
            p = original_direction(instance, mu, b, slack, grad, ev)
            for kept, now in zip(before, (b, grad, ev.gradient, ev.precisions, ev.cov_h)):
                assert kept.tobytes() == now.tobytes()
            assert ev.objective == objective
            checked.append(len(failed) > failures)
            return p

        monkeypatch.setattr(model_mod, "cholesky_lower", factor)
        monkeypatch.setattr(barrier_mod, "_newton_direction", direction)
        spec = InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=50, seed=2104691538, budget_per_sensor=2.0)
        solve_barrier(generate(spec), BarrierConfig(mu_final=1e-9))
        assert any(checked) and not all(checked)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu_final": 2.0},
            {"mu_final": 0.0},
            {"mu_final": -1e-9},
            {"time_limit": -1.0},
            {"time_limit": 0.0},
            {"mu_final": float("nan")},
            {"time_limit": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            BarrierConfig(**kwargs)
