import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.linalg import cho_solve, solve_triangular

from bitalloc import model
from bitalloc.instances import InstanceKind, InstanceSpec, generate
from bitalloc.model import (
    BitRangeError,
    BitVector,
    DimensionMismatchError,
    FactorizationError,
    ProblemInstance,
    evaluate,
    hessian_exact,
    lipschitz_constant,
    objective_value,
    precision_from_bits,
)

from conftest import fd_gradient, fd_hessian_of_gradient, random_feasible_bits, random_instance

LN4 = math.log(4.0)


def one_by_one(kappa=1.0, budget=2.0):
    return ProblemInstance.with_identity_prior([[1.0]], [kappa], budget)


class TestBitVector:
    def test_integral_flag(self):
        assert BitVector(np.array([1.0, 0.0, 3.0])).is_integral
        assert not BitVector(np.array([1.5, 0.0])).is_integral

    def test_rejects_negative(self):
        with pytest.raises(BitRangeError):
            BitVector(np.array([-0.5, 1.0]))

    def test_tolerates_roundoff_negativity(self):
        vec = BitVector(np.array([-1e-13, 1.0]))
        assert len(vec) == 2

    def test_rejects_non_finite(self):
        with pytest.raises(BitRangeError):
            BitVector(np.array([np.inf]))

    def test_rejects_matrix(self):
        with pytest.raises(DimensionMismatchError):
            BitVector(np.zeros((2, 2)))

    def test_feasible_for(self):
        vec = BitVector(np.array([1.0, 1.0]))
        assert vec.feasible_for(2.0)
        assert not vec.feasible_for(1.5)


class TestInstanceValidation:
    def test_zero_row_rejected(self):
        with pytest.raises(DimensionMismatchError, match="row 1"):
            ProblemInstance.with_identity_prior([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0], 2.0)

    def test_kappa_must_be_positive(self):
        with pytest.raises(DimensionMismatchError):
            ProblemInstance.with_identity_prior([[1.0]], [0.0], 2.0)

    def test_kappa_length(self):
        with pytest.raises(DimensionMismatchError):
            ProblemInstance.with_identity_prior([[1.0]], [1.0, 1.0], 2.0)

    def test_negative_budget(self):
        with pytest.raises(DimensionMismatchError):
            ProblemInstance.with_identity_prior([[1.0]], [1.0], -1.0)

    def test_non_spd_prior(self):
        with pytest.raises(FactorizationError) as exc_info:
            ProblemInstance([[1.0, 0.0]], np.diag([1.0, -1.0]), [1.0], 2.0)
        assert exc_info.value.pivot == 2

    def test_asymmetric_prior(self):
        with pytest.raises(DimensionMismatchError):
            ProblemInstance([[1.0, 0.0]], np.array([[1.0, 0.5], [0.0, 1.0]]), [1.0], 2.0)

    def test_nonsquare_prior(self):
        with pytest.raises(DimensionMismatchError):
            ProblemInstance([[1.0, 0.0]], np.ones((2, 3)), [1.0], 2.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_prior(self, bad):
        # an infinite variance passes the Cholesky and would cache a NaN spectral norm
        with pytest.raises(DimensionMismatchError, match="non-finite"):
            ProblemInstance(np.eye(2), [[bad, 0.0], [0.0, 1.0]], [1.0, 1.0], 2.0)

    def test_eigensolve_failure_is_factorization_error(self, monkeypatch):
        def no_convergence(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        with pytest.raises(FactorizationError, match="eigensolve"):
            ProblemInstance(np.eye(2), [[2.0, 0.5], [0.5, 1.0]], [1.0, 1.0], 2.0)

    def test_explicit_identity_prior_matches_constructor(self):
        rng = np.random.default_rng(3)
        sensing, kappa = rng.standard_normal((7, 4)), rng.uniform(0.8, 1.2, size=7)
        explicit = ProblemInstance(sensing, np.eye(4), kappa, 14.0)
        unit = ProblemInstance.with_identity_prior(sensing, kappa, 14.0)
        for name in ("prior_factor", "prior_inverse", "prior_spectral_norm"):
            np.testing.assert_array_equal(getattr(explicit, name), getattr(unit, name))

    def test_cached_spectral_norm(self, rng):
        inst = random_instance(1, d=6, m=9, identity_prior=False)
        assert inst.prior_spectral_norm == pytest.approx(np.linalg.eigvalsh(inst.prior_covariance)[-1])


class TestPrecisionFromBits:
    def test_zero_bits(self):
        inst = ProblemInstance.with_identity_prior(np.eye(2), [1.0, 1.0], 4.0)
        np.testing.assert_array_equal(precision_from_bits(inst, [0.0, 0.0]), [1.0, 1.0])

    def test_two_bits(self):
        np.testing.assert_array_equal(precision_from_bits(one_by_one(), [2.0]), [16.0])

    def test_fractional_bits(self):
        inst = ProblemInstance.with_identity_prior(np.eye(2), [0.8, 1.2], 4.0)
        np.testing.assert_allclose(precision_from_bits(inst, [1.0, 0.5]), [3.2, 2.4], rtol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            precision_from_bits(one_by_one(), [0.0, 0.0])

    def test_overflow_guard(self):
        with pytest.raises(BitRangeError, match="overflow"):
            precision_from_bits(one_by_one(), [300.0])


class TestEvaluate:
    def test_scalar_case(self):
        ev = evaluate(one_by_one(), [0.0])
        assert ev.objective == pytest.approx(0.5, rel=1e-14)
        assert ev.gradient[0] == pytest.approx(-LN4 / 4.0, rel=1e-12)

    def test_diagonal_case(self):
        inst = ProblemInstance.with_identity_prior(np.eye(2), [1.0, 1.0], 4.0)
        ev = evaluate(inst, [1.0, 1.0])
        assert ev.objective == pytest.approx(0.4, rel=1e-14)
        np.testing.assert_allclose(ev.gradient, [-LN4 * 4.0 / 25.0] * 2, rtol=1e-12)

    def test_objective_only_matches(self, rng):
        inst = random_instance(7)
        bits = random_feasible_bits(rng, inst)
        assert objective_value(inst, bits) == evaluate(inst, bits).objective

    def test_objective_bounds(self, rng):
        for seed in range(8):
            inst = random_instance(seed, identity_prior=(seed % 2 == 0))
            bits = random_feasible_bits(rng, inst)
            ev = evaluate(inst, bits)
            assert 0.0 < ev.objective <= np.trace(inst.prior_covariance) + 1e-12

    def test_gradient_strictly_negative(self, rng):
        for seed in range(8):
            inst = random_instance(seed)
            ev = evaluate(inst, random_feasible_bits(rng, inst))
            assert np.all(ev.gradient < 0.0)

    def test_componentwise_monotone_decreasing(self, rng):
        inst = random_instance(11, d=4, m=6)
        bits = random_feasible_bits(rng, inst)
        base = evaluate(inst, bits).objective
        for i in range(inst.m):
            bumped = bits.copy()
            bumped[i] += 0.5
            assert evaluate(inst, bumped).objective < base

    def test_gradient_matches_finite_differences(self, rng):
        # step 3e-5 balances truncation against cancellation for priors with
        # trace well above one
        for seed in range(5):
            inst = random_instance(seed, identity_prior=(seed % 2 == 0))
            bits = random_feasible_bits(rng, inst)
            analytic = evaluate(inst, bits).gradient
            numeric = fd_gradient(lambda x: evaluate(inst, x).objective, bits, step=3e-5)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6)

    def test_single_factorization_per_call(self, rng, monkeypatch):
        inst = random_instance(3)
        bits = random_feasible_bits(rng, inst)
        calls = []
        original = model.cholesky_lower
        monkeypatch.setattr(model, "cholesky_lower", lambda mat: calls.append(1) or original(mat))
        evaluate(inst, bits)
        assert len(calls) == 1

    def test_negative_bits_allowed(self):
        ev = evaluate(one_by_one(), [-3.0])
        assert ev.objective < 1.0  # still better informed than the bare prior... barely

    def test_accepts_bitvector(self):
        ev = evaluate(one_by_one(), BitVector(np.array([1.0])))
        assert ev.objective == pytest.approx(0.2, rel=1e-14)


def _reference_evaluation(instance, bits):
    """Objective from a triangular solve against the identity, gradient from an SPD solve per sensor."""
    rho = precision_from_bits(instance, bits)
    scaled = instance.sensing_matrix * np.sqrt(rho)[:, None]
    factor = model.cholesky_lower(instance.prior_inverse + scaled.T @ scaled)
    inv_factor = solve_triangular(factor, np.eye(instance.d), lower=True)
    cov_ht = cho_solve((factor, True), instance.sensing_matrix.T)
    return float(np.sum(inv_factor * inv_factor)), -LN4 * rho * np.einsum("ij,ij->j", cov_ht, cov_ht)


def _kappa_spread_instance():
    rng = np.random.default_rng(8)
    return ProblemInstance.with_identity_prior(rng.standard_normal((20, 8)), 10.0 ** rng.uniform(-6, 6, 20), 40.0)


KERNEL_INSTANCES = {
    "grid-13": lambda: generate(InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=13, seed=1)),
    "grid-50": lambda: generate(InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=50, seed=1)),
    "gaussian-50x1000": lambda: generate(
        InstanceSpec(kind=InstanceKind.RANDOM_GAUSSIAN, d=50, m=1000, seed=1, budget_per_sensor=0.1)
    ),
    "kappa-spread": _kappa_spread_instance,
}


@pytest.mark.parametrize("name", sorted(KERNEL_INSTANCES))
def test_kernel_matches_solve_formulas(name):
    """The dtrtri-inverse kernel against the triangular- and SPD-solve formulas, same factor."""
    inst = KERNEL_INSTANCES[name]()
    rng = np.random.default_rng(21)
    for _ in range(5):
        bits = random_feasible_bits(rng, inst)
        objective, gradient = _reference_evaluation(inst, bits)
        ev = evaluate(inst, bits)
        assert ev.objective == pytest.approx(objective, rel=1e-14)
        assert objective_value(inst, bits) == ev.objective
        np.testing.assert_allclose(ev.gradient, gradient, rtol=1e-12)


class TestLipschitzConstant:
    def test_case14_dimensions(self):
        inst = ProblemInstance.with_identity_prior(np.eye(13), np.ones(13), 26.0)
        assert lipschitz_constant(inst) == pytest.approx(LN4**2 * 27.0, rel=1e-15)

    def test_smallest_case(self):
        assert lipschitz_constant(one_by_one()) == pytest.approx(3.0 * LN4**2, rel=1e-15)

    def test_scales_with_prior(self):
        h = np.eye(3)
        base = ProblemInstance(h, np.eye(3), np.ones(3), 6.0)
        scaled = ProblemInstance(h, 2.5 * np.eye(3), np.ones(3), 6.0)
        assert lipschitz_constant(scaled) == pytest.approx(2.5 * lipschitz_constant(base), rel=1e-12)


class TestHessian:
    def test_scalar_case_is_zero(self):
        hess = hessian_exact(one_by_one(), [0.0])
        assert abs(hess[0, 0]) < 1e-12

    def test_matches_finite_differences(self, rng):
        for seed in range(4):
            inst = random_instance(seed, d=5, m=8, identity_prior=(seed % 2 == 0))
            bits = random_feasible_bits(rng, inst)
            analytic = hessian_exact(inst, bits)
            numeric = fd_hessian_of_gradient(inst, bits)
            scale = max(np.abs(analytic).max(), 1e-8)
            assert np.abs(analytic - numeric).max() / scale < 1e-5

    def test_spectral_norm_below_lipschitz(self, rng):
        for seed in range(6):
            inst = random_instance(seed)
            bits = random_feasible_bits(rng, inst)
            norm = np.abs(np.linalg.eigvalsh(hessian_exact(inst, bits))).max()
            assert norm <= lipschitz_constant(inst) * (1.0 + 1e-10)

    def test_chain_rule_diagonal_term_nonpositive(self, rng):
        # rho_i * df/drho_i recovered from the gradient byproduct must be <= 0
        inst = random_instance(9)
        ev = evaluate(inst, random_feasible_bits(rng, inst))
        np.testing.assert_array_less(ev.gradient / LN4, np.zeros(inst.m))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), identity_prior=st.booleans())
def test_hessian_is_psd_plus_its_gradient_diagonal_property(seed, identity_prior):
    # the barrier's fallback drops diag(ln(4) * gradient) and relies on the rest being PSD
    rng = np.random.default_rng(seed)
    inst = random_instance(seed, d=int(rng.integers(1, 9)), m=int(rng.integers(1, 13)), identity_prior=identity_prior)
    ev = evaluate(inst, random_feasible_bits(rng, inst))
    schur = model.objective_hessian(inst, ev) - LN4 * np.diag(ev.gradient)
    assert np.linalg.eigvalsh(schur)[0] >= -1e-12 * np.abs(schur).max()
    scaled = inst.sensing_matrix * np.sqrt(ev.precisions)[:, None]
    factor = model.cholesky_lower(inst.prior_inverse + scaled.T @ scaled)
    solved = model.cholesky_solve(factor, inst.sensing_matrix.T).T
    assert np.abs(ev.cov_h - solved).max() <= 1e-12 * np.abs(solved).max()


@settings(max_examples=50, deadline=None)
@given(bits=st.lists(st.floats(min_value=0.0, max_value=12.0), min_size=1, max_size=6))
def test_objective_positive_and_bounded_property(bits):
    m = len(bits)
    rng = np.random.default_rng(m * 1000 + 17)
    inst = ProblemInstance.with_identity_prior(rng.standard_normal((m, 3)), np.full(m, 1.1), float(4 * m))
    ev = evaluate(inst, np.asarray(bits))
    assert 0.0 < ev.objective <= np.trace(inst.prior_covariance) + 1e-12
    assert np.all(ev.gradient < 0.0)


def reference_hessian(instance, ev):
    """objective_hessian's formula with a fresh array per operation and an np.diag_indices_from update."""
    rho = ev.precisions
    cross = ev.cov_h @ instance.sensing_matrix.T
    cross_sq = ev.cov_h @ ev.cov_h.T
    hess = (2.0 * LN4 * LN4) * (rho[:, None] * cross) * (cross_sq * rho[None, :])
    hess[np.diag_indices_from(hess)] += LN4 * ev.gradient
    return 0.5 * (hess + hess.T)


def reference_evaluate(instance, bits):
    """evaluate's formulas with dtrtri on a copy of the factor: objective, gradient and G = H C."""
    from scipy.linalg.lapack import dtrtri

    rho = precision_from_bits(instance, bits)
    scaled = instance.sensing_matrix * np.sqrt(rho)[:, None]
    factor = model.cholesky_lower(instance.prior_inverse + scaled.T @ scaled)
    inv_factor, _ = dtrtri(factor, lower=1)
    cov_h = instance.sensing_matrix @ (inv_factor.T @ inv_factor)
    gradient = -LN4 * rho * np.einsum("ij,ij->i", cov_h, cov_h)
    return float(np.sum(inv_factor * inv_factor)), gradient, cov_h


def _in_place_kernel_cases(seed, identity_prior):
    rng = np.random.default_rng(seed)
    inst = random_instance(seed, d=int(rng.integers(1, 40)), m=int(rng.integers(1, 60)), identity_prior=identity_prior)
    bits = random_feasible_bits(rng, inst)
    bits[rng.random(inst.m) < 0.2] += 8.0  # precisions spread over orders of magnitude
    return inst, bits


class TestInPlaceKernels:
    """The kernels that build in place reproduce the fresh-array formulas bit for bit and mutate no input."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), identity_prior=st.booleans())
    def test_hessian_matches_reference_property(self, seed, identity_prior):
        self._check_hessian(*_in_place_kernel_cases(seed, identity_prior))

    @pytest.mark.parametrize("c", [2.0, 7.0])
    def test_hessian_matches_reference_on_d50_grid(self, c):
        inst = generate(InstanceSpec(InstanceKind.GRID_LAPLACIAN, d=50, seed=915810598, budget_per_sensor=c))
        self._check_hessian(inst, random_feasible_bits(np.random.default_rng(5), inst))

    @staticmethod
    def _check_hessian(inst, bits):
        ev = evaluate(inst, bits)
        kept = [np.copy(a) for a in (ev.cov_h, ev.gradient, ev.precisions)]
        hess = model.objective_hessian(inst, ev)
        assert hess.tobytes() == reference_hessian(inst, ev).tobytes()
        np.testing.assert_array_equal(hess, hess.T)  # exactly symmetric
        for before, now in zip(kept, (ev.cov_h, ev.gradient, ev.precisions)):
            assert before.tobytes() == now.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), identity_prior=st.booleans())
    def test_evaluate_matches_reference_property(self, seed, identity_prior):
        inst, bits = _in_place_kernel_cases(seed, identity_prior)
        ev = evaluate(inst, bits)
        objective, gradient, cov_h = reference_evaluate(inst, bits)
        assert ev.objective == objective
        assert objective_value(inst, bits) == objective
        assert ev.gradient.tobytes() == gradient.tobytes()
        assert ev.cov_h.tobytes() == cov_h.tobytes()
