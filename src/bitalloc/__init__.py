"""Bit-budget allocation across heterogeneously quantized linear sensors.

Allocates a global communication budget of quantization bits over the
channels of a linear Gaussian measurement model so that the trace of the
LMMSE error covariance is as small as possible, then rounds the continuous
answer to integers with a certified quality gap.
"""

from .barrier import BarrierConfig, BoundaryError, KktCertificate, LineSearchError, solve_barrier
from .frank_wolfe import FwConfig, StepRule, fw_gap, lmo, separable_warm_start, solve_fw
from .instances import (
    InstanceKind,
    InstanceSpec,
    KappaRange,
    MatrixFormatError,
    generate,
    kappa_from_dynamic_range,
    load_matrix,
    load_spec,
    save_matrix,
    save_results,
    uniform_allocation,
)
from .model import (
    BitAllocationError,
    BitRangeError,
    BitVector,
    DimensionMismatchError,
    Evaluation,
    FactorizationError,
    ProblemInstance,
    evaluate,
    hessian_exact,
    lipschitz_constant,
    objective_value,
    precision_from_bits,
)
from .quantizer import DitherMode, MonteCarloReport, QuantizerBank, quantize, simulate_lmmse
from .rounding import (
    RoundingPreconditionError,
    RoundingReport,
    round_largest_remainder,
    round_with_guarantees,
    verify_nearest_point,
)
from .experiments import Experiment, ExperimentPlan, RunResult, SolverChoice, run
from .trace import GapCertificate, IterationRecord, SolveTrace, Termination, write_trace

__all__ = [
    "BarrierConfig",
    "BitAllocationError",
    "BitRangeError",
    "BitVector",
    "BoundaryError",
    "DimensionMismatchError",
    "DitherMode",
    "Evaluation",
    "Experiment",
    "ExperimentPlan",
    "FactorizationError",
    "FwConfig",
    "GapCertificate",
    "InstanceKind",
    "InstanceSpec",
    "IterationRecord",
    "KappaRange",
    "KktCertificate",
    "LineSearchError",
    "MatrixFormatError",
    "MonteCarloReport",
    "ProblemInstance",
    "QuantizerBank",
    "RoundingPreconditionError",
    "RoundingReport",
    "RunResult",
    "SolveTrace",
    "SolverChoice",
    "StepRule",
    "Termination",
    "evaluate",
    "fw_gap",
    "generate",
    "hessian_exact",
    "kappa_from_dynamic_range",
    "lipschitz_constant",
    "lmo",
    "load_matrix",
    "load_spec",
    "objective_value",
    "precision_from_bits",
    "quantize",
    "round_largest_remainder",
    "round_with_guarantees",
    "run",
    "save_matrix",
    "save_results",
    "separable_warm_start",
    "simulate_lmmse",
    "solve_barrier",
    "solve_fw",
    "uniform_allocation",
    "verify_nearest_point",
    "write_trace",
]
