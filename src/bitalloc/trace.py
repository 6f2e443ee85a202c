"""Per-iteration solve traces shared by both solvers.

A trace is a flat sequence of iteration records plus the terminal allocation
and a termination reason.  The ``gap`` field holds whichever stationarity
measure the solver tracks: the Frank-Wolfe gap for the conditional-gradient
solver, the barrier-gradient max norm for the interior-point solver.  Traces
serialize to one comma-delimited line per iteration for the CLI: one column
per record field, each cell a plain number, blank where the field is None.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .instances import save_results
from .model import BitVector


class Termination(Enum):
    GAP_CONVERGED = "gap-converged"
    MAX_ITERATIONS = "max-iterations"
    TIME_LIMIT = "time-limit"


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    objective: float
    gap: float
    step_size: float
    vertex: int | None = None
    barrier_mu: float | None = None
    elapsed_seconds: float = 0.0


@dataclass(frozen=True)
class GapCertificate:
    """Computable convergence certificate for a conditional-gradient run.

    ``min_gap`` is the smallest stationarity gap observed over all iterates;
    ``rate_bound`` is the max(2*h0, 2*L*B^2)/sqrt(T+1) envelope it must sit
    under, with h0 taken as the observed objective drop (a lower bound on the
    true initial suboptimality, so the certified inequality is the stronger
    one).
    """

    min_gap: float
    rate_bound: float

    @property
    def holds(self) -> bool:
        return self.min_gap <= self.rate_bound


@dataclass(frozen=True)
class SolveTrace:
    iterates: tuple[IterationRecord, ...]
    final_bits: BitVector
    termination: Termination
    certificate: GapCertificate | None = None

    @property
    def iterations(self) -> int:
        """Number of update steps performed (records minus the terminal one)."""
        return max(len(self.iterates) - 1, 0)

    @property
    def final_objective(self) -> float:
        return self.iterates[-1].objective


def write_trace(path, trace: SolveTrace) -> None:
    """Write one iteration record per line, comma-delimited under the record's field names.

    csv writes None as an empty cell and a float, numpy scalars included, as
    its shortest repr: str(np.float64(x)) is repr(float(x)).
    """
    save_results(path, map(vars, trace.iterates))
