"""Every public entry point that takes an allocation rejects a malformed one with a BitAllocationError.

The malformed allocations are a NaN, +inf or -inf entry, a 2-D array with
the right number of entries, an empty vector and a vector of the wrong
length.  Allocation shape and finiteness are decided in one place,
``model.allocation_array``, and each entry point must reach it before any
arithmetic that would leak a raw ValueError or OverflowError.
``BitVector`` and ``round_largest_remainder`` take no instance, so no
length is wrong for them.  ``verify_nearest_point`` takes two allocations
and checks both.
"""

import numpy as np
import pytest

from bitalloc.barrier import solve_barrier
from bitalloc.frank_wolfe import fw_gap, solve_fw
from bitalloc.model import (
    BitAllocationError,
    BitVector,
    evaluate,
    hessian_exact,
    objective_value,
    precision_from_bits,
)
from bitalloc.quantizer import DitherMode, QuantizerBank, simulate_lmmse
from bitalloc.rounding import (
    round_largest_remainder,
    round_with_guarantees,
    verify_nearest_point,
)

from conftest import random_instance

M = 4
INSTANCE = random_instance(3, d=3, m=M)
GOOD = np.full(M, INSTANCE.budget / M)  # integral and budget-saturating
BANK = QuantizerBank.for_allocation(INSTANCE, GOOD, DitherMode.SUBTRACTIVE, seed=0)

ENTRY_POINTS = {
    "BitVector": lambda b: BitVector(b),
    "evaluate": lambda b: evaluate(INSTANCE, b),
    "objective_value": lambda b: objective_value(INSTANCE, b),
    "precision_from_bits": lambda b: precision_from_bits(INSTANCE, b),
    "hessian_exact": lambda b: hessian_exact(INSTANCE, b),
    "solve_barrier": lambda b: solve_barrier(INSTANCE, start=b),
    "solve_fw": lambda b: solve_fw(INSTANCE, start=b),
    "fw_gap": lambda b: fw_gap(b, np.full(M, -1.0), INSTANCE.budget),
    "round_largest_remainder": lambda b: round_largest_remainder(b, INSTANCE.budget),
    "verify_nearest_point": lambda b: verify_nearest_point(b, BitVector(GOOD)),
    "verify_nearest_point_rounded": lambda b: verify_nearest_point(GOOD, b),
    "round_with_guarantees": lambda b: round_with_guarantees(INSTANCE, b),
    "QuantizerBank.for_allocation": lambda b: QuantizerBank.for_allocation(INSTANCE, b, DitherMode.SUBTRACTIVE, 0),
    "simulate_lmmse": lambda b: simulate_lmmse(INSTANCE, b, 10, BANK),
}


def _with(index, value):
    bits = GOOD.copy()
    bits[index] = value
    return bits


MALFORMED = {
    "nan": _with(1, np.nan),
    "inf": _with(2, np.inf),
    "-inf": _with(0, -np.inf),
    "2-d": GOOD[None, :],
    "empty": np.array([]),
    # budget-saturating, so only its length is wrong
    "wrong-length": np.full(M + 1, INSTANCE.budget / (M + 1)),
}

CASES = [
    (entry, bad)
    for entry in ENTRY_POINTS
    for bad in MALFORMED
    if not (entry in ("BitVector", "round_largest_remainder") and bad == "wrong-length")
]


@pytest.mark.parametrize("entry, bad", CASES, ids=[f"{entry}-{bad}" for entry, bad in CASES])
def test_malformed_allocation_raises_package_error(entry, bad):
    with pytest.raises(BitAllocationError):
        ENTRY_POINTS[entry](MALFORMED[bad])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_well_formed_allocation_is_accepted(entry):
    if entry == "solve_barrier":  # GOOD saturates the budget: not strictly interior
        solve_barrier(INSTANCE, start=GOOD * 0.99)
    else:
        ENTRY_POINTS[entry](GOOD)
