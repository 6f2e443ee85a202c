"""Golden outputs: all six experiments reproduce their non-timing CSV bytes.

Each case runs a small seeded plan, writes its summary, aggregate and trace
CSVs, and compares them with the files under ``tests/golden/<case>/``.  The
timing content is removed on both sides before the comparison:

- every column whose name ends in ``_seconds``;
- aggregates of a timing column: the ``statistic`` rows named ``*_seconds``
  (compare's ``fw_seconds`` and ``barrier_seconds``) and the ``iqr_low`` and
  ``iqr_high`` columns next to a ``*_seconds`` median (sensor-scaling).

Everything else must match byte for byte.  The expected files were written
with numpy 2.4.6 (OpenBLAS 0.3.31, Haswell kernels) and scipy 1.17.1
(OpenBLAS 0.3.30, Haswell kernels) on x86_64; another BLAS build may change
trailing digits.  Regenerate them only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import csv
import io
from dataclasses import replace
from pathlib import Path

import pytest

from bitalloc.experiments import (
    EXIT_ALL_FAILED,
    EXIT_OK,
    Experiment,
    ExperimentPlan,
    SolverChoice,
    run,
    write_outputs,
)
from bitalloc.instances import InstanceKind, InstanceSpec

GOLDEN = Path(__file__).parent / "golden"

GRID6 = InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=6)

CASES = {
    "solve": (ExperimentPlan(Experiment.SOLVE, GRID6, trials=2, seed=5), EXIT_OK),
    "solve-fw": (
        ExperimentPlan(Experiment.SOLVE, GRID6, trials=1, seed=8, solver=SolverChoice.FW),
        EXIT_OK,
    ),
    "solve-fw-steps": (
        # 113 pairwise steps: the other FW solves here stop at their warm start
        ExperimentPlan(
            Experiment.SOLVE,
            InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=29),
            trials=1,
            seed=2,
            solver=SolverChoice.FW,
        ),
        EXIT_OK,
    ),
    "compare": (ExperimentPlan(Experiment.COMPARE_SOLVERS, GRID6, trials=2, seed=1), EXIT_OK),
    "rounding-gap-threads2": (
        ExperimentPlan(Experiment.ROUNDING_GAP, GRID6, trials=3, seed=2, threads=2),
        EXIT_OK,
    ),
    "rounding-gap-all-failed": (
        ExperimentPlan(
            Experiment.ROUNDING_GAP,
            InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=4, budget_per_sensor=0.0),
            trials=2,
        ),
        EXIT_ALL_FAILED,
    ),
    "uniform-sweep": (
        # c = 0 has no barrier interior: its rows fail and it gets no aggregate
        ExperimentPlan(Experiment.UNIFORM_SWEEP, GRID6, trials=2, sweep_values=(0.0, 2.0, 3.0), seed=3),
        EXIT_OK,
    ),
    "sensor-scaling": (
        ExperimentPlan(
            Experiment.SENSOR_SCALING,
            InstanceSpec(kind=InstanceKind.RANDOM_GAUSSIAN, d=4, m=4),
            trials=2,
            sweep_values=(2.0, 5.0),
            seed=4,
        ),
        EXIT_OK,
    ),
    "validate": (
        ExperimentPlan(
            Experiment.VALIDATE,
            InstanceSpec(kind=InstanceKind.RANDOM_GAUSSIAN, d=3, m=5),
            trials=1,
            seed=6,
            mc_samples=3_000,
        ),
        EXIT_OK,
    ),
}


def _without_timing(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    drop = {name for name in header if name.endswith("_seconds")}
    if any(name.startswith("median_") for name in drop):
        drop |= {"iqr_low", "iqr_high"}
    keep = [i for i, name in enumerate(header) if name not in drop]
    statistic = header.index("statistic") if "statistic" in header else None
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        if statistic is not None and row[statistic].endswith("_seconds"):
            continue
        writer.writerow([row[i] for i in keep])
    return out.getvalue()


def _outputs(name: str, directory: Path) -> tuple[int, dict[str, str]]:
    plan, _ = CASES[name]
    plan = replace(plan, output_path=str(directory / f"{name}.csv"))
    result = run(plan)
    write_outputs(plan, result)
    files = {path.name: _without_timing(path.read_text()) for path in sorted(directory.glob("*.csv"))}
    return result.exit_code, files


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    exit_code, files = _outputs(name, tmp_path)
    assert exit_code == CASES[name][1]
    expected_dir = GOLDEN / name
    expected = {path.name: path.read_text() for path in sorted(expected_dir.glob("*.csv"))}
    assert sorted(files) == sorted(expected)
    for filename, text in files.items():
        assert text == expected[filename], filename


def test_all_failed_plan_on_worker_processes():
    plan, exit_code = CASES["rounding-gap-all-failed"]
    result = run(replace(plan, threads=2))
    assert result.exit_code == exit_code == EXIT_ALL_FAILED
    errors = [row["error"] for row in result.records]
    assert len(errors) == 2 and all(errors)
    assert errors == [row["error"] for row in run(plan).records]


if __name__ == "__main__":
    import tempfile

    for case in sorted(CASES):
        target = GOLDEN / case
        target.mkdir(parents=True, exist_ok=True)
        for stale in target.glob("*.csv"):
            stale.unlink()
        with tempfile.TemporaryDirectory() as scratch:
            _, written = _outputs(case, Path(scratch))
        for filename, text in written.items():
            (target / filename).write_text(text)
        print(f"{case}: {len(written)} files")
