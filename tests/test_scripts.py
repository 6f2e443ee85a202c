"""The studies driver ``scripts/studies.py`` runs every study end to end at tiny sizes.

Each study is started in a subprocess, as a user would run it, and must exit
0 and write its instance config, summary and aggregate CSVs under the study's
file stem.  The row counts show that ``--trials`` and ``--sweep`` reach the
CLI and that a ``--sweep`` given on the command line replaces the study's
default sweep.  ``sensor-scaling`` gets two ratios so that its log-log fit has
more than one point.

The benchmark's own smoke self-test ``bench/smoke.py`` runs the same way, so
a change that breaks the benchmark's contract (its result keys, metrics and
the names its tracer wraps) fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STUDIES = {
    "compare": (["--sizes", "4", "--trials", "1"], "compare_d4", 1),
    "rounding-gap": (["--sizes", "4", "--trials", "1"], "rounding_gap_d4", 1),
    "sensor-scaling": (["--sizes", "3", "--sweep", "1,2", "--trials", "1"], "sensor_scaling_d3", 2),
    "uniform-sweep": (["--sizes", "4", "--sweep", "2", "--trials", "1"], "uniform_sweep_d4", 1),
}


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_study_runs(study, tmp_path):
    args, stem, rows = STUDIES[study]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "studies.py"), study, *args, "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    for name in (f"{stem}.json", f"{stem}.csv", f"{stem}.aggregates.csv"):
        assert (tmp_path / name).is_file(), name
    assert len((tmp_path / f"{stem}.csv").read_text().splitlines()) == 1 + rows
    if study == "sensor-scaling":
        assert "log-log slope of per-iteration time vs m" in result.stdout


def test_benchmark_smoke():
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "smoke.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
