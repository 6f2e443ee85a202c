"""The desk scripts under ``scripts/`` run end to end at tiny sizes.

Each script is started in a subprocess, as a user would run it, and must exit
0 and write its summary and aggregate CSVs.  ``sensor_scaling.py`` gets two
ratios so that its log-log fit has more than one point.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "rounding_gap_study.py": (["--sizes", "4", "--trials", "1"], "rounding_gap_d4"),
    "sensor_scaling.py": (["--d", "3", "--ratios", "1,2", "--trials", "1"], "sensor_scaling_d3"),
    "solver_comparison.py": (["--sizes", "4", "--trials", "1"], "compare_d4"),
    "uniform_sweep.py": (["--d", "4", "--budgets", "2", "--trials", "1"], "uniform_sweep_d4"),
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script, tmp_path):
    args, stem = SCRIPTS[script]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    for name in (f"{stem}.csv", f"{stem}.aggregates.csv"):
        assert (tmp_path / name).is_file(), name
