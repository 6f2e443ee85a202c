"""Smoke self-test of the benchmark at tiny sizes (about 30 s).

    python3 bench/smoke.py

For every workload, with tracing off and on, it checks that the result line
has exactly the contract's keys and every metric of BENCHMARK.json with its
unit, and that no attribute of bitalloc is left wrapped afterwards.  It also
checks that the tracer restores the package when the traced code raises, and
that the benchmark fails without printing a result in a directory that holds
only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (needs bench/ on the path)


def bitalloc_attributes() -> dict:
    """Identity of every attribute of the package and its modules."""
    import bitalloc
    from bitalloc import barrier, cli, experiments, frank_wolfe, instances, model, quantizer, rounding, trace

    modules = [bitalloc, barrier, cli, experiments, frank_wolfe, instances, model, quantizer, rounding, trace]
    return {(mod.__name__, name): id(value) for mod in modules for name, value in vars(mod).items()}


def _expected(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_workload(name: str, trace: int) -> None:
    before = bitalloc_attributes()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0, (name, trace, result)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    expected = _expected("per_layer" if trace else "end_to_end")
    got = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
    assert got == expected, (name, trace, set(got) ^ set(expected))
    for metric, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"} and isinstance(entry["value"], (int, float)), (metric, entry)
    if not trace:
        zeros = [metric for metric, entry in result["metrics"].items() if entry["value"] == 0]
        assert not zeros, (name, zeros)
    assert bitalloc_attributes() == before, f"{name}: bitalloc left patched"
    print(f"ok  {name:13s} trace={trace}  {len(got)} metrics")


def check_restore_on_error(tracer) -> None:
    from bitalloc import barrier

    before = bitalloc_attributes()
    with contextlib.suppress(RuntimeError):
        with tracer.Tracer():
            assert hasattr(barrier.objective_value, "__wrapped__")
            raise RuntimeError("boom")
    assert bitalloc_attributes() == before, "tracer did not restore after an error"
    print("ok  tracer restores wrapped attributes on error")


def check_bare_directory() -> None:
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-barrier", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare.parent, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, (proc.returncode, proc.stdout)
    print("ok  fails without a result when the package source is absent")


def main() -> int:
    run._import_package()
    import tracer

    for name in ("grid-barrier", "sensor-rich", "cli-plan"):
        for trace in (0, 1):
            check_workload(name, trace)
    check_restore_on_error(tracer)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
