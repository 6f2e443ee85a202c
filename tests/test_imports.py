"""Start-up cost: bitalloc binds scipy's LAPACK extension without importing the scipy.linalg package."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(code: str, cwd) -> str:
    """Run ``code`` in a fresh interpreter that imports bitalloc from this checkout; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, env=env, cwd=cwd, timeout=300
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout


def test_solving_imports_neither_scipy_linalg_nor_numpy_testing(tmp_path):
    out = run_python(
        """
        import sys
        import numpy as np
        import bitalloc
        from bitalloc import cli
        from bitalloc.barrier import solve_barrier
        from bitalloc.frank_wolfe import FwConfig, separable_warm_start, solve_fw
        from bitalloc.instances import InstanceKind, InstanceSpec, generate
        from bitalloc.model import evaluate
        from bitalloc.quantizer import DitherMode, QuantizerBank, simulate_lmmse

        instance = generate(InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=4, seed=1))
        evaluate(instance, np.full(instance.m, 2.0))
        solve_barrier(instance)
        solve_fw(instance, FwConfig(max_iterations=5), start=separable_warm_start(instance))
        bank = QuantizerBank.for_allocation(instance, np.full(instance.m, 2.0), DitherMode.SUBTRACTIVE, 0)
        simulate_lmmse(instance, np.full(instance.m, 2.0), 10, bank)
        with open("spec.json", "w") as handle:
            handle.write('{"kind": "grid-laplacian", "d": 4}')
        code = cli.main(["solve", "--trials", "1", "--config", "spec.json", "--out", "out/solve.csv"])
        print(code, sorted(name for name in ("scipy.linalg", "numpy.testing") if name in sys.modules))
        """,
        tmp_path,
    )
    assert out.splitlines()[-1] == "0 []"


def test_scipy_linalg_shares_the_routines_in_either_import_order(tmp_path):
    check = """
        import sys
        {first}
        {second}
        lapack, model = sys.modules["scipy.linalg.lapack"], sys.modules["bitalloc.model"]
        print(lapack._flapack is sys.modules["scipy.linalg._flapack"],
              all(getattr(lapack, name) is getattr(model, name) for name in ("dpotrf", "dpotrs", "dtrtri")))
        """
    for first, second in [("import bitalloc.model", "import scipy.linalg.lapack"),
                          ("import scipy.linalg.lapack", "import bitalloc.model")]:
        out = run_python(check.replace("{first}", first).replace("{second}", second), tmp_path)
        assert out.splitlines()[-1] == "True True", first


def test_without_the_extension_file_the_package_import_serves(tmp_path):
    out = run_python(
        f"""
        import sys
        import scipy
        from bitalloc import _blas, model
        del sys.modules["scipy.linalg._flapack"]
        scipy.__file__ = {str(tmp_path / "__init__.py")!r}  # a linalg directory without the extension
        routines = _blas.lapack_routines()
        fell_back = "scipy.linalg.lapack" in sys.modules
        import scipy.linalg.lapack as lapack
        print(fell_back, routines == (lapack.dpotrf, lapack.dpotrs, lapack.dtrtri))
        """,
        tmp_path,
    )
    assert out.splitlines()[-1] == "True True"
