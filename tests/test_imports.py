"""Start-up cost: bitalloc binds scipy's LAPACK and BLAS extensions without importing the scipy.linalg package."""

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

        def loaded():
            names = ("scipy.linalg", "numpy.testing", "scipy.linalg._fblas")
            return sorted(name for name in names if name in sys.modules)

        instance = generate(InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=4, seed=1))
        evaluate(instance, np.full(instance.m, 2.0))
        solve_barrier(instance)
        solve_fw(instance, FwConfig(max_iterations=5), start=separable_warm_start(instance))
        with open("spec.json", "w") as handle:
            handle.write('{"kind": "grid-laplacian", "d": 4}')
        code = cli.main(["solve", "--trials", "1", "--config", "spec.json", "--out", "out/solve.csv"])
        print(code, loaded())
        bank = QuantizerBank.for_allocation(instance, np.full(instance.m, 2.0), DitherMode.SUBTRACTIVE, 0)
        simulate_lmmse(instance, np.full(instance.m, 2.0), 10, bank)
        print(loaded())
        """,
        tmp_path,
    )
    # the BLAS extension loads on the first simulation, and only then
    assert out.splitlines()[-2:] == ["0 []", "['scipy.linalg._fblas']"]


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


def test_scipy_linalg_blas_shares_dgemm_in_either_import_order(tmp_path):
    check = """
        import sys
        {first}
        {second}
        from bitalloc import _blas
        blas = sys.modules["scipy.linalg.blas"]
        print(blas._fblas is sys.modules["scipy.linalg._fblas"], _blas.blas_dgemm() is blas.dgemm)
        """
    for first, second in [("import bitalloc._blas; bitalloc._blas.blas_dgemm()", "import scipy.linalg.blas"),
                          ("import scipy.linalg.blas", "import bitalloc._blas; bitalloc._blas.blas_dgemm()")]:
        out = run_python(check.replace("{first}", first).replace("{second}", second), tmp_path)
        assert out.splitlines()[-1] == "True True", first


def test_without_the_blas_extension_file_the_package_import_serves(tmp_path):
    out = run_python(
        f"""
        import sys
        import numpy as np
        import scipy
        from bitalloc import _blas
        from bitalloc.quantizer import DitherMode, QuantizerBank, simulate_lmmse
        from bitalloc.instances import InstanceKind, InstanceSpec, generate

        instance = generate(InstanceSpec(kind=InstanceKind.GRID_LAPLACIAN, d=4, seed=1))
        bits = np.full(instance.m, 2.0)
        bank = QuantizerBank.for_allocation(instance, bits, DitherMode.SUBTRACTIVE, 0)
        loaded = simulate_lmmse(instance, bits, 100, bank)
        del sys.modules["scipy.linalg._fblas"]
        scipy.__file__ = {str(tmp_path / "__init__.py")!r}  # a linalg directory without the extension
        dgemm = _blas.blas_dgemm()
        fell_back = "scipy.linalg.blas" in sys.modules
        import scipy.linalg.blas as blas
        imported = simulate_lmmse(instance, bits, 100, bank)
        same = all(np.array_equal(getattr(imported, name), getattr(loaded, name))
                   for name in ("empirical_mse", "standard_error", "empirical_error_mean", "empirical_error_se"))
        print(fell_back, dgemm is blas.dgemm, same)
        """,
        tmp_path,
    )
    assert out.splitlines()[-1] == "True True True"
