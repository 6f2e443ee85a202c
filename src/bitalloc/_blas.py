"""scipy's LAPACK and BLAS routines, and OpenBLAS on one thread for the duration of a scope.

numpy and scipy wheels each bundle their own OpenBLAS, and both default to
one worker thread per core.  At the sizes this package solves (d up to a few
hundred) every factorization and triangular call is too small to split: a
second thread doubles the CPU time, and when another process holds a core
the hand-off makes a call up to a hundred times slower.  The solvers, the
harness and the kernel functions therefore run inside
:class:`single_blas_thread`, which sets both libraries to one thread through
their exported setters.  The thread count is process-wide, so a depth count
shared by all Python threads keeps it at one until the outermost scope exits
and restores the saved counts.  A nested scope only takes the lock and
counts, about 0.9 us per decorated call (2 shared x86_64 cores).  Without
the bundled libraries (another BLAS build) the scope does nothing.

The kernel needs three LAPACK routines, ``dpotrf``, ``dtrtri`` and
``dpotrs``.  ``from scipy.linalg.lapack import ...`` would run all of
``scipy/linalg/__init__.py``, which pulls in ``numpy.testing`` and the
array-API shims: about 60% of the time ``import bitalloc`` took, and 16 to
17 MB of each benchmark workload's peak RSS (2 shared x86_64 cores).
:func:`lapack_routines` instead loads scipy's compiled extension
``scipy/linalg/_flapack`` on its own and
registers it under its package name, so a later ``import scipy.linalg``
reuses the same module.  The routines are the very f2py objects that
``scipy.linalg.lapack`` exports, so the library, the wrappers and every
output bit are unchanged.  The top-level ``scipy`` package is still
imported first, since on some platforms it puts the bundled libraries on the
loader's path.  Where no such extension file exists (another scipy layout)
it falls back to the package import.

The Monte-Carlo check also needs BLAS ``dgemm``, to add each block's share of
the right-hand side into it in place (beta = 1), which numpy's ``matmul``
cannot do.  :func:`blas_dgemm` loads ``scipy/linalg/_fblas`` the same way,
and ``scipy.linalg.blas.dgemm`` is the same object.  It loads on the first
call, not at import: nothing else uses it, and loading it costs about
1.2 ms and 1.2 MB of RSS (2 shared x86_64 cores).
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import sys
import threading
from pathlib import Path

import numpy
import scipy

# (package, file-name pattern of its bundled OpenBLAS, suffix of the exported symbols)
_LIBRARIES = (
    (numpy, "libscipy_openblas64_*", "64_"),
    (scipy, "libscipy_openblas-*", ""),
)


def _linalg_extension(name: str, package_module: str):
    """The compiled extension scipy/linalg/<name>, loaded on its own; else scipy.linalg.<package_module>."""
    qualified = f"scipy.linalg.{name}"
    module = sys.modules.get(qualified)
    if module is None:
        spec = importlib.machinery.PathFinder.find_spec(qualified, [str(Path(scipy.__file__).parent / "linalg")])
        if spec is None:
            return importlib.import_module(f"scipy.linalg.{package_module}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[qualified] = module
    return module


def lapack_routines() -> tuple:
    """scipy's f2py wrappers (dpotrf, dpotrs, dtrtri), loaded from the extension in scipy/linalg."""
    module = _linalg_extension("_flapack", "lapack")
    return module.dpotrf, module.dpotrs, module.dtrtri


def blas_dgemm():
    """scipy's f2py ``dgemm``, loaded from the extension in scipy/linalg on the first call."""
    return _linalg_extension("_fblas", "blas").dgemm


@functools.cache
def _controls() -> tuple:
    """(get, set) thread-count functions of each bundled OpenBLAS that can be loaded."""
    controls = []
    for package, pattern, suffix in _LIBRARIES:
        # Linux and Windows wheels keep their bundled libraries in <package>.libs beside the package
        directory = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(directory.glob(pattern)):
            try:
                library = ctypes.CDLL(str(path))
                get_count = getattr(library, f"scipy_openblas_get_num_threads{suffix}")
                set_count = getattr(library, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get_count.argtypes, get_count.restype = [], ctypes.c_int
            set_count.argtypes, set_count.restype = [ctypes.c_int], None
            controls.append((get_count, set_count))
            break
    return tuple(controls)


_lock = threading.Lock()
_depth = 0
_saved: list = []  # (setter, count) of each library, taken when the outermost scope entered


class single_blas_thread:
    """Both bundled OpenBLAS libraries run on one thread until the outermost scope exits.

    A context manager, and a decorator: ``@single_blas_thread()``.  Only the
    outermost entry and exit call the libraries' setters.
    """

    __slots__ = ()

    def __enter__(self):
        global _depth, _saved
        with _lock:
            if _depth == 0:
                _saved = [(set_count, get_count()) for get_count, set_count in _controls()]
                for set_count, _ in _saved:
                    set_count(1)
            _depth += 1

    def __exit__(self, *exc_info):
        global _depth
        with _lock:
            _depth -= 1
            if _depth == 0:
                for set_count, count in _saved:
                    set_count(count)

    def __call__(self, function):
        @functools.wraps(function)
        def pinned(*args, **kwargs):
            with self:
                return function(*args, **kwargs)

        return pinned
