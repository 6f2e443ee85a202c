"""The bench tracer's hooks: every name it wraps exists and is restored on exit.

``bench/tracer.py`` wraps package functions by module attribute.  A refactor
that renames or drops one of those attributes fails here, in the unit suite,
rather than only in a traced benchmark run.
"""

import importlib
from pathlib import Path

from bitalloc import experiments

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_restores_every_hooked_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in tracer.PATCHES]
    originals.append((experiments, "_run_tasks", experiments._run_tasks))
    with tracer.Tracer():
        for module, attr, original in originals:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr} not wrapped"
    for module, attr, original in originals:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
