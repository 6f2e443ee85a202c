"""The package's public surface and imports stay exact, with no linter installed.

``bitalloc.__all__`` must name every public object the package binds, and
nothing else; every module of the package must use every name it imports,
and some module must use every private name a module defines at its top
level.  A deletion that strands an export, an import or a helper then fails
here.
"""

import ast
import types
from pathlib import Path

import bitalloc

PACKAGE = Path(bitalloc.__file__).resolve().parent

# Imported but not called: bench/tracer.py patches it as an attribute of the barrier module.
UNUSED_IMPORT_EXEMPTIONS = {("barrier", "objective_value")}


def test_all_is_exactly_the_public_names():
    bound = {
        name
        for name, value in vars(bitalloc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(bitalloc.__all__) == sorted(bound)
    assert len(set(bitalloc.__all__)) == len(bitalloc.__all__)
    for name in bitalloc.__all__:
        assert getattr(bitalloc, name) is not None, name


def _unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # a name re-exported through __all__ is used
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_every_import_is_used():
    unused = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _unused_imports(path.read_text())
    }
    assert unused == UNUSED_IMPORT_EXEMPTIONS


def test_unused_import_check_sees_an_unused_name():
    assert _unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == {"os", "tau"}
    assert _unused_imports("from .a import b\n__all__ = ['b']\n") == set()


def _private_definitions(source: str) -> set[str]:
    """Names starting with one underscore that a module binds at its top level."""
    defined = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in defined if name.startswith("_") and not name.startswith("__")}


def _references(source: str) -> set[str]:
    """Names a module reads, as a bare name, an attribute or an import."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_every_private_name_is_used():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    referenced = set().union(*map(_references, sources.values()))
    unused = {(stem, name) for stem, source in sources.items() for name in _private_definitions(source) - referenced}
    assert unused == set()


def test_private_name_check_sees_an_unused_name():
    source = "_USED = 1\n_SPARE: int = 2\ndef _helper():\n    return _USED\nclass _Gone:\n    pass\n"
    assert _private_definitions(source) - _references(source) == {"_SPARE", "_helper", "_Gone"}
    assert _private_definitions("from .a import _b\n__all__ = []\n") == set()
