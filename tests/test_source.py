import ast
import sys
from pathlib import Path

import pytest

import anomattr

SOURCES = sorted(p for p in Path(anomattr.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]
# the suites and the benchmark, named by their path in the repository
SCRIPTS = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("bench/*.py")])


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """The (line, name) of each name a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES + SCRIPTS,
                         ids=lambda p: p.name if p in SOURCES else str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, "; ".join(f"{path.name}:{line} imports {name!r}, never read"
                                 for line, name in unused)


def test_an_unused_import_is_found():
    tree = ast.parse("import math\nimport os\nfrom json import dumps as d\nos.getpid()\n")
    assert _unused_imports(tree) == [(1, "math"), (3, "d")]


def _unread_constants(trees: dict) -> list[tuple[str, int, str]]:
    """The (module, line, name) of each UPPER_CASE name that the top level of
    a module in ``trees`` (module name to parsed source) assigns and no
    module reads, by name or as an attribute."""
    read = set()
    for tree in trees.values():
        read.update(node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            names = [n for t in targets for n in (t.elts if isinstance(t, ast.Tuple) else [t])
                     if isinstance(n, ast.Name)]
            found += [(module, node.lineno, n.id) for n in names
                      if n.id.isupper() and n.id not in read]
    return sorted(found)


def test_every_constant_is_read():
    # a knob that nothing reads should go
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in SOURCES + [Path(anomattr.__file__)]}
    unread = _unread_constants(trees)
    assert not unread, "; ".join(f"{module}:{line} {name} is never read"
                                 for module, line, name in unread)


def test_an_unread_constant_is_found():
    trees = {"a.py": ast.parse("A = 1\n_B: int = 2\nC, _D = 3, 4\nlower = 5\n"
                               "def f():\n    E = 6\n    return A + E\n"),
             "b.py": ast.parse("from a import C\nimport a\nF = a._B\n")}
    assert _unread_constants(trees) == [("a.py", 3, "C"), ("a.py", 3, "_D"), ("b.py", 3, "F")]


def _undefined_exports(tree: ast.Module) -> list[str]:
    """The names a module's ``__all__`` lists and its top level does not
    define, by a ``def``, a ``class``, an import or an assignment."""
    defined, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
                    if target.id == "__all__":
                        exported = [ast.literal_eval(item) for item in node.value.elts]
    return [name for name in exported if name not in defined]


@pytest.mark.parametrize("path", SOURCES + [Path(anomattr.__file__)], ids=lambda p: p.name)
def test_every_exported_name_is_defined(path):
    # a name left in __all__ after its definition went breaks
    # ``from module import *`` only when someone runs it
    undefined = _undefined_exports(ast.parse(path.read_text(), filename=str(path)))
    assert not undefined, f"{path.name}: __all__ lists undefined {undefined}"


def test_an_undefined_export_is_found():
    tree = ast.parse("import os\nfrom json import dumps as d\nX: int = 1\nY = 2\n"
                     "def f():\n    Z = 3\nclass C:\n    pass\n"
                     "__all__ = ['os', 'd', 'X', 'Y', 'f', 'C', 'Z', 'Gone']\n")
    assert _undefined_exports(tree) == ["Z", "Gone"]


def _foreign_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """The (line, module) of each import of neither the standard library,
    numpy nor the package itself."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue  # not an import, or a relative one
        found += [(node.lineno, name) for name in modules
                  if name.partition(".")[0] not in
                  sys.stdlib_module_names | {"numpy", "anomattr"}]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES + [Path(anomattr.__file__)], ids=lambda p: p.name)
def test_depends_on_numpy_alone(path):
    # the library's one dependency outside the standard library is numpy
    foreign = _foreign_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not foreign, "; ".join(f"{path.name}:{line} imports {name!r}"
                                  for line, name in foreign)


def test_a_foreign_import_is_found():
    tree = ast.parse("import json, scipy\nfrom numpy.linalg import norm\n"
                     "from . import gpa\nfrom anomattr.models import HttpModel\n"
                     "def f():\n    from sklearn import svm\n")
    assert _foreign_imports(tree) == [(1, "scipy"), (6, "sklearn")]


def _model_calls(tree: ast.Module) -> list[tuple[int, str]]:
    """The (line, function) of each call of ``evaluate`` or ``evaluate_batch``
    inside a function of the module."""
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        found += [(node.lineno, function.name) for node in ast.walk(function)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("evaluate", "evaluate_batch")]
    return sorted(set(found))


@pytest.mark.parametrize("name", ["gpa.py", "baselines.py"])
def test_methods_ask_the_driver_for_rows(name):
    # every method yields its rows to the driver (models.drive), which
    # sends them with the other methods' rows in one call per step
    path = Path(anomattr.__file__).parent / name
    calls = _model_calls(ast.parse(path.read_text(), filename=str(path)))
    assert not calls, "; ".join(f"{name}:{line} {function} calls the model"
                                for line, function in calls)


def test_a_model_call_is_found():
    tree = ast.parse("def f(model, xs):\n    return model.evaluate_batch(xs)\n"
                     "class C:\n    def g(self, x):\n        return self.m.evaluate(x)\n"
                     "def h(run):\n    return (yield run)\n")
    assert _model_calls(tree) == [(2, "f"), (5, "g")]


def _drive_calls(tree: ast.Module) -> list[tuple[int, str]]:
    """The (line, holder) of each call of ``drive``, by name or as an
    attribute, where the holder is the top-level function or class around
    it, or ``<module>``."""
    found = []
    for top in tree.body:
        found += [(node.lineno, getattr(top, "name", "<module>")) for node in ast.walk(top)
                  if isinstance(node, ast.Call) and "drive" in (getattr(node.func, "id", None),
                                                                getattr(node.func, "attr", None))]
    return sorted(found)


@pytest.mark.parametrize("name", ["gpa.py", "baselines.py"])
def test_methods_return_runs_for_the_caller_to_drive(name):
    # a method returns its run, and the caller drives it with the others in
    # one drive (models.drive); the posterior slices too, behind the solve
    path = Path(anomattr.__file__).parent / name
    calls = _drive_calls(ast.parse(path.read_text(), filename=str(path)))
    assert not calls, "; ".join(f"{name}:{line} {holder} drives the model"
                                for line, holder in calls)


def test_a_drive_call_is_found():
    tree = ast.parse("import m\nfrom m import drive\n"
                     "def f(model, run):\n    return drive(model, [run])[0]\n"
                     "class C:\n    def g(self):\n        def h():\n"
                     "            return m.drive(self.model, [])\n        return h\n"
                     "def k(run):\n    return (yield from run)\n"
                     "X = drive(None, [])\n")
    assert _drive_calls(tree) == [(4, "f"), (8, "C"), (12, "<module>")]
