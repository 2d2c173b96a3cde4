import ast
import sys
from pathlib import Path

import pytest

import anomattr

SOURCES = sorted(p for p in Path(anomattr.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, "; ".join(f"{path.name}:{line} imports {name!r}, never read"
                                 for line, name in unused)


def test_an_unused_import_is_found():
    tree = ast.parse("import math\nimport os\nfrom json import dumps as d\nos.getpid()\n")
    assert _unused_imports(tree) == [(1, "math"), (3, "d")]


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
