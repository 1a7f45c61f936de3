"""Invariant checks in the package raise typed errors, never bare asserts,
so they still run under python -O; and the package has no runtime
dependencies: it imports only the standard library and itself."""
import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qba")
                 .glob("*.py"))


def test_sources_found():
    assert {"algebra.py", "congruences.py", "terms.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text("utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


def imported_roots(tree: ast.AST) -> set[str]:
    """Top-level names of the absolute imports in a module; relative
    imports stay inside the package."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_itself(path):
    tree = ast.parse(path.read_text("utf-8"), filename=str(path))
    outside = imported_roots(tree) - sys.stdlib_module_names - {"qba"}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_import_guard_sees_third_party_imports():
    tree = ast.parse("import numpy as np\nfrom hypothesis import given\n"
                     "from . import terms\nfrom qba.terms import holds_in\n"
                     "import os.path\n")
    assert imported_roots(tree) - sys.stdlib_module_names == {"numpy", "hypothesis", "qba"}


def test_star_only_copies_stay_in_enumeration():
    # FiniteAlgebra._with_stars checks only the stars; it is for generators
    # that built the rest through the constructor, never for user input.
    users = {p.name for p in SOURCES if "_with_star" in p.read_text("utf-8")}
    assert users == {"algebra.py", "enumeration.py"}


def unused_imports(tree: ast.AST) -> set[str]:
    """The names a module's imports bind that it never reads; `import a.b`
    binds a, and `from __future__` binds nothing."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_no_unused_imports():
    # __init__.py imports to re-export; every other module imports to use.
    unused = {p.name: sorted(names) for p in SOURCES if p.name != "__init__.py"
              if (names := unused_imports(ast.parse(p.read_text("utf-8"))))}
    assert not unused, f"imported but never read: {unused}"


def test_unused_import_check_sees_leftovers():
    tree = ast.parse("from __future__ import annotations\n"
                     "from functools import cache, partial\nimport os.path\n"
                     "import json as j\n@cache\ndef f(): return os.sep\n")
    assert unused_imports(tree) == {"partial", "j"}
