"""Invariant checks in the package raise typed errors, never bare asserts,
so they still run under python -O; and the package has no runtime
dependencies: it imports only the standard library and itself."""
import ast
import dataclasses
import importlib
import re
import sys
from pathlib import Path
from types import ModuleType

import pytest

from qba.algebra import _SECTIONS, FiniteAlgebra

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qba").glob("*.py"))


def test_sources_found():
    assert {"algebra.py", "congruences.py", "terms.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text("utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


def oldest_python() -> tuple[int, int]:
    """The (major, minor) of pyproject.toml's requires-python = ">=X.Y"."""
    text = (ROOT / "pyproject.toml").read_text("utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_as_the_oldest_python(path):
    # The grammar of the oldest supported Python, as far as ast can check
    # it from a newer one (syntax such as except* or type parameters, not
    # newer library calls).
    ast.parse(path.read_text("utf-8"), filename=str(path),
              feature_version=oldest_python())


def test_oldest_python_check_sees_newer_syntax():
    assert oldest_python() == (3, 10)
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(newer, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=oldest_python())


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


def test_algebra_imports_only_stdlib_and_errors():
    # The base layer: the validator and the structure it reads stay free
    # of the modules built on them, so no import cycle grows back.
    tree = ast.parse((ROOT / "src" / "qba" / "algebra.py").read_text("utf-8"))
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert relative == {"errors"}
    assert imported_roots(tree) <= sys.stdlib_module_names


def test_terms_imports_only_stdlib_algebra_errors_fixtures():
    # holds_in decides through the subdirect factors read off the tables;
    # importing quotients or congruences would add their import time to
    # every command that parses an equation.
    tree = ast.parse((ROOT / "src" / "qba" / "terms.py").read_text("utf-8"))
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert relative == {"algebra", "errors", "fixtures"}
    assert imported_roots(tree) <= sys.stdlib_module_names


def test_import_guard_sees_third_party_imports():
    tree = ast.parse("import numpy as np\nfrom hypothesis import given\n"
                     "from . import terms\nfrom qba.terms import holds_in\n"
                     "import os.path\n")
    assert imported_roots(tree) - sys.stdlib_module_names == {"numpy", "hypothesis", "qba"}


def test_star_only_copies_stay_in_enumeration():
    # FiniteAlgebra._with_stars checks only the stars; it is for the
    # enumeration, which built the rest through the constructor, never for
    # user input.
    users = {p.name for p in SOURCES if "_with_star" in p.read_text("utf-8")}
    assert users == {"algebra.py", "enumeration.py"}


def owners(tree: ast.AST, matches) -> list[str]:
    """The function, by name ('<module>' for code outside any), of each
    node of tree that matches, in order."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if matches(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def method_uses(tree: ast.AST, method: str) -> list[str]:
    """The owner of each place that reads the attribute method, a call
    or not."""
    return owners(tree, lambda node: isinstance(node, ast.Attribute)
                  and node.attr == method)


def test_star_only_copies_made_in_the_family_loop():
    # The loop that checks a family makes its copies, so they share the
    # tables its checks were derived from; no generator makes its own.
    tree = ast.parse((ROOT / "src" / "qba" / "enumeration.py").read_text("utf-8"))
    assert method_uses(tree, "_with_stars") == ["_made_and_checked"]


def test_method_use_check_sees_every_site():
    tree = ast.parse("def f(a, s):\n    return a._with_stars(s)\n"
                     "def g(a):\n    yield from a.b._with_stars([], ['x'])\n"
                     "def h(a):\n    return a.with_stars(), '_with_stars'\n"
                     "copy = FiniteAlgebra._with_stars\n")
    assert method_uses(tree, "_with_stars") == ["f", "g", "<module>"]


def instance_dict_uses(tree: ast.AST) -> set[str]:
    """The functions, by name ('<module>' for code outside any), that
    reach an object's attribute dict: x.__dict__, getattr(x, '__dict__')
    or vars(x)."""
    return set(owners(tree, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "__dict__"
        or isinstance(node, ast.Constant) and node.value == "__dict__"
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "vars")))


def test_instance_dict_stays_in_with_stars():
    # Writing an instance dict gets round the frozen dataclass and all of
    # its checks; the one place that does so is the enumeration's
    # star-only copy, which checks the stars it takes.
    uses = {(p.name, fn) for p in SOURCES
            for fn in instance_dict_uses(ast.parse(p.read_text("utf-8")))}
    assert uses == {("algebra.py", "_with_stars")}


def test_instance_dict_check_sees_every_form():
    tree = ast.parse("class A:\n    def f(self):\n        return self.__dict__\n"
                     "    def g(self):\n        return vars(self)['x']\n"
                     "def h(a):\n    'Not a.__dict__.'\n"
                     "    return getattr(a, '__dict__')\n"
                     "def k(a):\n    return a.__doc__, a.vars\n"
                     "d = A().__dict__\n")
    assert instance_dict_uses(tree) == {"f", "g", "h", "<module>"}


def name_uses(tree: ast.AST, name: str) -> list[str]:
    """The owner of each place that reads name: as a bare name, as an
    attribute, or in an import."""
    return owners(tree, lambda node: isinstance(node, ast.Name) and node.id == name
                  or isinstance(node, ast.Attribute) and node.attr == name
                  or isinstance(node, ast.alias) and node.name == name)


def test_fields_checked_only_by_the_two_ways_in():
    # An algebra is made by the constructor, or by _with_stars as a
    # star-only copy of one; they are the only places that check a field.
    uses = {p.name: name_uses(ast.parse(p.read_text("utf-8")), "_check_field")
            for p in SOURCES}
    assert {name: found for name, found in uses.items() if found} == {
        "algebra.py": ["__post_init__", "_with_stars"]}
    tree = ast.parse((ROOT / "src" / "qba" / "algebra.py").read_text("utf-8"))
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef)
              and node.name == "FiniteAlgebra"]
    assert name_uses(cls, "_check_field") == ["__post_init__", "_with_stars"]


def test_name_use_check_sees_every_site():
    tree = ast.parse("from .algebra import _check_field as check\n"
                     "class A:\n    def f(self):\n        _check_field(1, 2)\n"
                     "def g(m):\n    return m._check_field, '_check_field'\n"
                     "def _check_field():\n    pass\n"
                     "h = _check_field\n")
    assert name_uses(tree, "_check_field") == ["<module>", "f", "g", "<module>"]


def private_names_from_algebra(tree: ast.AST) -> set[str]:
    """The names starting with '_' that a module imports from qba.algebra,
    by a relative or an absolute import."""
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level, node.module) in ((1, "algebra"), (0, "qba.algebra"))
            for alias in node.names if alias.name.startswith("_")}


def test_mask_test_stays_in_algebra():
    # The mask test is decided once, as FiniteAlgebra.structure; other
    # modules read that and import no private helper of algebra.py, except
    # _tables, from which the enumeration builds its tables.
    private = {p.name: sorted(names) for p in SOURCES if p.name != "algebra.py"
               if (names := private_names_from_algebra(
                   ast.parse(p.read_text("utf-8"))) - {"_tables"})}
    assert not private, f"private names of algebra.py imported: {private}"


def definitions(tree: ast.Module) -> set[str]:
    """The names a module defines: by def or class at any depth, or by
    assignment at module level. Imports and local variables bind names
    without defining them."""
    defined = {node.name for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            defined.update(n.id for n in ast.walk(node)
                           if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return defined


# Each is derived in one module and imported everywhere else, so that a
# second derivation cannot drift from the first.
ONE_DEFINITION = {"regular_split": "algebra.py", "classes": "partitions.py"}


def test_one_definition_each():
    defined = {p.name: definitions(ast.parse(p.read_text("utf-8"))) for p in SOURCES}
    owners = {name: [module for module, names in defined.items() if name in names]
              for name in ONE_DEFINITION}
    assert owners == {name: [module] for name, module in ONE_DEFINITION.items()}


def test_definition_check_sees_every_form():
    tree = ast.parse("from .partitions import classes\nregular_split = len\n"
                     "class A:\n    def f(self):\n        def classes(keys): pass\n"
                     "def g():\n    chi = 1\n    return chi\n"
                     "tau: int = 0\n")
    assert definitions(tree) == {"regular_split", "A", "f", "classes", "g", "tau"}


def test_sections_list_every_field():
    # The constructor checks, the loader reads and induced_fields derives
    # the fields of _SECTIONS; a field missing there would skip all three.
    keys = [key for key, _ in _SECTIONS]
    assert sorted(keys + ["names", "label"]) == sorted(
        f.name for f in dataclasses.fields(FiniteAlgebra))


def test_private_import_check_sees_both_forms():
    tree = ast.parse("from .algebra import FiniteAlgebra, _tables, _scan\n"
                     "from qba.algebra import _masks\nfrom .terms import _eval\n")
    assert private_names_from_algebra(tree) == {"_tables", "_scan", "_masks"}


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


def test_every_traced_span_exists():
    # The benchmark's span recorder wraps each TRACED name by getattr, so a
    # renamed or removed function would break every traced run. spans.py is
    # read and run here without being imported, so no bytecode is written.
    path = ROOT / "perfbench" / "spans.py"
    spans = ModuleType("spans")
    exec(compile(path.read_text("utf-8"), str(path), "exec"), vars(spans))
    missing = []
    for span, module, attr, cls, _ in spans.TRACED:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not hasattr(owner, attr):
            missing.append(span)
    assert len(spans.TRACED) >= 22 and not missing, missing


def test_benchmark_fixtures_match_the_package():
    # The benchmark's oracle never imports qba, so it parses its own copies
    # of the bundled algebras; an edit to one copy only would benchmark
    # other algebras than the package ships.
    def files(folder):
        return {p.name: p.read_bytes() for p in (ROOT / folder).glob("*.alg")}

    package = files("src/qba/data")
    assert package and files("perfbench/data") == package


def handler_contract_breaks(tree: ast.AST) -> list[str]:
    """What breaks the contract of the cli handlers: a _cmd_* function
    that loads, gates or renders (run() does that from the row), or one
    that is the handler of no row or of several rows of _COMMANDS."""
    handlers = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    table = next((node.value for node in tree.body if isinstance(node, ast.Assign)
                  and ast.unparse(node.targets[0]) == "_COMMANDS"), ast.Tuple(elts=[]))
    rows = [row.elts[2].id for row in table.elts]
    breaks = [f"{fn.name} is the handler of {rows.count(fn.name)} rows"
              for fn in handlers if rows.count(fn.name) != 1]
    for fn in handlers:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func)
            if name in ("_load", "require_valid", "json.dumps"):
                breaks.append(f"{fn.name} calls {name}")
    return breaks


def test_cli_handlers_leave_files_and_output_to_run():
    tree = ast.parse((ROOT / "src" / "qba" / "cli.py").read_text("utf-8"))
    assert handler_contract_breaks(tree) == []


def test_handler_check_sees_breaks():
    tree = ast.parse("def _cmd_a(args):\n    return json.dumps(_load(args.x))\n"
                     "def _cmd_b(args, a):\n    require_valid(a)\n"
                     "def _cmd_c(args):\n    pass\n"
                     "_COMMANDS = (('a', '', _cmd_a), ('b', '', _cmd_b), "
                     "('b2', '', _cmd_b))\n")
    assert handler_contract_breaks(tree) == [
        "_cmd_b is the handler of 2 rows", "_cmd_c is the handler of 0 rows",
        "_cmd_a calls json.dumps", "_cmd_a calls _load", "_cmd_b calls require_valid"]
