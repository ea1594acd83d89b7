"""No module of the package imports or reads a private name of another,
every import sits at the top level of its module, and the CLI imports no
standard-library module that a cold call cannot afford."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "adelic"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _sibling_private_names(path: Path):
    """(line, name) for each underscore name of a sibling module that the
    module at path imports, or reads through a module it imported; the
    package's modules import each other relatively."""
    tree = ast.parse(path.read_text(), str(path))
    modules, out = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if _private(alias.name):
                    out.append((node.lineno, alias.name))
                elif node.module is None:  # from . import polynomials as poly
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and _private(node.attr):
            out.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return out


def test_modules_use_only_public_names_of_siblings():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in _sibling_private_names(path)]
    assert found == []


def _function_imports(path: Path):
    """(line, function name) for each import inside a function body."""
    tree = ast.parse(path.read_text(), str(path))
    return [(node.lineno, func.name)
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_modules_import_only_at_the_top_level():
    found = [f"{path.name}:{line}: in {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in _function_imports(path)]
    assert found == []


@pytest.mark.parametrize("modules", [("dataclasses", "inspect"), ("fractions", "decimal", "numbers"),
                                     ("argparse", "gettext")], ids=" ".join)
def test_cli_import_loads_no_dataclasses(modules):
    """Every CLI call is a fresh process, and `dataclasses` (with `inspect`)
    would be most of its import time; `argparse` (with `gettext`) and
    `fractions` (with `decimal` and `numbers`) were its largest imports
    after that."""
    probe = ("import sys; before = set(sys.modules); import adelic.cli; "
             f"print(sorted(set({modules!r}) & (set(sys.modules) - before)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _parser_callers():
    """{name: names of the functions calling it} for each `parse_*`
    function of the package, public or private, over all of its modules."""
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    callers = {func.name: set() for tree in trees for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef)
               and func.name.lstrip("_").startswith("parse_")}
    for tree in trees:
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in callers and name != func.name:
                        callers[name].add(func.name)
    return callers


def test_every_parser_has_a_caller_in_the_package():
    """A parser only tests call reads text nothing in the package hands it."""
    callers = _parser_callers()
    assert "parse_adele" in callers and "_parse_ultra" in callers
    assert sorted(name for name, found in callers.items() if not found) == []


def _polynomial_callers():
    """{name: names of the functions calling it, itself excluded} for each
    module-level function of `polynomials`.  A call counts when it names
    the function bare inside `polynomials` or in a module importing it by
    name, or reads it off the module imported as a whole; so
    `_PackedRing.mul` or a set's `add` calls no helper of that name."""
    own = ast.parse((SRC / "polynomials.py").read_text())
    callers = {func.name: set() for func in own.body if isinstance(func, ast.FunctionDef)}
    for path in sorted(SRC.glob("*.py")):
        tree = own if path.name == "polynomials.py" else ast.parse(path.read_text(), str(path))
        bare = {name: name for name in callers} if tree is own else {}
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module == "polynomials":
                        bare[alias.asname or alias.name] = alias.name
                    elif node.module is None and alias.name == "polynomials":
                        modules.add(alias.asname or alias.name)
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                call = node.func
                if isinstance(call, ast.Name):
                    name = bare.get(call.id)
                elif isinstance(call, ast.Attribute) and isinstance(call.value, ast.Name) \
                        and call.value.id in modules:
                    name = call.attr
                else:
                    continue
                if name in callers and name != func.name:
                    callers[name].add(func.name)
    return callers


def test_every_polynomial_helper_has_a_caller_in_the_package():
    """A module-level function of `polynomials` that only tests call is a
    second toolkit beside the one the factoring and lifting paths use."""
    callers = _polynomial_callers()
    assert callers["pinverse"] and callers["norm_int"] and callers["divmod_monic"]
    assert sorted(name for name, found in callers.items() if not found) == []


def test_only_placesets_builds_extension_sets_by_name():
    """Other modules build field-generic sets through `empty_set`,
    `everything_set` and `finite_set`, so the choice of set type for a
    field is made in `placesets` alone."""
    owned = {"empty_kset", "everything_kset", "finite_kset"}
    found = [f"{path.name}:{node.lineno}: {alias.name}"
             for path in sorted(SRC.glob("*.py")) if path.name != "placesets.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ImportFrom)
             for alias in node.names if alias.name in owned]
    assert found == []
