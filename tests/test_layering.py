"""No module of the package imports or reads a private name of another,
every import sits at the top level of its module, the CLI imports no
standard-library module that a cold call cannot afford, every function and
method of the package is reached from the CLI, the scripts or the declared
API, and every name the perfbench tracer wraps exists."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "adelic"
SCRIPTS = ROOT / "scripts"


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


# The package's API beyond `cli.main` and what `scripts/*.py` use, one row
# per use: (entries, what uses them), each entry `module.function` or
# `module.Class.method`.
DECLARED_API = (
    (("ultrafilters.partition_pick",), "acceptance criterion 3, partition selection"),
    (("spectrum.generator",), "acceptance criterion 5, ideal laws"),
    (("spectrum.restrict_to_level", "spectrum.LevelIdeal.member", "spectrum.LevelIdeal.restrict"),
     "acceptance criterion 7, level chains"),
    (("spectrum.quotient_eval", "adeles.Adele.sub"), "acceptance criterion 8, quotients"),
    (("extensions.contract_prime",), "acceptance criterion 9, fiber structure"),
    (("spectrum.closed_ideal", "spectrum.ClosedIdeal.member"), "acceptance criterion 10, topology"),
    (("adeles.diagonal_rational",), "the README library example and perfbench spectrum-warm"),
    (("registry.clear_registry",), "tests/conftest.py"),
)


def _is_function(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


class _Package:
    """The definitions of `src/adelic` and what each one references.

    A definition is a module-level function or class (`module.name`) or a
    method of such a class (`module.Class.name`).  A bare name resolves
    through its module's definitions and relative imports, as
    `from .places import factor_prime` binds it; an attribute of a module
    imported whole resolves in that module; any other attribute reaches
    every method of that name, since its receiver's class is not known."""

    def __init__(self):
        self.modules = {path.stem: ast.parse(path.read_text(), str(path))
                        for path in sorted(SRC.glob("*.py"))}
        self.defs, self.methods, self.imports, self.aliases = {}, {}, {}, {}
        for module, tree in self.modules.items():
            for node in tree.body:
                if _is_function(node) or isinstance(node, ast.ClassDef):
                    self.defs[f"{module}.{node.name}"] = node
                if isinstance(node, ast.ClassDef):
                    for item in filter(_is_function, node.body):
                        key = f"{module}.{node.name}.{item.name}"
                        self.defs[key] = item
                        self.methods.setdefault(item.name, set()).add(key)
                elif isinstance(node, ast.ImportFrom) and node.level:
                    for alias in node.names:
                        bound = (module, alias.asname or alias.name)
                        if node.module is None:  # from . import polynomials as poly
                            self.aliases[bound] = alias.name
                        else:
                            self.imports[bound] = (node.module, alias.name)

    def resolve(self, module: str, name: str):
        if f"{module}.{name}" in self.defs:
            return f"{module}.{name}"
        imported = self.imports.get((module, name))
        return self.resolve(*imported) if imported else None

    def references(self, module: str, node) -> set:
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(self.resolve(module, sub.id))
            elif isinstance(sub, ast.Attribute):
                whole = self.aliases.get((module, getattr(sub.value, "id", None)))
                out |= {self.resolve(whole, sub.attr)} if whole \
                    else self.methods.get(sub.attr, set())
        return out - {None}

    def edges(self, key: str) -> set:
        """A function reaches what its code references; a class reaches its
        bases, decorators and class-body statements, and its dunder
        methods, which the interpreter calls on its instances."""
        module, node = key.split(".")[0], self.defs[key]
        if _is_function(node):
            return self.references(module, node)
        out = {f"{key}.{item.name}" for item in filter(_is_function, node.body)
               if item.name.startswith("__") and item.name.endswith("__")}
        for part in node.bases + node.keywords + node.decorator_list \
                + [item for item in node.body if not _is_function(item)]:
            out |= self.references(module, part)
        return out

    def roots(self) -> set:
        """What runs at import (module-level statements), `cli.main`, and
        every name that `scripts/*.py` imports or reads as an attribute."""
        out = {"cli.main"}
        for module, tree in self.modules.items():
            for node in tree.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                         ast.Import, ast.ImportFrom)):
                    out |= self.references(module, node)
        for path in sorted(SCRIPTS.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("adelic."):
                    out |= {self.resolve(node.module[len("adelic."):], alias.name)
                            for alias in node.names}
                elif isinstance(node, ast.Attribute):
                    out |= self.methods.get(node.attr, set())
        return out - {None}

    def reached(self, roots) -> set:
        seen, todo = set(), list(roots)
        while todo:
            key = todo.pop()
            if key not in seen:
                seen.add(key)
                todo.extend(self.edges(key) - seen)
        return seen


def test_every_definition_is_reached_from_the_cli_the_scripts_or_the_declared_api():
    """A function or method that nothing the CLI, the scripts or a declared
    use reaches is a code path only tests produce; it belongs with them.
    Each declared entry exists, and the table declares only what the other
    roots do not reach."""
    package = _Package()
    declared = {entry for entries, _ in DECLARED_API for entry in entries}
    assert sorted(declared - set(package.defs)) == []
    without_table = package.reached(package.roots())
    assert sorted(declared & without_table) == []
    reached = package.reached(package.roots() | declared)
    assert {"cli._parse_ultra", "adeles.parse_adele", "polynomials.pinverse",
            "localfields.LocalContext.__init__",
            "ultrafilters.FreeQUltrafilter._extend_chain"} <= reached
    assert sorted(key for key, node in package.defs.items()
                  if _is_function(node) and key not in reached) == []


def test_only_placesets_builds_extension_sets_by_name():
    """Other modules build field-generic sets through `empty_set` and
    `finite_set`, so the choice of set type for a
    field is made in `placesets` alone."""
    owned = {"empty_kset", "everything_kset", "finite_kset"}
    found = [f"{path.name}:{node.lineno}: {alias.name}"
             for path in sorted(SRC.glob("*.py")) if path.name != "placesets.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ImportFrom)
             for alias in node.names if alias.name in owned]
    assert found == []


def test_tracer_names_resolve_in_the_package(monkeypatch):
    """perfbench's tracer wraps and reads package attributes by name, so a
    rename or deletion in the package would break `perfbench/run.py
    --trace 1`.  The tracer is loaded from its file without writing
    bytecode, and its `install` is never called."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def resolve(module, attr):
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        return obj

    names = [(module, attr) for _, module, attr, _ in tracing.WRAPPED]
    names += tracing.CACHES.values()
    assert [name for name in names if resolve(*name) is None] == []
    assert [name for name in tracing.CACHES.values()
            if not hasattr(resolve(*name), "cache_info")] == []


def test_package_exports_every_domain_error():
    """The CLI exits 2 on any `AdelicError`, so `adelic` lists each one in
    `__all__`."""
    import adelic
    from adelic import errors

    domain = {name for name, obj in vars(errors).items()
              if isinstance(obj, type) and issubclass(obj, errors.AdelicError)}
    assert sorted(domain - set(adelic.__all__)) == []
    assert [name for name in domain if getattr(adelic, name) is not getattr(errors, name)] == []
