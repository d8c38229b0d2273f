"""Design rules of the package, checked on its source with ``ast``.

Six rules:

* every public top-level name a module defines is read in the package: by
  another module, or by its own module outside the name's own definition.
  So no public helper is there only for the tests. The few names that are
  read from outside alone are on the allowlist below, each with its reason;
* the modules import one another at run time in one declared order, each
  only from modules before it, so the import graph has no cycle. Imports
  under ``if TYPE_CHECKING:`` are not run and do not count;
* ``exec``, ``eval`` and ``compile`` are called only in the functions on
  the allowlist below, each with its reason, so no other code of the
  package runs text as code;
* importing the pipeline and the command line loads none of the modules in
  ``SLOW_IMPORTS``, which cost milliseconds each at start-up and which the
  package needs only where it runs an external command or reads a YAML
  file;
* the package imports nothing outside the standard library but PyYAML, and
  ``pyproject.toml`` declares PyYAML as its one dependency;
* no module's source is larger than ``MODULE_BYTES`` bytes. Where no
  bytecode is cached, every start-up compiles the package, and the largest
  module's compile sets the peak memory of a short run: a 22.7 KB
  ``mutation.py`` raised the benchmark's ``peak_rss_mb`` by about 0.3 MiB.
  A module that outgrows the ceiling is split.
"""
from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "specsmith"

LAYERS = (
    "errors", "expr", "parser", "schemata", "clauses", "evaluate", "tracefile",
    "mutation", "verifier", "repair", "conversation", "config", "pipeline", "cli",
)

# (module, name) -> why nothing in the package reads it.
UNREAD_ALLOWED = {
    ("__init__", "__version__"): "the package's version, read by tools that inspect the package",
    ("clauses", "render_clause"): "read only by the benchmark's tests; it goes when the benchmark next changes",
}

# (module, function) -> why it may call exec, eval or compile.
DYNAMIC_CODE_ALLOWED = {
    ("schemata", "_factory"): (
        "makes the render factory of one plan layout from a source of generated names alone; "
        "a plan's text, tables and sites are its arguments, never its code"
    ),
}
DYNAMIC_CODE = frozenset({"exec", "eval", "compile"})

SLOW_IMPORTS = ("dataclasses", "inspect", "statistics", "subprocess", "yaml")

# The top-level packages the package may import besides the standard library.
THIRD_PARTY_ALLOWED = frozenset({"yaml"})
DEPENDENCIES = ["pyyaml>=6.0"]

MODULE_BYTES = 20_000


def parse_modules(package: Path = PACKAGE) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}


def _top_level(body: list[ast.stmt]):
    """The statements run at import, looking inside ``if`` and ``try``."""
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from _top_level(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            yield from _top_level(node.body + node.orelse + node.finalbody)


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def defined_names(tree: ast.Module) -> set[str]:
    """The public names a module defines at its top level: functions,
    classes and assigned names, not names it imports."""
    names = set()
    for node in _top_level(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for target in node.targets for t in ast.walk(target) if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if _is_public(name) and name != "__all__"}


def _package_module(node: ast.ImportFrom, modules) -> str | None:
    """The package module an ``import from`` names, or None."""
    if node.level == 1 and node.module in modules:
        return node.module
    if node.level == 0 and node.module and node.module.startswith("specsmith."):
        return node.module.split(".", 1)[1]
    return None


def names_read(tree: ast.Module, modules) -> set[tuple[str, str]]:
    """The (module, name) pairs a module reads from other package modules:
    by ``from .module import name``, or as ``module.name`` through a module
    it imported."""
    read = set()
    aliases = {}  # local name -> package module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _package_module(node, modules)
            if source is not None:
                read.update((source, alias.name) for alias in node.names)
            if node.level == 1 and node.module is None:  # from . import module
                aliases.update({alias.asname or alias.name: alias.name for alias in node.names})
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            read.add((aliases[node.value.id], node.attr))
    return read


def names_used_at_home(tree: ast.Module) -> set[str]:
    """The names a module's own code loads, each outside the function or
    class of that name, so a recursive call is not a reader."""
    used = set()
    for node in tree.body:
        loads = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            loads.discard(node.name)
        used |= loads
    return used


def unread_public_names(modules: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """Public (module, name) pairs that nothing in the package reads."""
    read = set()
    for module, tree in modules.items():
        read |= {(source, name) for source, name in names_read(tree, modules) if source != module}
        read |= {(module, name) for name in names_used_at_home(tree)}
    return {(module, name) for module, tree in modules.items() for name in defined_names(tree)} - read


def _type_checking_only(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def runtime_imports(tree: ast.Module, modules) -> set[str]:
    """The package modules a module imports when it runs, at any depth, not
    counting ``if TYPE_CHECKING:`` blocks."""
    imported = set()

    def visit(node):
        if isinstance(node, ast.If) and _type_checking_only(node):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.ImportFrom):
            source = _package_module(node, modules)
            if source is not None:
                imported.add(source)
            elif node.level == 1 and node.module is None:
                imported.update(alias.name for alias in node.names if alias.name in modules)
        elif isinstance(node, ast.Import):
            imported.update(
                alias.name.split(".", 1)[1] for alias in node.names if alias.name.startswith("specsmith.")
            )
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return imported


def layering_breaches(modules: dict[str, ast.Module], layers=LAYERS) -> list[str]:
    """Every module missing from ``layers``, and every runtime import of a
    module not before the importer in ``layers``."""
    order = {name: position for position, name in enumerate(layers)}
    order["__init__"] = len(layers)  # the package imports nothing of its own
    breaches = [f"{module} has no place in the declared order" for module in modules if module not in order]
    for module, tree in modules.items():
        for imported in sorted(runtime_imports(tree, modules)):
            if order.get(imported, -1) >= order.get(module, -1):
                breaches.append(f"{module} imports {imported}, which does not come before it")
    return breaches


def dynamic_code_calls(modules: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """The (module, enclosing function) of every call of ``exec``, ``eval``
    or ``compile``, by name or through ``builtins``. A method is named
    ``Class.method``; a call outside any function has the name ``""``."""
    found = set()

    def visit(module: str, node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id in DYNAMIC_CODE) or (
                isinstance(func, ast.Attribute)
                and func.attr in DYNAMIC_CODE
                and isinstance(func.value, ast.Name)
                and func.value.id == "builtins"
            ):
                found.add((module, where))
        for child in ast.iter_child_nodes(node):
            visit(module, child, where)

    for module, tree in modules.items():
        visit(module, tree, "")
    return found


def foreign_imports(modules: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """The (module, top-level package) of every absolute import, at any depth
    and ``if TYPE_CHECKING:`` included, of a package outside the standard
    library, specsmith and ``THIRD_PARTY_ALLOWED``."""
    known = sys.stdlib_module_names | THIRD_PARTY_ALLOWED | {"specsmith"}
    found = set()
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update((module, top) for top in (name.split(".")[0] for name in names) if top not in known)
    return found


def declared_dependencies(pyproject: str) -> list[str]:
    """The strings of the ``dependencies`` list of ``pyproject.toml``'s text
    (a regular expression, as Python 3.10 has no TOML reader)."""
    block = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.MULTILINE | re.DOTALL)
    return re.findall(r'"([^"]*)"', block.group(1)) if block else []


def oversized_modules(package: Path = PACKAGE, ceiling: int = MODULE_BYTES) -> dict[str, int]:
    """Each module whose source is larger than ``ceiling`` bytes, with its size."""
    sizes = {path.stem: path.stat().st_size for path in sorted(package.glob("*.py"))}
    return {name: size for name, size in sizes.items() if size > ceiling}


class TestPublicNamesHaveAReader:
    def test_every_public_name_is_read_in_the_package(self):
        assert unread_public_names(parse_modules()) == set(UNREAD_ALLOWED)


class TestImportLayers:
    def test_runtime_imports_follow_the_declared_order(self):
        # schemata imports mutation for its annotations alone, under
        # TYPE_CHECKING, so that back edge does not count.
        assert layering_breaches(parse_modules()) == []


class TestDynamicCode:
    def test_only_allowlisted_functions_run_text_as_code(self):
        assert dynamic_code_calls(parse_modules()) == set(DYNAMIC_CODE_ALLOWED)

    def test_a_call_anywhere_else_breaks_the_rule(self):
        modules = parse_modules()
        modules["evaluate"].body += ast.parse("def _shortcut(text):\n    return eval(text)\n").body
        modules["verifier"].body += ast.parse("class _Check:\n    def run(self, s):\n        builtins.exec(s)\n").body
        assert dynamic_code_calls(modules) - set(DYNAMIC_CODE_ALLOWED) == {
            ("evaluate", "_shortcut"),
            ("verifier", "_Check.run"),
        }


class TestImportCost:
    def test_the_entry_points_import_no_slow_module(self):
        # A fresh interpreter; a module it loads before the package does is not the package's cost.
        code = (
            "import sys; before = set(sys.modules); import specsmith.pipeline, specsmith.cli; "
            f"print(*[m for m in {SLOW_IMPORTS!r} if m in sys.modules and m not in before])"
        )
        path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert run.stdout.split() == []


class TestDependencies:
    def test_the_package_imports_only_the_standard_library_and_yaml(self):
        assert foreign_imports(parse_modules()) == set()

    def test_an_import_of_another_package_breaks_the_rule(self):
        modules = parse_modules()
        modules["conversation"].body += ast.parse("def _post():\n    import requests.adapters\n").body
        modules["config"].body += ast.parse("from toml import loads\n").body
        assert foreign_imports(modules) == {("conversation", "requests"), ("config", "toml")}

    def test_pyyaml_is_the_one_declared_dependency(self):
        pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        assert declared_dependencies(pyproject) == DEPENDENCIES


class TestModuleSize:
    def test_every_module_is_within_the_byte_ceiling(self):
        assert oversized_modules() == {}

    def test_a_module_past_the_ceiling_breaks_the_rule(self, tmp_path):
        (tmp_path / "small.py").write_text("x = 1\n")
        (tmp_path / "large.py").write_text("#" * MODULE_BYTES + "\n")
        assert oversized_modules(tmp_path) == {"large": MODULE_BYTES + 1}
