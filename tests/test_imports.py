"""Every module-level import in the package is used, every module-level
function and class and every public method or property of a package class
is referenced somewhere, every package name the benchmark reads exists, and
the package needs nothing outside the standard library.

Names listed in a module's ``__all__`` count as used, which covers the
package's re-exports.  The unused-import and unreferenced-definition checks
are pure stdlib ``ast``: nothing is imported or run.
"""

import ast
import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import run_python

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "relfreq"
SEARCHED = ("src", "tests", "scripts", "perfbench")


def _bound_names(tree):
    """(name, line) for every name a module-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str):
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(name, line) for name, line in _bound_names(tree) if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_and_accepts_reexports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Optional, Tuple\n"
        "from .core import single_pass\n"
        "__all__ = ['single_pass']\n"
        "def f(x: Tuple) -> int:\n"
        "    return len(x)\n"
    )
    assert unused_imports(source) == [("os", 2), ("Optional", 3)]


def private_imports(source: str):
    """(name, line) of each underscore name imported from a package module."""
    return [
        (alias.name, node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "relfreq")
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    assert private_imports(path.read_text()) == []


def test_private_import_detector():
    source = (
        "from __future__ import annotations\n"
        "from math import _private\n"
        "from .core import _fold, single_pass\n"
        "def f():\n"
        "    from relfreq.scalars import _hidden\n"
    )
    assert private_imports(source) == [("_fold", 3), ("_hidden", 5)]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _mentions(node):
    """How often each name is read, used as an attribute or imported under node."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.split(".")[-1]] += 1
    return out


def _module_definitions(tree):
    """(name, node) of each module-level function or class."""
    for stmt in tree.body:
        if isinstance(stmt, FUNCTIONS + (ast.ClassDef,)):
            yield stmt.name, stmt


def _member_definitions(tree):
    """("Class.name", node) of each public method or property of a module-level class."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, FUNCTIONS) and not sub.name.startswith("_"):
                    yield f"{stmt.name}.{sub.name}", sub


def _unreferenced(package_sources, other_sources, definitions_of):
    """(module, name) of each definition in the package sources whose name no
    source mentions outside the definition itself."""
    total = Counter()
    definitions = []
    for module, source in package_sources.items():
        tree = ast.parse(source)
        total.update(_mentions(tree))
        definitions += [(module, name, node) for name, node in definitions_of(tree)]
    for source in other_sources:
        total.update(_mentions(ast.parse(source)))
    return [
        (module, name)
        for module, name, node in definitions
        if total[node.name] == _mentions(node)[node.name]
    ]


def unreferenced_definitions(package_sources, other_sources):
    return _unreferenced(package_sources, other_sources, _module_definitions)


def unreferenced_members(package_sources, other_sources):
    return _unreferenced(package_sources, other_sources, _member_definitions)


def _package_and_other_sources():
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    others = [
        path.read_text()
        for folder in SEARCHED
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.parent != PACKAGE
    ]
    return package, others


def test_every_package_definition_is_referenced():
    assert unreferenced_definitions(*_package_and_other_sources()) == []


def test_every_public_member_is_referenced():
    assert unreferenced_members(*_package_and_other_sources()) == []


def test_definition_detector_ignores_self_reference():
    package = {
        "a": "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Lonely:\n    def make(cls):\n        return Lonely()\n",
    }
    assert unreferenced_definitions(package, ["from a import used\n"]) == [
        ("a", "recursive"),
        ("a", "Lonely"),
    ]


def test_member_detector_ignores_self_reference_and_private_names():
    package = {
        "a": "class Poly:\n"
        "    def used(self):\n        return self.chained()\n"
        "    def chained(self):\n        return 1\n"
        "    def recursive(self):\n        return self.recursive()\n"
        "    @property\n    def unread(self):\n        return 2\n"
        "    def _private(self):\n        return 3\n",
    }
    assert unreferenced_members(package, ["Poly().used()\n"]) == [
        ("a", "Poly.recursive"),
        ("a", "Poly.unread"),
    ]


def test_cli_imports_only_the_standard_library():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import relfreq.cli\n"
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "relfreq" in loaded
    assert [m for m in loaded if m not in sys.stdlib_module_names and m != "relfreq"] == []


def benchmark_names():
    """(module, attribute path) of each package name the benchmark reads:
    every name a ``perfbench`` module imports from the package, every
    ``relfreq.<module>.<name>`` it reads, and every tracer target."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "relfreq":
                names.update((node.module, alias.name) for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                  and isinstance(node.value.value, ast.Name) and node.value.value.id == "relfreq"
                  and not node.attr.startswith("__")):
                names.add((f"relfreq.{node.value.attr}", node.attr))
            elif (isinstance(node, ast.Assign) and path.name == "tracing.py"
                  and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
                names.update((module, attr) for _, module, attr in ast.literal_eval(node.value))
    return sorted(names)


def test_every_name_the_benchmark_reads_resolves():
    # the benchmark's own tests need a number for every traced layer, so a
    # deleted name would otherwise show only in its slow smoke runs
    names = benchmark_names()
    assert ("relfreq.kofn", "build_lincon_f") in names
    assert ("relfreq.core", "MultilinearPoly.evaluate") in names
    missing = []
    for module, path in names:
        obj = importlib.import_module(module)
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if not (callable(obj) or inspect.ismodule(obj)):
            missing.append(f"{module}.{path}")
    assert missing == []
