"""Every module-level import in the package is used, every module-level
function and class and every public method or property of a package class
is referenced somewhere, only ``core.finalize`` makes a report, no package
code sets ``LadderCell.index``, the oracle imports no package module but
``scalars``, every package name the benchmark reads exists, and the package
needs nothing outside the standard library.

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


def package_imports(source: str):
    """The package modules a source imports, anywhere in it: ``core`` for
    ``from .core import x``, ``from . import core``, ``import relfreq.core``
    and ``from relfreq.core import x``, and ``relfreq`` for the package."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level and parts[0] == "relfreq":
                parts = parts[1:]
            elif not node.level:
                continue
            out.update([parts[0]] if parts[0] else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "relfreq":
                    out.add(parts[1] if len(parts) > 1 else "relfreq")
    return out


def test_oracle_imports_no_package_module_but_scalars():
    # the oracle is the engine's independent reference: it shares only the
    # parsing of exact inputs with the code it checks
    assert package_imports((PACKAGE / "oracle.py").read_text()) <= {"scalars"}


def test_package_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from fractions import Fraction\n"
        "from .scalars import as_exact\n"
        "from . import core\n"
        "import relfreq.ladder\n"
        "from relfreq.kofn import KofnSpec\n"
        "def f():\n"
        "    import relfreq\n"
        "    from .genfunc import UniPoly\n"
    )
    assert package_imports(source) == {"scalars", "core", "ladder", "kofn", "relfreq", "genfunc"}


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


def one_maker_breaches(module: str, source: str):
    """(function, line) of each call in ``module`` that makes a report or a
    ladder cell the wrong way: ``ReliabilityReport(...)`` anywhere but in
    ``core.finalize``, and ``LadderCell`` given an index, by keyword or as
    its sixth argument, anywhere.  The function is the enclosing
    module-level function or class, or None."""
    out = []
    for stmt in ast.parse(source).body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if (callee == "ReliabilityReport" and (module, owner) != ("core", "finalize")
                    or callee == "LadderCell" and (
                        len(node.args) > 5 or any(kw.arg == "index" for kw in node.keywords))):
                out.append((owner, node.lineno))
    return out


def test_finalize_makes_every_report_and_no_cell_is_given_an_index():
    # one constructor per job: a report comes from finalize alone, and
    # LadderCell.index, which nothing reads, is set by no package code
    breaches = {path.stem: one_maker_breaches(path.stem, path.read_text())
                for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: found for module, found in breaches.items() if found} == {}


def test_one_maker_detector():
    source = (
        "from .core import ReliabilityReport\n"
        "from . import ladder\n"
        "def finalize():\n    return ReliabilityReport(1)\n"
        "def closed_form():\n    return ReliabilityReport(2)\n"
        "def cell(i):\n    return ladder.LadderCell(*parts(), index=i)\n"
        "def plain():\n    return ladder.LadderCell(*parts())\n"
        "def sixth(i):\n    return LadderCell(a, b, c, S, T, i)\n"
    )
    assert one_maker_breaches("core", source) == [("closed_form", 6), ("cell", 8), ("sixth", 12)]
    assert one_maker_breaches("kofn", source) == [
        ("finalize", 4), ("closed_form", 6), ("cell", 8), ("sixth", 12)]


def test_cli_imports_only_the_standard_library():
    # genfunc serves the identical-component checks; no CLI path needs it
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import relfreq.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "relfreq.cli" in loaded and "relfreq.kofn" in loaded
    assert "relfreq.genfunc" not in loaded
    top = {m.split(".")[0] for m in loaded}
    assert [m for m in sorted(top) if m not in sys.stdlib_module_names and m != "relfreq"] == []


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
