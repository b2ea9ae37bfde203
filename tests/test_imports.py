"""Every module-level import in the package is used, every module-level
function and class is referenced somewhere, and the package needs nothing
outside the standard library.

Names listed in a module's ``__all__`` count as used, which covers the
package's re-exports.  The unused-import and unreferenced-definition checks
are pure stdlib ``ast``: nothing is imported or run.
"""

import ast
import sys
from collections import defaultdict
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


def _referenced_names(node):
    """Names read, attribute names and imported names anywhere under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[-1])
    return out


def unreferenced_definitions(package_sources, other_sources):
    """(module, name) of each module-level function or class in the package
    sources that no source names outside the definition itself."""
    definitions = []
    owners = defaultdict(set)  # name -> definitions (or None) that mention it
    for module, source in package_sources.items():
        for stmt in ast.parse(source).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (module, stmt.name)
                definitions.append(owner)
            for name in _referenced_names(stmt):
                owners[name].add(owner)
    for source in other_sources:
        for name in _referenced_names(ast.parse(source)):
            owners[name].add(None)
    return [d for d in definitions if not owners[d[1]] - {d}]


def test_every_package_definition_is_referenced():
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    others = [
        path.read_text()
        for folder in SEARCHED
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.parent != PACKAGE
    ]
    assert unreferenced_definitions(package, others) == []


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
