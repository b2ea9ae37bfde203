"""Every module-level import in the package is used, and the package
needs nothing outside the standard library.

Names listed in a module's ``__all__`` count as used, which covers the
package's re-exports.  The unused-import check is pure stdlib ``ast``:
nothing is imported or run.
"""

import ast
import sys
from pathlib import Path

import pytest

from helpers import run_python

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "relfreq"


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
