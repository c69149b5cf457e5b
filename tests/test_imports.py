"""No module of the package or of the tests imports a name that it never uses.

Each ``src/strictq/*.py`` and ``tests/*.py`` file is parsed with ``ast``.
A name bound by an import counts as used when the file reads it anywhere
(alone or as the root of an attribute chain) or lists it in ``__all__``;
``from __future__`` imports are exempt, and so is an import made for its
side effect, marked ``# noqa: F401`` on its line with the reason.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "strictq").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """``name (line n)`` for every imported name that the source never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" not in lines[
                node.lineno - 1]:
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scanner_on_known_source():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "import sys  # noqa: F401  (side effect)\n"
        "from numpy import pi, e as euler\n"
        "__all__ = ['pi']\n"
        "def f():\n"
        "    from math import tau\n"
        "    return os.path.join('a', 'b')\n"
    )
    assert unused_imports(source) == ["js (line 3)", "euler (line 5)", "tau (line 8)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
