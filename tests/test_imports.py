"""No module of the package or of the tests imports a name that it never uses,
no function of the package imports anything, and the package imports no
scipy module at all.

Each ``src/strictq/*.py`` and ``tests/*.py`` file is parsed with ``ast``.
A name bound by an import counts as used when the file reads it anywhere
(alone or as the root of an attribute chain) or lists it in ``__all__``;
``from __future__`` imports are exempt, and so is an import made for its
side effect, marked ``# noqa: F401`` on its line with the reason.  The
package imports at module level only, so a module's dependencies are
read off its head.

The package runs on numpy alone: its FFTs are ``numpy.fft``'s, its dense
solves ``numpy.linalg``'s and its spline a numpy reproduction of
FITPACK's.  scipy stays a test dependency, the independent oracle of
those pieces.  Importing it would cost the command line most of its
start-up time and load scipy's own OpenBLAS, whose thread pool would
wait behind the threads of numpy's, and the other way round.  A fresh
interpreter that imports ``strictq.cli`` is checked to hold no
``scipy`` module.

Every name that a package module lists in ``__all__`` resolves on the
module, so a deleted name cannot stay behind in its export list.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "strictq").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


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


def function_imports(source: str) -> list:
    """``function (line n)`` for every import inside a function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{node.name} (line {inner.lineno})" for inner in ast.walk(node)
                      if isinstance(inner, (ast.Import, ast.ImportFrom))]
    return found


def scipy_imports(source: str) -> list:
    """``line n`` for every import of ``scipy``, of a submodule or of a name from one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        if any(m == "scipy" or m.startswith("scipy.") for m in modules):
            found.append(f"line {node.lineno}")
    return found


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
    assert function_imports(source) == ["f (line 8)"]
    scipy = ("import scipy.linalg\n"
             "from scipy import linalg\n"
             "from scipy.linalg import svdvals\n"
             "from scipy.fft import fft\n"
             "import numpy, scipy as sc\n"
             "import scipyx\n"
             "from .scipy import fft\n"
             "from numpy.fft import fft\n")
    assert scipy_imports(scipy) == ["line 1", "line 2", "line 3", "line 4", "line 5"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_imports_inside_functions(path):
    assert function_imports(path.read_text()) == []


# the name is kept from when only scipy.linalg was refused; it refuses any scipy import
@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_scipy_linalg(path):
    assert scipy_imports(path.read_text()) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_all_names_resolve(path):
    name = "strictq" if path.stem == "__init__" else f"strictq.{path.stem}"
    module = importlib.import_module(name)
    assert [name for name in getattr(module, "__all__", []) if not hasattr(module, name)] == []


def test_cli_import_loads_no_scipy():
    code = ("import sys, strictq.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
