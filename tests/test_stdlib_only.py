"""The package imports nothing outside the standard library.

numpy and sympy may be installed where the tests run, so a stray import
of either would pass every other test; this one reads the imports of
every module of the package and the declared runtime dependencies.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "peakalg"
PYPROJECT = SRC.parent.parent / "pyproject.toml"


def _imported_roots(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_import_is_stdlib_or_the_package():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    stray = {
        (path.name, root)
        for path in modules
        for root in _imported_roots(path)
        if root != "peakalg" and root not in sys.stdlib_module_names
    }
    assert not stray


def test_no_module_imports_dataclasses():
    """The records are plain __slots__ classes: dataclasses (and the
    inspect it loads) would cost every command its import."""
    users = {path.name for path in SRC.glob("*.py") if "dataclasses" in _imported_roots(path)}
    assert not users


def test_runtime_dependencies_stay_empty():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["dependencies"] == []
