"""Nothing in the package is kept alive by the tests alone.

Every top-level function, class and module constant of src/peakalg is
reached by the program (referenced in src/ outside its own definition),
exported by ``__all__``, imported by the acceptance module or named by the
benchmark's tracer.  A name that only a test calls belongs in the test, or
in tests/oracles.py when several tests use it as an oracle.  The second
test keeps the tracer's tables pointing at functions that exist, so a
deletion cannot break the traced benchmark run unnoticed.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "peakalg"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
TRACER = ROOT / "perfbench" / "tracer.py"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree: ast.Module):
    """(name, node) of the module's top-level functions, classes and
    assigned constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node


def _references(tree: ast.AST) -> Counter:
    """How often each name is used in tree: loaded or assigned names,
    attributes, import aliases and exact string constants (the getattr
    tables)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
            if node.asname:
                out[node.asname] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _own_uses(node: ast.AST) -> Counter:
    """The uses that make up a definition: the whole body of a function or
    class (recursion does not keep it alive), the targets of an assignment."""
    if isinstance(node, ast.Assign):
        return sum((_references(t) for t in node.targets), Counter())
    if isinstance(node, ast.AnnAssign):
        return _references(node.target)
    return _references(node)


def _tracer_tables(tracer: ast.Module) -> list:
    """The (module, function) keys of the tracer's COUNTED and TIMED."""
    keys = []
    for node in tracer.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("COUNTED", "TIMED") for t in node.targets
        ):
            keys.extend(ast.literal_eval(node.value))
    return keys


def _dead_names() -> list:
    trees = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    kept = set(importlib.import_module("peakalg").__all__)
    kept |= {
        alias.name
        for node in ast.walk(_parse(ACCEPTANCE))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("peakalg")
        for alias in node.names
    }
    kept |= set(_references(_parse(TRACER)))
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in _definitions(tree)
        if name not in kept and used[name] <= _own_uses(node)[name]
    ]


def test_every_package_name_is_reached_outside_the_tests():
    dead = _dead_names()
    assert not dead, "reached only by tests: " + ", ".join(dead)


def test_the_tracer_wraps_functions_that_exist():
    tables = _tracer_tables(_parse(TRACER))
    missing = [
        f"{module}.{function}"
        for module, function in tables
        if not callable(getattr(importlib.import_module(f"peakalg.{module}"), function, None))
    ]
    assert tables
    assert not missing, "the tracer wraps missing functions: " + ", ".join(missing)
