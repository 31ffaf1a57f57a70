"""Only peakalg.algebra eliminates, and it eliminates on integers.

Echelon is the one row reduction of the package: span, rank, solve and
determinant all read it.  It scales a rational row to integers on entry
and reduces fraction-free, so Fraction appears only where an answer
leaves it (SpanSolver.coords and exact_det), never inside the class.
exact_det reads its determinant off an Echelon: an elimination of its own
would need a loop inside a loop or a write into a row, and it has
neither.  And no other module of the package imports fractions: their
rows are ints, and any rational row is the core's to scale.
"""

import ast
import inspect
from pathlib import Path

import oracles

SRC = Path(__file__).resolve().parent.parent / "src" / "peakalg"
ALGEBRA = ast.parse((SRC / "algebra.py").read_text())


def _imports_fractions(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            return True
        if isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
            return True
    return False


def _names(tree: ast.AST) -> set:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _top(name: str) -> ast.AST:
    (node,) = [n for n in ALGEBRA.body if getattr(n, "name", None) == name]
    return node


LOOPS = (ast.For, ast.While, ast.comprehension)


def own_elimination(func: ast.AST) -> list:
    """The node types of the loops nested in another loop, and of the
    writes into a subscript, in a function: what an elimination needs."""
    found = []

    def visit(node, in_loop):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, LOOPS) and in_loop:
                found.append(type(child).__name__)
            if isinstance(child, (ast.Assign, ast.AugAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                found.extend("write" for t in targets if isinstance(t, ast.Subscript))
            visit(child, in_loop or isinstance(child, LOOPS))

    visit(func, False)
    return found


def test_only_algebra_imports_fractions():
    modules = sorted(SRC.glob("*.py"))
    found = [p.name for p in modules if _imports_fractions(ast.parse(p.read_text()))]
    assert found == ["algebra.py"]


def test_the_echelon_class_names_no_fraction():
    names = _names(_top("Echelon"))
    assert {"gcd", "integer_row", "add_multiple"} <= names
    assert "Fraction" not in names


def test_exact_det_reads_an_echelon_and_eliminates_nothing_itself():
    det = _top("exact_det")
    assert "Echelon" in _names(det)
    assert not own_elimination(det)


def test_the_lint_sees_the_elimination_that_exact_det_replaced():
    (replaced,) = ast.parse(inspect.getsource(oracles.reference_det)).body
    assert {"For", "comprehension", "write"} <= set(own_elimination(replaced))
