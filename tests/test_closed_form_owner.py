"""Each closed-form rule is written in one function.

The sign-forgetting closed forms test a peak set against a window of the
label: a comparison mask & ~window == 0 with a computed window (a
constant, as in mask & ~3 == 0, is a fixed label frame, not a window).
This test reads the source for that comparison: only one function of
maps.py makes it, and verify.py and commutative.py, which read the closed
forms through maps, make none.  In mr.py only one function walks the
interval blocks that build the S and S-tilde class sums.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "peakalg"


def _is_window_test(node) -> bool:
    """node is mask & ~window == 0 with a window that is not a constant."""
    if not (isinstance(node, ast.Compare) and len(node.ops) == 1):
        return False
    left, right = node.left, node.comparators[0]
    return (
        isinstance(node.ops[0], ast.Eq)
        and isinstance(right, ast.Constant)
        and right.value == 0
        and isinstance(left, ast.BinOp)
        and isinstance(left.op, ast.BitAnd)
        and isinstance(left.right, ast.UnaryOp)
        and isinstance(left.right.op, ast.Invert)
        and not isinstance(left.right.operand, ast.Constant)
    )


def _calls(name: str):
    def predicate(node) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == name
        )

    return predicate


def _owners(module: str, predicate) -> set:
    """The names of the innermost functions of a module holding a node
    that satisfies predicate ("<module>" outside any function)."""
    owners = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if predicate(node):
            owners.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse((SRC / module).read_text()), "<module>")
    return owners


def test_one_function_of_maps_tests_a_mask_against_a_window():
    assert len(_owners("maps.py", _is_window_test)) == 1


def test_verify_and_commutative_test_no_mask_against_a_window():
    assert _owners("verify.py", _is_window_test) == set()
    assert _owners("commutative.py", _is_window_test) == set()


def test_one_function_of_mr_builds_the_s_and_stilde_sums():
    assert len(_owners("mr.py", _calls("_interval_blocks"))) == 1


def test_the_window_idiom_is_recognised():
    tests = [
        ast.parse(text).body[0].value
        for text in ("fm & ~window == 0", "g & ~(a | b) == 0", "m & ~3 == 0", "m & window == 0")
    ]
    assert [_is_window_test(t) for t in tests] == [True, True, False, False]
