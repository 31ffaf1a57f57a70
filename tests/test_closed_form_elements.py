"""Each closed form and builder states its coordinates and makes one element.

The closed forms (*_on_* and *_formula), the builders (*_number and
imchi_basis) and the entries of hopf.GENERATORS build a combination of
class sums by one ClassAlgebra.element call on its coordinates, and
check_builder_relations and check_pi_number_forms compare coordinates.
This test reads the source of maps.py, commutative.py and hopf.py for the
other way to build one, on elements: AlgElem.zero, .scale, and +, - or
unary - applied to calls.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "peakalg"

BUILDERS = re.compile(
    r"[a-z0-9]+_on_[a-z0-9]+|[a-z0-9_]+_formula|[a-z0-9_]+_number|imchi_basis"
    r"|check_builder_relations|check_pi_number_forms"
)


def _is_element_sum(node) -> bool:
    """node builds an element from elements: AlgElem.zero(...), x.scale(...),
    a + or - with a call on either side, or - applied to a call."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        owner = node.func.value
        return node.func.attr == "scale" or (
            node.func.attr == "zero" and isinstance(owner, ast.Name) and owner.id == "AlgElem"
        )
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        return isinstance(node.left, ast.Call) or isinstance(node.right, ast.Call)
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Call)
    )


def _builders(module: str) -> dict:
    """name -> the top-level function of that name or the GENERATORS value,
    for the builders of a module."""
    tree = ast.parse((SRC / module).read_text())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and BUILDERS.fullmatch(node.name):
            out[node.name] = node
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "GENERATORS" for t in node.targets
        ):
            out["GENERATORS"] = node.value
    return out


def _element_sums(module: str) -> list:
    """The builders of a module that build an element from elements."""
    return sorted(
        name
        for name, node in _builders(module).items()
        if any(_is_element_sum(child) for child in ast.walk(node))
    )


def test_the_builders_are_found():
    assert {"chi_on_y", "chi_on_x", "imchi_basis", "phi_on_y0"} <= set(_builders("maps.py"))
    found = set(_builders("commutative.py"))
    assert {"y0_number", "phi_y_number_formula", "pi_peak_number_formula"} <= found
    assert {"check_builder_relations", "check_pi_number_forms"} <= found
    assert "check_ker_beta2_on_sol" not in found
    assert set(_builders("hopf.py")) == {"GENERATORS"}


def test_no_closed_form_builder_or_generator_sums_elements():
    assert {m: _element_sums(m) for m in ("maps.py", "commutative.py", "hopf.py")} == {
        "maps.py": [],
        "commutative.py": [],
        "hopf.py": [],
    }


def test_the_element_sum_idioms_are_recognised():
    texts = (
        "AlgElem.zero('B', n)",
        "x_basis('D', n, j).scale(2)",
        "y(n, j) - y(n, j - 1)",
        "out + peak_number(n, i)",
        "-y_number(n - 1, n - 1)",
        "alg.zero()",
        "n - 2 * i",
        "-c",
        "alg.element({j: 1, j - 1: -1})",
    )
    nodes = [ast.parse(text).body[0].value for text in texts]
    assert [_is_element_sum(node) for node in nodes] == [True] * 5 + [False] * 4
