"""Only verify._add loops over the cases of a check.

A ranged check of peakalg.verify is an id, its cases and a body of one
case; _add runs the body over the cases.  This test reads the source of
verify.py for a function nested in a suite whose only statement (past a
docstring and imports) is a for loop over values it is not given: that
loop is a rank loop that belongs in the cases.  It also checks that the
old ranged registration helper is gone.
"""

import ast
from pathlib import Path

VERIFY = Path(__file__).resolve().parent.parent / "src" / "peakalg" / "verify.py"


def _statements(fn: ast.FunctionDef) -> list:
    """The body of fn without its docstring and its imports."""
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return [s for s in body if not isinstance(s, (ast.Import, ast.ImportFrom))]


def _loops_over_own_cases(fn: ast.FunctionDef) -> bool:
    """fn is a lone for loop whose iterable names none of fn's parameters."""
    body = _statements(fn)
    if len(body) != 1 or not isinstance(body[0], ast.For):
        return False
    params = {a.arg for a in fn.args.args}
    return not {n.id for n in ast.walk(body[0].iter) if isinstance(n, ast.Name)} & params


def test_no_suite_closure_is_a_lone_loop_over_its_own_cases():
    tree = ast.parse(VERIFY.read_text())
    suites = [f for f in tree.body if isinstance(f, ast.FunctionDef)]
    suites = [f for f in suites if f.name.startswith("suite_")]
    assert len(suites) >= 12
    found = [
        (suite.name, fn.name, fn.lineno)
        for suite in suites
        for fn in ast.walk(suite)
        if isinstance(fn, ast.FunctionDef) and fn is not suite and _loops_over_own_cases(fn)
    ]
    assert not found


def test_the_ranged_registration_helper_is_gone():
    tree = ast.parse(VERIFY.read_text())
    names = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "_add_ranged" not in names
    assert "_add" in names
