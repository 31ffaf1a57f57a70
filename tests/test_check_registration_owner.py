"""Only the runner loops over the cases of a check and runs it.

A check of peakalg.verify is an id, its cases and a body of one case;
_add declares it, and reporting.run_checks runs the body over the cases.
This test reads the source of verify.py for a function nested in a suite
whose only statement (past a docstring and imports) is a for loop over
values it is not given: that loop is a rank loop that belongs in the
cases.  It also checks that the old ranged registration helper is gone,
and that in the package only reporting.run_checks calls run_check, so a
check runs nowhere but in the runner.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "peakalg"
VERIFY = PACKAGE / "verify.py"


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


def _run_check_callers(tree: ast.Module) -> list:
    """(outermost enclosing function, line) of each call of run_check in
    tree, by name or as an attribute; None outside any function."""
    found = []

    def visit(node, outer):
        if isinstance(node, ast.Call):
            func = node.func
            if "run_check" in (getattr(func, "id", None), getattr(func, "attr", None)):
                found.append((outer, node.lineno))
        if outer is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            outer = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, outer)

    visit(tree, None)
    return found


def test_only_the_runner_calls_run_check():
    callers = {
        (path.name, outer)
        for path in sorted(PACKAGE.glob("*.py"))
        for outer, _ in _run_check_callers(ast.parse(path.read_text()))
    }
    assert callers == {("reporting.py", "run_checks")}


# a check registered by running it at once, and a check with no rank run
# directly, as verify once did both
RUN_AT_REGISTRATION = """
def _add(checks: list, check_id: str, cases, body):
    cases = list(cases)

    def run():
        for case in cases:
            body(case)

    if cases:
        checks.append(run_check(check_id, run))


def suite_mr(n_max: int, deep: bool = False) -> list:
    checks = []
    checks.append(run_check("mr/class-recovery", recovery))
    checks.append(reporting.run_check("mr/operators", operators))
    return checks
"""


def test_the_run_check_rule_flags_a_check_run_outside_the_runner():
    tree = ast.parse(RUN_AT_REGISTRATION)
    assert [outer for outer, _ in _run_check_callers(tree)] == ["_add", "suite_mr", "suite_mr"]
