"""The design rules of the package's source, as one table of rules.

Each module of src/peakalg is read and parsed once.  A rule names an
idiom, either a pattern searched on every line (comments and docstrings
included) or a predicate on syntax-tree nodes; the modules it reads; and
where the idiom may appear.  A module the rule reads and does not name
must not hold the idiom.  A module it names holds the idiom at SOME place,
at an exact number of places, or at exactly the named places.  The place
of a hit is its line, its innermost or outermost enclosing function
("<module>" outside any), or the top-level closed form that holds it.
One walker finds the hits of every rule; one test checks that each rule
holds, and a second that each rule fails once its control snippet is
appended to a module it reads, so no rule can pass by matching nothing.

The rules that are not about where an idiom may appear are plain tests
at the end: no dead names, the tracer's names, the shape of Echelon and
exact_det, the suites' case loops, the one home of the test oracles and
the empty runtime dependencies.
"""

import ast
import importlib
import inspect
import re
import sys
from collections import Counter, namedtuple
from pathlib import Path

import pytest

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "peakalg"
SOURCES = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
TREES = {name: ast.parse(text, filename=name) for name, text in SOURCES.items()}
ALL = tuple(SOURCES)

# the idiom may appear at any number of places, but at one at least
SOME = "some"

# idiom: a compiled line pattern or a predicate on nodes; modules: the
# modules read; unit: what a place is, "line", "innermost", "outermost" or
# "builder"; expect: module -> SOME, a number of places or the names of the
# places (0 for a module not named); control: (module, snippet) whose
# appending breaks the rule
Rule = namedtuple("Rule", "name idiom modules unit expect control")


# ---------------------------------------------------------------------------
# idioms


def _roots(node) -> list:
    """The top-level packages an import statement names; a relative import
    names none."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def _imports_fractions(node) -> bool:
    return "fractions" in _roots(node) or getattr(node, "module", None) == "fractions"


def _imports_outside_stdlib(node) -> bool:
    return any(r != "peakalg" and r not in sys.stdlib_module_names for r in _roots(node))


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


def _calls_run_check(node) -> bool:
    """node calls run_check, by name or as an attribute."""
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and "run_check" in (
        getattr(func, "id", None),
        getattr(func, "attr", None),
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


def _is_docstring(stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(getattr(stmt.value, "value", None), str)


def _sets_fields(stmt) -> bool:
    """stmt assigns attributes of self and nothing else."""
    if not isinstance(stmt, ast.Assign):
        return False
    targets = [t for target in stmt.targets for t in getattr(target, "elts", [target])]
    return all(isinstance(t, ast.Attribute) and ast.unparse(t.value) == "self" for t in targets)


def _is_bare_record(node) -> bool:
    """node is a class whose body is only a docstring, __slots__ and an
    __init__ that assigns fields of self."""
    if not isinstance(node, ast.ClassDef):
        return False
    init = None
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            init = stmt
        elif not _is_docstring(stmt) and ast.unparse(getattr(stmt, "targets", [stmt])[0]) != "__slots__":
            return False
    return init is not None and all(_is_docstring(s) or _sets_fields(s) for s in init.body)


BUILDERS = re.compile(
    r"[a-z0-9]+_on_[a-z0-9]+|[a-z0-9_]+_formula|[a-z0-9_]+_number|imchi_basis"
    r"|check_builder_relations|check_pi_number_forms"
)


def _builder(stmt):
    """The name of a top-level statement that is a closed form or builder,
    "GENERATORS" for hopf's table of generators, else None."""
    if isinstance(stmt, ast.FunctionDef) and BUILDERS.fullmatch(stmt.name):
        return stmt.name
    if isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "GENERATORS" for t in stmt.targets
    ):
        return "GENERATORS"
    return None


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

RECORD = '''
class Node:
    """A node."""

    __slots__ = ("name", "algebra", "rows")

    def __init__(self, name, algebra, rows=None):
        self.name, self.algebra, self.rows = name, algebra, rows
'''


# ---------------------------------------------------------------------------
# the table

# perms holds the composition kernel: compose(u, v) is a bytes.translate of
# v's byte word through a 256-byte table of u, and byte_decoder reads a
# product back by the unpack of a struct.Struct.  A table read by a word
# of another rank gives a wrong product silently, so only perms, behind its
# rank checks, encodes or decodes.  The split tables cut and shift words
# and streams by translate, the statistics kernel reads columns as big ints
# (from_bytes) and writes lanes back (to_bytes), and the tables of inverses
# are built by bytes.maketrans.
KERNEL = {
    "translate": (r"\.translate\b", ("hopf.py", "w = u.translate(t)\n")),
    "byte-table": (
        r"\b(bytes|bytearray)\(\s*range\(\s*256\s*\)",
        ("words.py", "TABLE = bytearray(range(256))\n"),
    ),
    "struct": (r"\bStruct\(", ("mr.py", "DECODE = struct.Struct('3b')\n")),
    "unpack": (r"\.unpack\b", ("mr.py", "word = DECODE.unpack(b)\n")),
    "from-bytes": (r"\bfrom_bytes\b", ("commutative.py", "col = int.from_bytes(b, 'little')\n")),
    "to-bytes": (r"\.to_bytes\b", ("peak.py", "b = col.to_bytes(8, 'little')\n")),
    "maketrans": (r"\bmaketrans\b", ("hopf.py", "INV = bytes.maketrans(a, b)\n")),
}

# perms holds the label codec (popcount, mask_of, members_of, mask_text):
# no other module builds, counts or walks a mask by hand, or prints one by
# bin(; a label reaches a witness or a table through ClassAlgebra.text.
CODEC = {
    "bin-count": (r"""bin\(.*\)\.count\(\s*["']1["']\s*\)""", ("maps.py", "k = bin(m).count('1')\n")),
    "or-shift": (r"\|=\s*1\s*<<", ("verify.py", "mask |= 1 << j\n")),
    "bit-length": (r"\.bit_length\(\)", ("cli.py", "top = mask.bit_length()\n")),
    "bin": (r"\bbin\(", ("maps.py", "text = bin(mask)\n")),
}
NOT_PERMS = tuple(m for m in ALL if m != "perms.py")

RULES = [
    *(
        Rule(f"kernel-{name}", re.compile(pattern), ALL, "line", {"perms.py": SOME}, control)
        for name, (pattern, control) in KERNEL.items()
    ),
    *(
        Rule(f"codec-{name}", re.compile(pattern), NOT_PERMS, "line", {}, control)
        for name, (pattern, control) in CODEC.items()
    ),
    # No module picks the legs of a split by itemgetter: a stream of words
    # of one rank splits at fixed strides, and its legs split as streams.
    Rule(
        "kernel-itemgetter", re.compile(r"\bitemgetter\b"), ALL, "line", {},
        ("maps.py", "from operator import itemgetter\n"),
    ),
    # Echelon in algebra is the one row reduction, on integers: any other
    # module's rows are ints, and a rational row is the core's to scale.
    Rule(
        "fractions-only-in-algebra", _imports_fractions, ALL, "line", {"algebra.py": SOME},
        ("maps.py", "from fractions import Fraction\n"),
    ),
    # the records are plain __slots__ classes and namedtuples: dataclasses,
    # and the inspect it loads, would cost every command its import
    Rule(
        "no-dataclasses", lambda node: "dataclasses" in _roots(node), ALL, "line", {},
        ("cli.py", "import dataclasses\n"),
    ),
    # numpy and sympy may be installed where the tests run, so a stray
    # import of either would pass every other test
    Rule("stdlib-only", _imports_outside_stdlib, ALL, "line", {}, ("hopf.py", "import numpy\n")),
    # the sign-forgetting closed forms test a peak set against a computed
    # window of the label (mask & ~3 == 0 is a fixed frame, not a window):
    # one function of maps does
    Rule(
        "one-window-test", _is_window_test, ("maps.py",), "innermost", {"maps.py": 1},
        ("maps.py", "def second(fm, window):\n    return fm & ~window == 0\n"),
    ),
    # verify and commutative read the closed forms through maps, so neither
    # tests a peak set against a window itself
    Rule(
        "no-window-test-outside-maps", _is_window_test, ("verify.py", "commutative.py"),
        "innermost", {},
        ("verify.py", "def check(fm, window):\n    return fm & ~window == 0\n"),
    ),
    # one function of mr walks the interval blocks of the S and S-tilde
    # class sums
    Rule(
        "one-interval-walk",
        lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "_blocks_of_sizes",
        ("mr.py",), "innermost", {"mr.py": 1},
        ("mr.py", "def again(n):\n    return _blocks_of_sizes(n, (n,))\n"),
    ),
    # a suite declares its checks and runs none: reporting.run_checks is
    # the one place that runs a check
    Rule(
        "runner-runs-checks", _calls_run_check, ALL, "outermost", {"reporting.py": ("run_checks",)},
        ("verify.py", RUN_AT_REGISTRATION),
    ),
    # a check with ranks declares them as its cases through _add; the old
    # ranged helper that looped over them is gone
    Rule(
        "no-ranged-helper",
        lambda node: "_add_ranged" in (getattr(node, "name", None), getattr(node, "id", None)),
        ("verify.py",), "line", {},
        ("verify.py", "def _add_ranged(checks, check_id, lo, hi, body):\n    pass\n"),
    ),
    # the closed forms (*_on_*, *_formula), the builders (*_number,
    # imchi_basis), the entries of hopf.GENERATORS and the two checks that
    # compare them build a combination of class sums by one
    # ClassAlgebra.element call on its coordinates, not by summing elements
    Rule(
        "builders-make-one-element", _is_element_sum, ("maps.py", "commutative.py", "hopf.py"),
        "builder", {},
        ("commutative.py", "def y_zero_number(n):\n    return AlgElem.zero('B', n)\n"),
    ),
    # a class that only holds fields is a namedtuple
    Rule("no-bare-records", _is_bare_record, ALL, "line", {}, ("reporting.py", RECORD)),
]


# ---------------------------------------------------------------------------
# the walker


def _walk(tree: ast.Module, idiom, unit: str) -> list:
    """(place, line) of each node of tree that idiom matches; a node
    outside every builder has no builder place and is not counted."""
    hits = []

    def visit(node, builder, inner, outer):
        if idiom(node):
            places = {"line": node.lineno, "innermost": inner, "outermost": outer, "builder": builder}
            place = places[unit]
            if place is not None:
                hits.append((place, node.lineno))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner, outer = node.name, node.name if outer == "<module>" else outer
        for child in ast.iter_child_nodes(node):
            visit(child, builder, inner, outer)

    for stmt in tree.body:
        visit(stmt, _builder(stmt), "<module>", "<module>")
    return hits


def _hits(rule: Rule, module: str, source=None) -> list:
    """(place, line) of each hit of rule in module, or in source read as it."""
    if isinstance(rule.idiom, re.Pattern):
        lines = (SOURCES[module] if source is None else source).splitlines()
        return [(n, n) for n, line in enumerate(lines, start=1) if rule.idiom.search(line)]
    tree = TREES[module] if source is None else ast.parse(source)
    return _walk(tree, rule.idiom, rule.unit)


def _allows(expected, places: set) -> bool:
    if expected is SOME:
        return bool(places)
    if isinstance(expected, int):
        return len(places) == expected
    return places == set(expected)


def _breaches(rule: Rule, edit=None) -> dict:
    """module -> hits, for each module read where rule fails; edit is a
    (module, snippet) appended to that module first."""
    breaches = {}
    for module in rule.modules:
        source = SOURCES[module] + "\n" + edit[1] if edit and edit[0] == module else None
        hits = _hits(rule, module, source)
        if not _allows(rule.expect.get(module, 0), {place for place, _ in hits}):
            breaches[module] = hits
    return breaches


@pytest.mark.parametrize("rule", RULES, ids=[rule.name for rule in RULES])
def test_the_rule_holds(rule):
    assert not _breaches(rule)


@pytest.mark.parametrize("rule", RULES, ids=[rule.name for rule in RULES])
def test_the_rule_flags_its_control(rule):
    assert rule.control[0] in rule.modules
    assert _breaches(rule, rule.control)


# ---------------------------------------------------------------------------
# the controls of the predicates


def _expression(text: str) -> ast.AST:
    return ast.parse(text).body[0].value


def test_the_window_idiom_is_recognised():
    texts = ("fm & ~window == 0", "g & ~(a | b) == 0", "m & ~3 == 0", "m & window == 0")
    assert [_is_window_test(_expression(t)) for t in texts] == [True, True, False, False]


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
    assert [_is_element_sum(_expression(t)) for t in texts] == [True] * 5 + [False] * 4


def test_the_builders_are_found():
    def builders(module):
        return {_builder(stmt) for stmt in TREES[module].body} - {None}

    assert {"chi_on_y", "chi_on_x", "imchi_basis", "phi_on_y0"} <= builders("maps.py")
    found = builders("commutative.py")
    assert {"y0_number", "phi_y_number_formula", "pi_peak_number_formula"} <= found
    assert {"check_builder_relations", "check_pi_number_forms"} <= found
    assert "check_ker_beta2_on_sol" not in found
    assert builders("hopf.py") == {"GENERATORS"}


def test_the_record_lint_tells_records_from_classes_with_behaviour():
    def records(source):
        return [cls.name for cls in ast.walk(ast.parse(source)) if _is_bare_record(cls)]

    method = RECORD + "\n    def __eq__(self, other):\n        return self.name == other.name\n"
    checked = RECORD + "        if rows == []:\n            raise ValueError\n"
    assert records(RECORD) == ["Node"]
    assert records(method) == records(checked) == []


def test_the_run_check_rule_flags_a_check_run_outside_the_runner():
    hits = _walk(ast.parse(RUN_AT_REGISTRATION), _calls_run_check, "outermost")
    assert [place for place, _ in hits] == ["_add", "suite_mr", "suite_mr"]


# ---------------------------------------------------------------------------
# one integer elimination: Echelon scales a rational row to integers on
# entry and reduces fraction-free, so Fraction appears only where an answer
# leaves the core (SpanSolver.coords and exact_det), never inside the class;
# exact_det reads its determinant off an Echelon


def _names(tree: ast.AST) -> set:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _top(name: str) -> ast.AST:
    (node,) = [n for n in TREES["algebra.py"].body if getattr(n, "name", None) == name]
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


# ---------------------------------------------------------------------------
# checks are declared, and the runner loops over their cases


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
    """A function nested in a suite that only loops over values it is not
    given is a rank loop that belongs in the cases of its check."""
    tree = TREES["verify.py"]
    suites = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("suite_")]
    assert len(suites) >= 12
    assert "_add" in {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
    found = [
        (suite.name, fn.name, fn.lineno)
        for suite in suites
        for fn in ast.walk(suite)
        if isinstance(fn, ast.FunctionDef) and fn is not suite and _loops_over_own_cases(fn)
    ]
    assert not found


# ---------------------------------------------------------------------------
# the element-level oracles have one home: tests/oracles

ORACLE_NAME = re.compile(r"(reference_|ref_|_ref_)")


def oracle_bodies(source: str) -> list:
    """The top-level functions of a module's source named as oracles."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and ORACLE_NAME.match(node.name)
    ]


def test_no_test_module_outside_the_oracles_home_defines_an_oracle():
    tests = {path.name: path.read_text() for path in (ROOT / "tests").glob("*.py")}
    assert len(tests) > 40 and "test_oracles.py" in tests
    assert {name: oracle_bodies(text) for name, text in tests.items() if oracle_bodies(text)} == {}
    control = tests["test_map_coords.py"] + "\n\ndef reference_square(n):\n    pass\n"
    assert oracle_bodies(control) == ["reference_square"]
    assert "reference_square" in oracle_bodies((ROOT / "tests" / "oracles" / "rows.py").read_text())


def test_runtime_dependencies_stay_empty():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


# ---------------------------------------------------------------------------
# nothing in the package is kept alive by the tests alone: every top-level
# function, class and module constant is referenced in src/ outside its own
# definition, exported by __all__, imported by the acceptance module or
# named by the benchmark's tracer.  A name that only a test calls belongs in
# the test, or in tests/oracles when several tests use it as an oracle.

ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
TRACER = ROOT / "perfbench" / "tracer.py"


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


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_package_name_is_reached_outside_the_tests():
    used = sum((_references(tree) for tree in TREES.values()), Counter())
    kept = set(importlib.import_module("peakalg").__all__)
    kept |= {
        alias.name
        for node in ast.walk(_parse(ACCEPTANCE))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("peakalg")
        for alias in node.names
    }
    kept |= set(_references(_parse(TRACER)))
    dead = [
        f"{module.removesuffix('.py')}.{name}"
        for module, tree in TREES.items()
        for name, node in _definitions(tree)
        if name not in kept and used[name] <= _own_uses(node)[name]
    ]
    assert not dead, "reached only by tests: " + ", ".join(dead)


def test_the_tracer_wraps_functions_that_exist():
    """A deletion cannot break the traced benchmark run unnoticed."""
    tables = [
        key
        for node in _parse(TRACER).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in ("COUNTED", "TIMED") for t in node.targets)
        for key in ast.literal_eval(node.value)
    ]
    missing = [
        f"{module}.{function}"
        for module, function in tables
        if not callable(getattr(importlib.import_module(f"peakalg.{module}"), function, None))
    ]
    assert tables
    assert not missing, "the tracer wraps missing functions: " + ", ".join(missing)
