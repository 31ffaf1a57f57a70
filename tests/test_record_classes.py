"""The record classes keep the behaviour that code, tests and reports read.

GeneratorSet, PeakIndex and CoordVector are read-only values: equal and
hashed by their fields, never equal to the tuple of those fields, and
pickled by value.
GeneratorSet and PeakIndex validate on construction with fixed messages,
and their len and membership count members of the mask, not fields.
A tensor of the coproduct is a plain dict, which compares by value
(hopf/generator-coproducts compares two), and the diagram records of maps
and the reporting.Check that a suite declares are namedtuples.
CheckResults cross the --jobs process pool by pickle, and a VerifyReport
holding them pickles too.
No class of the package is a bare record: one whose body is a docstring,
__slots__ and an __init__ that only assigns fields is a namedtuple instead.
"""

import ast
import pickle
from pathlib import Path

import pytest

from peakalg import maps
from peakalg.algebra import AlgElem, CoordVector, add_multiple, express_in_span
from peakalg.hopf import coproduct
from peakalg.perms import GeneratorSet, PeakIndex
from peakalg.reporting import Check, CheckResult, VerifyReport, run_check

e12, e21 = AlgElem.monomial("S", 2, (1, 2)), AlgElem.monomial("S", 2, (2, 1))

VALUES = {
    "GeneratorSet": (
        lambda: GeneratorSet("B", 4, 0b101),
        lambda: GeneratorSet.parse("B", 4, "{0,2}"),
        (GeneratorSet("D", 4, 0b101), GeneratorSet("B", 5, 0b101), GeneratorSet("B", 4, 0b100)),
    ),
    "PeakIndex": (
        lambda: PeakIndex(5, 0b1010),
        lambda: PeakIndex.from_members(5, [3, 1]),
        (PeakIndex(6, 0b1010), PeakIndex(5, 0b10)),
    ),
    "CoordVector": (
        lambda: CoordVector((0, 1), (1, 2)),
        lambda: express_in_span(e12 + 2 * e21, [e12, e21], labels=(0, 1)),
        (CoordVector((0, 2), (1, 2)), CoordVector((0, 1), (1, 3))),
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_and_hashed_by_fields(name):
    make, other_way, different = VALUES[name]
    a, b = make(), other_way()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, *different}) == 1 + len(different)
    assert all(a != d for d in different)
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", VALUES)
def test_not_equal_to_the_tuple_of_its_fields(name):
    value = VALUES[name][0]()
    fields = tuple(getattr(value, f) for f in ("ctype", "n", "mask", "labels", "coords") if hasattr(value, f))
    assert value != fields and fields != value


@pytest.mark.parametrize("name", VALUES)
def test_fields_are_read_only(name):
    value = VALUES[name][0]()
    field = "coords" if name == "CoordVector" else "mask"
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) == before


def test_length_and_membership_read_the_mask():
    gs, peaks = GeneratorSet("B", 4, 0b101), PeakIndex(6, 0b10100)
    assert len(gs) == 2 and 0 in gs and 2 in gs and 1 not in gs and 4 not in gs
    assert len(peaks) == 2 and 2 in peaks and 4 in peaks and 6 not in peaks
    assert len(GeneratorSet("A", 3, 0)) == 0


def test_coord_vector_reads_as_its_coordinates():
    cv = CoordVector(("a", "b", "c"), (1, 0, 2))
    assert list(cv) == [1, 0, 2] and cv[2] == 2
    assert cv.labels == ("a", "b", "c") and cv.nonzero() == {"a": 1, "c": 2}


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: GeneratorSet("E", 3, 0), "unknown Coxeter type 'E'"),
        (lambda: GeneratorSet("A", 4, 1), "label '{0}': '0' is not a type-A generator of rank 4"),
        (lambda: GeneratorSet("B", 3, 8), "label '{3}': '3' is not a type-B generator of rank 3"),
        (lambda: GeneratorSet.parse("B", 3, "{1'}"), "label \"{1'}\": \"1'\" is not a type-B generator of rank 3"),
        (lambda: PeakIndex(4, 0b110), "label '{1,2}': peaks 1 and 2 are adjacent"),
        (lambda: PeakIndex(4, 1), "label '{0}': '0' is not a peak position of rank 4"),
        (lambda: PeakIndex(3, 0b1000), "label '{3}': '3' is not a peak position of rank 3"),
        (
            lambda: PeakIndex.parse(5, "{1}", interior=True),
            "label '{1}': '1' is not a peak position of an interior peak set of rank 5",
        ),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_tensors_are_dicts_compared_by_value():
    def tensor(*terms):
        t: dict = {}
        for u, v, c in terms:
            add_multiple(t, c, {(u, v): 1})
        return t

    one, two = ((1,), (1,), 1), ((), (1, 2), 3)
    assert tensor(one, two) == tensor(two, one) == {((1,), (1,)): 1, ((), (1, 2)): 3}
    assert tensor(one, one, ((1,), (1,), -2)) == {}
    assert tensor(one) != tensor(two)
    # a degree-3 block pair is a different key
    assert tensor(one) != tensor(((1,), (1, 2), 1))
    t2 = coproduct(3 * e12)
    assert type(t2) is dict and t2 == tensor(((), (1, 2), 3), ((1,), (1,), 3), ((1, 2), (), 3))


def test_diagram_records_keep_their_fields_and_defaults():
    assert maps.Node._fields == ("name", "algebra", "rows")
    assert maps.Node._field_defaults == {"rows": None}
    assert maps.DiagramSpec._fields == (
        "name", "nodes", "arrows", "path_equalities", "exact_rows", "surjections"
    )
    assert maps.DiagramSpec._field_defaults == dict.fromkeys(
        ("path_equalities", "exact_rows", "surjections"), ()
    )
    algebra = object()
    node = maps.Node("P", algebra)
    assert (node.name, node.algebra, node.rows) == ("P", algebra, None)
    assert maps.Node(name="P", algebra=algebra, rows=[]).rows == []
    spec = maps.DiagramSpec("d", {"P": node}, {"f": ("P", "P", None)}, surjections=("f",))
    assert (spec.path_equalities, spec.exact_rows, spec.surjections) == ((), (), ("f",))
    for record, field in ((node, "rows"), (spec, "nodes")):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, field) is before


def test_a_declared_check_keeps_its_fields():
    assert Check._fields == ("check_id", "cases", "body")
    assert Check._field_defaults == {}
    cases = [1, 2]
    check = Check("x/y", cases, print)
    assert (check.check_id, check.cases, check.body) == ("x/y", cases, print)
    assert Check(check_id="x/y", cases=cases, body=print) == check
    for field in Check._fields:
        before = getattr(check, field)
        with pytest.raises(AttributeError):
            setattr(check, field, before)
        assert getattr(check, field) is before
    with pytest.raises(AttributeError):
        check.extra = 1


def _is_docstring(stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(getattr(stmt.value, "value", None), str)


def _sets_fields(stmt) -> bool:
    """stmt assigns attributes of self and nothing else."""
    if not isinstance(stmt, ast.Assign):
        return False
    targets = [t for target in stmt.targets for t in getattr(target, "elts", [target])]
    return all(isinstance(t, ast.Attribute) and ast.unparse(t.value) == "self" for t in targets)


def _is_bare_record(cls: ast.ClassDef) -> bool:
    """The body of cls is only a docstring, __slots__ and an __init__ that
    assigns fields of self."""
    init = None
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            init = stmt
        elif not _is_docstring(stmt) and ast.unparse(getattr(stmt, "targets", [stmt])[0]) != "__slots__":
            return False
    return init is not None and all(_is_docstring(s) or _sets_fields(s) for s in init.body)


def _bare_records(source: str) -> list:
    classes = (node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef))
    return [cls.name for cls in classes if _is_bare_record(cls)]


RECORD = '''
class Node:
    """A node."""

    __slots__ = ("name", "algebra", "rows")

    def __init__(self, name, algebra, rows=None):
        self.name, self.algebra, self.rows = name, algebra, rows
'''


def test_the_record_lint_tells_records_from_classes_with_behaviour():
    method = RECORD + "\n    def __eq__(self, other):\n        return self.name == other.name\n"
    checked = RECORD + "        if rows == []:\n            raise ValueError\n"
    assert _bare_records(RECORD) == ["Node"]
    assert _bare_records(method) == _bare_records(checked) == []


def test_no_class_of_the_package_is_a_bare_record():
    package = Path(__file__).resolve().parents[1] / "src" / "peakalg"
    found = {path.name: _bare_records(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert {name: classes for name, classes in found.items() if classes} == {}


def _fields(result: CheckResult) -> tuple:
    return (type(result), result.check_id, result.status, result.witness, result.wall_ms)


def test_check_results_and_reports_pickle():
    results = [run_check("demo/ok", lambda: None), run_check("demo/fails", lambda: 1 / 0)]
    results.append(CheckResult("demo/witness", "fail", witness="w", wall_ms=2.5))
    assert [_fields(r) for r in pickle.loads(pickle.dumps(results))] == [_fields(r) for r in results]
    report = VerifyReport("demo", results)
    clone = pickle.loads(pickle.dumps(report))
    assert type(clone) is VerifyReport and clone.suite == "demo"
    assert [_fields(r) for r in clone.checks] == [_fields(r) for r in results]
    assert clone.to_json(include_times=True) == report.to_json(include_times=True)


def test_report_defaults():
    report = VerifyReport(suite="demo")
    assert report.checks == [] and report.passed and not report.errored
    assert report.checks is not VerifyReport("other").checks
    result = CheckResult("demo/ok", "pass")
    assert (result.witness, result.wall_ms, result.ok) == ("", 0.0, True)

