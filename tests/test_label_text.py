"""Each class algebra writes its own labels.

ClassAlgebra.text maps a label to the text that table headers and check
witnesses print: a set of generators or of peak positions as {...} (the
type-D fork as 1'), a class of a count algebra as y_j, y0_j, p_j or p0_j,
and a signed composition as a tuple.  A coarsening writes its labels as
its parent does unless it is given a text of its own.
"""

import pytest

from peakalg import maps, verify
from peakalg.algebra import AlgElem, ClassAlgebra, class_images
from peakalg.bases import canonical_ideal_algebra, descent_algebra, structure_constants
from peakalg.commutative import i0_number_algebra, sol_algebra, wp_algebra, wp_interior_algebra
from peakalg.mr import t_algebra
from peakalg.peak import interior_peak_algebra, peak_algebra, peak_basis, peak_table
from peakalg.reporting import CheckFailure, run_checks

from oracles import members

# family -> (its algebra at rank 3, one of its labels, the text of that label)
TEXTS = {
    "type-A descent": (lambda: descent_algebra("A", 3), 0b110, "{1,2}"),
    "empty descent set": (lambda: descent_algebra("A", 3), 0, "{}"),
    "type-B descent": (lambda: descent_algebra("B", 3), 0b101, "{0,2}"),
    "type-D descent": (lambda: descent_algebra("D", 3), 0b011, "{1',1}"),
    "canonical ideal": (lambda: canonical_ideal_algebra(3), 0b110, "{1,2}"),
    "peak": (lambda: peak_algebra(3), 0b10, "{1}"),
    "interior peak": (lambda: interior_peak_algebra(3), 0b100, "{2}"),
    "descent count": (lambda: sol_algebra(3), 2, "y_2"),
    "ideal count": (lambda: i0_number_algebra(3), 2, "y0_3"),
    "peak count": (lambda: wp_algebra(3), 1, "p_1"),
    "interior count": (lambda: wp_interior_algebra(3), 1, "p0_2"),
    "T-classes": (lambda: t_algebra(3), (1, -2), "(1, -2)"),
}


@pytest.mark.parametrize("family", TEXTS)
def test_each_family_writes_its_labels(family):
    factory, label, text = TEXTS[family]
    alg = factory()
    assert label in alg.labels
    assert alg.text(label) == text


def test_a_coarsening_writes_its_labels_as_its_parent_unless_told():
    fine = ClassAlgebra("S", 2, None, range(2), text=lambda lab: f"c{lab}")
    assert fine.coarsen(lambda lab: lab).text(1) == "c1"
    assert fine.coarsen(lambda lab: lab, text=lambda lab: f"d{lab}").text(1) == "d1"


@pytest.mark.parametrize(
    "table, alg",
    [
        (lambda: structure_constants("D", 3), lambda: descent_algebra("D", 3)),
        (lambda: peak_table(4), lambda: peak_algebra(4)),
    ],
    ids=["type-D", "peak"],
)
def test_a_table_header_is_the_text_of_its_labels(table, alg):
    alg = alg()
    assert table().labels == [alg.text(lab) for lab in alg.labels]


def test_a_count_class_off_the_span_is_named_by_its_count():
    # the image of y_2 gains one member of the class of y_1, which holds more
    src = sol_algebra(3)
    classes = members(src)
    rep, stray = classes[2][0], classes[1][0]
    assert len(classes[1]) > 1

    def f(a):
        c = a.coeff(rep)
        return a + AlgElem.monomial("B", 3, stray, c) if c else a

    with pytest.raises(CheckFailure) as failure:
        class_images(f, src, src, "the map")
    assert str(failure.value) == "the map of the class y_2 leaves the span"


def test_a_type_d_witness_writes_the_fork(monkeypatch):
    # psi on the class of {1',2} is read by its "oneprime" closed form
    psi_on_y = maps.psi_on_y

    def off(n, m, case):
        form = psi_on_y(n, m, case)
        return form + peak_basis(n, 0) if (n, m, case) == (3, 0b100, "oneprime") else form

    monkeypatch.setattr(maps, "psi_on_y", off)
    (result,) = run_checks(c for c in verify.SUITES["psi"](3) if c.check_id == "psi/closed-forms")
    assert result.status == "fail"
    assert result.witness == "the Y closed form of sign forgetting fails at D_3, {1',2}"
