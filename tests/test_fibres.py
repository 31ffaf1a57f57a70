"""Coordinates of a coarsening read through its fibres.

lift reads the coordinates of a coarsening from its parent's (None unless
they are constant on every fibre) and spread writes them back.  Both are
compared with class binning of the element, which is the element-level
oracle.  The count-closure and two-sided-ideal checks read products on the
parent's cube and lift them, so a perturbed cube cell must fail each of
them with its usual witness.
"""

from contextlib import ExitStack, contextmanager
from fractions import Fraction

import pytest

from peakalg import commutative
from peakalg.algebra import ClassAlgebra, two_sided_failure
from peakalg.bases import canonical_ideal_algebra, descent_algebra
from peakalg.commutative import (
    check_solhat_closure,
    check_whp_closure,
    i0_number_algebra,
    sol_algebra,
    solhat_table,
    whp_table,
    wp_algebra,
    wp_interior_algebra,
)
from peakalg.peak import check_two_sided_ideal, interior_peak_algebra, peak_algebra
from peakalg.perms import compose, group_elements
from peakalg.reporting import CheckFailure
from peakalg.verify import run_suite

COARSENINGS = (
    [(f"P{n}", peak_algebra, n) for n in range(1, 6)]
    + [(f"Pint{n}", interior_peak_algebra, n) for n in range(1, 6)]
    + [(f"wp{n}", wp_algebra, n) for n in range(1, 6)]
    + [(f"wpint{n}", wp_interior_algebra, n) for n in range(1, 6)]
    + [(f"canon{n}", canonical_ideal_algebra, n) for n in range(1, 4)]
    + [(f"sol{n}", sol_algebra, n) for n in range(1, 4)]
    + [(f"i0{n}", i0_number_algebra, n) for n in range(1, 4)]
)


def _coarse_vectors(alg):
    """A few coordinate dicts over the labels of alg, zeros dropped."""
    labels = alg.labels
    yield {}
    for i, lab in enumerate(labels):
        yield {lab: i + 1}
    yield {lab: Fraction(i + 1, 3) - 1 for i, lab in enumerate(labels) if i != 2}


@pytest.mark.parametrize("name,factory,n", COARSENINGS, ids=[c[0] for c in COARSENINGS])
def test_lift_and_spread_round_trip(name, factory, n):
    alg = factory(n)
    parent = alg.parent
    for coords in _coarse_vectors(alg):
        spread = alg.spread(coords)
        assert alg.lift(spread) == coords
        # the oracle: the same element, binned in the parent and in alg
        elem = alg.element(coords)
        assert parent.coords(elem) == spread
        assert alg.coords(elem) == coords
    # every parent vector constant on the fibres spreads back to itself
    for g, ls in alg.fibres.items():
        constant = {lab: 5 for lab in ls}
        assert alg.spread(alg.lift(constant)) == constant


@pytest.mark.parametrize("name,factory,n", COARSENINGS, ids=[c[0] for c in COARSENINGS])
def test_lift_rejects_a_non_constant_fibre(name, factory, n):
    alg = factory(n)
    wide = [ls for ls in alg.fibres.values() if len(ls) > 1]
    for ls in wide:
        assert alg.lift({ls[0]: 1}) is None
        assert alg.coords(alg.parent.element({ls[0]: 1})) is None
        assert alg.lift({lab: 1 for lab in ls[1:]}) is None
    if not wide:  # each fibre is one parent class: every vector lifts
        assert alg.lift({lab: 1 for lab in alg.parent.labels[:1]}) is not None


def test_some_coarsenings_have_wide_fibres():
    assert any(len(ls) > 1 for ls in peak_algebra(4).fibres.values())
    assert all(len(ls) == 2 for ls in canonical_ideal_algebra(3).fibres.values())


def test_wp_interior_is_the_twin_of_the_ideal_counts():
    # both coarsen by the size of a label less its first generator
    for n in range(1, 6):
        alg = wp_interior_algebra(n)
        assert alg.parent.classes == peak_algebra(n).classes
        assert alg.labels == tuple(range((n + 1) // 2))
    for n in range(1, 4):
        assert i0_number_algebra(n).parent.classes == descent_algebra("B", n).classes


def test_two_sided_failure_catches_a_subalgebra_that_is_no_ideal():
    # the peak algebra is a subalgebra of the type-A descent algebra, not an ideal
    witness = two_sided_failure(descent_algebra("A", 4), peak_algebra(4), ("Y", "P"))
    assert witness == "left product Y_{1} with P_{} leaves the ideal at n=4"
    # the interior-peak span is no ideal of the type-A descent algebra either
    assert two_sided_failure(descent_algebra("A", 3), interior_peak_algebra(3), ("Y", "P"))


def test_two_sided_failure_reads_both_sides():
    # in QS_3 the span of the left-coset sums of H = {id, (2,1,3)} is a left
    # ideal: k * (gH) = (kg)H; it is no right ideal, as gH * k is no coset
    group = ClassAlgebra("S", 3, lambda w: w, group_elements("S", 3))
    h = (2, 1, 3)
    cosets = group.coarsen(lambda w: min(w, compose(w, h)))
    witness = two_sided_failure(group, cosets, ("k", "gH"))
    assert witness is not None and witness.startswith("right product k_(")


def test_two_sided_failure_passes_the_ideals_of_the_paper():
    for n in range(1, 6):
        assert two_sided_failure(peak_algebra(n), interior_peak_algebra(n), ("P", "P")) is None
    for n in range(1, 4):
        ideal = canonical_ideal_algebra(n)
        assert two_sided_failure(descent_algebra("B", n), ideal, ("Y", "Y")) is None


@contextmanager
def _perturbed(alg, cells, label):
    """Add 1 at label to some cells of the structure cube of alg, and put
    the cells back afterwards; the block tables of the twins, read from
    the cubes, are built afresh on each side."""
    cube = alg.cube
    saved = {cell: cube[cell] for cell in cells}
    for cell, coords in saved.items():
        cube[cell] = {**coords, label: coords.get(label, 0) + 1}
    commutative._count_table.cache_clear()
    try:
        yield
    finally:
        cube.update(saved)
        commutative._count_table.cache_clear()


def _fails_with(check, witness):
    with pytest.raises(CheckFailure) as info:
        check()
    assert str(info.value) == witness


def test_perturbed_type_b_cells_fail_the_count_closure():
    check_solhat_closure(3)
    # y_0 * y_0 becomes Y_{} + Y_{0}: the ideal sum y0_1, outside the count span
    with _perturbed(descent_algebra("B", 3), [(0, 0)], 0b1):
        _fails_with(
            lambda: check_solhat_closure(3), "y_0 * y_0 left the descent-count span at n=3"
        )
    # adding Y_{} to Y_{} * Y_{0} on both sides keeps y_0 * y_1 in the count
    # span (the fibre of {} there is a single class) but not y_0 * y0_1 in
    # the ideal, whose fibre of {} is {{}, {0}}
    with _perturbed(descent_algebra("B", 3), [(0, 0b1), (0b1, 0)], 0):
        _fails_with(lambda: check_solhat_closure(3), "y_0 * y0_1 left the ideal at n=3")
    check_solhat_closure(3)


def test_perturbed_peak_cells_fail_the_count_closure():
    check_whp_closure(4)
    with _perturbed(peak_algebra(4), [(0, 0)], 0b10):
        _fails_with(lambda: check_whp_closure(4), "p_0 * p_0 left the peak-count span at n=4")
    # likewise on the peak side: the interior fibre of {} is {{}, {1}}
    with _perturbed(peak_algebra(4), [(0, 0b10), (0b10, 0)], 0):
        _fails_with(lambda: check_whp_closure(4), "p_0 * p0_1 left the interior ideal at n=4")
    check_whp_closure(4)


def test_perturbed_type_b_cells_fail_the_table_with_the_closure_witness():
    # the table is the closure check: the same cells, the same witnesses
    for cells, label, witness in (
        ([(0, 0)], 0b1, "y_0 * y_0 left the descent-count span at n=3"),
        ([(0, 0b1), (0b1, 0)], 0, "y_0 * y0_1 left the ideal at n=3"),
    ):
        with _perturbed(descent_algebra("B", 3), cells, label):
            _fails_with(lambda: solhat_table(3), witness)
    solhat_table(3)


def test_perturbed_peak_cells_fail_the_table_with_the_closure_witness():
    for cells, label, witness in (
        ([(0, 0)], 0b10, "p_0 * p_0 left the peak-count span at n=4"),
        ([(0, 0b10), (0b10, 0)], 0, "p_0 * p0_1 left the interior ideal at n=4"),
    ):
        with _perturbed(peak_algebra(4), cells, label):
            _fails_with(lambda: whp_table(4), witness)
    whp_table(4)


@contextmanager
def _group_sum_added(alg, cell):
    """Add the sum of all class sums of alg to one cell of its cube."""
    with ExitStack() as stack:
        for label in alg.labels:
            stack.enter_context(_perturbed(alg, [cell], label))
        yield


def test_a_perturbed_cell_that_keeps_closure_fails_commutativity():
    # P_{1} * P_{2} gains the group sum, which lies in the count span and
    # in the interior ideal, so every product still lifts; p0_1 * p_1 reads
    # the cell, p_1 * p0_1 only its mirror P_{2} * P_{1}
    check_whp_closure(4)
    with _group_sum_added(peak_algebra(4), (0b10, 0b100)):
        table = whp_table(4)
        _fails_with(lambda: check_whp_closure(4), "p_1 and p0_1 do not commute at n=4")
    assert table.labels[1] == "p_1" and table.labels[3] == "p0_1"
    assert table.cell(1, 3) != table.cell(3, 1)
    assert whp_table(4).cell(1, 3) == whp_table(4).cell(3, 1)
    check_whp_closure(4)


def test_perturbed_type_a_cell_fails_the_peak_ideal_check():
    check_two_sided_ideal(4)
    # P_{} * interior P_{} reads the cell (0, 0); the interior fibre of 0 is
    # {0, 0b10, 0b110, 0b1110}
    with _perturbed(descent_algebra("A", 4), [(0, 0)], 0b10):
        _fails_with(
            lambda: check_two_sided_ideal(4),
            "left product P_{} with interior P_{} leaves the ideal at n=4",
        )
    check_two_sided_ideal(4)


def _canonical_check(n_max):
    report = run_suite("ideals", n_max)
    return next(c for c in report.checks if c.check_id == "ideals/canonical-two-sided")


def test_perturbed_type_b_cell_fails_the_canonical_ideal_check():
    assert _canonical_check(3).ok
    with _perturbed(descent_algebra("B", 3), [(0, 0)], 0b10):
        result = _canonical_check(3)
    assert result.status == "fail"
    assert result.witness == "left product Y_{} with canonical Y_{} leaves the ideal at n=3"
    assert _canonical_check(3).ok


def test_the_canonical_ideal_witness_names_the_side_and_both_labels():
    # Y_{1,2} * Y_{2} gains Y_{1}, so (Y_{1,2} + Y_{0,1,2}) * Y_{2} is not
    # constant on the fibre {1} + {0,1}; no product read earlier meets it
    with _perturbed(descent_algebra("B", 3), [(0b110, 0b100)], 0b10):
        result = _canonical_check(3)
    assert result.witness == "right product Y_{2} with canonical Y_{1,2} leaves the ideal at n=3"
    assert _canonical_check(3).ok
