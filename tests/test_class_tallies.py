"""Class images and shuffle tables tallied straight into class coordinates.

algebra.element_rows counts the images of the members of each source
class under an element map with a tally (sign forgetting, the fold and
the inclusion) and bins the counts over the target; hopf.shuffle_coords
counts the byte products of each block pair of members with each
shuffle.  Neither builds an element.  These tests hold both against the
element-level builds of tests/oracles.py (a class sum pushed forward, or
two class sums shuffled, then binned term by term), cell by cell and in
order, for every table a verify run to rank 5 reads; they pin the
failures (an image without a label, a shuffle counted twice) and that no
element round trip is left on the way.
"""

import pytest

from peakalg import algebra, hopf, maps, mr
from peakalg.algebra import ROW_TABLES, AlgElem, class_images
from peakalg.bases import descent_algebra
from peakalg.hopf import SHUFFLE_TARGETS, shuffle_coords
from peakalg.reporting import CheckFailure
from peakalg.verify import run_suite

from oracles import reference_element_rows, reference_shuffle_coords

TALLIED = (maps.phi, maps.psi, maps.chi, maps.inclusion)


def in_order(table: dict) -> list:
    """A table of coordinates as nested item lists, so that order counts."""
    return [(k, None if row is None else list(row.items())) for k, row in table.items()]


def test_every_tallied_table_of_a_verify_run_is_the_element_level_build():
    ROW_TABLES.clear()
    assert run_suite("all", 5).passed
    keys = [key for key in ROW_TABLES if key[0] in TALLIED]
    assert {f for f, _, _ in keys} == set(TALLIED)
    assert len(keys) >= 30
    for f, src, dst in keys:
        want = reference_element_rows(f, src, dst)
        assert in_order(ROW_TABLES[f, src, dst]) == in_order(want), (f.__name__, src, dst)


@pytest.mark.parametrize("left,right", list(SHUFFLE_TARGETS))
def test_every_shuffle_table_to_degree_5_is_the_element_level_build(left, right):
    for p in range(6):
        for q in range(6 - p):
            want = reference_shuffle_coords(left, right, p, q)
            assert in_order(shuffle_coords(left, right, p, q)) == in_order(want), (p, q)


def test_an_image_without_a_label_leaves_the_span():
    # type-B members have no type-A label; type-D members cover no type-B class
    for src, dst in ((descent_algebra("B", 2), descent_algebra("A", 2)),
                     (descent_algebra("D", 3), descent_algebra("B", 3))):
        with pytest.raises(CheckFailure, match=r"^inclusion of the class \{[\d',]*\} leaves the span$"):
            class_images(maps.inclusion, src, dst, "inclusion")
        assert (maps.inclusion, src, dst) not in ROW_TABLES


def test_a_duplicated_shuffle_table_fails_the_closure(monkeypatch):
    # the identity shuffle counted twice: the first cell doubles the lone
    # identity of its class, so it still closes, but counts 7 products
    # where 1 * 1 * C(4, 2) = 6 are due
    real = hopf._shuffle_tables

    def doubled(p, q):
        return real(p, q) + real(p, q)[:1] if (p, q) == (2, 2) else real(p, q)

    monkeypatch.setattr(hopf, "_shuffle_tables", doubled)
    shuffle_coords.cache_clear()
    try:
        with pytest.raises(
            CheckFailure, match=r"^shuffle of SolA \{\} and SolA \{\} counts 7 products, not 6$"
        ):
            shuffle_coords("SolA", "SolA", 2, 2)
        want = reference_shuffle_coords("SolA", "SolA", 1, 3)
        assert shuffle_coords("SolA", "SolA", 1, 3) == want
    finally:
        shuffle_coords.cache_clear()


def test_the_tallies_build_no_element(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an element round trip")

    for owner, name in [(algebra, "push_forward"), (maps, "push_forward")]:
        monkeypatch.setattr(owner, name, refuse)
    monkeypatch.setattr(hopf, "external_product", refuse)
    monkeypatch.setattr(AlgElem, "class_sum", classmethod(refuse))
    monkeypatch.setattr(algebra, "ROW_TABLES", {})
    shuffle_coords.cache_clear()
    try:
        src, dst = mr.t_algebra(4), descent_algebra("A", 4)
        assert class_images(maps.phi, src, dst, "sign forgetting")
        assert shuffle_coords("OmegaB", "OmegaB", 2, 2)
    finally:
        shuffle_coords.cache_clear()
