"""The one row table per map and pair of class algebras.

algebra.class_images builds the rows of a map (the binned image of every
class sum of its source) through algebra.element_rows, which tallies the
members of each class for the maps that carry a tally, once per (map,
source, target) and keeps them in algebra.ROW_TABLES for
the life of the process.  These tests pin that cache: a second call
returns the same table, every cached table equals a fresh element-level
build (tests/oracles.py: each class sum mapped, then binned), a failing
build stores nothing and names each caller's own what, a full verify
run builds each table once, a second run changes none, and no table holds
the rows of a transform.

The second half keeps the element-level form of mr.check_phi_images as
the reference for the rows form, which reads sign forgetting's rows from
the T-classes to the type-A descent classes.
"""

import copy

import pytest

from peakalg import algebra, maps, mr
from peakalg.algebra import ROW_TABLES, AlgElem, class_images
from peakalg.bases import descent_algebra, y_basis
from peakalg.peak import peak_algebra
from peakalg.reporting import CheckFailure
from peakalg.verify import run_suite

from oracles import members, reference_element_rows


def clear_rows():
    """Drop every row table."""
    ROW_TABLES.clear()


@pytest.fixture
def counted_builds(monkeypatch):
    """The (map, source, target) of every element-level build, in order."""
    builds = []
    build = algebra.element_rows

    def counted(f, src, dst, what):
        builds.append((f, src, dst))
        return build(f, src, dst, what)

    monkeypatch.setattr(algebra, "element_rows", counted)
    return builds


# ---------------------------------------------------------------------------
# the cache


def test_a_second_call_returns_the_cached_table(counted_builds):
    src, dst = descent_algebra("B", 3), peak_algebra(3)
    clear_rows()
    first = class_images(maps.phi, src, dst, "sign forgetting")
    assert class_images(maps.phi, src, dst, "another caller") is first
    assert ROW_TABLES[(maps.phi, src, dst)] is first
    assert counted_builds == [(maps.phi, src, dst)]


def test_every_cached_table_is_the_element_level_build():
    clear_rows()
    assert run_suite("all", 4).passed
    assert len(ROW_TABLES) > 20
    for (f, src, dst), rows in ROW_TABLES.items():
        assert rows == reference_element_rows(f, src, dst), (f, src, dst)


def test_no_transform_rows_are_kept_by_map_identity(fresh_transform_rows):
    # the rows of theta and theta_pm are left products with their image of
    # the unit, cached per (family, rank) by transform_coords and nowhere else
    clear_rows()
    assert run_suite("all", 4).passed
    assert not {f for f, _, _ in ROW_TABLES} & {maps.theta, maps.theta_pm}


def _off_the_span_on_one_class(n):
    """Sign forgetting on the type-B descent classes of rank n, plus one
    permutation on the class of the identity: that image is no longer
    constant on its peak class."""
    rep = members(descent_algebra("B", n))[0][0]

    def f(a):
        image = maps.phi(a)
        return image + AlgElem.monomial("S", n, (2, 1, 3)) if a.coeff(rep) else image

    return f


def test_a_build_off_the_span_stores_nothing_and_names_each_caller():
    f, src, dst = _off_the_span_on_one_class(3), descent_algebra("B", 3), peak_algebra(3)
    for what in ("the first caller", "the second caller"):
        with pytest.raises(CheckFailure) as failure:
            class_images(f, src, dst, what)
        assert str(failure.value) == f"{what} of the class {{}} leaves the span"
        assert (f, src, dst) not in ROW_TABLES


def test_a_verify_run_builds_each_table_once(counted_builds):
    clear_rows()
    assert run_suite("all", 5).passed
    assert len(counted_builds) == len(set(counted_builds)) == len(ROW_TABLES)
    assert set(counted_builds) == set(ROW_TABLES)


def test_a_second_run_changes_no_table(counted_builds):
    clear_rows()
    assert run_suite("all", 4).passed
    tables = dict(ROW_TABLES)
    saved = {key: copy.deepcopy(rows) for key, rows in tables.items()}
    built = len(counted_builds)
    assert run_suite("all", 4).passed
    assert len(counted_builds) == built
    assert ROW_TABLES.keys() == tables.keys()
    for key, rows in tables.items():
        assert ROW_TABLES[key] is rows
        assert rows == saved[key], key


# ---------------------------------------------------------------------------
# sign forgetting on the Mantaci-Reutenauer classes


def reference_phi_images(n):
    """mr.check_phi_images at element level: sign forgetting of every S, T
    and S-tilde class sum against its closed form."""
    for alpha in mr.signed_compositions(n):
        if maps.phi(mr.s_basis(n, alpha)) != mr.phi_on_s_formula(n, alpha):
            raise CheckFailure(f"image of the S-class of {alpha} is wrong")
        if maps.phi(mr.t_basis(n, alpha)) != mr.phi_on_t_formula(n, alpha):
            raise CheckFailure(f"image of the T-class of {alpha} is wrong")
        if maps.phi(mr.stilde_basis(n, alpha)) != mr.phi_on_stilde_formula(n, alpha):
            raise CheckFailure(f"image of the S-tilde class of {alpha} is wrong")


def both_witnesses(n):
    """The witnesses of the rows form and of the element-level form."""
    witnesses = []
    for check in (mr.check_phi_images, reference_phi_images):
        with pytest.raises(CheckFailure) as failure:
            check(n)
        witnesses.append(str(failure.value))
    return witnesses


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_phi_images_pass_on_both_paths(n):
    reference_phi_images(n)
    mr.check_phi_images(n)


def _phi_plus_on_one_t_class(alpha, extra):
    """Sign forgetting, plus extra per unit of one member of the T-class
    of alpha in B_3: wrong on that class sum only."""
    rep = members(mr.t_algebra(3))[alpha][0]
    phi = maps.phi

    def broken(a):
        c = a.coeff(rep) if (a.group, a.n) == ("B", 3) else 0
        return phi(a) + extra.scale(c) if c else phi(a)

    return broken


def test_phi_wrong_on_one_t_class_fails_both_paths(monkeypatch):
    # the S-class of (1, -1, -1), first in the order, holds the T-class of (1, -2)
    monkeypatch.setattr(maps, "phi", _phi_plus_on_one_t_class((1, -2), y_basis("A", 3, 0b10)))
    rows, reference = both_witnesses(3)
    assert rows == reference == "image of the S-class of (1, -1, -1) is wrong"


def test_a_t_closed_form_off_by_one_y_fails_both_paths(monkeypatch):
    form = mr.phi_on_t_formula

    def off(n, alpha):
        out = form(n, alpha)
        return out + y_basis("A", n, 0) if (n, alpha) == (3, (2, -1)) else out

    monkeypatch.setattr(mr, "phi_on_t_formula", off)
    rows, reference = both_witnesses(3)
    assert rows == reference == "image of the T-class of (2, -1) is wrong"


def test_phi_off_the_span_fails_while_its_rows_are_built(monkeypatch):
    # one permutation more on one T-class: the element-level form compares
    # it with a closed form, the rows form cannot bin that image
    monkeypatch.setattr(
        maps, "phi", _phi_plus_on_one_t_class((1, -2), AlgElem.monomial("S", 3, (2, 1, 3)))
    )
    rows, reference = both_witnesses(3)
    assert rows == "sign forgetting at n=3 of the class (1, -2) leaves the span"
    assert reference == "image of the S-class of (1, -1, -1) is wrong"
