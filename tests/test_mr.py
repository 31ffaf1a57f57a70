import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakalg import hopf, mr
from peakalg.algebra import AlgElem, ClassAlgebra
from peakalg.bases import descent_algebra, y_basis
from peakalg.maps import phi, x0_basis
from peakalg.mr import (
    bstilde_product,
    check_bstilde_product,
    check_omega_closure,
    check_order_sums,
    check_phi_images,
    check_phi_onto_descent_algebra,
    check_t_partition,
    leq,
    mr_basis,
    mr_class_of,
    o_comp,
    phi_on_s_formula,
    preceq,
    s_basis,
    segments,
    signed_compositions,
    stilde_basis,
    t_basis,
    tclass_coordinates,
    tilde,
    u_comp,
    underline,
)
from peakalg.reporting import CheckFailure

from oracles import members


def test_counts():
    for n in range(1, 9):
        assert len(signed_compositions(n)) == 2 * 3 ** (n - 1)


def test_segment_example():
    assert segments((-2, 1, -1, -2, 2, 2, 3)) == [(-2,), (1,), (-1, -2), (2, 2, 3)]


def test_operator_examples():
    a = (-2, 1, -1, -2, 2, 2, 3)
    assert underline(a) == (4, 4, 2, 3)
    assert o_comp(a) == (1, 1, 1, 1, 1, 1, 2, 2, 3)
    assert u_comp(a) == (1, 4, 8)
    b = (3, -2, -1, -2, 4, 2, -3, 1)
    assert tilde(b) == (3, -1, -3, -1, 4, 2, -1, -1, -1, 1)


def test_tilde_involution():
    for n in range(1, 7):
        for alpha in signed_compositions(n):
            assert tilde(tilde(alpha)) == alpha


def test_order_examples():
    assert leq((-2, 1, -3, 2, 5), (-2, 1, -1, -2, 2, 2, 3))
    assert preceq((-2, 1, -1, -2, 2, 2, 3), (-2, 1, -3, 2, 1, 1, 3))
    for alpha in signed_compositions(4):
        assert leq(alpha, alpha) and preceq(alpha, alpha)


def test_orders_are_partial_orders_exhaustive_small():
    for n in (2, 3, 4):
        comps = signed_compositions(n)
        for rel in (leq, preceq):
            ups = {a: [b for b in comps if rel(a, b)] for a in comps}
            for a in comps:
                for b in ups[a]:
                    if a != b:
                        assert not rel(b, a)
                    for c in ups[b]:
                        assert rel(a, c)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 * 3**4 - 1), st.integers(0, 2 * 3**4 - 1), st.integers(0, 2 * 3**4 - 1))
def test_orders_transitive_sampled_rank_5(i, j, k):
    comps = signed_compositions(5)
    a, b, c = comps[i], comps[j], comps[k]
    for rel in (leq, preceq):
        if rel(a, b) and rel(b, c):
            assert rel(a, c)


def test_class_recovery_example():
    assert mr_class_of((-3, 4, 6, 1, 7, -5, -2, -8)) == (-1, 2, 2, -1, -2)


def test_partitions():
    for n in (1, 2, 3, 4, 5):
        check_t_partition(n)


def test_class_definitions_example():
    # alpha = (2,2,-3,-1,1): S-tilde wants signed entries increasing per run
    alpha = (2, 2, -3, -1, 1)
    st_elem = stilde_basis(9, alpha)
    for w in st_elem.support():
        assert w[0] < w[1] and w[2] < w[3]
        assert w[4] < w[5] < w[6] < 0 and w[7] < 0 < w[8]
        assert abs(w[4]) > abs(w[5]) > abs(w[6])
    s_elem = s_basis(9, alpha)
    assert len(s_elem) == len(st_elem)
    for w in s_elem.support():
        assert abs(w[4]) < abs(w[5]) < abs(w[6])


def test_t_class_maximality():
    # consecutive same-sign runs must break in absolute value
    for w in members(mr.t_algebra(5))[(1, 2, 2)].__iter__():
        assert abs(w[0]) > abs(w[1])
        assert abs(w[2]) > abs(w[3])
        assert w[1] < w[2] and w[3] < w[4]
    for w in members(mr.t_algebra(4))[(-2, -2)]:
        assert abs(w[1]) > abs(w[2])
        assert abs(w[0]) < abs(w[1]) and abs(w[2]) < abs(w[3])
        assert all(v < 0 for v in w)


def test_order_sums_unitriangular():
    for n in (1, 2, 3, 4):
        check_order_sums(n)
    # leading coefficient one: the class of alpha itself appears once
    for alpha in signed_compositions(3):
        coords = tclass_coordinates(s_basis(3, alpha))
        assert coords[alpha] == 1
        coords2 = tclass_coordinates(stilde_basis(3, alpha))
        assert coords2[tilde(alpha)] == 1


def test_all_positive_collapse():
    for n in (2, 3, 4):
        for alpha in signed_compositions(n):
            if all(p > 0 for p in alpha):
                assert s_basis(n, alpha) == stilde_basis(n, alpha)


def test_omega_closure():
    for n in (1, 2, 3):
        check_omega_closure(n)


def test_omega_closure_rank_4():
    check_omega_closure(4)


def test_descent_algebra_inside():
    # Y_{{0}} is a T-combination at rank 3, found by exact solve
    coords = tclass_coordinates(y_basis("B", 3, 0b1))
    assert coords is not None
    rebuilt = AlgElem.zero("B", 3)
    for alpha, c in coords.items():
        rebuilt += t_basis(3, alpha).scale(c)
    assert rebuilt == y_basis("B", 3, 0b1)


def test_phi_images():
    for n in (1, 2, 3, 4):
        check_phi_images(n)
        check_phi_onto_descent_algebra(n)
    # all 54 signed compositions of 4 map the S-class onto the X-class
    for alpha in signed_compositions(4):
        assert phi(s_basis(4, alpha)) == phi_on_s_formula(4, alpha)


def test_bstilde_products():
    for n in (1, 2, 3, 4):
        for alpha in signed_compositions(n):
            bstilde_product(n, alpha)
    # class size bookkeeping at rank 3
    from peakalg.maps import x0_generator

    assert len(x0_generator(3)) == 8


def test_check_bstilde_product_returns_the_mask_of_the_absolute_composition():
    assert check_bstilde_product(4, (2, -1, 1)) == 0b1100
    assert bstilde_product(4, (2, -1, 1)) == x0_basis(4, 0b1100)


@pytest.mark.parametrize("n", range(0, 6))
def test_descent_fibres_unite_the_descent_classes(n):
    # the element-level oracle: each descent class is the union of the
    # T-classes of its fibre, and every T-class lies in one fibre
    descents, tclasses = descent_algebra("B", n), mr.t_algebra(n).classes
    fibres = descents.fibres_over(mr.t_algebra(n))
    assert list(fibres) == list(descents.labels)
    assert sorted(a for ls in fibres.values() for a in ls) == sorted(tclasses)
    for mask, ls in fibres.items():
        united = [w for alpha in ls for w in tclasses[alpha]]
        assert sorted(united) == sorted(descents.classes[mask]), mask


def straddling_t_algebra(n: int = 3) -> ClassAlgebra:
    """The T-algebra of rank 3 with 213 (of the class of (1, 2), with 312)
    moved into the class of (-3,), which then meets two descent classes."""
    alg = mr.t_algebra(n)
    classes = {lab: list(ws) for lab, ws in members(alg).items()}
    classes[(1, 2)].remove((2, 1, 3))
    classes[(-3,)].append((2, 1, 3))
    return ClassAlgebra("B", n, None, alg.labels, classes)


STRADDLES = r"the class \(-3,\) meets several classes"


def test_a_t_class_that_meets_two_descent_classes_fails():
    with pytest.raises(CheckFailure, match=STRADDLES):
        descent_algebra("B", 3).fibres_over(straddling_t_algebra())


def test_omega_closure_reads_the_descent_fibres(monkeypatch):
    # the same straddling T-class fails the embedding half of the check
    straddling, t_algebra = straddling_t_algebra(), mr.t_algebra
    monkeypatch.setattr(mr, "t_algebra", lambda m: straddling if m == 3 else t_algebra(m))
    with pytest.raises(CheckFailure, match=STRADDLES):
        check_omega_closure(3)


@pytest.mark.parametrize("table", ["coproduct_coords", "transform_coords"])
def test_the_derived_type_b_hopf_tables_read_the_descent_fibres(table, monkeypatch):
    # and the type-B Hopf tables, which read the T-classes' through the fibres
    straddling, omega = straddling_t_algebra(), hopf.FAMILIES["OmegaB"]
    patched = omega._replace(algebra=lambda m: straddling if m == 3 else omega.algebra(m))
    monkeypatch.setitem(hopf.FAMILIES, "OmegaB", patched)
    build = getattr(hopf, table)
    build.cache_clear()
    try:
        with pytest.raises(CheckFailure, match=STRADDLES):
            build("SolB", 3)
    finally:
        build.cache_clear()


def test_mr_basis_dispatch():
    assert mr_basis("T", 2, (2,)) == t_basis(2, (2,))
    with pytest.raises(ValueError):
        mr_basis("Q", 2, (2,))
    with pytest.raises(ValueError):
        t_basis(3, (1, 1))


def test_composition_text_roundtrip():
    from peakalg.mr import comp_from_text

    assert comp_from_text("(2,2,-3,-1,1)") == (2, 2, -3, -1, 1)
    with pytest.raises(ValueError):
        comp_from_text("(2,0,1)")
