import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakalg import hopf
from peakalg.algebra import AlgElem
from peakalg.bases import y_basis
from peakalg.hopf import (
    check_beta_via_coproduct,
    check_coassociative,
    check_coproduct_generators,
    check_counit,
    check_delta_closures,
    check_delta_internal_compat,
    check_free_module,
    check_i0_star,
    check_module_morphisms,
    check_omega_star,
    check_peak_module_star,
    check_peak_not_closed_witness,
    check_pint_star_closure,
    check_shuffle_coefficients,
    check_sola_star,
    check_solb_module_star,
    check_split_reassembly,
    check_theta_hopf,
    coproduct,
    coproduct_split,
    external_product,
    shuffles,
)
from peakalg.mr import stilde_basis
from peakalg.peak import peak_basis, peak_coordinates
from peakalg.perms import compose, group_elements, identity, inverse
from peakalg.reporting import CheckFailure

from oracles import add_multiple, block_embed
from test_hopf_coords import componentwise_internal


def test_shuffles_are_coset_representatives():
    assert len(shuffles(2, 2)) == 6
    for xi in shuffles(2, 3):
        assert list(xi[:2]) == sorted(xi[:2])
        assert list(xi[2:]) == sorted(xi[2:])


def test_block_embed_signs():
    assert block_embed((1, -2), (-1, 2)) == (1, -2, -3, 4)


def test_unit_is_neutral():
    one = AlgElem.unit("B", 0)
    for _, a in ((0, y_basis("B", 3, 0b1)), (1, peak_basis(3, 0b10))):
        assert external_product(one, a) == a
        assert external_product(a, one) == a


def test_split_examples():
    xi, w1, w2 = coproduct_split((3, 1, 2), 1)
    assert (w1, w2) == ((1,), (2, 1))
    assert compose(block_embed(w1, w2), inverse(xi)) == (3, 1, 2)
    # identity splits into identities
    assert coproduct(AlgElem.unit("S", 3)) == {
        (identity(p), identity(3 - p)): 1 for p in range(4)
    }


def test_coproduct_drops_the_terms_that_cancel():
    e12, e21 = AlgElem.monomial("S", 2, (1, 2)), AlgElem.monomial("S", 2, (2, 1))
    ends = {((), (1, 2)): 1, ((1, 2), ()): 1}
    # both permutations split at 1 into the same block pair
    assert coproduct(e12 + e21) == {**ends, ((), (2, 1)): 1, ((2, 1), ()): 1, ((1,), (1,)): 2}
    difference = coproduct(e12 - e21)
    assert type(difference) is dict and 0 not in difference.values()
    assert difference == {**ends, ((), (2, 1)): -1, ((2, 1), ()): -1}
    assert coproduct(AlgElem.zero("S", 2)) == {}


def test_coproduct_does_not_depend_on_the_order_of_the_terms():
    a = y_basis("B", 3, 0b101) - 2 * y_basis("B", 3, 0b10)
    reordered = AlgElem._raw("B", 3, dict(reversed(a.terms.items())))
    assert list(reordered.terms) != list(a.terms)
    assert coproduct(reordered) == coproduct(a)


def _split_oracle(group: str, n: int) -> dict:
    """w -> its block pairs (u, v), one per split point: every product of a
    block pair u x v and an inverse shuffle, with no split of w read."""
    out: dict = {}
    for p in range(n + 1):
        for u in group_elements(group, p):
            for v in group_elements(group, n - p):
                for xi in shuffles(p, n - p):
                    out.setdefault(compose(block_embed(u, v), inverse(xi)), []).append((u, v))
    return out


def test_coproduct_equals_the_split_oracle_on_the_generators():
    for m in range(5):
        for gen, _ in hopf.GENERATORS:
            a = gen(m)
            pairs, want = _split_oracle(a.group, m), {}
            for w, c in a.terms.items():
                for pair in pairs[w]:
                    add_multiple(want, c, {pair: 1})
            assert coproduct(a) == want, (gen, m)


def test_reassembly_coassoc_counit_small():
    for n in range(0, 5):
        for w in group_elements("B", n):
            check_split_reassembly(w)
            check_coassociative(w)
            check_counit(w)


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(1, 8))), st.integers(0, (1 << 7) - 1))
def test_reassembly_random_rank_7(base, mask):
    w = tuple(-v if (mask >> i) & 1 else v for i, v in enumerate(base))
    check_split_reassembly(w)
    check_coassociative(w)


def test_peak_shuffle_witness():
    # the square of the rank-2 one-peak class leaves the peak family
    prod = external_product(peak_basis(2, 0b10), peak_basis(2, 0b10))
    assert prod == y_basis("A", 4, 0b1110) + y_basis("A", 4, 0b1010)
    assert peak_coordinates(prod) is None
    check_peak_not_closed_witness()


def test_concatenation_formulas():
    check_sola_star(4)
    check_i0_star(4)
    check_solb_module_star(4)
    check_omega_star(4)


def test_coproduct_generators():
    check_coproduct_generators(5)
    # the barred one-part classes split with matching bars
    for (u, v), c in coproduct(stilde_basis(3, (-3,))).items():
        assert c == 1
        assert all(x < 0 for x in u) and all(x < 0 for x in v)


def test_delta_closures():
    check_delta_closures(4)


def test_module_closures():
    check_pint_star_closure(4)
    check_peak_module_star(4)


def test_theta_hopf_small():
    check_theta_hopf(3)


def test_beta_via_coproduct():
    check_beta_via_coproduct(4)


def test_module_morphisms():
    check_module_morphisms(4)


def test_internal_compat():
    check_delta_internal_compat(4)


def test_free_module():
    check_free_module(4)


def test_shuffle_coefficients_are_one():
    # shuffles of two single permutations produce distinct terms
    for u in group_elements("B", 2):
        for v in group_elements("B", 3):
            prod = external_product(
                AlgElem.monomial("B", 2, u), AlgElem.monomial("B", 3, v)
            )
            assert all(c == 1 for c in prod.terms.values())
            assert len(prod) == len(shuffles(2, 3))


def _patched_tables(monkeypatch, tables):
    """Answer hopf's shuffle-table lookup with tables(real lookup, p, q)."""
    real = hopf._shuffle_tables
    monkeypatch.setattr(hopf, "_shuffle_tables", lambda p, q: tables(real, p, q))


def test_a_duplicated_shuffle_table_raises(monkeypatch):
    # an extra copy of the first (1, 1) table doubles a term; kept as one
    # dict entry it would read as coefficient 1 and pass the check below
    check_shuffle_coefficients(2)
    _patched_tables(monkeypatch, lambda real, p, q: real(p, q) + real(p, q)[:1])
    one = AlgElem.monomial("B", 1, (1,))
    with pytest.raises(ArithmeticError, match="shuffle products coincide in degrees 1, 1"):
        external_product(one, one)
    with pytest.raises(ArithmeticError):
        check_shuffle_coefficients(2)


def test_a_swapped_shuffle_table_fails_the_coefficient_check(monkeypatch):
    # the (1, 1) tables swapped for the (2, 0) ones: one shuffle, one term
    def swapped(real, p, q):
        return real(2, 0) if (p, q) == (1, 1) else real(p, q)

    _patched_tables(monkeypatch, swapped)
    with pytest.raises(CheckFailure, match=r"shuffle of \(1,\), \(1,\) has 1 terms, not 2"):
        check_shuffle_coefficients(2)


def test_external_associative_and_graded():
    a = y_basis("A", 1, 0)
    b = peak_basis(2, 0b10)
    c = y_basis("A", 2, 0b10)
    left = external_product(external_product(a, b), c)
    right = external_product(a, external_product(b, c))
    assert left == right
    assert left.n == 5


def test_tensor2_internal_componentwise():
    t = {((1,), (1,)): 1}
    s = {((1,), (1,)): 2}
    assert componentwise_internal(t, s) == {((1,), (1,)): 2}


def test_ideal_and_type_a_share_graded_constants():
    from peakalg.hopf import check_i0_sola_isomorphism

    check_i0_sola_isomorphism(4)
