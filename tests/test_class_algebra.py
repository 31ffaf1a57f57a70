"""The class-partition core against the element-level oracle.

Class binning must agree with exact elimination over the class sums, and
every structure-cube cell with the binned element-level product of the two
class sums, at every rank where both are cheap.
"""

import random
from fractions import Fraction

import pytest

from peakalg.algebra import NOT_IN_SPAN, AlgElem, SpanSolver
from peakalg.bases import descent_algebra
from peakalg.commutative import sol_algebra, wp_algebra
from peakalg.hopf import coproduct
from peakalg.mr import t_algebra
from peakalg.peak import interior_peak_algebra, peak_algebra

from oracles import bidegree, members, pair_coords

CASES = (
    [(f"A{n}", lambda n=n: descent_algebra("A", n)) for n in range(1, 6)]
    + [(f"B{n}", lambda n=n: descent_algebra("B", n)) for n in range(1, 5)]
    + [(f"D{n}", lambda n=n: descent_algebra("D", n)) for n in range(2, 5)]
    + [(f"P{n}", lambda n=n: peak_algebra(n)) for n in range(1, 7)]
    + [(f"Pint{n}", lambda n=n: interior_peak_algebra(n)) for n in range(1, 7)]
    + [(f"T{n}", lambda n=n: t_algebra(n)) for n in range(1, 5)]
)


@pytest.mark.parametrize("name, factory", CASES, ids=[name for name, _ in CASES])
def test_cube_and_coords_match_the_oracle(name, factory):
    alg = factory()
    basis = alg.basis
    assert [lab for lab, _ in basis] == list(alg.labels)
    assert sum(alg.sizes.values()) == len(set().union(*alg.classes.values()))
    solver = SpanSolver([e for _, e in basis], labels=alg.labels)
    for l1, c1 in basis:
        for l2, c2 in basis:
            prod = c1 * c2
            coords = alg.coords(prod)
            assert coords == alg.cube[(l1, l2)]
            assert coords == solver.coords(prod).nonzero()
            assert alg.element(coords) == prod
    # off the span: one member of a class of size > 1 taken alone
    big = next((ws for ws in members(alg).values() if len(ws) > 1), None)
    if big is not None:
        lone = AlgElem.monomial(alg.group, alg.n, big[0])
        assert alg.coords(lone) is None
        assert solver.coords(lone) is NOT_IN_SPAN


@pytest.mark.parametrize("factory", [lambda: descent_algebra("B", 3), lambda: peak_algebra(5)])
def test_product_is_the_element_product(factory):
    alg = factory()
    rng = random.Random(7)
    for _ in range(5):
        c1 = {lab: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for lab in alg.labels}
        c2 = {lab: rng.randint(-2, 2) for lab in alg.labels}
        prod = alg.element(c1) * alg.element(c2)
        assert alg.element(alg.product(c1, c2)) == prod


def test_coarsened_coords_agree_with_the_fine_ones():
    for n in range(1, 6):
        for coarse, fine, f in (
            (sol_algebra(n), descent_algebra("B", n), lambda m: bin(m).count("1")),
            (wp_algebra(n), peak_algebra(n), lambda m: bin(m).count("1")),
        ):
            for j in coarse.labels:
                e = coarse.element({j: 3})
                assert fine.coords(e) == {m: 3 for m in fine.labels if f(m) == j}
                assert coarse.vector(e) == [3 if i == j else 0 for i in coarse.labels]
            # a single fine class is off the coarse span unless it is whole
            for m in fine.labels:
                whole = fine.sizes[m] == coarse.sizes[f(m)]
                assert (coarse.coords(fine.element({m: 1})) is not None) == whole


def test_saturation_ranks():
    # the peak algebra is generated by its whole basis; p_1 generates the
    # peak-count span (dimension n//2 + 1)
    for n in range(2, 6):
        alg = peak_algebra(n)
        unit = alg.coords(wp_algebra(n).element({0: 1}))
        gen = alg.coords(wp_algebra(n).element({1: 1}))
        assert alg.saturate([unit, gen]) == n // 2 + 1
        assert alg.saturate([{m: 1} for m in alg.labels]) == len(alg.labels)


def test_pair_binning_reads_the_tensor_terms():
    for n in range(1, 5):
        for fm, pf in peak_algebra(n).basis:
            t2 = coproduct(pf)
            for p in range(n + 1):
                left, right = peak_algebra(p), peak_algebra(n - p)
                coords = pair_coords(bidegree(t2, p), left, right)
                expanded = {
                    (u, v): c
                    for (l, r), c in coords.items()
                    for u in members(left)[l]
                    for v in members(right)[r]
                }
                assert expanded == bidegree(t2, p)
    # one permutation of a class with several members is off the span
    lone = coproduct(AlgElem.monomial("S", 3, (2, 3, 1)))
    assert pair_coords(bidegree(lone, 3), peak_algebra(3), peak_algebra(0)) is None
