"""A Hopf check whose degree ceiling leaves it no degree gets no entry.

Each hopf check is registered with the degrees it loops over: the degrees
1..d, or the first degree p of the pairs p + q <= d.  At --n-max 0 and 1
the checks that would visit nothing drop out instead of passing.
"""

import pytest

from peakalg.verify import run_suite

ALWAYS = {"hopf/coassociative-counit-singles", "hopf/peak-not-closed-witness"}
# a single degree n = 1 (or the pair 0 + 1) is enough for these
FROM_ONE = {
    "hopf/concat-type-b-module",
    "hopf/coproduct-closures",
    "hopf/drop-via-coproduct",
    "hopf/free-module",
    "hopf/generator-coproducts",
    "hopf/ideal-type-a-isomorphism",
    "hopf/internal-coproduct-compat",
    "hopf/module-morphisms",
    "hopf/transform-morphisms",
}
# these shuffle two positive degrees, so they start at total degree 2
FROM_TWO = {
    "hopf/concat-ideal",
    "hopf/concat-mr",
    "hopf/concat-type-a",
    "hopf/interior-shuffle-closure",
    "hopf/peak-module-closure",
    "hopf/shuffle-coefficients-distinct",
}


@pytest.mark.parametrize(
    "n_max,want",
    [(0, ALWAYS), (1, ALWAYS | FROM_ONE), (2, ALWAYS | FROM_ONE | FROM_TWO)],
)
def test_hopf_checks_at_the_lowest_ceilings(n_max, want):
    report = run_suite("hopf", n_max)
    assert {c.check_id for c in report.checks} == want
    assert report.passed


def test_all_seventeen_hopf_checks_run_from_degree_two():
    assert len(ALWAYS | FROM_ONE | FROM_TWO) == 17
    assert {c.check_id for c in run_suite("hopf", 3).checks} == ALWAYS | FROM_ONE | FROM_TWO
