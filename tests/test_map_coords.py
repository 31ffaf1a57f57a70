"""The map and transform checks on class coordinates: mutations.

peakalg.verify evaluates the multiplicativity of chi, phi, psi, beta,
gamma and the peak projection on rows (the binned image of every class sum) and structure cubes,
and the type-B transform identities on the cached rows of theta/theta_pm;
maps.theta_pm_ideal_matrix reads the theta_pm rows on the type-B descent
classes.  Their element-level oracles are registered in
tests/oracles/registry.py: every product is a convolution of group
elements.  A broken map must fail a check and its oracle with the same
witness, and a corrupted cube must fail the check.
"""

from collections import Counter

import pytest

from peakalg import maps, mr, peak, verify
from peakalg.bases import descent_algebra, y_basis
from peakalg.reporting import CheckFailure, run_checks

from oracles import members
from oracles.registry import both, both_fail, declared_check
from oracles.rows import reference_bstilde_product, reference_ideal_matrix


def same_witness(check_id, n_max=3) -> str:
    """The witness with which a check and its oracle both fail."""
    check, oracle = both_fail(check_id, n_max)
    assert check.witness == oracle.witness
    return check.witness


# ---------------------------------------------------------------------------
# the element-level data


def test_bstilde_product_returns_the_element_level_product():
    for n in range(1, 5):
        for alpha in mr.signed_compositions(n):
            assert mr.bstilde_product(n, alpha) == reference_bstilde_product(n, alpha)
    with pytest.raises(ValueError):
        mr.bstilde_product(3, (2, 2))


@pytest.mark.parametrize("suite", ["mr", "theta"])
def test_the_suites_of_the_increasing_class_build_no_x0_element(suite, monkeypatch):
    # the X0 side of the product is read through the descent fibres
    def refuse(n, jmask):
        raise AssertionError(f"X0 built at n={n}, J={bin(jmask)}")

    monkeypatch.setattr(maps, "x0_basis", refuse)
    report = verify.run_suite(suite, 5)
    assert [(c.check_id, c.witness) for c in report.checks if c.status != "pass"] == []


@pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.deep)])
def test_ideal_matrix_matches_the_element_level(n):
    assert maps.theta_pm_ideal_matrix(n) == reference_ideal_matrix(n)


# ---------------------------------------------------------------------------
# mutations


def _chi_wrong_on_one_class(n, mask):
    """chi plus, linearly, the coefficient of one member of the class of
    mask times chi of that class sum: wrong on that class sum only."""
    w0 = members(descent_algebra("B", n))[mask][0]
    extra = maps.chi(y_basis("B", n, mask))
    chi = maps.chi

    def broken(a):
        c = a.coeff(w0)
        return chi(a) + extra.scale(c) if c else chi(a)

    return broken


def test_chi_wrong_on_one_class_fails_both_paths(monkeypatch):
    monkeypatch.setattr(maps, "chi", _chi_wrong_on_one_class(3, 0b010))
    assert same_witness("chi/multiplicative").startswith("the fold is not multiplicative at B_3")


def test_pi_wrong_on_one_class_fails_both_paths(monkeypatch):
    # pi plus, linearly, pi of P_{} of rank 3 per unit of one member of
    # that class: pi doubled on that class sum only
    n = 3
    w0 = members(peak.peak_algebra(n))[0][0]
    extra = peak.pi_map(peak.peak_basis(n, 0))
    pi_map = peak.pi_map

    def broken(a):
        c = a.coeff(w0)
        return pi_map(a) + extra.scale(c) if c else pi_map(a)

    monkeypatch.setattr(peak, "pi_map", broken)
    assert same_witness("peaks/projection-multiplicative").startswith(
        "the projection is not multiplicative at S_3"
    )


def test_perturbed_d_cube_fails_the_coordinate_chi_check():
    alg = descent_algebra("D", 3)
    full = alg.labels[-1]
    cell = alg.cube[(full, full)]
    saved, check = dict(cell), declared_check("chi/multiplicative", 3)
    try:
        cell[0] = cell.get(0, 0) + 1
        result, oracle = both(check)  # the oracle reads no cube
    finally:
        cell.clear()
        cell.update(saved)
    assert (result.status, oracle.status) == ("fail", "pass")
    assert result.witness.startswith("the fold is not multiplicative at B_3, ")
    assert run_checks([check])[0].status == "pass"


def test_perturbed_b_cube_fails_the_drop_check_at_its_pair():
    alg = descent_algebra("B", 3)
    full = alg.labels[-1]
    cell = alg.cube[(full, full)]
    saved, check = dict(cell), declared_check("ideals/drops-multiplicative", 3)
    try:
        cell[0] = cell.get(0, 0) + 1
        result, oracle = both(check)  # the oracle reads no cube
    finally:
        cell.clear()
        cell.update(saved)
    assert (result.status, oracle.status) == ("fail", "pass")
    assert result.witness == "the drop is not multiplicative at B_3, ({0,1,2}, {0,1,2})"
    assert run_checks([check])[0].status == "pass"


def test_one_result_per_rank_fails_both_checks_of_the_increasing_class_products(
    monkeypatch, fresh_transform_rows
):
    # mr/increasing-class-products and theta/type-b-values read one result
    # per rank: each product is checked once, and a broken one fails both
    calls, check = Counter(), mr.check_bstilde_product

    def broken(n, alpha):
        calls[n, alpha] += 1
        if alpha == (2, -1):
            raise CheckFailure(f"product with the S-tilde class of {alpha} is wrong")
        return check(n, alpha)

    monkeypatch.setattr(mr, "check_bstilde_product", broken)
    mr.bstilde_failure.cache_clear()
    ids = ("mr/increasing-class-products", "theta/type-b-values")
    products, values = run_checks(declared_check(check_id, 3) for check_id in ids)
    assert (products.status, products.witness) == (
        "fail", "product with the S-tilde class of (2, -1) is wrong"
    )
    assert (values.status, values.witness) == ("fail", "type-B transform value wrong at (2, -1)")
    assert max(calls.values()) == 1 and (3, (2, -1)) in calls


@pytest.mark.parametrize(
    "check_id",
    ["theta/type-b-values", "theta/square-with-sign-forgetting", "theta/bijective-on-ideal"],
)
def test_broken_theta_pm_fails_both_paths(check_id, monkeypatch, fresh_transform_rows):
    theta_pm = maps.theta_pm
    monkeypatch.setattr(
        maps, "theta_pm", lambda a: theta_pm(a).scale(2) if a.n == 3 else theta_pm(a)
    )
    same_witness(check_id)

