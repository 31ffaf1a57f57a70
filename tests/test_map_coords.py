"""The map and transform checks on class coordinates against their
element-level form.

peakalg.verify evaluates the multiplicativity of chi, phi, psi, beta,
gamma and the peak projection on rows (the binned image of every class sum) and structure cubes,
and the type-B transform identities on the cached rows of theta/theta_pm;
maps.theta_pm_ideal_matrix reads the theta_pm rows on the type-B descent
classes.  The element-level bodies they replaced live here as the
reference: every product is a convolution of group elements.  Both paths
must agree, and a broken map or a corrupted cube must fail both.
"""

from collections import Counter
from fractions import Fraction

import pytest

from peakalg import maps, mr, peak, verify
from peakalg.bases import (
    comp_to_subset,
    descent_algebra,
    y_basis,
    y_label_elements,
    y_to_x_coords,
)
from peakalg.perms import GeneratorSet, mask_text
from peakalg.reporting import CheckFailure, run_checks

from oracles import members, reference_det

# ---------------------------------------------------------------------------
# the element-level reference


def _mask(n, alpha):
    mask = 0
    for j in comp_to_subset(mr.abs_comp(alpha), n):
        mask |= 1 << j
    return mask


def _pair(ctype, n, m1, m2):
    """A pair of descent-class labels as the checks write it."""
    return f"({GeneratorSet(ctype, n, m1).text()}, {GeneratorSet(ctype, n, m2).text()})"


def reference_chi_multiplicative(n_max):
    for n in range(2, min(n_max, 4) + 1):
        elems = y_label_elements("B", n)
        imgs = {m: maps.chi(yj) for m, yj in elems}
        for m1, a in elems:
            for m2, b in elems:
                if maps.chi(a * b) != imgs[m1] * imgs[m2]:
                    raise CheckFailure(
                        f"the fold is not multiplicative at B_{n}, {_pair('B', n, m1, m2)}"
                    )


def reference_phi_multiplicative(n_max):
    for ctype, mapper, lo in (("B", maps.phi, 1), ("D", maps.psi, 2)):
        for n in range(lo, min(n_max, 4) + 1):
            elems = y_label_elements(ctype, n)
            images = {m: mapper(yj) for m, yj in elems}
            for m1, a in elems:
                for m2, b in elems:
                    if mapper(a * b) != images[m1] * images[m2]:
                        pair = _pair(ctype, n, m1, m2)
                        raise CheckFailure(
                            f"sign forgetting is not multiplicative at {ctype}_{n}, {pair}"
                        )


def reference_drops_multiplicative(n_max):
    for ctype, drop, lo, what in (
        ("B", maps.beta_map, 2, "the drop"),
        ("D", maps.gamma_map, 3, "the type-D drop"),
    ):
        for n in range(lo, min(n_max, 4) + 1):
            elems = y_label_elements(ctype, n)
            imgs = {m: drop(yj) for m, yj in elems}
            for m1, a in elems:
                for m2, b in elems:
                    if drop(a * b) != imgs[m1] * imgs[m2]:
                        pair = _pair(ctype, n, m1, m2)
                        raise CheckFailure(f"{what} is not multiplicative at {ctype}_{n}, {pair}")


def reference_pi_multiplicative(n_max):
    for n in range(2, min(n_max, 4) + 1):
        elems = peak.peak_elements(n)
        imgs = {m: peak.pi_map(p) for m, p in elems}
        for m1, a in elems:
            for m2, b in elems:
                if peak.pi_map(a * b) != imgs[m1] * imgs[m2]:
                    pair = f"({mask_text(m1)}, {mask_text(m2)})"
                    raise CheckFailure(f"the projection is not multiplicative at S_{n}, {pair}")


def reference_bstilde_product(n, alpha):
    gen = maps.x0_generator(n)
    if len(gen) != 1 << n:
        raise CheckFailure(f"increasing class has size {len(gen)} != 2^{n}")
    prod = gen * mr.stilde_basis(n, alpha)
    if prod != maps.x0_basis(n, _mask(n, alpha)):
        raise CheckFailure(f"product with the S-tilde class of {alpha} is wrong")
    return prod


def reference_increasing_class_products(n_max):
    for n in range(1, min(n_max, 5) + 1):
        for alpha in mr.signed_compositions(n):
            reference_bstilde_product(n, alpha)


def reference_type_b_values(n_max):
    for n in range(1, min(n_max, 5) + 1):
        for alpha in mr.signed_compositions(n):
            if maps.theta_pm(mr.stilde_basis(n, alpha)) != maps.x0_basis(n, _mask(n, alpha)):
                raise CheckFailure(f"type-B transform value wrong at {alpha}")


def reference_square(n_max):
    for n in range(1, min(n_max, 5) + 1):
        for alpha in mr.signed_compositions(n):
            a = mr.stilde_basis(n, alpha)
            if maps.phi(maps.theta_pm(a)) != maps.theta(maps.phi(a)):
                raise CheckFailure(f"transform square fails at {alpha}")


def reference_ideal_matrix(n):
    labels = maps.canonical_ideal_labels(n)
    index = {m: i for i, m in enumerate(labels)}
    rows = []
    for m in labels:
        ycoords = descent_algebra("B", n).coords(maps.theta_pm(maps.x0_basis(n, m)))
        if ycoords is None:
            raise CheckFailure("transform image left the descent algebra")
        row = [Fraction(0)] * len(labels)
        for xm, c in y_to_x_coords(ycoords).items():
            if not xm & 1:
                raise CheckFailure("transform image left the canonical ideal")
            row[index[xm & ~1]] = Fraction(c)
        rows.append(row)
    return labels, rows


def reference_bijective(n_max):
    """check_theta_pm_bijective on the element-level matrix."""
    for n in range(1, min(n_max, 5) + 1):
        labels, rows = reference_ideal_matrix(n)
        for i, m in enumerate(labels):
            parts = bin(m).count("1") + 1
            if rows[i][i] != (1 << parts):
                label = GeneratorSet("B", n, m).text()
                raise CheckFailure(f"diagonal at label {label} is {rows[i][i]}, expected 2^{parts}")
            for j, m2 in enumerate(labels):
                c = rows[i][j]
                if c and (m & ~m2):
                    raise CheckFailure(
                        f"entry at {_pair('B', n, m, m2)} is nonzero but not a refinement"
                    )
                if c and not (c.denominator == 1 and c >= 0):
                    raise CheckFailure(
                        f"entry at {_pair('B', n, m, m2)} is not a nonnegative integer"
                    )
        if reference_det(rows) == 0:
            raise CheckFailure("determinant vanishes")


# check ID -> the element-level body it replaced
PAIRS = {
    "chi/multiplicative": reference_chi_multiplicative,
    "phi/multiplicative": reference_phi_multiplicative,
    "ideals/drops-multiplicative": reference_drops_multiplicative,
    "peaks/projection-multiplicative": reference_pi_multiplicative,
    "mr/increasing-class-products": reference_increasing_class_products,
    "theta/type-b-values": reference_type_b_values,
    "theta/square-with-sign-forgetting": reference_square,
    "theta/bijective-on-ideal": reference_bijective,
}


def coordinate_check(check_id, n_max):
    """The result of one check of its suite, run at rank ceiling n_max."""
    suite = verify.SUITES[check_id.split("/")[0]]
    (result,) = run_checks(c for c in suite(n_max) if c.check_id == check_id)
    return result


def element_witness(reference, n_max):
    with pytest.raises(CheckFailure) as failure:
        reference(n_max)
    return str(failure.value)


# ---------------------------------------------------------------------------
# both paths pass, and agree on the data


@pytest.mark.parametrize("check_id", sorted(PAIRS))
def test_both_paths_pass(check_id):
    PAIRS[check_id](4)
    result = coordinate_check(check_id, 4)
    assert result.status == "pass", result.witness


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
    witness = element_witness(reference_chi_multiplicative, 3)
    result = coordinate_check("chi/multiplicative", 3)
    assert result.status == "fail"
    assert result.witness == witness


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
    witness = element_witness(reference_pi_multiplicative, 3)
    result = coordinate_check("peaks/projection-multiplicative", 3)
    assert result.status == "fail"
    assert result.witness == witness


def test_perturbed_d_cube_fails_the_coordinate_chi_check():
    alg = descent_algebra("D", 3)
    full = alg.labels[-1]
    cell = alg.cube[(full, full)]
    saved = dict(cell)
    try:
        cell[0] = cell.get(0, 0) + 1
        result = coordinate_check("chi/multiplicative", 3)
    finally:
        cell.clear()
        cell.update(saved)
    assert result.status == "fail"
    assert result.witness.startswith("the fold is not multiplicative at B_3, ")
    assert coordinate_check("chi/multiplicative", 3).status == "pass"


def test_perturbed_b_cube_fails_the_drop_check_at_its_pair():
    alg = descent_algebra("B", 3)
    full = alg.labels[-1]
    cell = alg.cube[(full, full)]
    saved = dict(cell)
    try:
        cell[0] = cell.get(0, 0) + 1
        result = coordinate_check("ideals/drops-multiplicative", 3)
    finally:
        cell.clear()
        cell.update(saved)
    assert result.status == "fail"
    assert result.witness == "the drop is not multiplicative at B_3, ({0,1,2}, {0,1,2})"
    assert coordinate_check("ideals/drops-multiplicative", 3).status == "pass"


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
    products = coordinate_check("mr/increasing-class-products", 3)
    values = coordinate_check("theta/type-b-values", 3)
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
    witness = element_witness(PAIRS[check_id], 3)
    result = coordinate_check(check_id, 3)
    assert result.status == "fail"
    assert result.witness == witness

