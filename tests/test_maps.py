import pytest

from peakalg.algebra import AlgElem, span_rank
from peakalg.bases import (
    descent_algebra,
    descent_coordinates,
    x_label_elements,
    y_basis,
    y_label_elements,
)
from peakalg.maps import (
    DiagramSpec,
    Node,
    bd_triangles,
    beta_map,
    beta2_map,
    bexact_diagram,
    canonical_ideal_basis,
    canonical_ideal_labels,
    check_theta_pm_bijective,
    chi,
    chi_on_x,
    chi_on_y,
    dexact_diagram,
    diagram_checks,
    gamma_map,
    imchi_basis,
    interior_peak_generator,
    phi,
    phi_on_x,
    phi_on_x0,
    phi_on_y,
    phi_on_y0,
    psi,
    psi_on_x,
    psi_on_y,
    right_ideal_check,
    theta,
    theta_pm,
    verify_diagram,
    x0_basis,
    x0_generator,
    x_support_coords,
    y0_basis,
)
from peakalg.peak import (
    interior_peak_coordinates,
    interior_peak_elements,
    peak_elements,
)
from peakalg.perms import descent_mask, fibonacci, group_elements

from oracles import descent_span_rank

CASE = {0: "plain", 1: "oneprime", 2: "one", 3: "both"}


def test_chi_closed_forms_exhaustive():
    for n in (2, 3, 4):
        for m, yj in y_label_elements("B", n):
            assert chi(yj) == chi_on_y(n, m)
        for m, xj in x_label_elements("B", n):
            assert chi(xj) == chi_on_x(n, m)


def test_chi_specific_lines():
    # fixed residual subset J = {2} at rank 4
    j = 0b100
    assert chi_on_y(4, j) == y_basis("D", 4, j)
    assert chi_on_x(4, 0b11 | j) == x_basis_d(4, 0b11 | j).scale(2)


@pytest.mark.parametrize(
    "form, jmask, label",
    [
        (chi_on_y, -1, -1),
        (chi_on_y, -4, -4),
        (chi_on_y, -3, -4),
        (chi_on_x, -1, -1),
        (chi_on_x, -4, -4),
        (chi_on_x, -3, -3),
    ],
)
def test_chi_forms_name_a_negative_label(form, jmask, label):
    # the X-form expands its labels into their submasks, which a negative
    # mask does not have: it must raise, naming its first label
    with pytest.raises(ValueError, match=f"^label mask {label} is negative$"):
        form(3, jmask)


@pytest.mark.parametrize("form", [x0_basis, y0_basis, phi_on_x0, phi_on_y0])
def test_ideal_forms_reject_a_label_holding_0(form):
    # the 0 of an ideal label is implicit: J = {0,1} is not read as {1}
    with pytest.raises(ValueError, match="^label J must avoid 0; the 0 is implicit$"):
        form(3, 0b11)


def test_y0_basis_is_the_two_descent_classes():
    for m in range(0, 8, 2):
        assert y0_basis(3, m) == y_basis("B", 3, m | 1) + y_basis("B", 3, m)


def x_basis_d(n, m):
    from peakalg.bases import x_basis

    return x_basis("D", n, m)


def test_phi_closed_forms_exhaustive():
    for n in (1, 2, 3, 4):
        for m, yj in y_label_elements("B", n):
            assert phi(yj) == phi_on_y(n, m)
        for m, xj in x_label_elements("B", n):
            assert phi(xj) == phi_on_x(n, m)
        for m in canonical_ideal_labels(n):
            assert phi(x0_basis(n, m)) == phi_on_x0(n, m)
            assert phi(y0_basis(n, m)) == phi_on_y0(n, m)


def test_phi_complement_symmetry():
    for n in (2, 3, 4):
        full = (1 << n) - 1
        for m in range(1 << n):
            assert phi_on_y(n, m) == phi_on_y(n, full ^ m)


def test_psi_closed_forms_exhaustive():
    for n in (2, 3, 4):
        for m, yj in y_label_elements("D", n):
            assert psi(yj) == psi_on_y(n, m & ~3, CASE[m & 3])
        for m, xj in x_label_elements("D", n):
            assert psi(xj) == psi_on_x(n, m & ~3, CASE[m & 3])


def test_psi_fork_equality():
    for n in (3, 4, 5):
        for m in range(0, 1 << n, 4):
            assert psi_on_y(n, m, "one") == psi_on_y(n, m, "oneprime")


def test_psi_case_validation():
    with pytest.raises(ValueError):
        psi_on_y(4, 0b10, "plain")  # residual subset must avoid 1', 1
    with pytest.raises(ValueError):
        psi_on_y(4, 0b100, "nonsense")


def test_triangle_diagrams():
    for n in (3, 4):
        for c in verify_diagram(bd_triangles(n)):
            assert c.ok, (c.check_id, c.witness)


def test_beta_on_bases():
    assert beta_map(x_basis_b(3, 0)) == x_basis_b(2, 0)
    assert beta_map(x_basis_b(3, 0b1)) == AlgElem.zero("B", 2)
    # drop on the descent-class basis picks up a sign when 0 is present
    assert beta_map(y_basis("B", 2, 0b1)) == y_basis("B", 1, 0).scale(-1)
    for n in (2, 3, 4):
        for m, yj in y_label_elements("B", n):
            x = descent_coordinates(beta_map(yj), "B")
            assert x is not None


def x_basis_b(n, m):
    from peakalg.bases import x_basis

    return x_basis("B", n, m)


def test_beta_multiplicative():
    for n in (2, 3):
        elems = y_label_elements("B", n)
        for _, a in elems:
            for _, b in elems:
                assert beta_map(a * b) == beta_map(a) * beta_map(b)


def test_beta_kernel():
    for n in (2, 3, 4, 5, 6):
        for m in canonical_ideal_labels(n):
            assert not beta_map(x0_basis(n, m))
        imgs = [beta_map(yj) for _, yj in y_label_elements("B", n)]
        assert descent_span_rank(imgs, "B") == 1 << (n - 1)
        assert len(canonical_ideal_labels(n)) == 1 << (n - 1)


def test_gamma_closed_form_and_triangle():
    for n in (3, 4):
        for m, yj in y_label_elements("B", n):
            assert gamma_map(chi(yj)) == beta2_map(yj)


def test_rejects_elements_outside_descent_algebra():
    with pytest.raises(ValueError):
        beta_map(AlgElem.monomial("B", 3, (2, 1, 3)))
    with pytest.raises(ValueError):
        gamma_map(AlgElem.monomial("D", 3, (2, 1, 3)))


def test_theta_values():
    # Theta(X_empty) is twice the rank-n interior generator
    for n in (2, 3, 4):
        assert theta(x_basis_a(n, 0)) == interior_peak_generator(n).scale(2)


def x_basis_a(n, m):
    from peakalg.bases import x_basis

    return x_basis("A", n, m)


def test_theta_pm_bijective():
    dets = {n: check_theta_pm_bijective(n) for n in (1, 2, 3, 4, 5)}
    assert all(d != 0 for d in dets.values())
    assert dets[1] == 2 and dets[2] == 8


def test_theta_images():
    for n in (3, 4):
        imgs = [theta(yj) for _, yj in y_label_elements("A", n)]
        assert span_rank(imgs) == fibonacci(n - 1)
    # image of the transform on the rank-5 descent algebra is f_4 = 5
    imgs = [theta(yj) for _, yj in y_label_elements("A", 5)]
    assert span_rank(imgs) == 5


def test_imchi_spans_image():
    for n in (2, 3, 4):
        fams = [
            imchi_basis(n, m, i) for m in range(0, 1 << n, 4) for i in (1, 2, 3)
        ]
        r = descent_span_rank(fams, "D")
        assert r == 3 * 2 ** (n - 2)
        img = [chi(yj) for _, yj in y_label_elements("B", n)]
        assert descent_span_rank(img, "D") == r
        assert descent_span_rank(fams + img, "D") == r


def test_imchi_middle_class_support_oracle():
    # class with |w_1| > |w_2| and no residual descents, counted directly
    for n in (2, 3, 4):
        count = sum(
            1
            for w in group_elements("D", n)
            if abs(w[0]) > abs(w[1]) and descent_mask(w, "D") & ~3 == 0
        )
        assert len(imchi_basis(n, 0, 2)) == count


def test_exact_sequence_diagrams():
    for n in (3, 4):
        for c in verify_diagram(bexact_diagram(n)):
            assert c.ok, (c.check_id, c.witness)
        for c in verify_diagram(dexact_diagram(n)):
            assert c.ok, (c.check_id, c.witness)


def _bad_spec(extra_arrows=(), **asserted) -> DiagramSpec:
    """Arrows f: A -> B, g: A -> C, h: B -> C and the extra arrows, with the
    given assertions."""
    nodes = {name: Node(name, descent_algebra("A", 2)) for name in "ABC"}
    arrows = {"f": ("A", "B", phi), "g": ("A", "C", phi), "h": ("B", "C", phi)}
    return DiagramSpec("bad", nodes, {**arrows, **dict(extra_arrows)}, **asserted)


@pytest.mark.parametrize("declare", [diagram_checks, verify_diagram])
@pytest.mark.parametrize(
    "asserted,message",
    [
        ({"path_equalities": [(("f",), ("h",))]}, "paths f and h start at different nodes"),
        ({"exact_rows": [("f", "g")]}, "exact row arrows f and g do not compose"),
        ({"surjections": ["k"]}, "diagram bad has no arrow k"),
        ({"exact_rows": [("f", "k")]}, "diagram bad has no arrow k"),
        ({"path_equalities": [(("f", "h"), ("k",))]}, "diagram bad has no arrow k"),
        ({"path_equalities": [(("f", "g"), ("f", "h"))]}, "path arrows f and g do not compose"),
        ({"path_equalities": [(("f",), ("g",))]}, "paths f and g end at different nodes"),
        ({"extra_arrows": {"e": ("A", "Z", phi)}}, "diagram bad has no node Z"),
    ],
    ids=[
        "two-path-sources",
        "row-not-composing",
        "onto-unknown",
        "row-unknown",
        "path-unknown",
        "path-not-composing",
        "two-path-targets",
        "arrow-to-unknown-node",
    ],
)
def test_a_malformed_spec_is_refused_when_declared(declare, asserted, message):
    # refused with the problem named, not reported as a failed or errored check
    with pytest.raises(ValueError, match=f"^{message}$"):
        declare(_bad_spec(**asserted))


def test_ker_beta2_labels():
    # X_J with 0 or 1 in J: the kernel of the double degree drop
    labels = {m for m, x in x_label_elements("B", 4) if not beta2_map(x)}
    assert labels == {m for m in range(16) if m & 0b11}


def test_principal_right_ideals_rank_3():
    n = 3
    gen_p = interior_peak_generator(n)
    right_ideal_check(
        gen_p,
        y_label_elements("A", n),
        interior_peak_elements(n),
        interior_peak_coordinates,
        "interior/descent",
    )
    right_ideal_check(
        gen_p,
        peak_elements(n),
        interior_peak_elements(n),
        interior_peak_coordinates,
        "interior/peak",
    )
    coordz = x_support_coords("B", frozenset((m | 1) for m in canonical_ideal_labels(n)))
    right_ideal_check(
        gen_b := x0_generator(n),
        y_label_elements("B", n),
        canonical_ideal_basis(n),
        coordz,
        "canonical/type-B",
    )
    # dimensions stated for rank 3: interior ideal f_2 = 2, canonical 2^2 = 4
    assert span_rank([gen_p * yj for _, yj in y_label_elements("A", n)]) == 2
    assert span_rank([gen_b * yj for _, yj in y_label_elements("B", n)]) == 4


def test_theta_equals_right_multiplication():
    for n in (2, 3):
        for _, yj in y_label_elements("A", n):
            assert theta(yj) == interior_peak_generator(n).scale(2) * yj
        for _, yj in y_label_elements("B", n):
            assert theta_pm(yj) == x0_generator(n) * yj


def test_chi_and_pi_multiplicative():
    for n in (2, 3):
        elems = y_label_elements("B", n)
        for _, a in elems:
            for _, b in elems:
                assert chi(a * b) == chi(a) * chi(b)
    from peakalg.peak import pi_map

    for n in (2, 3, 4):
        pelems = peak_elements(n)
        for _, a in pelems:
            for _, b in pelems:
                assert pi_map(a * b) == pi_map(a) * pi_map(b)


def test_canonical_ideal_not_left_ideal_upstairs():
    from peakalg.mr import t_basis

    coordz = x_support_coords("B", frozenset((m | 1) for m in canonical_ideal_labels(3)))
    assert coordz(t_basis(3, (1, 1, 1)) * x0_basis(3, 0)) is None
