"""The onto, kernel and closed-form checks on class rows against their
element-level form.

The chi, phi, psi, ideals, theta and commutative suites read these checks
from the rows of a map (the binned image of every class sum) through
maps.landed and maps.node_span, and compare closed forms with rows applied
to the class coordinates of the X-labels.  The element-level bodies they
replaced live here as the reference: every X, X0, Y0, count sum and
generator product is pushed through the map as a group-algebra element and
binned or eliminated.  Both paths must give the same check IDs and
verdicts at n <= 4, and each mutation below must fail its named check
under both.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from peakalg import commutative as comm
from peakalg import algebra, maps, mr, verify
from peakalg.algebra import NOT_IN_SPAN, AlgElem, express_in_span
from peakalg.bases import (
    descent_algebra,
    descent_coordinates,
    x_basis,
    x_label_elements,
    x_to_y_coords,
    y_basis,
    y_label_elements,
)
from peakalg.hopf import transform_coords
from peakalg.peak import (
    interior_peak_algebra,
    interior_peak_basis,
    interior_peak_coordinates,
    interior_peak_elements,
    peak_basis,
    peak_elements,
)
from peakalg.perms import GROUP_OF_TYPE, GeneratorSet, byte_word, fibonacci, interior_sparse_masks
from peakalg.reporting import CheckFailure, run_check, run_checks

from oracles import Echelon, descent_span_rank, members
from test_compose_kernel import byte_products_wrong_on

# ---------------------------------------------------------------------------
# the element-level reference


def _upto(lo, n_max, hard):
    return range(lo, min(n_max, hard) + 1)


def _text(ctype, n, mask):
    """A descent-class label as the checks write it."""
    return GeneratorSet(ctype, n, mask).text()


def ref_chi_closed_forms(n_max):
    for n in _upto(2, n_max, 5):
        for m, yj in y_label_elements("B", n):
            if maps.chi(yj) != maps.chi_on_y(n, m):
                text = _text("B", n, m)
                raise CheckFailure(f"the Y closed form of the fold fails at B_{n}, {text}")
        for m, xj in x_label_elements("B", n):
            if maps.chi(xj) != maps.chi_on_x(n, m):
                text = _text("B", n, m)
                raise CheckFailure(f"the X closed form of the fold fails at B_{n}, {text}")


def ref_chi_image(n_max):
    for n in _upto(2, n_max, 5):
        fams = [maps.imchi_basis(n, m, i) for m in range(0, 1 << n, 4) for i in (1, 2, 3)]
        r = descent_span_rank(fams, "D")
        if r != 3 << (n - 2):
            raise CheckFailure(f"three-class span rank wrong at n={n}")
        img = [maps.chi(yj) for _, yj in y_label_elements("B", n)]
        if descent_span_rank(img, "D") != r or descent_span_rank(fams + img, "D") != r:
            raise CheckFailure(f"fold image mismatch at n={n}")


def ref_phi_closed_forms(n_max):
    for n in _upto(1, n_max, 5):
        for m, yj in y_label_elements("B", n):
            if maps.phi(yj) != maps.phi_on_y(n, m):
                text = _text("B", n, m)
                raise CheckFailure(f"the Y closed form of sign forgetting fails at B_{n}, {text}")
        for m, xj in x_label_elements("B", n):
            if maps.phi(xj) != maps.phi_on_x(n, m):
                text = _text("B", n, m)
                raise CheckFailure(f"the X closed form of sign forgetting fails at B_{n}, {text}")


def ref_phi_ideal_forms(n_max):
    for n in _upto(1, n_max, 5):
        for m in maps.canonical_ideal_labels(n):
            if maps.phi(maps.x0_basis(n, m)) != maps.phi_on_x0(n, m):
                raise CheckFailure(f"ideal X form fails at n={n}, {_text('B', n, m)}")
            if maps.phi(maps.y0_basis(n, m)) != maps.phi_on_y0(n, m):
                raise CheckFailure(f"ideal Y form fails at n={n}, {_text('B', n, m)}")


def ref_phi_generator_image(n_max):
    for n in _upto(1, n_max, 5):
        if maps.phi(maps.x0_generator(n)) != maps.interior_peak_generator(n).scale(2):
            raise CheckFailure(f"increasing-class image wrong at n={n}")


PSI_CASE = {0: "plain", 1: "oneprime", 2: "one", 3: "both"}


def ref_psi_closed_forms(n_max):
    for n in _upto(2, n_max, 5):
        for m, yj in y_label_elements("D", n):
            if maps.psi(yj) != maps.psi_on_y(n, m & ~3, PSI_CASE[m & 3]):
                text = _text("D", n, m)
                raise CheckFailure(f"the Y closed form of sign forgetting fails at D_{n}, {text}")
        for m, xj in x_label_elements("D", n):
            if maps.psi(xj) != maps.psi_on_x(n, m & ~3, PSI_CASE[m & 3]):
                text = _text("D", n, m)
                raise CheckFailure(f"the X closed form of sign forgetting fails at D_{n}, {text}")


def ref_kernel_of_drop(n_max):
    for n in _upto(2, n_max, 5):
        for m in maps.canonical_ideal_labels(n):
            if maps.beta_map(maps.x0_basis(n, m)):
                raise CheckFailure(f"ideal element survives the drop at n={n}")
        imgs = [maps.beta_map(yj) for _, yj in y_label_elements("B", n)]
        if descent_span_rank(imgs, "B") != 1 << (n - 1):
            raise CheckFailure(f"drop is not onto at n={n}")


def ref_images_onto_interior(n_max):
    for n in _upto(2, n_max, 5):
        ker_beta2 = [(m, x_basis("B", n, m)) for m in range(1 << n) if m & 3]
        for family in (maps.canonical_ideal_basis(n), ker_beta2):
            rows = []
            for _, b in family:
                c = interior_peak_coordinates(maps.phi(b))
                if c is None:
                    raise CheckFailure(f"image leaves the interior ideal at n={n}")
                rows.append(c)
            if Echelon(rows).rank != fibonacci(n - 1):
                raise CheckFailure(f"image is not all of the interior ideal at n={n}")


def ref_left_ideal_failure(n_max):
    w = y_basis("A", 3, 0b10) * interior_peak_basis(3, 0b100)
    if express_in_span(w, [e for _, e in interior_peak_elements(3)]) is not NOT_IN_SPAN:
        raise CheckFailure("expected left-ideal failure witness is in the span")
    coordz = maps.x_support_coords(
        "B", frozenset((m | 1) for m in maps.canonical_ideal_labels(3))
    )
    if coordz(mr.t_basis(3, (1, 1, 1)) * maps.x0_basis(3, 0)) is not None:
        raise CheckFailure("expected type-B left-ideal failure witness is in the span")


def ref_type_a_values(n_max):
    for n in _upto(1, n_max, 5):
        for mm in range(1 << (n - 1)):
            mask = mm << 1
            window = mask | (mask << 1)
            want = AlgElem.zero("S", n)
            for fm in interior_sparse_masks(n):
                if fm & ~window == 0:
                    want += interior_peak_basis(n, fm).scale(1 << (1 + bin(mask).count("1")))
            if maps.theta(x_basis("A", n, mask)) != want:
                raise CheckFailure(f"transform value wrong at {_text('A', n, mask)}")


def _spans_interior(images, n, witness):
    rows = [interior_peak_algebra(n).coords(a) for a in images]
    if None in rows or Echelon(rows).rank != fibonacci(n - 1):
        raise CheckFailure(witness)


def ref_bijective_on_interior(n_max):
    for n in _upto(2, n_max, 5):
        _spans_interior(
            [maps.theta(p) for _, p in interior_peak_elements(n)],
            n,
            f"restricted transform is not bijective on the interior ideal at n={n}",
        )


def ref_image_is_interior(n_max):
    for n in _upto(2, n_max, 5):
        _spans_interior(
            [maps.theta(yj) for _, yj in y_label_elements("A", n)],
            n,
            f"transform image is not the interior ideal at n={n}",
        )


def ref_principal(n_max):
    for n in _upto(3, n_max, 4):
        gen_p = maps.interior_peak_generator(n)
        for family, what in (
            (y_label_elements("A", n), "descent algebra"),
            (peak_elements(n), "peak algebra"),
        ):
            maps.right_ideal_check(
                gen_p, family, interior_peak_elements(n), interior_peak_coordinates, what
            )
        gen_b = maps.x0_generator(n)
        coordz = maps.x_support_coords(
            "B", frozenset((m | 1) for m in maps.canonical_ideal_labels(n))
        )
        t_family = [(a, mr.t_basis(n, a)) for a in mr.signed_compositions(n)]
        for family, what in ((y_label_elements("B", n), "type B"), (t_family, "MR")):
            maps.right_ideal_check(gen_b, family, maps.canonical_ideal_basis(n), coordz, what)


def _sol_coords(a):
    return comm.sol_algebra(a.n).coords(a)


def ref_phi_forms(n):
    for j in range(n + 1):
        if maps.phi(comm.y_number(n, j)) != comm.phi_y_number_formula(n, j):
            raise CheckFailure(f"phi(y_{j}) closed form fails at n={n}")
    for j in range(1, n + 1):
        if maps.phi(comm.y0_number(n, j)) != comm.phi_y0_number_formula(n, j):
            raise CheckFailure(f"phi(y0_{j}) closed form fails at n={n}")
    for j in range(n + 1):
        if comm.phi_y_number_formula(n, j) != comm.phi_y_number_formula(n, n - j):
            raise CheckFailure(f"phi(y_{j}) != phi(y_{n - j}) at n={n}")
    all_p = sum((comm.peak_number(n, i) for i in range(n // 2 + 1)), AlgElem.zero("S", n))
    total = sum((comm.y_number(n, j) for j in range(n + 1)), AlgElem.zero("B", n))
    weighted = sum((comm.y_number(n, j).scale(j) for j in range(n + 1)), AlgElem.zero("B", n))
    if maps.phi(total) != all_p.scale(1 << n):
        raise CheckFailure(f"phi(sum y_j) != 2^n sum p_i at n={n}")
    if maps.phi(weighted) != all_p.scale(n * (1 << (n - 1))):
        raise CheckFailure(f"phi(sum j y_j) != n 2^(n-1) sum p_i at n={n}")


def ref_beta_forms(n):
    for j in range(n + 1):
        if maps.beta_map(comm.y_number(n, j)) != comm.beta_y_number_formula(n, j):
            raise CheckFailure(f"beta(y_{j}) casework fails at n={n}")
        if maps.beta_map(comm.x_number(n, j)) != comm.beta_x_number_formula(n, j):
            raise CheckFailure(f"beta(x_{j}) casework fails at n={n}")
    rank = Echelon(_sol_coords(maps.beta_map(comm.y_number(n, j))) for j in range(n + 1)).rank
    if rank != n:
        raise CheckFailure(f"restricted beta rank {rank} != {n} at n={n}")
    if maps.beta_map(comm.x_number(n, n)):
        raise CheckFailure(f"beta(x_n) != 0 at n={n}")


def ref_ker_beta2(n):
    for j in (n, n - 1):
        if maps.beta2_map(comm.x_number(n, j)):
            raise CheckFailure(f"beta^2(x_{j}) != 0 at n={n}")
    rows = []
    for j in range(n + 1):
        img = _sol_coords(maps.beta2_map(comm.y_number(n, j)))
        if img is None:
            raise CheckFailure("beta^2 image left the descent-count span")
        rows.append(img)
    if Echelon(rows).rank != n - 1:
        raise CheckFailure(f"beta^2 restricted rank != {n - 1} at n={n}")
    if Echelon(_sol_coords(comm.x_number(n, j)) for j in (n, n - 1)).rank != 2:
        raise CheckFailure("x_n, x_{n-1} are dependent")


def _from_d_x_coords(n, xcoords):
    return descent_algebra("D", n).element(x_to_y_coords(xcoords))


def ref_type_d(n):
    imgs_x, imgs_x0 = [], []
    for j in range(n + 1):
        got = maps.chi(comm.x_number(n, j))
        if got != _from_d_x_coords(n, comm.chi_x_number_coords(n, j)):
            raise CheckFailure(f"fold image of x_{j} closed form fails at n={n}")
        imgs_x.append(descent_coordinates(got, "D"))
    for j in range(1, n + 1):
        got = maps.chi(comm.x0_number(n, j))
        if got != _from_d_x_coords(n, comm.chi_x0_number_coords(n, j)):
            raise CheckFailure(f"fold image of x0_{j} closed form fails at n={n}")
        imgs_x0.append(descent_coordinates(got, "D"))
    if maps.chi(comm.x_number(n, n)) != maps.chi(comm.x0_number(n, n)):
        raise CheckFailure(f"fold images of x_n and x0_n differ at n={n}")
    if Echelon(imgs_x).rank != n + 1:
        raise CheckFailure(f"rank of fold images of x_j != {n + 1}")
    if Echelon(imgs_x0).rank != n:
        raise CheckFailure(f"rank of fold images of x0_j != {n}")
    witness = (
        maps.chi(comm.x_number(n, n - 1))
        - maps.chi(comm.x0_number(n, n - 1))
        - maps.chi(comm.x_number(n, n)).scale(Fraction(1, 2))
    )
    if witness:
        raise CheckFailure(f"second fold relation fails at n={n}")
    if Echelon(imgs_x + imgs_x0).rank != 2 * n - 1:
        raise CheckFailure(f"joint rank of fold images != {2 * n - 1}")


# check ID -> (suite, body over n_max, lowest rank, cap)
RANGED = {
    "chi/closed-forms": ("chi", ref_chi_closed_forms, 2, 5),
    "chi/image-three-classes": ("chi", ref_chi_image, 2, 5),
    "phi/closed-forms": ("phi", ref_phi_closed_forms, 1, 5),
    "phi/ideal-closed-forms": ("phi", ref_phi_ideal_forms, 1, 5),
    "phi/increasing-class-image": ("phi", ref_phi_generator_image, 1, 5),
    "psi/closed-forms": ("psi", ref_psi_closed_forms, 2, 5),
    "ideals/kernel-of-drop": ("ideals", ref_kernel_of_drop, 2, 5),
    "ideals/images-onto-interior": ("ideals", ref_images_onto_interior, 2, 5),
    "ideals/left-ideal-failure-witness": ("ideals", ref_left_ideal_failure, 0, None),
    "theta/type-a-values": ("theta", ref_type_a_values, 1, 5),
    "theta/bijective-on-interior": ("theta", ref_bijective_on_interior, 2, 5),
    "theta/image-is-interior-ideal": ("theta", ref_image_is_interior, 2, 5),
    "theta/principal-right-ideals": ("theta", ref_principal, 3, 4),
}
# per-rank commutative checks: name -> (body at one rank, cap)
PER_RANK = {
    "phi-forms": (ref_phi_forms, 6),
    "beta-forms": (ref_beta_forms, 6),
    "ker-beta2": (ref_ker_beta2, 6),
    "type-d-images": (ref_type_d, 5),
}


def reference_checks(n_max, only=None):
    """The replaced checks at element level (only the one named only, when
    given), with the rank ranges of the suites: a ranged check over no
    rank gets no entry."""
    bodies = {}
    for check_id, (_, body, lo, cap) in RANGED.items():
        if cap is None or lo <= min(n_max, cap):
            bodies[check_id] = lambda body=body: body(n_max)
    for name, (body, cap) in PER_RANK.items():
        for n in range(2, min(n_max, cap) + 1):
            bodies[f"commutative/{name}/n={n}"] = lambda body=body, n=n: body(n)
    return [
        run_check(check_id, bodies[check_id])
        for check_id in sorted(bodies)
        if only in (None, check_id)
    ]


def _replaced(check_id):
    return check_id in RANGED or any(
        check_id.startswith(f"commutative/{name}/") for name in PER_RANK
    )


def row_checks(n_max, suites=("chi", "phi", "psi", "ideals", "theta", "commutative")):
    """The same checks as the suites run them, on class rows."""
    checks = [c for s in suites for c in verify.SUITES[s](n_max) if _replaced(c.check_id)]
    return sorted(run_checks(checks), key=lambda c: c.check_id)


def verdicts(checks):
    return [(c.check_id, c.status) for c in checks]


# ---------------------------------------------------------------------------
# both paths agree


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4])
def test_rows_match_the_element_reference(n_max):
    rows, reference = row_checks(n_max), reference_checks(n_max)
    assert verdicts(rows) == verdicts(reference)
    assert all(c.ok for c in rows), [(c.check_id, c.witness) for c in rows if not c.ok]


def test_verify_reads_no_element_level_span_helper():
    tree = ast.parse((Path(verify.__file__)).read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    banned = {"right_ideal_check", "x_support_coords", "express_in_span", "descent_span_rank"}
    assert not names & banned


# ---------------------------------------------------------------------------
# mutations fail the named check under both paths


def _both_fail(check_id, n_max=4):
    suite = check_id.split("/")[0]
    rows = run_checks(c for c in verify.SUITES[suite](n_max) if c.check_id == check_id)
    reference = reference_checks(n_max, only=check_id)
    assert [c.status for c in rows + reference] == ["fail", "fail"], rows + reference
    return rows[0], reference[0]


def wrong_on_one_class(f, ctype, n, mask, extra):
    """The linear map f, except that the image of the descent class of
    mask (type ctype, rank n) gains extra: a + c w_K goes to f(a) + c extra,
    w_K a fixed member of the class."""
    rep = members(descent_algebra(ctype, n))[mask][0]

    def g(a):
        out = f(a)
        c = a.coeff(rep) if (a.group, a.n) == (GROUP_OF_TYPE[ctype], n) else 0
        return out + extra.scale(c) if c else out

    return g


def test_fold_wrong_on_one_class_fails_its_closed_forms(monkeypatch):
    extra = y_basis("D", 3, 0b100)
    monkeypatch.setattr(maps, "chi", wrong_on_one_class(maps.chi, "B", 3, 0b010, extra))
    rows, reference = _both_fail("chi/closed-forms")
    assert rows.witness == reference.witness == "the Y closed form of the fold fails at B_3, {1}"


def test_drop_wrong_on_an_ideal_class_fails_the_kernel(monkeypatch):
    # Y_{0} of rank 3 sits in X_{0}, a canonical ideal element
    extra = y_basis("B", 2, 0)
    monkeypatch.setattr(maps, "beta_map", wrong_on_one_class(maps.beta_map, "B", 3, 0b1, extra))
    rows, reference = _both_fail("ideals/kernel-of-drop")
    assert "outside 0" in rows.witness
    assert reference.witness == "ideal element survives the drop at n=3"


def test_sign_forgetting_off_the_interior_fails_images_onto_interior(monkeypatch):
    # P_{1} is a peak class outside the interior ideal
    extra = peak_basis(3, 0b10)
    monkeypatch.setattr(maps, "phi", wrong_on_one_class(maps.phi, "B", 3, 0b1, extra))
    _both_fail("ideals/images-onto-interior")


def test_a_closed_form_with_one_coefficient_off(monkeypatch):
    phi_on_y = maps.phi_on_y

    def off(n, m):
        form = phi_on_y(n, m)
        return form + peak_basis(n, 0) if (n, m) == (3, 0b101) else form

    monkeypatch.setattr(maps, "phi_on_y", off)
    rows, reference = _both_fail("phi/closed-forms")
    witness = "the Y closed form of sign forgetting fails at B_3, {0,2}"
    assert rows.witness == reference.witness == witness


def test_a_count_closed_form_with_one_coefficient_off(monkeypatch):
    coords = comm.chi_x_number_coords

    def off(n, j):
        out = dict(coords(n, j))
        if (n, j) == (3, 1):
            out[0b100] += 1
        return out

    monkeypatch.setattr(comm, "chi_x_number_coords", off)
    rows, reference = _both_fail("commutative/type-d-images/n=3")
    assert rows.witness == reference.witness == "fold image of x_1 closed form fails at n=3"


def test_a_type_a_transform_value_off(monkeypatch, fresh_transform_rows):
    # theta wrong on the class of {2} in rank 3 reaches X_{2} and X_{1,2}.
    # Such a map is no left product, so the rows path, which multiplies by
    # the image of the unit, gets the same wrong value in the cached row
    extra = interior_peak_basis(3, 0)
    rows, alg = transform_coords("SolA", 3), descent_algebra("A", 3)
    rows[0b100] = alg.coords(alg.element(rows[0b100]) + extra)
    theta = wrong_on_one_class(maps.theta, "A", 3, 0b100, extra)
    monkeypatch.setattr(maps, "theta", theta)
    rows, reference = _both_fail("theta/type-a-values")
    assert rows.witness == reference.witness == "transform value wrong at {2}"


def test_a_wrong_byte_product_in_a_generator_row(monkeypatch, fresh_transform_rows):
    # 213 decreases, then increases: its class is in the generator of theta,
    # so its product with 132 enters the row of the class of 132
    run_checks(verify.SUITES["theta"](4))  # every other cache the suite reads, on the true kernel
    transform_coords.cache_clear()
    broken = byte_products_wrong_on((2, 1, 3), (1, 3, 2), (1, 2, 3))
    monkeypatch.setattr(algebra, "byte_products", broken)
    checks = verify.SUITES["theta"](4)
    (result,) = run_checks(c for c in checks if c.check_id == "theta/type-a-values")
    label = descent_algebra("A", 3).label_of[byte_word((1, 3, 2))]
    assert result.status == "fail"
    assert result.witness == f"theta of the class {_text('A', 3, label)} leaves the span" == (
        "theta of the class {2} leaves the span"
    )


def test_an_ideal_node_missing_a_label_fails_the_principal_ideal(monkeypatch):
    # the last canonical label, X_{0,1,...,n-1}, is left out on both paths
    node, basis = maps.canonical_ideal_node, maps.canonical_ideal_basis
    monkeypatch.setattr(
        maps, "canonical_ideal_node", lambda n: maps.Node("I0", node(n).algebra, node(n).rows[:-1])
    )
    monkeypatch.setattr(maps, "canonical_ideal_basis", lambda n: basis(n)[:-1])
    rows, reference = _both_fail("theta/principal-right-ideals")
    assert "sends" in rows.witness
    assert "span ranks differ" in reference.witness


def test_a_three_class_row_missing_fails_the_fold_image(monkeypatch):
    row = maps.imchi_row
    monkeypatch.setattr(maps, "imchi_row", lambda m, i: {} if (m, i) == (0, 2) else row(m, i))
    rows, reference = _both_fail("chi/image-three-classes")
    assert rows.witness == reference.witness == "three-class span rank wrong at n=2"


def test_a_generator_product_that_leaves_the_ideal(monkeypatch, fresh_transform_rows):
    # the increasing-class generator plus the identity: its product with a
    # class sum keeps that class sum, which is not in the canonical ideal
    gen = maps.x0_generator
    monkeypatch.setattr(
        maps, "x0_generator", lambda n: gen(n) + AlgElem.unit("B", n) if n >= 3 else gen(n)
    )
    rows, reference = _both_fail("theta/principal-right-ideals")
    assert "outside canonical ideal" in rows.witness
    assert "leaves the ideal" in reference.witness


def test_a_drop_that_is_not_onto(monkeypatch):
    # every class sum goes to zero: the ideal still lands in the kernel,
    # but the images no longer span the algebra one rank down
    monkeypatch.setattr(maps, "beta_map", lambda a: AlgElem.zero("B", a.n - 1))
    rows, reference = _both_fail("ideals/kernel-of-drop")
    assert "does not span" in rows.witness
    assert reference.witness == "drop is not onto at n=2"
