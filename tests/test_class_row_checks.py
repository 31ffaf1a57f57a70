"""The onto, kernel and closed-form checks on class rows: mutations.

The chi, phi, psi, ideals, theta and commutative suites read these checks
from the rows of a map (the binned image of every class sum) through
maps.landed and maps.node_span, and compare closed forms with rows applied
to the class coordinates of the X-labels.  Their element-level oracles
are registered in tests/oracles/registry.py: every X, X0, Y0, count sum
and generator product is pushed through the map as a group-algebra
element and binned or eliminated.  Each mutation below must fail its named
check and its oracle.
"""

import ast
from pathlib import Path

from peakalg import commutative as comm
from peakalg import algebra, maps, verify
from peakalg.algebra import AlgElem
from peakalg.bases import descent_algebra, y_basis
from peakalg.hopf import transform_coords
from peakalg.peak import interior_peak_basis, peak_basis
from peakalg.perms import GROUP_OF_TYPE, GeneratorSet, byte_word
from peakalg.reporting import run_checks

from oracles import members
from oracles.registry import both_fail
from test_compose_kernel import byte_products_wrong_on


def test_verify_reads_no_element_level_span_helper():
    tree = ast.parse((Path(verify.__file__)).read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    banned = {"right_ideal_check", "x_support_coords", "express_in_span", "descent_span_rank"}
    assert not names & banned


# ---------------------------------------------------------------------------
# mutations fail the named check under both paths


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
    rows, reference = both_fail("chi/closed-forms", 4)
    assert rows.witness == reference.witness == "the Y closed form of the fold fails at B_3, {1}"


def test_drop_wrong_on_an_ideal_class_fails_the_kernel(monkeypatch):
    # Y_{0} of rank 3 sits in X_{0}, a canonical ideal element
    extra = y_basis("B", 2, 0)
    monkeypatch.setattr(maps, "beta_map", wrong_on_one_class(maps.beta_map, "B", 3, 0b1, extra))
    rows, reference = both_fail("ideals/kernel-of-drop", 4)
    assert "outside 0" in rows.witness
    assert reference.witness == "ideal element survives the drop at n=3"


def test_sign_forgetting_off_the_interior_fails_images_onto_interior(monkeypatch):
    # P_{1} is a peak class outside the interior ideal
    extra = peak_basis(3, 0b10)
    monkeypatch.setattr(maps, "phi", wrong_on_one_class(maps.phi, "B", 3, 0b1, extra))
    both_fail("ideals/images-onto-interior", 4)


def test_a_closed_form_with_one_coefficient_off(monkeypatch):
    phi_on_y = maps.phi_on_y

    def off(n, m):
        form = phi_on_y(n, m)
        return form + peak_basis(n, 0) if (n, m) == (3, 0b101) else form

    monkeypatch.setattr(maps, "phi_on_y", off)
    rows, reference = both_fail("phi/closed-forms", 4)
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
    rows, reference = both_fail("commutative/type-d-images/n=3", 4)
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
    rows, reference = both_fail("theta/type-a-values", 4)
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
    text = GeneratorSet("A", 3, label).text()
    assert result.status == "fail"
    assert result.witness == f"theta of the class {text} leaves the span" == (
        "theta of the class {2} leaves the span"
    )


def test_an_ideal_node_missing_a_label_fails_the_principal_ideal(monkeypatch):
    # the last canonical label, X_{0,1,...,n-1}, is left out on both paths
    node, basis = maps.canonical_ideal_node, maps.canonical_ideal_basis
    monkeypatch.setattr(
        maps, "canonical_ideal_node", lambda n: maps.Node("I0", node(n).algebra, node(n).rows[:-1])
    )
    monkeypatch.setattr(maps, "canonical_ideal_basis", lambda n: basis(n)[:-1])
    rows, reference = both_fail("theta/principal-right-ideals", 4)
    assert "sends" in rows.witness
    assert "span ranks differ" in reference.witness


def test_a_three_class_row_missing_fails_the_fold_image(monkeypatch):
    row = maps.imchi_row
    monkeypatch.setattr(maps, "imchi_row", lambda m, i: {} if (m, i) == (0, 2) else row(m, i))
    rows, reference = both_fail("chi/image-three-classes", 4)
    assert rows.witness == reference.witness == "three-class span rank wrong at n=2"


def test_a_generator_product_that_leaves_the_ideal(monkeypatch, fresh_transform_rows):
    # the increasing-class generator plus the identity: its product with a
    # class sum keeps that class sum, which is not in the canonical ideal
    gen = maps.x0_generator
    monkeypatch.setattr(
        maps, "x0_generator", lambda n: gen(n) + AlgElem.unit("B", n) if n >= 3 else gen(n)
    )
    rows, reference = both_fail("theta/principal-right-ideals", 4)
    assert "outside canonical ideal" in rows.witness
    assert "leaves the ideal" in reference.witness


def test_a_drop_that_is_not_onto(monkeypatch):
    # every class sum goes to zero: the ideal still lands in the kernel,
    # but the images no longer span the algebra one rank down
    monkeypatch.setattr(maps, "beta_map", lambda a: AlgElem.zero("B", a.n - 1))
    rows, reference = both_fail("ideals/kernel-of-drop", 4)
    assert "does not span" in rows.witness
    assert reference.witness == "drop is not onto at n=2"
