"""Broken diagrams fail their named check on class rows and at element level.

Each mutation breaks one thing in bexact at n = 4 (a map, a kernel, a
subspace), once in the rows form that maps.verify_diagram reads and once
in the element-level form that the registered oracle of the check reads
(tests/oracles/diagrams.py); the check it breaks must fail under both.  A last test counts the calls of
the sign-forgetting map: its rows are built once per pair of algebras.
"""

from functools import partial

from peakalg import maps
from peakalg.algebra import AlgElem
from peakalg.bases import descent_algebra, x_basis, x_to_y_coords
from peakalg.peak import interior_peak_coordinates, peak_algebra, pi_label

from oracles.diagrams import RefNode, reference_spec
from oracles.registry import ORACLES, both, normalized

N = 4
HEAD = f"diagram/bexact/n={N}"


def _pair():
    """bexact at rank N in the rows form and in the element-level form."""
    spec = maps.bexact_diagram(N)
    return spec, reference_spec(maps.bexact_diagram(N), N)


def _both_fail(spec, ref, suffix):
    """Every result of the rows form, and the results of the check of the
    suffix and of its oracle on the element-level form ref, both failures."""
    (check,) = [c for c in maps.diagram_checks(spec) if c.check_id == f"{HEAD}/{suffix}"]
    found = both(check, partial(ORACLES[normalized(check.check_id)], ref))
    assert [c.status for c in found] == ["fail", "fail"], found
    return maps.verify_diagram(spec), found


def unsigned_pi(a):
    """The projection without the sign for 1 in F."""
    coords = peak_algebra(a.n).coords(a)
    if coords is None:
        raise ValueError("element is not in the peak algebra")
    out: dict = {}
    for m, c in coords.items():
        image = pi_label(m)
        if image is not None:
            out[image[0]] = out.get(image[0], 0) + c
    return peak_algebra(a.n - 2).element(out)


def test_pi_without_its_sign_breaks_the_square():
    spec, ref = _pair()
    for s in (spec, ref):
        src, dst, _ = s.arrows["pi"]
        s.arrows["pi"] = (src, dst, unsigned_pi)
    _both_fail(spec, ref, "path[beta2*phi_bot==phi_mid*pi]")


def test_kernel_missing_a_label_is_not_exact():
    spec, ref = _pair()
    node = spec.nodes["I01"]
    spec.nodes["I01"] = maps.Node("I01", node.algebra, node.rows[1:])
    family = ref.nodes["I01"].family[1:]
    allowed = frozenset(m for m, _ in family)
    ref.nodes["I01"] = RefNode("I01", family, maps.x_support_coords("B", allowed))
    _, found = _both_fail(spec, ref, "exact-row[inc,beta2]")
    assert all(c.witness.startswith("row not exact at SolB") for c in found), found


def test_kernel_with_a_label_outside_ker_beta2_has_nonzero_composite():
    spec, ref = _pair()
    stray = 0b100  # X_{2}: neither 0 nor 1 in the label
    node = spec.nodes["I01"]
    spec.nodes["I01"] = maps.Node(
        "I01", node.algebra, node.rows + [(stray, x_to_y_coords({stray: 1}))]
    )
    family = ref.nodes["I01"].family + [(stray, x_basis("B", N, stray))]
    allowed = frozenset(m for m, _ in family)
    ref.nodes["I01"] = RefNode("I01", family, maps.x_support_coords("B", allowed))
    _, found = _both_fail(spec, ref, "exact-row[inc,beta2]")
    assert [c.witness for c in found] == ["beta2(inc(4)) != 0"] * 2


def test_a_drop_that_is_not_onto_breaks_the_row():
    spec, ref = _pair()
    for s in (spec, ref):
        src, dst, _ = s.arrows["beta2"]
        s.arrows["beta2"] = (src, dst, lambda a: AlgElem.zero("B", a.n - 2))
    _, found = _both_fail(spec, ref, "exact-row[inc,beta2]")
    assert [c.witness for c in found] == ["beta2 is not onto (0 < 4)"] * 2


def test_interior_node_narrowed_to_one_class_fails_landing():
    spec, ref = _pair()
    node = spec.nodes["Pint"]
    spec.nodes["Pint"] = maps.Node("Pint", node.algebra, node.rows[:1])
    (label, elem), *_ = ref.nodes["Pint"].family

    def narrowed(a):
        c = interior_peak_coordinates(a)
        return c if c is not None and set(c) <= {label} else None

    ref.nodes["Pint"] = RefNode("Pint", [(label, elem)], narrowed)
    _both_fail(spec, ref, "arrows-land-in-nodes")


def test_subspace_row_off_its_algebra_fails_and_never_errors():
    spec, ref = _pair()
    node = spec.nodes["I01"]
    off = 1 << N  # no type-B label of rank N has bit N
    assert off not in descent_algebra("B", N).labels
    spec.nodes["I01"] = maps.Node("I01", node.algebra, node.rows + [("stray", {off: 1})])
    # at element level: a single signed permutation, not a descent class sum
    ref.nodes["I01"].family.append(("stray", AlgElem.monomial("B", N, (2, 1, 3, 4))))
    rows, found = _both_fail(spec, ref, "arrows-land-in-nodes")
    assert "row stray of node I01 is off its algebra" in found[0].witness
    assert not [c for c in rows if c.status == "error"], rows


def test_landing_failure_names_the_class_when_a_map_leaves_the_algebra():
    spec, ref = _pair()

    def phi_off(a):
        # one permutation of a peak class of several gets one more count
        image = maps.phi(a)
        return image + AlgElem.monomial("S", N, (2, 1, 3, 4)) if a.n == N else image

    for s in (spec, ref):
        for name in ("phi_top", "phi_mid"):
            src, dst, _ = s.arrows[name]
            s.arrows[name] = (src, dst, phi_off)
    rows, found = _both_fail(spec, ref, "arrows-land-in-nodes")
    assert "leaves the span" in found[0].witness
    assert not [c for c in rows if c.status == "error"], rows


def test_phi_rows_are_built_once_per_pair_of_algebras(monkeypatch):
    calls = []
    phi = maps.phi

    def counted(a):
        calls.append(a.n)
        return phi(a)

    monkeypatch.setattr(maps, "phi", counted)
    checks = maps.verify_diagram(maps.bexact_diagram(N))
    assert all(c.ok for c in checks), [(c.check_id, c.witness) for c in checks if not c.ok]
    limit = len(descent_algebra("B", N).labels) + len(descent_algebra("B", N - 2).labels)
    assert 0 < len(calls) <= limit
    assert sorted(set(calls)) == [N - 2, N]

