from fractions import Fraction

import pytest

from peakalg import commutative, verify
from peakalg.algebra import AlgElem, ClassAlgebra, span_rank
from peakalg.bases import descent_algebra, x_to_y_coords
from peakalg.commutative import (
    TWINS,
    Twin,
    beta_x_number_formula,
    beta_y_number_formula,
    check_beta_number_forms,
    check_builder_relations,
    check_graded_dimensions,
    check_ker_beta2_on_sol,
    check_phi_number_forms,
    check_pi_number_forms,
    check_solhat_closure,
    check_type_d_numbers,
    check_whp_closure,
    chi_x0_number_coords,
    descent_number_coordinates,
    graded_builder,
    i0_number_coordinates,
    interior_peak_number,
    interior_number_coordinates,
    loday_witness,
    peak_number,
    peak_number_coordinates,
    phi_y_number_formula,
    pi_peak_number_formula,
    solhat_table,
    whp_table,
    x0_number,
    x_number,
    y0_number,
    y_number,
)
from peakalg.maps import beta_map, chi, phi, pi_map
from peakalg.peak import peak_algebra
from peakalg.perms import group_elements, identity, popcount
from peakalg.reporting import CheckFailure, run_checks

from oracles import a_descent_number, reference_builder_relations


def test_builder_examples():
    # the zero-peak class is the identity alone, by enumeration
    for n in (2, 3, 4):
        support = {u for u in group_elements("S", n) if _peak_count(u) == 0}
        assert support == {identity(n)}
        assert peak_number(n, 0) == AlgElem.monomial("S", n, identity(n))
    assert x_number(3, 3) == x0_number(3, 3)


def _peak_count(u):
    from peakalg.perms import peak_mask

    return bin(peak_mask(u)).count("1")


def test_builder_index_ranges():
    with pytest.raises(ValueError):
        y_number(3, 4)
    with pytest.raises(ValueError):
        y0_number(3, 0)
    with pytest.raises(ValueError):
        peak_number(4, 3)
    with pytest.raises(ValueError):
        graded_builder("nope", 3, 1)


@pytest.mark.parametrize(
    "formula, n, j, message",
    [
        (beta_y_number_formula, 3, 4, "descent count 4 out of range 0..3"),
        (beta_y_number_formula, 3, -1, "descent count -1 out of range 0..3"),
        (beta_x_number_formula, 3, 4, "label size 4 out of range 0..3"),
        (beta_x_number_formula, 3, -1, "label size -1 out of range 0..3"),
        (pi_peak_number_formula, 6, 4, "peak count 4 out of range 0..3"),
        (pi_peak_number_formula, 6, -1, "peak count -1 out of range 0..3"),
    ],
)
def test_drop_formula_index_ranges(formula, n, j, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        formula(n, j)


def test_builder_relations():
    for n in (2, 3, 4, 5):
        check_builder_relations(n)


def test_builder_relations_match_the_element_reference():
    for n in (2, 3, 4, 5):
        check_builder_relations(n)
        reference_builder_relations(n)


def x_count_coords_dropping_a_label(n, j, ideal=False):
    """x_count_coords without its last label of size j."""
    labels = [m for m in range(1 << n) if popcount(m) == j and (m & 1 or not ideal)]
    return x_to_y_coords(dict.fromkeys(labels[:-1], 1))


def sol_algebra_off_by_one(n):
    """The descent-count sums with the class of J = {0} counted in y_2."""
    return descent_algebra("B", n).coarsen(lambda m: popcount(m) + (m == 1))


@pytest.mark.parametrize(
    "name, mutant, witness",
    [
        ("x_count_coords", x_count_coords_dropping_a_label, "x_0 != binomial sum of y_i at n=3"),
        ("sol_algebra", sol_algebra_off_by_one, "x_1 != binomial sum of y_i at n=3"),
    ],
    ids=["x-count-drops-a-label", "count-class-off-by-one"],
)
def test_builder_relation_mutants_fail_both_forms(monkeypatch, name, mutant, witness):
    monkeypatch.setattr(commutative, name, mutant)
    for check in (check_builder_relations, reference_builder_relations):
        with pytest.raises(CheckFailure, match=f"^{witness}$"):
            check(3)


def counting_one_label_up(fine, label):
    """A count algebra over fine that counts the class of label one too high."""
    return lambda n: fine(n).coarsen(lambda m: popcount(m) + (m == label))


def merging_labels_below_3(fine):
    """A count algebra over fine with the classes of the labels below 3
    merged into the count 0."""
    return lambda n: fine(n).coarsen(lambda m: popcount(m) if m >= 3 else 0)


def solb(n):
    return descent_algebra("B", n)


# each is a coarsening of its fine algebra, so its sizes sum to the order
# of the group: only the fibres of the count labels tell it from the count
# algebra (the descent-count ones fail the binomial relation first)
COUNT_MUTANTS = {
    "y2-holds-the-class-of-{0}": ("sol_algebra", counting_one_label_up(solb, 0b1), "x_1 != binomial sum of y_i"),
    "y-merges-labels-below-3": ("sol_algebra", merging_labels_below_3(solb), "x_0 != binomial sum of y_i"),
    "p2-holds-the-class-of-{1}": (
        "wp_algebra",
        counting_one_label_up(peak_algebra, 0b10),
        "p_j is not the sum of the classes of j peaks",
    ),
    "p-merges-labels-below-3": (
        "wp_algebra",
        merging_labels_below_3(peak_algebra),
        "p_j is not the sum of the classes of j peaks",
    ),
}


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("case", COUNT_MUTANTS)
def test_count_algebras_partition_by_count(monkeypatch, case, n):
    name, mutant, witness = COUNT_MUTANTS[case]
    order = len(group_elements("S" if name == "wp_algebra" else "B", n))
    assert sum(mutant(n).sizes.values()) == order
    monkeypatch.setattr(commutative, name, mutant)
    for check in (check_builder_relations, reference_builder_relations):
        with pytest.raises(CheckFailure, match=f"^{witness} at n={n}$"):
            check(n)


def test_phi_restriction_formulas():
    for n in (2, 3, 4, 5):
        check_phi_number_forms(n)
    # explicit smallest case: phi(y_0) = p_0
    assert phi(y_number(3, 0)) == peak_number(3, 0)
    assert phi_y_number_formula(3, 0) == peak_number(3, 0)


def test_beta_restriction_formulas():
    for n in (2, 3, 4, 5):
        check_beta_number_forms(n)
    assert beta_map(x_number(3, 0)) == x_number(2, 0)
    assert beta_x_number_formula(3, 3) == AlgElem.zero("B", 2)
    assert beta_y_number_formula(3, 3) == -y_number(2, 2)


def test_pi_restriction_formulas():
    for n in (2, 3, 4, 5, 6):
        check_pi_number_forms(n)
    # top case: the projection negates and lowers the extreme index
    for n in (4, 5, 6):
        half = n // 2
        assert pi_map(peak_number(n, half)) == -peak_number(n - 2, half - 1)
    # boundary j=1 follows from the projection itself
    assert pi_map(peak_number(6, 1)) == peak_number(4, 1) - peak_number(4, 0)
    assert pi_peak_number_formula(6, 1) == peak_number(4, 1) - peak_number(4, 0)


def test_ker_beta2():
    for n in (2, 3, 4, 5):
        check_ker_beta2_on_sol(n)


def test_dimensions():
    for n in (2, 3, 4, 5, 6):
        check_graded_dimensions(n)


def test_number_coordinates():
    a = y_number(3, 1).scale(2) + y_number(3, 3)
    assert descent_number_coordinates(a) == [0, 2, 0, 1]
    assert descent_number_coordinates(y0_number(3, 2)) is None
    assert i0_number_coordinates(y0_number(3, 2)) == [0, 1, 0]
    assert peak_number_coordinates(peak_number(4, 1)) == [0, 1, 0]
    assert interior_number_coordinates(interior_peak_number(4, 2)) == [0, 1]
    assert interior_number_coordinates(peak_number(4, 1)) is None


def test_whp_tables_match_frozen_values():
    t2 = whp_table(2)
    assert t2.labels == ["p_0", "p_1", "p0_1"]
    assert t2.cell(2, 2) == (0, 0, 2)
    t3 = whp_table(3)
    assert t3.cell(1, 1) == (5, 4, 0, 0)
    assert t3.cell(1, 2) == (0, 0, 3, 4)
    t4 = whp_table(4)
    assert t4.cell(4, 4) == (0, 0, 0, 12, 10)
    assert t4.cell(1, 1) == (15, 13, 15, 0, 0)


@pytest.fixture
def fresh_count_tables():
    """Build the block tables of the twins afresh around a test that alters
    their data or the products they read."""
    commutative._count_table.cache_clear()
    yield
    commutative._count_table.cache_clear()


def test_a_verify_run_builds_each_block_table_once(fresh_count_tables):
    checks = run_checks(verify.suite_commutative(5))
    assert all(c.ok for c in checks)
    whp = sum("/whp-table/" in c.check_id for c in checks)
    solhat = sum("/solhat-closure/" in c.check_id for c in checks)
    # whp-table reads the table that whp-closure built at the same rank
    info = commutative._count_table.cache_info()
    assert whp and solhat and (info.misses, info.hits) == (whp + solhat, whp)


def test_a_broken_product_fails_both_whp_checks(monkeypatch, fresh_count_tables):
    # one more of the second class on each product of the rank-4 peak
    # algebra: that class shares its peak count with another, so no
    # product lifts to the peak-count span
    fine, product = peak_algebra(4), ClassAlgebra.product

    def broken(self, c1, c2):
        out = product(self, c1, c2)
        if self is fine:
            out[fine.labels[1]] = out.get(fine.labels[1], 0) + 1
        return out

    monkeypatch.setattr(ClassAlgebra, "product", broken)
    ids = ["commutative/whp-table/n=4", "commutative/whp-closure/n=4"]
    checks = [c for c in verify.suite_commutative(4) if c.check_id in ids]
    results = {c.check_id: c for c in run_checks(checks)}
    table, closure = (results[check_id] for check_id in ids)
    assert table.status == closure.status == "fail"
    assert table.witness == closure.witness == "p_0 * p_0 left the peak-count span at n=4"


def test_whp_closure_and_generation():
    for n in (2, 3, 4, 5):
        check_whp_closure(n)


def test_solhat_closure_and_generation():
    for n in (2, 3, 4):
        check_solhat_closure(n)


def _generated_rank(seeds):
    """Rank of the algebra the elements seeds generate, by element products."""
    basis = list(seeds)
    frontier = list(basis)
    while frontier:
        new = []
        for a in frontier:
            for b in list(basis):
                if span_rank(basis + [a * b]) > span_rank(basis):
                    basis.append(a * b)
                    new.append(a * b)
        frontier = new
    return span_rank(basis)


def test_a_count_sum_that_does_not_generate_is_named(monkeypatch, fresh_count_tables):
    # numbered from y_3, the second count sum is the longest element of
    # B_3 alone, an involution: with the unit it spans a closed plane
    def count(n):
        return descent_algebra("B", n).coarsen(popcount, (0, 3, 1, 2), text=lambda j: f"y_{j}")

    monkeypatch.setitem(TWINS, "solhat", TWINS["solhat"]._replace(count=count))
    with pytest.raises(CheckFailure) as info:
        check_solhat_closure(3)
    assert str(info.value) == "y_3 does not generate the descent-count span at n=3"
    assert _generated_rank([y_number(3, 0), y_number(3, 3)]) == 2


def test_an_ideal_sum_that_does_not_generate_the_joint_span_is_named(
    monkeypatch, fresh_count_tables
):
    # numbered from y0_2, the first ideal sum and y_1 generate rank 5 of 6
    def ideal(n):
        return descent_algebra("B", n).coarsen(
            lambda m: popcount(m & ~1), (1, 0, 2), text=lambda j: f"y0_{j + 1}"
        )

    monkeypatch.setitem(TWINS, "solhat", TWINS["solhat"]._replace(ideal=ideal))
    with pytest.raises(CheckFailure) as info:
        check_solhat_closure(3)
    assert str(info.value) == "y_1, y0_2 do not generate the joint span at n=3"
    assert _generated_rank([y_number(3, 0), y_number(3, 1), y0_number(3, 2)]) == 5


def test_an_ideal_sum_that_does_not_generate_the_ideal_is_named(
    monkeypatch, fresh_count_tables
):
    # Q^3 on the unit g0, g1 = e - 1 and g2 = z, for orthogonal idempotents
    # e and z: the count span {g0, g1 + g2} is generated by e + z - 1, the
    # ideal span {e, z} is an ideal, both generate everything, but its
    # first sum e times the algebra is the line of e
    fine = ClassAlgebra("S", 3, None, range(3))
    fine.cube = {(a, b): {b: 1} for a, b in ((0, 0), (0, 1), (0, 2))}
    fine.cube.update({(b, 0): {b: 1} for b in (1, 2)})
    fine.cube.update({(1, 1): {1: -1}, (1, 2): {2: -1}, (2, 1): {2: -1}, (2, 2): {2: 1}})
    toy = Twin(
        lambda n: fine,
        lambda n: fine.coarsen({0: 0, 1: 1, 2: 1}.get, text=lambda j: f"a_{j}"),
        lambda n: fine.coarsen({0: 0, 1: 0, 2: 1}.get, text=lambda j: f"b_{j + 1}"),
        ("count span", "ideal"),
    )
    monkeypatch.setitem(TWINS, "whp", toy)
    with pytest.raises(CheckFailure) as info:
        check_whp_closure(1)
    assert str(info.value) == "b_1 does not generate the ideal at n=1"
    assert whp_table(1).labels == ["a_0", "a_1", "b_1", "b_2"]


@pytest.mark.deep
def test_solhat_closure_rank_5():
    check_solhat_closure(5)


def test_solhat_table_blocks():
    t = solhat_table(3)
    assert t.labels == ["y_0", "y_1", "y_2", "y_3", "y0_1", "y0_2", "y0_3"]
    # unit row
    assert t.cell(0, 1) == (0, 1, 0, 0, 0, 0, 0)
    # ideal block rows have support only on the ideal side
    for j in range(4, 7):
        for i in range(7):
            assert all(c == 0 for c in t.cell(j, i)[:4])


def test_type_d_images():
    for n in (2, 3, 4, 5):
        check_type_d_numbers(n)
    # explicit rank-3 values
    assert chi_x0_number_coords(3, 1) == {0b1: 1, 0b10: 1}
    assert chi(x_number(3, 3)) == chi(x0_number(3, 3))


def test_type_d_second_relation_witness():
    # the fold is not injective on the joint graded span: explicit kernel
    for n in (3, 4, 5):
        v = (
            chi(x_number(n, n - 1))
            - chi(x0_number(n, n - 1))
            - chi(x_number(n, n)).scale(Fraction(1, 2))
        )
        assert not v


def test_loday_witnesses_frozen():
    assert loday_witness("p") == (4, "p_1")
    assert loday_witness("pint") == (3, "p0_1")
    # the witnesses really escape: rank grows when they join the span
    from peakalg.algebra import span_rank

    basis3 = [a_descent_number(3, j) for j in range(3)]
    assert span_rank(basis3 + [interior_peak_number(3, 1)]) == 4
    basis4 = [a_descent_number(4, j) for j in range(4)]
    assert span_rank(basis4 + [peak_number(4, 1)]) == 5
