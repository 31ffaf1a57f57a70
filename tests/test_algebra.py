import json
import random
from fractions import Fraction

import pytest

from peakalg.algebra import (
    NOT_IN_SPAN,
    AlgElem,
    SpanSolver,
    elem_from_json,
    elem_to_json,
    exact_det,
    express_in_span,
    internal_product,
    linear_combine,
    push_forward,
    span_rank,
)
from peakalg.bases import x_basis, y_basis, y_label_elements
from peakalg.maps import x0_generator, interior_peak_generator
from peakalg.peak import peak_elements
from peakalg.perms import chi_element, forget_signs, group_elements, sigma


def test_linear_combine_cancels():
    a = AlgElem.monomial("B", 2, (2, -1))
    assert not linear_combine([(1, a), (-1, a)])
    assert linear_combine([(2, a), (3, a)]) == a.scale(5)


def test_linear_combine_mixed_groups():
    with pytest.raises(ValueError):
        linear_combine([(1, AlgElem.unit("B", 2)), (1, AlgElem.unit("B", 3))])


def test_construction_validates_membership():
    with pytest.raises(ValueError):
        AlgElem("D", 2, {(-1, 2): 1})  # odd bar count
    with pytest.raises(ValueError):
        AlgElem("S", 2, {(2, 2): 1})


def test_y_from_x_inversion():
    # Y_J = sum over I inside J of (-1)^(#J - #I) X_I, each type
    for ctype, n in (("A", 4), ("B", 4), ("D", 4), ("B", 5)):
        for m, yj in y_label_elements(ctype, n):
            nj = bin(m).count("1")
            acc = AlgElem.zero(yj.group, n)
            sub = m
            while True:
                sign = -1 if (nj - bin(sub).count("1")) % 2 else 1
                acc += x_basis(ctype, n, sub).scale(sign)
                if sub == 0:
                    break
                sub = (sub - 1) & m
            assert acc == yj


def test_internal_product_unital():
    one = AlgElem.unit("B", 3)
    for _, yj in y_label_elements("B", 3):
        assert one * yj == yj
        assert yj * one == yj


def test_internal_product_associative():
    elems = [e for _, e in y_label_elements("B", 2)]
    for a in elems:
        for b in elems:
            for c in elems:
                assert (a * b) * c == a * (b * c)
    rng = random.Random(7)
    pool = [e for _, e in y_label_elements("B", 4)]
    for _ in range(12):
        a, b, c = rng.sample(pool, 3)
        assert (a * b) * c == a * (b * c)


def test_internal_product_mixed_groups():
    with pytest.raises(ValueError):
        internal_product(AlgElem.unit("B", 2), AlgElem.unit("S", 2))


def test_table_row_in_rank_3():
    # row P_{1}, column P_{1} of the rank-3 peak table
    elems = dict(peak_elements(3))
    prod = elems[0b10] * elems[0b10]
    cv = express_in_span(prod, [elems[0b00], elems[0b10], elems[0b100]])
    assert tuple(cv) == (2, 1, 2)


def test_push_forward_examples():
    a = AlgElem.monomial("B", 2, (-1, 2))
    assert push_forward(forget_signs, a, group="S") == AlgElem.monomial("S", 2, (1, 2))
    # the rank-2 increasing class maps onto twice the empty-interior-peak sum
    assert push_forward(forget_signs, x0_generator(2), group="S") == (
        interior_peak_generator(2).scale(2)
    )
    assert push_forward(chi_element, y_basis("B", 3, 0b11), group="D") == y_basis(
        "D", 3, 0b11
    )


def test_push_forward_multiplicativity():
    # forgetting signs is a group homomorphism; sign reversal is central
    # multiplication, so it moves across either factor of a product
    elems = [e for _, e in y_label_elements("B", 3)]
    for a in elems:
        for b in elems:
            lhs = push_forward(forget_signs, a * b, group="S")
            rhs = push_forward(forget_signs, a, group="S") * push_forward(
                forget_signs, b, group="S"
            )
            assert lhs == rhs
            flipped = push_forward(sigma, a * b)
            assert flipped == push_forward(sigma, a) * b
            assert flipped == a * push_forward(sigma, b)


def test_push_forward_accumulates_collisions():
    a = AlgElem.monomial("B", 1, (1,)) + AlgElem.monomial("B", 1, (-1,))
    img = push_forward(forget_signs, a, group="S")
    assert img == AlgElem.monomial("S", 1, (1,), 2)


def test_express_in_span_unit_coordinate():
    elems = peak_elements(3)
    cv = express_in_span(elems[0][1], [e for _, e in elems])
    assert tuple(cv) == (1, 0, 0)


def test_express_in_span_rejects():
    basis = [y_basis("B", 3, 0b10)]
    target = AlgElem.monomial("B", 3, (1, 2, 3))
    assert express_in_span(target, basis) is NOT_IN_SPAN


def test_express_in_span_roundtrip():
    rng = random.Random(3)
    basis = [e for _, e in y_label_elements("B", 3)]
    target = linear_combine(
        [(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), b) for b in basis]
    )
    cv = express_in_span(target, basis)
    rebuilt = linear_combine(list(zip(cv.coords, basis)))
    assert rebuilt == target


def test_span_rank_examples():
    assert span_rank([]) == 0
    assert span_rank([e for _, e in peak_elements(5)]) == 8  # Fibonacci f_5
    a = y_basis("B", 2, 0)
    assert span_rank([a, a.scale(2), a - a]) == 1


def test_solver_deterministic_pivots():
    basis = [e for _, e in y_label_elements("B", 3)]
    s1 = SpanSolver(basis)
    s2 = SpanSolver(basis)
    assert [p[0] for p in s1.pivots] == [p[0] for p in s2.pivots]


def test_exact_det():
    assert exact_det([[1, 2], [3, 4]]) == -2
    assert exact_det([[Fraction(1, 2), 0], [5, Fraction(2, 3)]]) == Fraction(1, 3)
    assert exact_det([[1, 1], [1, 1]]) == 0
    assert exact_det([[0, 1, 0], [0, 0, 2], [3, 0, 0]]) == 6  # pivot columns out of order
    assert type(exact_det([[2]])) is Fraction and exact_det([]) == 1
    with pytest.raises(ValueError, match="not square"):
        exact_det([[1, 2]])


def test_json_roundtrip():
    a = AlgElem(
        "B", 4, {(-3, 1, 2, -4): Fraction(3, 2), (1, 2, 3, 4): -2}
    )
    data = elem_to_json(a)
    assert data["group"] == "B" and data["n"] == 4
    coeffs = {tuple(t["perm"]): t["coeff"] for t in data["terms"]}
    assert coeffs[(-3, 1, 2, -4)] == "3/2"
    assert elem_from_json(json.loads(json.dumps(elem_to_json(a)))) == a


def test_json_duplicate_term_rejected():
    data = {
        "group": "S",
        "n": 2,
        "terms": [
            {"perm": [1, 2], "coeff": "1"},
            {"perm": [1, 2], "coeff": "2"},
        ],
    }
    with pytest.raises(ValueError):
        elem_from_json(data)


def test_support_bounded_by_group():
    full = AlgElem.class_sum("B", 3, group_elements("B", 3))
    assert len(full * full) <= 48


def _default_cap_table(algebra: str):
    from peakalg.bases import structure_constants
    from peakalg.cli import TABLE_CAPS
    from peakalg.commutative import solhat_table, whp_table
    from peakalg.peak import peak_table

    n = TABLE_CAPS[algebra]
    if algebra in ("SigA", "SigB", "SigD"):
        return structure_constants(algebra[-1], n)
    return {"P": peak_table, "whp": whp_table, "solB": solhat_table}[algebra](n)


@pytest.mark.parametrize("algebra", ["P", "whp", "solB", "SigA", "SigB", "SigD"])
def test_table_json_writes_each_cell_as_its_exact_fraction(algebra):
    table = _default_cap_table(algebra)
    cells = [c for row in table.cells for cell in row for c in cell]
    assert {type(c) for c in cells} <= {int, Fraction}
    old_form = [[[str(Fraction(x)) for x in cell] for cell in row] for row in table.cells]
    assert table.to_json()["cells"] == old_form


def test_table_json_writes_a_fraction_cell_as_p_over_q():
    from peakalg.algebra import StructureTable

    cells = [[(1, Fraction(-3, 2)), (0, Fraction(4, 2))]]
    table = StructureTable(name="t", labels=["a"], cells=cells)
    assert table.to_json()["cells"] == [[["1", "-3/2"], ["0", "2"]]]
