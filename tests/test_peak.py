import itertools
from math import factorial

import pytest

from peakalg.algebra import NOT_IN_SPAN, AlgElem, express_in_span
from peakalg.peak import (
    check_two_sided_ideal,
    interior_peak_basis,
    interior_peak_elements,
    interior_peak_coordinates,
    peak_basis,
    peak_coordinates,
    peak_elements,
    peak_table,
    pi_label,
    pi_map,
)
from peakalg.perms import fibonacci, identity, sparse_masks
from peakalg.reporting import run_checks
from peakalg.verify import suite_peaks


def test_unit_degree_1():
    assert peak_basis(1, 0) == AlgElem.unit("S", 1)
    assert interior_peak_basis(1, 0) == AlgElem.class_sum(
        "S", 1, [(1,)]
    )


def test_peak_free_class_is_identity_only():
    # no peaks under the w_0 = 0 convention forces a strictly increasing word
    for n in range(1, 7):
        assert peak_basis(n, 0) == AlgElem.monomial("S", n, identity(n))


def test_interior_vs_peak_basis_relation():
    # interior P_F is P_F when 2 in F, else P_F + P_{F u {1}}
    for n in range(2, 7):
        for fm, pint in interior_peak_elements(n):
            if fm & 0b100:
                assert pint == peak_basis(n, fm)
            else:
                assert pint == peak_basis(n, fm) + peak_basis(n, fm | 0b10)


def test_supports_partition():
    for n in range(1, 8):
        assert sum(len(p) for _, p in peak_elements(n)) == factorial(n)
        assert sum(len(p) for _, p in interior_peak_elements(n)) == factorial(n)


def test_invalid_peak_label():
    with pytest.raises(ValueError):
        peak_basis(4, 0b110)
    with pytest.raises(ValueError):
        interior_peak_basis(4, 0b10)  # 1 is not interior


def test_pi_label_cases():
    assert pi_label(0b0) == (0, 1)
    assert pi_label(0b10) == (0, -1)
    assert pi_label(0b100) is None
    assert pi_label(0b1010) == (0b10, -1)  # {1,3} -> -{1}
    assert pi_label(0b1000) == (0b10, 1)  # {3} -> {1}


def test_pi_examples():
    # the unit goes to the unit, two ranks down
    for n in (3, 4, 5):
        assert pi_map(peak_basis(n, 0)) == peak_basis(n - 2, 0)
    assert pi_map(peak_basis(4, 0b10)) == peak_basis(2, 0).scale(-1)


def test_pi_rejects_raw_elements():
    with pytest.raises(ValueError):
        pi_map(AlgElem.monomial("S", 4, (2, 1, 3, 4)))


def test_pi_kernel_is_interior_span():
    for n in range(2, 8):
        images = [pi_map(p) for _, p in peak_elements(n)]
        from peakalg.algebra import span_rank

        img_rank = span_rank([a for a in images if a])
        assert img_rank == fibonacci(n - 2)
        assert fibonacci(n) - img_rank == fibonacci(n - 1)
        for _, pint in interior_peak_elements(n):
            assert not pi_map(pint)


def test_max_symmetric_difference_order_is_mask_order():
    # E < F iff max(E symdiff F) lies in F iff the indicator integer grows
    universe = list(range(1, 7))
    subsets = []
    for r in range(len(universe) + 1):
        subsets.extend(itertools.combinations(universe, r))
    def mask(s):
        out = 0
        for i in s:
            out |= 1 << i
        return out
    for E in subsets:
        for F in subsets:
            if E == F:
                continue
            diff = set(E) ^ set(F)
            assert (max(diff) in set(F)) == (mask(E) < mask(F))


def test_peak_table_rank_3():
    t = peak_table(3)
    assert t.labels == ["{}", "{1}", "{2}"]
    assert t.cell(1, 1) == (2, 1, 2)
    assert t.cell(2, 1) == (1, 1, 1)


def test_rank_4_noncommutative():
    t = peak_table(4)
    assert t.cell(1, 3) != t.cell(3, 1)


def test_two_sided_ideal_small():
    for n in (3, 4):
        check_two_sided_ideal(n)


def test_peak_theorem_suite():
    checks = run_checks(suite_peaks(5))
    assert all(c.ok for c in checks), [(c.check_id, c.witness) for c in checks if not c.ok]
    ids = {c.check_id for c in checks}
    for n in (2, 3, 4, 5):
        for name in ("forms-agree", "closure", "unitriangular-image", "two-sided-ideal", "quotient"):
            assert f"peaks/{name}/n={n}" in ids


def test_membership_coordinates_agree_with_solver():
    a = peak_basis(4, 0b10).scale(2) + peak_basis(4, 0b1010)
    coords = peak_coordinates(a)
    assert coords == {0b10: 2, 0b1010: 1}
    bad = a + AlgElem.monomial("S", 4, (2, 1, 3, 4))
    assert peak_coordinates(bad) is None
    assert express_in_span(bad, [e for _, e in peak_elements(4)]) is NOT_IN_SPAN


def test_interior_coordinates():
    b = interior_peak_basis(4, 0b100)
    assert interior_peak_coordinates(b) == {0b100: 1}
    assert interior_peak_coordinates(peak_basis(4, 0b10)) is None


def test_dimension_table():
    for n in range(1, 9):
        assert len(sparse_masks(n)) == fibonacci(n)
        assert len(peak_elements(n)) == fibonacci(n)
        assert len(interior_peak_elements(n)) == fibonacci(n - 1)
