"""Coarsened class algebras read their structure cube from their parent's.

Every coarsened cube must equal the cube built from the group for the same
classes (an algebra with no parent, whose cube is certified from a few
generator rows and read from one representative per class) and the |G|^2
count of oracles.reference_cube, the closure check must fail the same way
on both paths, and the table order passed to coarsen must name every fibre
exactly once.  The peak classes, now fibres of the lambda operators, are
checked against binning by peak set element by element.
"""

import pytest

from oracles import members, reference_cube
from peakalg import peak, perms
from peakalg.algebra import ClassAlgebra
from peakalg.bases import canonical_ideal_algebra, descent_algebra
from peakalg.commutative import i0_number_algebra, sol_algebra, wp_algebra, wp_interior_algebra
from peakalg.peak import interior_peak_algebra, peak_algebra
from peakalg.reporting import run_check

CASES = (
    [(f"P{n}", peak_algebra, n) for n in range(1, 7)]
    + [(f"Pint{n}", interior_peak_algebra, n) for n in range(1, 7)]
    + [(f"wp{n}", wp_algebra, n) for n in range(1, 7)]
    + [(f"wpint{n}", wp_interior_algebra, n) for n in range(1, 7)]
    + [(f"ideal{n}", canonical_ideal_algebra, n) for n in range(1, 5)]
    + [(f"sol{n}", sol_algebra, n) for n in range(1, 5)]
    + [(f"i0{n}", i0_number_algebra, n) for n in range(1, 5)]
)


def enumerated(alg: ClassAlgebra) -> ClassAlgebra:
    """The same classes with no parent, so its cube is built from the group."""
    return ClassAlgebra(alg.group, alg.n, None, alg.labels, members(alg))


@pytest.mark.parametrize("name, factory, n", CASES, ids=[name for name, _, _ in CASES])
def test_coarsened_cube_is_the_enumerated_cube(name, factory, n):
    alg = factory(n)
    assert alg.parent is not None
    assert alg.cube == enumerated(alg).cube == reference_cube(alg)


def test_peak_algebras_are_fibres_of_the_type_a_descent_algebra():
    for n in range(1, 7):
        for alg, masks in (
            (peak_algebra(n), perms.sparse_masks(n)),
            (interior_peak_algebra(n), perms.interior_sparse_masks(n)),
        ):
            assert alg.parent is descent_algebra("A", n)
            assert alg.labels == tuple(masks)


def test_unclosed_coarsening_fails_the_same_way_on_both_paths():
    coarse = descent_algebra("A", 4).coarsen(lambda m: bin(m).count("1") == 1)
    with pytest.raises(ArithmeticError) as from_labels:
        coarse.cube
    with pytest.raises(ArithmeticError) as from_group:
        enumerated(coarse).cube
    assert str(from_labels.value) == str(from_group.value)
    assert "leave the span in S_4" in str(from_labels.value)


@pytest.mark.parametrize(
    "labels, named",
    [
        ((0, 1), "2"),  # a fibre image left out
        ((0, 1, 2, 2), "2"),  # a fibre image listed twice
        ((0, 1, 2, 3), "3"),  # a label no fibre maps to
    ],
)
def test_coarsen_rejects_malformed_labels(labels, named):
    fine = descent_algebra("A", 3)  # masks 0, 2, 4, 6: popcounts 0, 1, 1, 2
    with pytest.raises(ValueError, match=rf"the label {named}\b"):
        fine.coarsen(lambda m: bin(m).count("1"), labels)


def test_coarsen_takes_the_table_order():
    fine = descent_algebra("A", 3)
    coarse = fine.coarsen(lambda m: bin(m).count("1"), (2, 0, 1))
    assert coarse.labels == (2, 0, 1)
    assert coarse.fibres == {2: (6,), 0: (0,), 1: (2, 4)}
    assert coarse.cube == enumerated(coarse).cube


@pytest.fixture
def fresh_peak_caches():
    def clear():
        for cached in (peak.peak_algebra, peak.interior_peak_algebra, peak._forms_agree):
            cached.cache_clear()

    clear()
    yield
    clear()


def _swap_one_and_two(jmask):
    # exchange the fibres over the peak sets {1} and {2}: the labels stay
    # the same, so only the element-level binning can tell
    image = perms.lambda_mask(jmask)
    return {0b10: 0b100, 0b100: 0b10}.get(image, image)


def _drop_one(jmask):
    # no descent class maps to a peak set holding 1 any more: coarsen
    # itself rejects the table order
    return perms.lambda_mask(jmask) & ~2


@pytest.mark.parametrize(
    "wrong, error, message",
    [
        (_swap_one_and_two, AssertionError, "forms disagree at n=4"),
        (_drop_one, ValueError, "no class maps to the label 2"),
    ],
)
def test_forms_agree_catches_a_wrong_lambda(
    wrong, error, message, monkeypatch, fresh_peak_caches
):
    assert peak._forms_agree(4) is True
    peak._forms_agree.cache_clear()
    peak.peak_algebra.cache_clear()
    monkeypatch.setattr(peak, "lambda_mask", wrong)
    with pytest.raises(error, match=message):
        peak._forms_agree(4)
    assert run_check("peaks/forms-agree/n=4", lambda: peak._forms_agree(4)).status == "fail"
