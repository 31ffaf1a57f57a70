"""The packed comparisons against the dict forms they replaced.

check_theta_hopf, check_delta_internal_compat and the verify check
theta/square-with-sign-forgetting compare each side of an identity as one
int, packed by perms.packer.  Their dict forms are in tests/oracles/hopf.py,
each as groups of (key, witness, left, right) comparisons in the check's
order, one group per packer the check makes.  The packed checks must
compare as many pairs, labels and cells as the dict forms, fail with the
same witness on the same broken input, and meet every compared coefficient
inside the packer's bound.  The packer itself is tested on exhaustive small
cases.
"""

from fractions import Fraction
from functools import partial
from itertools import product

import pytest

from peakalg import algebra, hopf, maps, mr, perms, verify
from peakalg.algebra import class_images, first_unequal
from peakalg.bases import descent_algebra
from peakalg.hopf import FAMILIES, coproduct_coords, shuffle_coords, transform_coords
from peakalg.perms import packer
from peakalg.reporting import CheckFailure, run_check

from oracles.hopf import SHUFFLE_TEXTS, dict_check, internal_compat_groups, square_groups
from oracles.hopf import theta_hopf_groups
from oracles.registry import ORACLES


def square_check(n_max: int) -> tuple:
    """(ranks, body) of theta/square-with-sign-forgetting, declared by
    verify.suite_theta and not run."""
    bodies = {c.check_id: (c.cases, c.body) for c in verify.suite_theta(n_max)}
    return bodies["theta/square-with-sign-forgetting"]


def checks(name: str, dmax: int) -> tuple:
    """(run the packed check, its dict groups) of one of the three checks."""
    if name == "theta-hopf":
        return partial(hopf.check_theta_hopf, dmax), partial(theta_hopf_groups, dmax)
    if name == "internal-compat":
        run = partial(hopf.check_delta_internal_compat, dmax)
        return run, partial(internal_compat_groups, dmax)
    ranks, body = square_check(dmax)
    return lambda: [body(n) for n in ranks], partial(square_groups, ranks)


NAMES = ["theta-hopf", "internal-compat", "square"]


def clear_hopf_caches():
    for value in vars(hopf).values():
        if hasattr(value, "cache_clear") and value.__module__ == hopf.__name__:
            value.cache_clear()
    mr.bstilde_failure.cache_clear()  # read on the transform rows


@pytest.fixture
def fresh_hopf_caches():
    """Rebuild the cached Hopf data around a test that alters it."""
    clear_hopf_caches()
    yield
    clear_hopf_caches()


def record_packers(monkeypatch) -> list:
    """The shift table of every packer made from here on, in order."""
    made = []

    def recording(keys, *factors):
        pack, shift = packer(keys, *factors)
        made.append(shift)
        return pack, shift

    monkeypatch.setattr(hopf, "packer", recording)
    monkeypatch.setattr(perms, "packer", recording)
    return made


# ---------------------------------------------------------------------------
# the packer


def field_width(shift: dict) -> int:
    return list(shift.values())[1]


@pytest.mark.parametrize("bound", [1, 2, 3, 5])
def test_the_packer_is_exact_inside_its_bound_and_no_further(bound):
    keys = ["a", "b", "c"]
    pack, shift = packer(keys, [{"a": bound}])
    half = 2 ** (field_width(shift) - 1)
    assert bound < half <= 2 * bound
    # every vector inside the bound packs to its own int
    inside = list(product(range(1 - half, half), repeat=len(keys)))
    assert len({pack(dict(zip(keys, v))) for v in inside}) == len(inside)
    # at the bound, +half in one field and -half there with one more in
    # the next field collide
    for i in range(len(keys) - 1):
        assert pack({keys[i]: half}) == pack({keys[i]: -half, keys[i + 1]: 1})


def test_the_bound_is_the_product_of_the_largest_row_norms():
    _, shift = packer([0, 1], [{0: 2, 1: -1}, {0: 1}], [{1: -5}], [{}])
    assert 2 ** (field_width(shift) - 1) > 3 * 5 >= 2 ** (field_width(shift) - 2)


def test_a_fraction_coefficient_is_a_failure_not_an_error():
    with pytest.raises(ValueError, match="must be integers"):
        packer([0], [{0: Fraction(1, 2)}])
    result = run_check("packed", lambda: packer([0], [{0: 1}], [{}, {0: 1, 1: Fraction(2)}]))
    witness = "packed coordinates must be integers: argument 3 holds Fraction(2, 1)"
    assert (result.status, result.witness) == ("fail", witness)


def test_a_fraction_in_the_transform_rows_fails_the_square(fresh_hopf_caches):
    row = next(iter(transform_coords("SolA", 3).values()))
    key = next(iter(row))
    row[key] = Fraction(row[key])
    ranks, body = square_check(3)
    result = run_check("theta/square-with-sign-forgetting", lambda: [body(n) for n in ranks])
    # the type-A transform rows are the fifth argument of the square's packer
    witness = f"packed coordinates must be integers: argument 5 holds {row[key]!r}"
    assert (result.status, result.witness) == ("fail", witness)


# name -> the cached tables of rows that one input of the checks reads
TABLES = {
    "transform-2": lambda: [transform_coords(f, 2) for f in SHUFFLE_TEXTS],
    "transform-OmegaB": lambda: [transform_coords("OmegaB", d) for d in range(2, 6)],
    "shuffle": lambda: [
        shuffle_coords(f, f, p, q)
        for f in SHUFFLE_TEXTS
        for p in range(1, 5)
        for q in range(1, 6 - p)
    ],
    "coproduct": lambda: [coproduct_coords(f, d) for f in SHUFFLE_TEXTS for d in range(1, 6)],
    "cube": lambda: [descent_algebra("A", d).cube for d in range(6)],
    "phi": lambda: [
        class_images(maps.phi, mr.t_algebra(n), descent_algebra("A", n), "sign forgetting")
        for n in range(1, 6)
    ],
    "stilde": lambda: [mr.t_coords("Stilde", n) for n in range(1, 6)],
}


def scale(tables: list, k: int):
    """Multiply every coefficient of the tables by k in place; return the undo."""
    rows = [row for table in tables for row in table.values()]
    for row in rows:
        for key in row:
            row[key] *= k
    return lambda: [row.__setitem__(key, row[key] // k) for row in rows for key in row]


@pytest.mark.parametrize(
    "name, scaled",
    [
        ("theta-hopf", None),
        ("theta-hopf", "stilde"),
        ("theta-hopf", "shuffle"),
        ("theta-hopf", "transform-2"),
        ("theta-hopf", "coproduct"),
        ("internal-compat", None),
        ("internal-compat", "coproduct"),
        ("internal-compat", "cube"),
        ("square", None),
        ("square", "stilde"),
        ("square", "phi"),
        ("square", "transform-OmegaB"),
    ],
)
def test_every_compared_coefficient_lies_inside_the_bound(
    name, scaled, monkeypatch, fresh_hopf_caches
):
    # one input scaled by 2**20 moves each side by its own power of it, so
    # a packer that leaves out a factor is too narrow (the scaled transform
    # rows start at degree 2, where the type-A labels take two fields); a
    # scaled check may fail, but each packer it made saw its whole group
    shifts = record_packers(monkeypatch)
    run, groups = checks(name, 5)
    undo = scale(TABLES[scaled](), 2**20) if scaled else lambda: None
    try:
        try:
            run()
        except CheckFailure:
            assert scaled
        for shift, group in zip(shifts, groups()):
            top = max(abs(c) for *_, a, b in group for c in [*a.values(), *b.values()])
            if len(shift) > 1:  # one field holds any int exactly
                assert top < 2 ** (field_width(shift) - 1)
    finally:
        undo()
    assert shifts


# ---------------------------------------------------------------------------
# coverage and witnesses

# the comparisons of each check at dmax 5: shuffle pairs and class labels,
# cube cells, S-tilde labels
COMPARED = {"theta-hopf": 890, "internal-compat": 341, "square": 242}


@pytest.mark.parametrize("name", NAMES)
def test_the_packed_check_compares_what_the_dict_form_compares(name, monkeypatch):
    compared = []

    def recording(sides):
        sides = list(sides)
        compared.append([key for key, _, _ in sides])
        return first_unequal(sides)

    monkeypatch.setattr(hopf, "first_unequal", recording)
    monkeypatch.setattr(algebra, "first_unequal", recording)
    run, groups = checks(name, 5)
    run()
    groups = list(groups())
    # the same keys, in the same order, one group per comparison call
    assert compared == [[key for key, *_ in group] for group in groups]
    assert sum(map(len, compared)) == dict_check(groups) == COMPARED[name]


def bump(cells: dict):
    """Add 1 to the first coefficient of the first row of a table; return
    the undo."""
    row = next(iter(cells.values()))
    key = next(iter(row))
    row[key] += 1
    return lambda: row.__setitem__(key, row[key] - 1)


def bump_coproduct(family: str):
    """Add 1 to a coordinate in bidegree 1 of the last class of degree 3."""
    row = coproduct_coords(family, 3)[FAMILIES[family].algebra(3).labels[-1]]
    key = next(k for k in row if k[0] == 1)
    row[key] += 1
    return lambda: row.__setitem__(key, row[key] - 1)


PERTURBED = {
    "coproduct-OmegaB-3": (lambda: bump_coproduct("OmegaB"), "theta-hopf", 3),
    "transform-OmegaB-5": (lambda: bump(transform_coords("OmegaB", 5)), "theta-hopf", 5),
    "coproduct-SolA-3": (lambda: bump_coproduct("SolA"), "internal-compat", 3),
    "cube-A-3": (lambda: bump(descent_algebra("A", 3).cube), "internal-compat", 3),
    "phi-row-3": (
        lambda: bump(
            class_images(maps.phi, mr.t_algebra(3), descent_algebra("A", 3), "sign forgetting")
        ),
        "square",
        5,
    ),
}


@pytest.mark.parametrize("perturbed", sorted(PERTURBED))
def test_a_perturbed_input_fails_with_the_dict_witness(perturbed, fresh_hopf_caches):
    perturb, name, dmax = PERTURBED[perturbed]
    run, groups = checks(name, dmax)
    undo = perturb()
    try:
        with pytest.raises(CheckFailure) as packed:
            run()
        with pytest.raises(CheckFailure) as on_dicts:
            dict_check(groups())
    finally:
        undo()
    assert str(packed.value) == str(on_dicts.value)
    run()


# ---------------------------------------------------------------------------
# mr/order-axioms


def order_axioms(n_max: int):
    """mr/order-axioms as declared by verify.suite_mr, not run: its body
    on its one case, the rank cap."""
    (check,) = [c for c in verify.suite_mr(n_max) if c.check_id == "mr/order-axioms"]
    return partial(check.body, *check.cases)


@pytest.mark.parametrize(
    "pair, witness",
    [
        (((2, 1), (2, 1)), "order not reflexive at (2, 1)"),
        (((3,), (1, 1, 1)), "order not transitive at (3,), (1, 2), (1, 1, 1)"),
        # without a covering pair the relation is still a partial order
        (((3,), (1, 2)), None),
    ],
    ids=["reflexive", "through-a-middle", "covering"],
)
def test_a_dropped_order_pair_gives_the_parent_witness(pair, witness, monkeypatch):
    leq = mr.leq
    monkeypatch.setattr(mr, "leq", lambda a, b: (a, b) != pair and leq(a, b))
    outcomes = []
    for check in (order_axioms(4), partial(ORACLES["mr/order-axioms"], 4)):
        try:
            check()
            outcomes.append(None)
        except CheckFailure as failure:
            outcomes.append(str(failure))
    assert outcomes == [witness, witness]
