"""The Hopf checks on class coordinates: the data and the mutations.

peakalg.hopf evaluates check_theta_hopf, check_delta_internal_compat,
check_beta_via_coproduct, check_delta_closures, check_module_morphisms,
the four concatenation checks, the two shuffle closures, the ideal/type-A
isomorphism and the free-module check on coordinates read from cached
Hopf data, and the checks of the split (reassembly, coassociativity,
counit) on streams of byte words, split once per chunk and with every
stream of legs split again on the split tables of its rank.  Their
element-level oracles are registered in tests/oracles/registry.py: every
group element of every basis element goes through coproduct_split and
compose.  The cached data must equal the binned element-level results
cell by cell, and each mutation must fail a check and not its oracle, or
both.
"""

import random
from collections import Counter
from functools import lru_cache, partial
from math import factorial

import pytest

from peakalg import hopf, maps, mr, perms, verify
from peakalg.algebra import ClassAlgebra, element_rows
from peakalg.bases import _all_masks, descent_algebra, x_basis
from peakalg.hopf import (
    FAMILIES,
    SHUFFLE_TARGETS,
    coproduct,
    coproduct_coords,
    external_product,
    shuffle_coords,
    transform_coords,
)
from peakalg.mr import t_algebra
from peakalg.perms import byte_decoder, group_elements, identity
from peakalg.reporting import CheckFailure

from oracles import members, pair_coords, reference_map_tensor
from oracles.hopf import SINGLES as BODIES
from oracles.hopf import reference_split
from oracles.registry import ORACLES, declared_check

# the families whose algebras are coarsenings of their finer family's
COARSENINGS = ("I0", "Peak", "PeakIdeal")

# each public per-element check of the split, by name, and its reference
# body, which splits every leg again
SINGLES = dict(zip(("check_split_reassembly", "check_coassociative", "check_counit"), BODIES))
# the oracle of hopf/coassociative-counit-singles: the three bodies on a rank
SINGLES_ORACLE = ORACLES["hopf/coassociative-counit-singles"]


def clear_hopf_data():
    """Clear every cache that peakalg.hopf defines (the caches it imports
    belong to their own modules), the byte split tables that its singles
    checks read, and the increasing-class products read on its transform
    rows.  The fibres its derived tables read are kept by each algebra per
    finer algebra (ClassAlgebra.fibres_over), so a patched finer algebra
    is binned afresh with nothing to clear."""
    for value in vars(hopf).values():
        if hasattr(value, "cache_clear") and value.__module__ == hopf.__name__:
            value.cache_clear()
    perms.split_tables.cache_clear()
    mr.bstilde_failure.cache_clear()


@pytest.fixture
def fresh_hopf_data():
    """Rebuild the cached Hopf data around a test that alters maps or the
    cache itself."""
    clear_hopf_data()
    yield
    clear_hopf_data()


# ---------------------------------------------------------------------------
# the singles paths, and the data cell by cell


def run_singles(checks, nmax: int):
    """Run each check on B_0 to B_nmax, one rank at a time: the rank check
    hopf.check_singles on the listing of the rank, the registered oracle on
    the rank, any other check on each element in turn."""
    for n in range(nmax + 1):
        ws = group_elements("B", n)
        for check in checks:
            if check is hopf.check_singles:
                check(ws, n)
            elif check is SINGLES_ORACLE:
                check(n)
            else:
                for w in ws:
                    check(w)


# path -> its checks: the registered oracle, the three public checks, each
# on the stream of one element, and the rank check that splits a stream of
# each chunk of a rank once for all three
SINGLES_PATHS = {
    "reference": [SINGLES_ORACLE],
    "split tables": [getattr(hopf, name) for name in SINGLES],
    "fused": [hopf.check_singles],
}


@pytest.mark.parametrize("path", list(SINGLES_PATHS))
def test_both_singles_paths_pass(path, fresh_hopf_data):
    run_singles(SINGLES_PATHS[path], 5)


def _lru_caches(*modules) -> dict:
    """name -> the cache_info of each lru cache that the modules define."""
    return {
        f"{module.__name__}.{name}": value.cache_info()
        for module in modules
        for name, value in vars(module).items()
        if hasattr(value, "cache_info") and value.__module__ == module.__name__
    }


def test_the_singles_checks_keep_no_split_table(fresh_hopf_data):
    # no cache grows with the elements split: the split tables are three
    # byte strings per rank and point, the shuffles one entry per unsigned
    # pattern, and no block of any element is kept
    perms.split_tables.cache_clear()
    for checks in SINGLES_PATHS.values():
        run_singles(checks, 5)
    caches = _lru_caches(hopf, perms)
    patterns = sum(factorial(n) for n in range(6))
    assert caches["peakalg.perms.split_tables"].currsize == 6
    assert caches["peakalg.hopf._shuffle_plan"].currsize == patterns
    del caches["peakalg.perms.group_elements"]  # the group listing itself
    assert sum(info.currsize for info in caches.values()) < len(group_elements("B", 5))


def decoded_split(w, p: int) -> tuple:
    """(shuffle, left block, right block) of w at p read off hopf's split
    of the stream of w and its shuffle plan, as tuples; past the rank every
    value stays on the left, as in coproduct_split."""
    if p > len(w):
        return identity(len(w)), w, ()
    _, splits = hopf._split_chunk([w], len(w))
    left, right = splits[p]
    xi = hopf._shuffle_plan(bytes(map(abs, w)))[0][p]
    return tuple(xi), byte_decoder(len(left))(left), byte_decoder(len(right))(right)


@pytest.mark.parametrize("n", [*range(0, 6), pytest.param(6, marks=pytest.mark.deep)])
def test_splits_of_an_element_equal_its_splits_one_p_at_a_time(n):
    for w in group_elements("B", n):
        want = [reference_split(w, p) for p in range(n + 1)]
        assert [decoded_split(w, p) for p in range(n + 1)] == want, w
        assert [hopf.coproduct_split(w, p) for p in range(n + 1)] == want, w


@pytest.mark.parametrize("n", range(0, 5))
def test_a_split_past_the_rank_keeps_every_value_on_the_left(n):
    for w in group_elements("B", n):
        for p in range(n + 1, n + 3):
            assert hopf.coproduct_split(w, p) == (identity(n), w, ()) == reference_split(w, p)


def test_clear_hopf_data_finds_the_split_table(fresh_hopf_data):
    perms.split_tables(2)
    assert perms.split_tables.cache_info().currsize == 1
    clear_hopf_data()
    assert perms.split_tables.cache_info().currsize == 0


def test_clear_hopf_data_finds_the_last_splits(fresh_hopf_data):
    # what one element's splits leave behind: the split tables of ranks 0
    # to 2 (its own and its legs') and the shuffle plan of its pattern
    hopf.check_singles([(2, -1)], 2)
    left = (perms.split_tables, hopf._shuffle_plan)
    assert [cache.cache_info().currsize for cache in left] == [3, 1]
    clear_hopf_data()
    assert [cache.cache_info().currsize for cache in left] == [0, 0]


def test_a_patched_finer_family_is_binned_afresh(monkeypatch, fresh_hopf_data):
    # the type-B fibres are kept per finer algebra: a new T-algebra of the
    # same rank is a new key, so the derived tables read its classes
    fibres = hopf._fibres("SolB", 2)
    assert hopf._fibres("SolB", 2) is fibres
    twin = ClassAlgebra("B", 2, None, t_algebra(2).labels, members(t_algebra(2)))
    monkeypatch.setattr(hopf, "t_algebra", lambda n: twin if n == 2 else t_algebra(n))
    assert hopf._fibres("SolB", 2) is not fibres
    assert hopf._fibres("SolB", 2) == fibres


def tensor_element(family: str, n: int, coords: dict) -> dict:
    """The tensor {(u, v): c} of tensor coordinates keyed (p, left, right)."""
    terms, classes = {}, [members(FAMILIES[family].algebra(d)) for d in range(n + 1)]
    for (p, l1, l2), c in coords.items():
        for u in classes[p][l1]:
            for v in classes[n - p][l2]:
                terms[(u, v)] = c
    return terms


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_coproduct_data_matches_elements(family):
    for n in range(0, 5):
        alg = FAMILIES[family].algebra(n)
        data = coproduct_coords(family, n)
        assert list(data) == list(alg.labels)
        for lab, c in alg.basis:
            assert tensor_element(family, n, data[lab]) == coproduct(c), (n, lab)


@pytest.mark.deep
@pytest.mark.parametrize("family", sorted(COARSENINGS))
def test_coarsened_coproduct_data_matches_elements_rank_5(family):
    alg = FAMILIES[family].algebra(5)
    data = coproduct_coords(family, 5)
    assert list(data) == list(alg.labels)
    for lab, c in alg.basis:
        assert tensor_element(family, 5, data[lab]) == coproduct(c), lab


def element_coproduct_coords(family: str, n: int) -> dict:
    """The coproduct table of an enumerated family: the splits of every
    class at every p, binned."""
    factory, out = FAMILIES[family].algebra, {}
    for lab, ws in members(factory(n)).items():
        coords = out[lab] = {}
        for p in range(n + 1):
            split = Counter(hopf.coproduct_split(w, p)[1:] for w in ws)
            pc = pair_coords(split, factory(p), factory(n - p))
            assert pc is not None, (family, n, lab, p)
            coords.update({(p, l1, l2): x for (l1, l2), x in pc.items()})
    return out


@pytest.mark.parametrize("n", range(0, 6))
def test_derived_type_b_tables_equal_the_element_level_builds(n, fresh_hopf_data):
    # SolB reads both tables off the T-classes' (OmegaB) through the fibres
    alg = FAMILIES["SolB"].algebra(n)
    assert coproduct_coords("SolB", n) == element_coproduct_coords("SolB", n)
    assert transform_coords("SolB", n) == element_rows(maps.theta_pm, alg, alg, "theta_pm")


@pytest.mark.parametrize("n", [*range(0, 6), pytest.param(6, marks=pytest.mark.deep)])
@pytest.mark.parametrize("family", ["SolA", "OmegaB"])
def test_byte_split_tables_equal_the_tuple_split_builds(family, n, fresh_hopf_data):
    # the enumerated families split byte words; the oracle splits tuples, one p at a time
    assert coproduct_coords(family, n) == element_coproduct_coords(family, n)


def test_coarsenings_merge_the_classes_of_their_parents():
    # every family with a finer one coarsens it, but the type-B descent
    # algebra, whose classes unite T-classes it does not inherit
    for family in COARSENINGS:
        finer = FAMILIES[FAMILIES[family].finer].algebra
        for n in range(0, 5):
            assert FAMILIES[family].algebra(n).parent is finer(n), (family, n)
    assert [f for f, spec in FAMILIES.items() if spec.finer] == ["SolB", *COARSENINGS]


@pytest.mark.parametrize("pair", sorted(SHUFFLE_TARGETS))
def test_shuffle_data_matches_elements(pair):
    left, right = pair
    target = FAMILIES[SHUFFLE_TARGETS[pair]].algebra
    for p in range(0, 4):
        for q in range(1, 5 - p):
            data = shuffle_coords(left, right, p, q)
            for l1, c1 in FAMILIES[left].algebra(p).basis:
                for l2, c2 in FAMILIES[right].algebra(q).basis:
                    got = target(p + q).element(data[(l1, l2)])
                    assert got == external_product(c1, c2), (p, q, l1, l2)


@pytest.mark.parametrize("family", sorted(f for f, spec in FAMILIES.items() if spec.transform))
def test_transform_data_matches_elements(family):
    transform = getattr(maps, FAMILIES[family].transform)
    for n in range(0, 6):  # every rank that verify builds
        alg = FAMILIES[family].algebra(n)
        data = transform_coords(family, n)
        for lab, c in alg.basis:
            assert alg.element(data[lab]) == transform(c), (n, lab)


def test_canonical_ideal_classes_span_the_x0_basis():
    from peakalg.bases import canonical_ideal_algebra

    for n in range(1, 5):
        alg = canonical_ideal_algebra(n)
        assert len(alg.labels) == 1 << (n - 1)
        for m in _all_masks("A", n):
            assert alg.coords(maps.x0_basis(n, m)) is not None
        assert alg.coords(x_basis("B", n, 0)) is None


# ---------------------------------------------------------------------------
# mutations


def _broken_in_degree(f, degree):
    return lambda a: f(a).scale(2) if a.n == degree else f(a)


@pytest.mark.parametrize("name, degree", [("theta_pm", 3), ("theta", 2)])
def test_broken_transform_fails_both_paths(name, degree, monkeypatch, fresh_hopf_data):
    monkeypatch.setattr(maps, name, _broken_in_degree(getattr(maps, name), degree))
    with pytest.raises(CheckFailure) as element_level:
        ORACLES["hopf/transform-morphisms"](3)
    with pytest.raises(CheckFailure) as coordinates:
        hopf.check_theta_hopf(3)
    assert str(coordinates.value) == str(element_level.value)


def test_broken_theta_pm_witness(monkeypatch, fresh_hopf_data):
    monkeypatch.setattr(maps, "theta_pm", _broken_in_degree(maps.theta_pm, 3))
    with pytest.raises(CheckFailure, match=r"shuffles at \(1,\) \* \(1, 1\)$"):
        hopf.check_theta_hopf(3)


def failing_body_and_passing_oracle(check_id: str):
    """The check check_id, as verify declares it at the ceiling 3, fails
    on the cached data; its element-level oracle reads no cache and passes."""
    check = declared_check(check_id, 3)
    with pytest.raises(CheckFailure):
        check.body(*check.cases)
    ORACLES[check_id](*check.cases)


@pytest.mark.parametrize(
    "family, check_id",
    [
        ("OmegaB", "hopf/transform-morphisms"),
        ("SolA", "hopf/internal-coproduct-compat"),
        ("SolB", "hopf/drop-via-coproduct"),
    ],
    ids=[
        "OmegaB-check_theta_hopf",
        "SolA-check_delta_internal_compat",
        "SolB-check_beta_via_coproduct",
    ],
)
def test_perturbed_coproduct_coordinate_fails(family, check_id, fresh_hopf_data):
    data = coproduct_coords(family, 3)
    alg = FAMILIES[family].algebra(3)
    lab = alg.labels[-1]
    key = next(k for k in data[lab] if k[0] == 1)
    data[lab][key] += 1
    # the cell-by-cell comparison sees the change, and so does the check
    # that reads the data
    assert tensor_element(family, 3, data[lab]) != coproduct(dict(alg.basis)[lab])
    failing_body_and_passing_oracle(check_id)


def _perturb_first_cell(table: dict):
    """Add 1 to the first coordinate of the first cell of a cached table."""
    cell = next(iter(table.values()))
    key = next(iter(cell))
    cell[key] += 1


def test_perturbed_i0_shuffle_cell_fails(fresh_hopf_data):
    _perturb_first_cell(shuffle_coords("I0", "I0", 1, 2))
    for check_id in ("hopf/concat-ideal", "hopf/ideal-type-a-isomorphism"):
        failing_body_and_passing_oracle(check_id)


def test_perturbed_i0_coproduct_cell_fails_the_isomorphism(fresh_hopf_data):
    data = coproduct_coords("I0", 2)
    _perturb_first_cell(data)
    assert data != coproduct_coords("SolA", 2)
    with pytest.raises(CheckFailure, match="coproduct constants differ at degree 2"):
        hopf.check_i0_sola_isomorphism(3)
    ORACLES["hopf/ideal-type-a-isomorphism"](3)


def _patch_tables(monkeypatch, change):
    """Replace the split tables (bigs, shifts, smalls) of every rank n, where
    every split of perms reads them, by change(n, bigs, shifts, smalls),
    cached as they are."""
    real = perms.split_tables
    changed = lru_cache(maxsize=None)(lambda n: change(n, *real(n)))
    monkeypatch.setattr(perms, "split_tables", changed)


def _patch_splits(monkeypatch, change):
    """Replace the blocks of each element w that hopf splits, by change(word
    of w, its left blocks, its right blocks): each element's blocks are cut
    out of the streams of blocks at their strides, changed, and joined again
    in order."""
    real = hopf._split_chunk

    def patched(ws, n):
        flat, splits = real(ws, n)
        changed = [
            change(
                flat[i * n : i * n + n],
                [lefts[i * p : i * p + p] for p, (lefts, _) in enumerate(splits)],
                [rights[i * (n - p) : (i + 1) * (n - p)] for p, (_, rights) in enumerate(splits)],
            )
            for i in range(len(ws))
        ]
        joined = [list(map(b"".join, zip(*blocks))) for blocks in zip(*changed)]
        return flat, list(zip(*joined))

    monkeypatch.setattr(hopf, "_split_chunk", patched)


def _split_below(monkeypatch):
    """Split tables that split at p - 1 (for p > 0) on rank 3."""

    def change(n, *columns):
        return tuple(c[:1] + c[:-1] for c in columns) if n == 3 else columns

    _patch_tables(monkeypatch, change)


def _unsigned_shift(monkeypatch):
    """Split tables that shift the right values down by p whatever their sign."""

    def change(n, bigs, shifts, smalls):
        unsigned = tuple(bytes((b - p) % 256 for b in range(256)) for p in range(n + 1))
        return bigs, unsigned, smalls

    _patch_tables(monkeypatch, change)


def _unshuffled_left(monkeypatch):
    """A byte split whose left block has its first two entries swapped at
    each p >= 2, and a shuffle plan whose shuffle has them swapped too, so
    that the blocks still reassemble w and only the shuffle is wrong.  The
    true splits of B_0..B_5 are checked first, so that the cached shuffle
    plan already holds every true pattern."""
    run_singles([hopf.check_split_reassembly], 5)

    def swap(word):
        return word[1::-1] + word[2:]

    def swapped(word, lefts, rights):
        return [swap(a) if p >= 2 else a for p, a in enumerate(lefts)], rights

    def increasing(xi, p):
        return list(xi[:p]) == sorted(xi[:p]) and list(xi[p:]) == sorted(xi[p:])

    def swapped_plan(pattern):
        xis = [swap(xi) if p >= 2 else xi for p, xi in enumerate(plan(pattern)[0])]
        return xis, [increasing(xi, p) for p, xi in enumerate(xis)]

    plan = hopf._shuffle_plan
    _patch_splits(monkeypatch, swapped)
    monkeypatch.setattr(hopf, "_shuffle_plan", swapped_plan)


def _right_value_past_the_rank(monkeypatch):
    """A byte split whose right block at p = 1 holds n, a value outside its
    rank n - 1, in place of its first value (from rank 2 on)."""

    def change(word, lefts, rights):
        if len(word) < 2:
            return lefts, rights
        return lefts, [rights[0], bytes([len(word)]) + rights[1][1:], *rights[2:]]

    _patch_splits(monkeypatch, change)


def _left_keeps_the_next_value(monkeypatch):
    """Split tables whose delete set at p keeps the value p + 1 on the left."""

    def change(n, bigs, shifts, smalls):
        return tuple(big.replace(bytes([p + 1]), b"") for p, big in enumerate(bigs)), shifts, smalls

    _patch_tables(monkeypatch, change)


@pytest.mark.parametrize(
    "mutation, names, witness",
    [
        (_split_below, sorted(SINGLES), None),
        (_unsigned_shift, ["check_coassociative", "check_split_reassembly"], None),
        (_unshuffled_left, ["check_split_reassembly"], "^factor is not a shuffle at w="),
        (_right_value_past_the_rank, ["check_split_reassembly"], "^factorization fails at w="),
    ],
    ids=[
        "split-at-p-1-on-rank-3",
        "unsigned-shift",
        "unshuffled-left",
        "right-value-past-the-rank",
    ],
)
def test_broken_split_fails_both_singles_paths(
    mutation, names, witness, monkeypatch, fresh_hopf_data
):
    mutation(monkeypatch)
    # the reference bodies split through coproduct_split: give them the broken split
    monkeypatch.setattr(hopf, "coproduct_split", decoded_split)
    for name in names:
        with pytest.raises(CheckFailure, match=witness):
            run_singles([SINGLES[name]], 5)
        with pytest.raises(CheckFailure, match=witness):
            run_singles([getattr(hopf, name)], 5)
    for check in (hopf.check_singles, SINGLES_ORACLE):
        with pytest.raises(CheckFailure, match=witness):
            run_singles([check], 5)


def test_the_rank_check_passes_on_b5_listed_in_a_shuffled_order(fresh_hopf_data):
    # runs of a shared |w| are one word long here, so every column is
    # gathered word by word
    ws = list(group_elements("B", 5))
    random.Random(43).shuffle(ws)
    hopf.check_singles(ws, 5)


def test_a_gather_that_reads_the_shuffle_at_p_minus_1_fails_the_factorization(
    monkeypatch, fresh_hopf_data
):
    # the shuffle plan hands the gather xi_{p-1} at p > 0 and keeps the
    # true shuffle flags: the first element whose shuffles at 0 and 1
    # differ is (2, 1)
    plan = hopf._shuffle_plan

    def behind(pattern):
        xis, shuffled = plan(pattern)
        return xis[:1] + xis[:-1], shuffled

    monkeypatch.setattr(hopf, "_shuffle_plan", behind)
    with pytest.raises(CheckFailure, match=r"^factorization fails at w=\(2, 1\), p=1$"):
        run_singles([hopf.check_singles], 5)
    with pytest.raises(CheckFailure, match=r"^factorization fails at w=\(2, 1\), p=1$"):
        run_singles([hopf.check_split_reassembly], 5)


def test_one_broken_element_in_the_middle_of_a_chunk_is_named(monkeypatch, fresh_hopf_data):
    ws = group_elements("B", 5)
    index = hopf.STREAM_CHUNK + hopf.STREAM_CHUNK // 2 + 3
    target = perms.byte_word(ws[index])

    def change(word, lefts, rights):
        # the right block at 2 of the one element, reversed
        if word != target:
            return lefts, rights
        return lefts, [*rights[:2], rights[2][::-1], *rights[3:]]

    _patch_splits(monkeypatch, change)
    assert ws[index] == (-1, -4, 2, 3, 5)  # its right block at 2 is (-2, 1, 3)
    with pytest.raises(CheckFailure, match=r"^factorization fails at w=\(-1, -4, 2, 3, 5\), p=2$"):
        hopf.check_singles(ws, 5)


def test_a_delete_set_that_keeps_the_next_value_fails_the_singles_and_the_closure(
    monkeypatch, fresh_hopf_data
):
    _left_keeps_the_next_value(monkeypatch)
    monkeypatch.setattr(hopf, "coproduct_split", decoded_split)
    checks = [*SINGLES.values(), *(getattr(hopf, name) for name in SINGLES), hopf.check_singles]
    checks.append(SINGLES_ORACLE)
    for check in checks:
        with pytest.raises(CheckFailure, match=r"^\w.* at w=\(1,\)"):
            run_singles([check], 5)
    with pytest.raises(CheckFailure, match="^MR coproduct closure fails at "):
        coproduct_coords("OmegaB", 3)


def test_a_split_that_keeps_the_next_value_fails_every_reference_body(monkeypatch):
    # both blocks hold the value p + 1: the blocks no longer reassemble w
    # (their ranks exceed it), the left counit is not empty, and the two
    # iterated coproducts agree but their blocks have the wrong degrees
    split = hopf.coproduct_split

    def keeping(w, p):
        xi, _, right = split(w, p)
        return xi, tuple(v for v in w if abs(v) <= p + 1), right

    monkeypatch.setattr(hopf, "coproduct_split", keeping)
    for body in SINGLES.values():
        with pytest.raises(CheckFailure, match=r"^\w.* at w=\(1,\)"):
            run_singles([body], 5)


def _recorded_packs(monkeypatch) -> list:
    """The pack function of every packer that peakalg.hopf makes, in order."""
    packs, packer = [], hopf.packer

    def recording(keys, *factors):
        pack, shift = packer(keys, *factors)
        packs.append(pack)
        return pack, shift

    monkeypatch.setattr(hopf, "packer", recording)
    return packs


@pytest.mark.parametrize("family", ["SolA", "OmegaB"])
def test_the_tensor_map_equals_the_two_stage_map(family, monkeypatch):
    # the packed right side of the coproduct half of check_theta_hopf,
    # against the two-stage map on dicts, packed by the same packer
    packs, rows = _recorded_packs(monkeypatch), partial(transform_coords, family)
    for n in range(1, 6):
        cop = coproduct_coords(family, n)
        sides = hopf._tensor_sides(family, n, [rows(d) for d in range(n + 1)], cop.get, 1)
        labels = []
        for lab, _, right in sides:
            assert right == packs[-1](reference_map_tensor(cop[lab], n, rows)), (n, lab)
            labels.append(lab)
        assert labels == list(cop)


def _fibre_size(family: str, d: int) -> dict:
    """label of the finer family in degree d -> the size of its fibre."""
    return {lab: len(ls) for ls in hopf._fibres(family, d).values() for lab in ls}


def _perturb_spread_cell(family: str, n: int):
    """Add 1 to a cell of the cached finer coproduct of family in degree
    n whose pair of fibres has several members, so that the sum over the
    fibre is no longer constant there."""
    fine = coproduct_coords(FAMILIES[family].finer, n)
    sizes = [_fibre_size(family, d) for d in range(n + 1)]
    for row in fine.values():
        for p, l1, l2 in row:
            if sizes[p][l1] * sizes[n - p][l2] > 1:
                row[(p, l1, l2)] += 1
                return
    raise AssertionError(f"no pair of fibres of {family} in degree {n} has several members")


@pytest.mark.parametrize(
    "family, witness",
    [("I0", "ideal"), ("Peak", "peak"), ("PeakIdeal", "interior"), ("SolB", "type-B")],
)
def test_perturbed_parent_coproduct_fails_the_fibre_closure(family, witness, fresh_hopf_data):
    _perturb_spread_cell(family, 3)
    with pytest.raises(CheckFailure, match=f"{witness} coproduct closure fails at"):
        coproduct_coords(family, 3)


def test_perturbed_t_class_transform_row_fails_the_type_b_rows(fresh_hopf_data):
    # +1 on a cell of a T-class row at a T-label whose descent fibre has
    # several members, so that the sum is no longer constant on it
    sizes = _fibre_size("SolB", 3)
    rows = transform_coords("OmegaB", 3).values()
    row, cell = next((row, a) for row in rows for a in row if sizes[a] > 1)
    row[cell] += 1
    with pytest.raises(CheckFailure, match=r"^theta_pm of the class \{[\d,]*\} leaves the span$"):
        transform_coords("SolB", 3)


def _count_splits(monkeypatch) -> tuple:
    """Count by rank the byte words that split_words splits at one p (the
    table path), the elements whose stream is split at every p
    (_split_chunk), and the calls of the per-p coproduct_split."""
    columns, per_element, per_p = Counter(), Counter(), Counter()
    split_words, splits, split = hopf.split_words, hopf._split_chunk, hopf.coproduct_split

    def counted_words(words, n, p):
        columns[n] += len(words)
        return split_words(words, n, p)

    def counted_splits(ws, n):
        per_element[n] += len(ws)
        return splits(ws, n)

    def counted_split(w, p):
        per_p[len(w)] += 1
        return split(w, p)

    monkeypatch.setattr(hopf, "split_words", counted_words)
    monkeypatch.setattr(hopf, "_split_chunk", counted_splits)
    monkeypatch.setattr(hopf, "coproduct_split", counted_split)
    return columns, per_element, per_p


def test_coproduct_closures_split_only_the_enumerated_families(monkeypatch, fresh_hopf_data):
    # SolA and OmegaB split every element once; SolB, the ideal and the
    # peak families read their tables through fibres
    columns, per_element, per_p = _count_splits(monkeypatch)
    hopf.check_delta_closures(5)
    # the byte word of each element of S_n and of B_n, at each p, in each degree n
    assert columns == {n: (factorial(n) + (factorial(n) << n)) * (n + 1) for n in range(1, 6)}
    assert not per_element and not per_p


def _verify_bodies(n_max: int) -> dict:
    """check id -> (cases, body) of the hopf suite, declared and not run."""
    return {c.check_id: (c.cases, c.body) for c in verify.suite_hopf(n_max)}


def test_the_verify_singles_loop_splits_each_element_once(monkeypatch, fresh_hopf_data):
    cases, body = _verify_bodies(5)["hopf/coassociative-counit-singles"]
    assert cases == list(range(0, 6))
    columns, per_element, per_p = _count_splits(monkeypatch)
    for n in cases:
        body(n)
    # once for each element of B_n, in the stream of its chunk: the streams
    # of its legs are split on the tables of their ranks, and kept nowhere
    assert per_element == {n: factorial(n) << n for n in cases}
    assert not columns and not per_p


def test_the_public_singles_checks_split_each_element_once(monkeypatch, fresh_hopf_data):
    # each public check splits the stream of its element once, at every p
    # together, and never one p at a time
    sizes = {n: len(group_elements("B", n)) for n in range(4)}
    for name in SINGLES:
        columns, per_element, per_p = _count_splits(monkeypatch)
        run_singles([getattr(hopf, name)], 3)
        assert per_element == Counter(sizes), name
        assert not columns and not per_p, name
        monkeypatch.undo()


def test_the_singles_check_visits_each_element_of_b0_to_b5_once(monkeypatch):
    visited, check = [], hopf.check_singles

    def recording(ws, n):
        visited.extend(ws)
        check(ws, n)

    monkeypatch.setattr(hopf, "check_singles", recording)
    report = verify.run_suite("hopf", 5)
    (result,) = [c for c in report.checks if c.check_id == "hopf/coassociative-counit-singles"]
    assert result.ok
    assert len(visited) == 4283 == len(set(visited))
    assert set(visited) == {w for n in range(6) for w in group_elements("B", n)}


def test_perturbed_cube_cell_fails_internal_compat(fresh_hopf_data):
    hopf.check_delta_internal_compat(3)
    cube = descent_algebra("A", 3).cube
    key = next(iter(cube))
    saved = dict(cube[key])
    cube[key][next(iter(saved))] += 1
    try:
        # the witness names the pair of class labels
        with pytest.raises(CheckFailure, match=r"fails at degree 3, \{\} \* \{\}$"):
            hopf.check_delta_internal_compat(3)
    finally:
        cube[key] = saved
    hopf.check_delta_internal_compat(3)
