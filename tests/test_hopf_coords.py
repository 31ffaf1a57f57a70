"""The Hopf checks on class coordinates against their element-level form.

peakalg.hopf evaluates check_theta_hopf, check_delta_internal_compat,
check_beta_via_coproduct, check_delta_closures, check_module_morphisms,
the four concatenation checks, the two shuffle closures, the ideal/type-A
isomorphism and the free-module check on coordinates read from cached
Hopf data, and the checks of the split (reassembly, coassociativity,
counit) on streams of byte words, split once per chunk and with every
stream of legs split again on the split tables of its rank.  The
element-level bodies they replaced live here as the reference: every
group element of every basis element goes through coproduct_split and
compose.  Both paths must agree, and the cached data must equal the
binned element-level results cell by cell.
"""

import random
from collections import Counter
from functools import lru_cache, partial
from math import factorial

import pytest

from peakalg import hopf, maps, mr, perms, verify
from peakalg.algebra import AlgElem, ClassAlgebra, element_rows
from peakalg.bases import (
    _all_masks,
    descent_algebra,
    descent_coordinates,
    subset_to_pseudo_comp,
    x_basis,
    y_to_x_coords,
)
from peakalg.hopf import (
    FAMILIES,
    SHUFFLE_TARGETS,
    concat_mask_ordinary,
    coproduct,
    coproduct_coords,
    external_product,
    shuffle_coords,
    transform_coords,
)
from peakalg.mr import signed_compositions, stilde_basis, t_algebra
from peakalg.peak import (
    interior_peak_algebra,
    interior_peak_coordinates,
    interior_peak_elements,
    peak_algebra,
    peak_coordinates,
    peak_elements,
)
from peakalg.perms import byte_decoder, compose, group_elements, identity, inverse, mask_text
from peakalg.reporting import CheckFailure

from oracles import (
    bidegree,
    block_embed,
    descent_span_rank,
    members,
    pair_coords,
    reference_map_tensor,
)

# the families whose algebras are coarsenings of their finer family's
COARSENINGS = ("I0", "Peak", "PeakIdeal")

# ---------------------------------------------------------------------------
# the element-level reference


def x0_with_unit(n: int, jmask: int) -> AlgElem:
    """X_{{0} u J} in rank n, and the unit in rank 0, which has no label 0."""
    return maps.x0_basis(n, jmask) if n else AlgElem.unit("B", 0)


def map_sides(t2: dict, group: str, f, g) -> dict:
    """Apply linear maps to the two sides of a tensor of monomials of the
    group (monomial by monomial, memoized per distinct monomial)."""
    out: dict = {}
    fcache: dict = {}
    gcache: dict = {}
    for (u, v), c in t2.items():
        fu = fcache.get(u)
        if fu is None:
            fu = fcache[u] = f(AlgElem.monomial(group, len(u), u))
        gv = gcache.get(v)
        if gv is None:
            gv = gcache[v] = g(AlgElem.monomial(group, len(v), v))
        for u2, cu in fu.terms.items():
            ccu = c * cu
            for v2, cv in gv.terms.items():
                key = (u2, v2)
                s = out.get(key, 0) + ccu * cv
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
    return out


def componentwise_internal(s: dict, t: dict) -> dict:
    """Internal product in each tensor factor; mismatched bidegrees
    annihilate."""
    out: dict = {}
    for (u, v), c in s.items():
        for (u2, v2), c2 in t.items():
            if len(u) != len(u2) or len(v) != len(v2):
                continue
            key = (compose(u, u2), compose(v, v2))
            x = out.get(key, 0) + c * c2
            if x == 0:
                out.pop(key, None)
            else:
                out[key] = x
    return out


def tensor_coords(t2: dict, n: int, p: int, factory):
    return pair_coords(bidegree(t2, p), factory(p), factory(n - p))


def _double_y_to_x(coords: dict) -> dict:
    """Moebius inversion on both labels of (maskL, maskR) -> c."""
    by_right: dict = {}
    for (ml, mr), c in coords.items():
        by_right.setdefault(mr, {})[ml] = c
    mid: dict = {}
    for mr, vec in by_right.items():
        for ml, c in y_to_x_coords(vec).items():
            mid[(ml, mr)] = c
    by_left: dict = {}
    for (ml, mr), c in mid.items():
        by_left.setdefault(ml, {})[mr] = c
    out: dict = {}
    for ml, vec in by_left.items():
        for mr, c in y_to_x_coords(vec).items():
            out[(ml, mr)] = c
    return {k: c for k, c in out.items() if c}


def tensor_i0_pair_coords(t2: dict, n: int, p: int):
    """X-basis pair coordinates of a tensor of degree n restricted to the
    canonical ideal on both sides (degree-0 sides count as the unit line)."""
    ycoords = tensor_coords(t2, n, p, partial(descent_algebra, "B"))
    if ycoords is None:
        return None
    xcoords = _double_y_to_x(ycoords)
    q = n - p
    for ml, mr in xcoords:
        if (p > 0 and not ml & 1) or (q > 0 and not mr & 1):
            return None
    return xcoords


def reference_delta_closures(dmax: int):
    def in_classes(factory):
        return partial(tensor_coords, factory=factory)

    families = (
        ("type-A", lambda n: [(f"mask {bin(m)}", x_basis("A", n, m)) for m in _all_masks("A", n)],
         in_classes(partial(descent_algebra, "A"))),
        ("type-B", lambda n: [(f"mask {bin(m)}", x_basis("B", n, m)) for m in _all_masks("B", n)],
         in_classes(partial(descent_algebra, "B"))),
        ("ideal", lambda n: [(f"mask {bin(m)}", maps.x0_basis(n, m)) for m in _all_masks("A", n)],
         tensor_i0_pair_coords),
        ("MR", lambda n: [(a, stilde_basis(n, a)) for a in signed_compositions(n)],
         in_classes(t_algebra)),
        ("peak", lambda n: [(bin(m), e) for m, e in peak_elements(n)], in_classes(peak_algebra)),
        ("interior", lambda n: [(bin(m), e) for m, e in interior_peak_elements(n)],
         in_classes(interior_peak_algebra)),
    )
    for n in range(1, dmax + 1):
        for name, family, test in families:
            for label, a in family(n):
                t2 = coproduct(a)
                if any(test(t2, n, p) is None for p in range(n + 1)):
                    raise CheckFailure(f"{name} coproduct closure fails at {label}")


def reference_theta_hopf(dmax: int):
    theta, theta_pm = maps.theta, maps.theta_pm
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            for a1 in signed_compositions(p):
                for a2 in signed_compositions(q):
                    left = theta_pm(external_product(stilde_basis(p, a1), stilde_basis(q, a2)))
                    right = external_product(
                        theta_pm(stilde_basis(p, a1)), theta_pm(stilde_basis(q, a2))
                    )
                    if left != right:
                        raise CheckFailure(f"type-B transform breaks shuffles at {a1} * {a2}")
            for m1 in _all_masks("A", p):
                for m2 in _all_masks("A", q):
                    left = theta(external_product(x_basis("A", p, m1), x_basis("A", q, m2)))
                    right = external_product(
                        theta(x_basis("A", p, m1)), theta(x_basis("A", q, m2))
                    )
                    if left != right:
                        raise CheckFailure(
                            f"transform breaks shuffles at {mask_text(m1)} * {mask_text(m2)}"
                        )
    for n in range(1, dmax + 1):
        for alpha in signed_compositions(n):
            a = stilde_basis(n, alpha)
            if coproduct(theta_pm(a)) != map_sides(coproduct(a), "B", theta_pm, theta_pm):
                raise CheckFailure(f"type-B transform breaks the coproduct at {alpha}")
        for m in _all_masks("A", n):
            a = x_basis("A", n, m)
            if coproduct(theta(a)) != map_sides(coproduct(a), "S", theta, theta):
                raise CheckFailure(f"transform breaks the coproduct at {mask_text(m)}")


def reference_beta_via_coproduct(dmax: int):
    for n in range(1, dmax + 1):
        for m in _all_masks("B", n):
            a = x_basis("B", n, m)
            comp = bidegree(coproduct(a), 1)
            out = AlgElem.zero("B", n - 1)
            for (u, v), c in comp.items():
                eta = 1 if u == (1,) else -1  # eta((1)) = 1, eta((-1)) = -1
                out += AlgElem.monomial("B", n - 1, v, c * eta)
            if out != maps.beta_map(a):
                raise CheckFailure(f"coproduct form of the drop fails at mask {bin(m)}")


def reference_module_morphisms(dmax: int):
    def beta_graded(a):
        return AlgElem.zero("B", 0) if a.n == 0 else maps.beta_map(a)

    def pi_graded(a):
        return AlgElem.zero("S", max(a.n - 2, 0)) if a.n < 2 else maps.pi_map(a)

    def same(left, right):
        # a vanishing drop has no home degree, so zeros compare loosely
        return left == right or (not left and not right)

    for p in range(0, dmax):
        for q in range(1, dmax - p + 1):
            for m1 in _all_masks("B", p):
                a = x_basis("B", p, m1)
                for m2 in _all_masks("A", q):
                    m = maps.x0_basis(q, m2)
                    if not same(
                        beta_graded(external_product(a, m)),
                        external_product(beta_graded(a), m),
                    ):
                        raise CheckFailure(
                            f"drop is not a module morphism at masks {bin(m1)}, {bin(m2)}"
                        )
            for fm, pf in peak_elements(p) if p else [(0, AlgElem.unit("S", 0))]:
                for gm, pg in interior_peak_elements(q):
                    if not same(
                        pi_graded(external_product(pf, pg)),
                        external_product(pi_graded(pf), pg),
                    ):
                        raise CheckFailure(
                            f"projection is not a module morphism at {bin(fm)}, {bin(gm)}"
                        )


def reference_delta_internal_compat(dmax: int):
    for n in range(1, dmax + 1):
        elems = [x_basis("A", n, m) for m in _all_masks("A", n)]
        deltas = [coproduct(e) for e in elems]
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                if coproduct(a * b) != componentwise_internal(deltas[i], deltas[j]):
                    raise CheckFailure(
                        f"internal compatibility fails at degree {n}, pair ({i},{j})"
                    )


def reference_sola_star(dmax: int):
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            for m1 in _all_masks("A", p):
                for m2 in _all_masks("A", q):
                    got = external_product(x_basis("A", p, m1), x_basis("A", q, m2))
                    want = x_basis("A", p + q, concat_mask_ordinary(p, m1, m2))
                    if got != want:
                        raise CheckFailure(
                            f"type-A concat fails at p={p}, q={q}, masks {bin(m1)},{bin(m2)}"
                        )


def reference_i0_star(dmax: int):
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            for m1 in _all_masks("A", p):
                for m2 in _all_masks("A", q):
                    got = external_product(maps.x0_basis(p, m1), maps.x0_basis(q, m2))
                    want_mask = (m1 | 1) | (1 << p) | (m2 << p)
                    want = x_basis("B", p + q, want_mask)
                    if got != want:
                        raise CheckFailure(
                            f"ideal concat fails at p={p}, q={q}, masks {bin(m1)},{bin(m2)}"
                        )


def reference_solb_module_star(dmax: int):
    for p in range(0, dmax):
        for q in range(1, dmax - p + 1):
            for m1 in _all_masks("B", p):
                for m2 in _all_masks("A", q):
                    got = external_product(x_basis("B", p, m1), maps.x0_basis(q, m2))
                    if p == 0:
                        want_mask = m2 | 1
                    else:
                        want_mask = m1 | (1 << p) | (m2 << p)
                    want = x_basis("B", p + q, want_mask)
                    if got != want:
                        raise CheckFailure(
                            f"type-B module concat fails at p={p}, q={q}, "
                            f"masks {bin(m1)},{bin(m2)}"
                        )


def reference_omega_star(dmax: int):
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            for a1 in signed_compositions(p):
                for a2 in signed_compositions(q):
                    got = external_product(stilde_basis(p, a1), stilde_basis(q, a2))
                    want = stilde_basis(p + q, a1 + a2)
                    if got != want:
                        raise CheckFailure(f"S-tilde concat fails at {a1} * {a2}")


def reference_pint_star_closure(dmax: int):
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            for fm, pf in interior_peak_elements(p):
                for gm, pg in interior_peak_elements(q):
                    prod = external_product(pf, pg)
                    if interior_peak_coordinates(prod) is None:
                        raise CheckFailure(
                            f"interior shuffle closure fails at {bin(fm)} * {bin(gm)}"
                        )


def reference_peak_module_star(dmax: int):
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            for fm, pf in peak_elements(p):
                for gm, pg in interior_peak_elements(q):
                    prod = external_product(pf, pg)
                    if peak_coordinates(prod) is None:
                        raise CheckFailure(
                            f"peak module closure fails at {bin(fm)} * {bin(gm)}"
                        )


def reference_free_module(dmax: int):
    for n in range(1, dmax + 1):
        elems = []
        for mask in _all_masks("B", n):
            parts = subset_to_pseudo_comp(
                [i for i in range(n) if mask >> i & 1], n
            )
            prod = x_basis("B", parts[0], 0)
            for part in parts[1:]:
                prod = external_product(prod, maps.x0_basis(part, 0))
            if prod != x_basis("B", n, mask):
                raise CheckFailure(f"monomial product is not X at mask {bin(mask)}")
            elems.append(prod)
        if descent_span_rank(elems, "B") != 1 << n:
            raise CheckFailure(f"module monomials are dependent at degree {n}")


def reference_i0_sola_isomorphism(dmax: int):
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            for m1 in _all_masks("A", p):
                for m2 in _all_masks("A", q):
                    want = concat_mask_ordinary(p, m1, m2)
                    got_a = external_product(x_basis("A", p, m1), x_basis("A", q, m2))
                    coords_a = y_to_x_coords(descent_coordinates(got_a, "A"))
                    got_i = external_product(maps.x0_basis(p, m1), maps.x0_basis(q, m2))
                    coords_i = y_to_x_coords(descent_coordinates(got_i, "B"))
                    if coords_a != {want: 1}:
                        raise CheckFailure(f"type-A product constants differ at {bin(want)}")
                    if coords_i != {want | 1: 1}:
                        raise CheckFailure(f"ideal product constants differ at {bin(want)}")
    for m in range(1, dmax + 1):
        t_a = coproduct(x_basis("A", m, 0))
        t_i = coproduct(maps.x0_basis(m, 0))
        for i in range(m + 1):
            j = m - i
            comp_a = bidegree(t_a, i)
            comp_i = bidegree(t_i, i)
            want_a = {}
            for u in x_basis("A", i, 0).terms:
                for v in x_basis("A", j, 0).terms:
                    want_a[(u, v)] = 1
            want_i = {}
            for u in x0_with_unit(i, 0).terms:
                for v in x0_with_unit(j, 0).terms:
                    want_i[(u, v)] = 1
            if comp_a != want_a or comp_i != want_i:
                raise CheckFailure(
                    f"generator coproducts differ at degree {m}, split {i}+{j}"
                )


def reference_split(w, p):
    """The per-p split as first written: one pass over w."""
    left_pos, right_pos, w1, w2 = [], [], [], []
    for i, v in enumerate(w, 1):
        if -p <= v <= p:
            left_pos.append(i)
            w1.append(v)
        else:
            right_pos.append(i)
            w2.append(v - p if v > 0 else v + p)
    return tuple(left_pos + right_pos), tuple(w1), tuple(w2)


def reference_split_reassembly(w):
    for p in range(len(w) + 1):
        xi, w1, w2 = hopf.coproduct_split(w, p)
        try:
            reassembled = compose(block_embed(w1, w2), inverse(xi))
        except ValueError as error:  # blocks and shuffle of different ranks
            raise CheckFailure(f"factorization fails at w={w}, p={p}: {error}") from None
        if reassembled != w:
            raise CheckFailure(f"factorization fails at w={w}, p={p}")
        if list(xi[:p]) != sorted(xi[:p]) or list(xi[p:]) != sorted(xi[p:]):
            raise CheckFailure(f"factor is not a shuffle at w={w}, p={p}")


def reference_coassociative(w):
    """The two iterated coproducts of w term by term: the term of degrees
    (i, j, k) splits w at i + j and its left block at i on one side, w at
    i and its right block at j on the other, and its three blocks have
    those degrees."""
    n = len(w)
    left: dict = {}
    right: dict = {}
    for p in range(n + 1):
        _, w1, w2 = hopf.coproduct_split(w, p)
        for q in range(p + 1):
            _, a, b = hopf.coproduct_split(w1, q)
            left[(q, p - q)] = (a, b, w2)
        for q in range(n - p + 1):
            _, b, c = hopf.coproduct_split(w2, q)
            right[(p, q)] = (w1, b, c)
    degrees = {(i, j): (i, j, n - i - j) for i, j in left}
    if left != right or {k: tuple(map(len, t)) for k, t in left.items()} != degrees:
        raise CheckFailure(f"coassociativity fails at w={w}")


def reference_counit(w):
    n = len(w)
    _, w1, w2 = hopf.coproduct_split(w, 0)
    if w1 != () or w2 != w:
        raise CheckFailure(f"counit (left) fails at w={w}")
    _, w1, w2 = hopf.coproduct_split(w, n)
    if w1 != w or w2 != ():
        raise CheckFailure(f"counit (right) fails at w={w}")


# per-element check name -> the body that split every leg again
SINGLES = {
    "check_split_reassembly": reference_split_reassembly,
    "check_coassociative": reference_coassociative,
    "check_counit": reference_counit,
}


# check name -> the element-level body it replaced
PAIRS = {
    "check_theta_hopf": reference_theta_hopf,
    "check_delta_internal_compat": reference_delta_internal_compat,
    "check_beta_via_coproduct": reference_beta_via_coproduct,
    "check_delta_closures": reference_delta_closures,
    "check_module_morphisms": reference_module_morphisms,
}

# the checks that read the shuffle tables in place of element-level
# concatenation, closure, isomorphism and free-module loops
SHUFFLE_PAIRS = {
    "check_sola_star": reference_sola_star,
    "check_i0_star": reference_i0_star,
    "check_solb_module_star": reference_solb_module_star,
    "check_omega_star": reference_omega_star,
    "check_pint_star_closure": reference_pint_star_closure,
    "check_peak_module_star": reference_peak_module_star,
    "check_free_module": reference_free_module,
    "check_i0_sola_isomorphism": reference_i0_sola_isomorphism,
}


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
# both paths, and the data cell by cell


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_both_paths_pass(name):
    PAIRS[name](4)
    getattr(hopf, name)(4)


@pytest.mark.parametrize("dmax", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.deep)])
@pytest.mark.parametrize("name", sorted(SHUFFLE_PAIRS))
def test_both_shuffle_paths_pass(name, dmax):
    SHUFFLE_PAIRS[name](dmax)
    getattr(hopf, name)(dmax)


def run_singles(checks, nmax: int):
    """Run each check on B_0 to B_nmax, one rank at a time: the rank check
    hopf.check_singles on the listing of the rank, any other check on each
    element in turn."""
    for n in range(nmax + 1):
        ws = group_elements("B", n)
        for check in checks:
            if check is hopf.check_singles:
                check(ws, n)
            else:
                for w in ws:
                    check(w)


# path -> its checks: the reference bodies, the three public checks, each on
# the stream of one element, and the rank check that splits a stream of each
# chunk of a rank once for all three
SINGLES_PATHS = {
    "reference": list(SINGLES.values()),
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
        reference_theta_hopf(3)
    with pytest.raises(CheckFailure) as coordinates:
        hopf.check_theta_hopf(3)
    assert str(coordinates.value) == str(element_level.value)


def test_broken_theta_pm_witness(monkeypatch, fresh_hopf_data):
    monkeypatch.setattr(maps, "theta_pm", _broken_in_degree(maps.theta_pm, 3))
    with pytest.raises(CheckFailure, match=r"shuffles at \(1,\) \* \(1, 1\)$"):
        hopf.check_theta_hopf(3)


@pytest.mark.parametrize(
    "family, check",
    [
        ("OmegaB", hopf.check_theta_hopf),
        ("SolA", hopf.check_delta_internal_compat),
        ("SolB", hopf.check_beta_via_coproduct),
    ],
)
def test_perturbed_coproduct_coordinate_fails(family, check, fresh_hopf_data):
    data = coproduct_coords(family, 3)
    alg = FAMILIES[family].algebra(3)
    lab = alg.labels[-1]
    key = next(k for k in data[lab] if k[0] == 1)
    data[lab][key] += 1
    # the cell-by-cell comparison sees the change ...
    assert tensor_element(family, 3, data[lab]) != coproduct(dict(alg.basis)[lab])
    # ... and so does the check that reads the data
    with pytest.raises(CheckFailure):
        check(3)
    # the element-level reference does not read the cache
    PAIRS[check.__name__](3)


@pytest.mark.deep
def test_theta_hopf_rank_5_against_the_element_level():
    reference_theta_hopf(5)
    hopf.check_theta_hopf(5)


def _perturb_first_cell(table: dict):
    """Add 1 to the first coordinate of the first cell of a cached table."""
    cell = next(iter(table.values()))
    key = next(iter(cell))
    cell[key] += 1


def test_perturbed_i0_shuffle_cell_fails(fresh_hopf_data):
    _perturb_first_cell(shuffle_coords("I0", "I0", 1, 2))
    for name in ("check_i0_star", "check_i0_sola_isomorphism"):
        with pytest.raises(CheckFailure):
            getattr(hopf, name)(3)
        # the element-level reference does not read the cache
        SHUFFLE_PAIRS[name](3)


def test_perturbed_i0_coproduct_cell_fails_the_isomorphism(fresh_hopf_data):
    data = coproduct_coords("I0", 2)
    _perturb_first_cell(data)
    assert data != coproduct_coords("SolA", 2)
    with pytest.raises(CheckFailure, match="coproduct constants differ at degree 2"):
        hopf.check_i0_sola_isomorphism(3)
    reference_i0_sola_isomorphism(3)


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
    with pytest.raises(CheckFailure, match=witness):
        run_singles([hopf.check_singles], 5)


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
