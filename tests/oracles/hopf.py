"""The oracles of the Hopf checks, and the dict forms of the packed ones.

Each oracle states one check on its one declared case, the degree
ceiling: every group element of every basis element goes through
coproduct_split and compose.  The dict forms state check_theta_hopf,
check_delta_internal_compat and theta/square-with-sign-forgetting as
groups of (key, witness, left, right) comparisons in the check's order,
one group per packer it makes.
"""

from functools import partial
from itertools import product

from peakalg import hopf, maps, mr
from peakalg.algebra import AlgElem, apply_rows, bilinear, class_images
from peakalg.bases import _all_masks, descent_algebra, descent_coordinates, subset_to_pseudo_comp
from peakalg.bases import x_basis, y_to_x_coords
from peakalg.hopf import FAMILIES, _x_coords, concat_mask_ordinary, coproduct, coproduct_coords
from peakalg.hopf import external_product, shuffle_coords, transform_coords
from peakalg.mr import signed_compositions, stilde_basis, t_algebra
from peakalg.peak import interior_peak_algebra, interior_peak_coordinates, interior_peak_elements
from peakalg.peak import peak_algebra, peak_coordinates, peak_elements
from peakalg.perms import compose, group_elements, inverse, mask_text
from peakalg.reporting import CheckFailure

from oracles import bidegree, block_embed, by_bidegree, descent_span_rank, pair_coords
from oracles import reference_componentwise_internal, reference_map_tensor


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
    for (ml, mr_), c in coords.items():
        by_right.setdefault(mr_, {})[ml] = c
    mid: dict = {}
    for mr_, vec in by_right.items():
        for ml, c in y_to_x_coords(vec).items():
            mid[(ml, mr_)] = c
    by_left: dict = {}
    for (ml, mr_), c in mid.items():
        by_left.setdefault(ml, {})[mr_] = c
    out: dict = {}
    for ml, vec in by_left.items():
        for mr_, c in y_to_x_coords(vec).items():
            out[(ml, mr_)] = c
    return {k: c for k, c in out.items() if c}


def tensor_i0_pair_coords(t2: dict, n: int, p: int):
    """X-basis pair coordinates of a tensor of degree n restricted to the
    canonical ideal on both sides (degree-0 sides count as the unit line)."""
    ycoords = tensor_coords(t2, n, p, partial(descent_algebra, "B"))
    if ycoords is None:
        return None
    xcoords = _double_y_to_x(ycoords)
    q = n - p
    for ml, mr_ in xcoords:
        if (p > 0 and not ml & 1) or (q > 0 and not mr_ & 1):
            return None
    return xcoords


# ---------------------------------------------------------------------------
# the oracles of the coproduct, transform and module checks


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


# ---------------------------------------------------------------------------
# the oracles of the checks that read the shuffle tables


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


# ---------------------------------------------------------------------------
# the split, one element and one p at a time


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


# the per-element bodies that split every leg again, in the order of the
# public per-element checks of hopf: reassembly, coassociativity, counit
SINGLES = (reference_split_reassembly, reference_coassociative, reference_counit)


def reference_singles(n: int):
    """hopf/coassociative-counit-singles on B_n: each per-element body on
    every element in turn."""
    ws = group_elements("B", n)
    for body in SINGLES:
        for w in ws:
            body(w)


# ---------------------------------------------------------------------------
# the dict forms of the packed comparisons


SHUFFLE_TEXTS = {
    "OmegaB": lambda a1, a2: f"type-B transform breaks shuffles at {a1} * {a2}",
    "SolA": lambda m1, m2: f"transform breaks shuffles at {mask_text(m1)} * {mask_text(m2)}",
}
COPRODUCT_TEXTS = {
    "OmegaB": lambda alpha: f"type-B transform breaks the coproduct at {alpha}",
    "SolA": lambda m: f"transform breaks the coproduct at {mask_text(m)}",
}


def theta_hopf_groups(dmax: int):
    """check_theta_hopf on dicts: per (p, q) and family the shuffle pairs,
    then per degree and family the class labels of the coproduct half."""
    bases = {f: {n: _x_coords(f, n) for n in range(1, dmax)} for f in SHUFFLE_TEXTS}
    images = {
        f: {n: {k: apply_rows(transform_coords(f, n), x) for k, x in b[n].items()} for n in b}
        for f, b in bases.items()
    }
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            for family, text in SHUFFLE_TEXTS.items():
                basis, image = bases[family], images[family]
                group, table = [], shuffle_coords(family, family, p, q)
                for k1, k2 in product(basis[p], basis[q]):
                    prod = bilinear(table, basis[p][k1], basis[q][k2])
                    left = apply_rows(transform_coords(family, p + q), prod)
                    right = bilinear(table, image[p][k1], image[q][k2])
                    group.append(((k1, k2), text(k1, k2), left, right))
                yield group
    for n in range(1, dmax + 1):
        for family, text in COPRODUCT_TEXTS.items():
            cop, rows = coproduct_coords(family, n), partial(transform_coords, family)
            yield [
                (
                    lab,
                    text(lab),
                    apply_rows(cop, rows(n)[lab]),
                    reference_map_tensor(cop[lab], n, rows),
                )
                for lab in FAMILIES[family].algebra(n).labels
            ]


def internal_compat_groups(dmax: int):
    """check_delta_internal_compat on dicts: per degree the cube cells."""
    for n in range(1, dmax + 1):
        cop = coproduct_coords("SolA", n)
        deltas = {lab: by_bidegree(t) for lab, t in cop.items()}
        yield [
            (
                (a, b),
                f"internal compatibility fails at degree {n}, {mask_text(a)} * {mask_text(b)}",
                apply_rows(cop, prod),
                reference_componentwise_internal(deltas[a], deltas[b], n),
            )
            for (a, b), prod in descent_algebra("A", n).cube.items()
        ]


def square_groups(ranks):
    """theta/square-with-sign-forgetting on dicts: per rank the S-tilde labels."""
    for n in ranks:
        phi = class_images(maps.phi, mr.t_algebra(n), descent_algebra("A", n), "sign forgetting")
        theta_pm, theta = transform_coords("OmegaB", n), transform_coords("SolA", n)
        yield [
            (
                alpha,
                f"transform square fails at {alpha}",
                apply_rows(phi, apply_rows(theta_pm, a)),
                apply_rows(theta, apply_rows(phi, a)),
            )
            for alpha, a in mr.t_coords("Stilde", n).items()
        ]


def dict_check(groups) -> int:
    """Compare the groups in order: CheckFailure with the first failing
    witness, or the number of comparisons."""
    count = 0
    for group in groups:
        for _, witness, left, right in group:
            if left != right:
                raise CheckFailure(witness)
            count += 1
    return count
