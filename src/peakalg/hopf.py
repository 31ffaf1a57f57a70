"""External (graded) structure on permutations and signed permutations.

The direct sums over n of the group algebras carry a second product,
given by shuffling block-embedded factors, and a coproduct, given by the
unique factorization of a permutation as a block pair times the inverse
of a shuffle.  Restricted to the descent algebras this is the Hopf
algebra of noncommutative symmetric functions (type A) and its type-B
relatives; the canonical ideal and the interior-peak ideal are graded
Hopf subalgebras, while the type-B descent algebra and the peak algebra
are only module coalgebras over them.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache, partial
from itertools import combinations, product
from math import comb

from .algebra import (
    AlgElem,
    Echelon,
    add_multiple,
    apply_rows,
    bilinear,
    bin_classes,
    class_images,
    first_unequal,
    leaves_span,
    merged_rows,
    packed_rows,
    pair_fibres,
)
from .bases import (
    canonical_ideal_algebra,
    descent_algebra,
    subset_to_pseudo_comp,
    x_basis,
    x_to_y_coords,
)
from . import maps
from .mr import stilde_basis, t_algebra, t_coords
from .peak import interior_peak_algebra, peak_algebra, peak_basis, peak_coordinates
from .perms import (
    CapExceeded,
    Perm,
    block_word,
    block_words,
    byte_decoder,
    byte_products,
    byte_splits,
    byte_table,
    byte_tables,
    byte_word,
    byte_words,
    group_elements,
    identity,
    leg_splitter,
    members_of,
    packer,
    split_words,
)
from .reporting import CheckFailure


@lru_cache(maxsize=None)
def shuffles(p: int, q: int) -> tuple:
    """Unsigned (p, q)-shuffles: increasing on the first p and the last q
    positions; coset representatives for the block subgroup."""
    out = []
    values = range(1, p + q + 1)
    for first in combinations(values, p):
        rest = tuple(v for v in values if v not in first)
        out.append(first + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _shuffle_tables(p: int, q: int) -> tuple:
    """The byte tables of the (p, q)-shuffles, in order."""
    return tuple(byte_tables(byte_words(shuffles(p, q), p + q), p + q))


def _joint_group(a: AlgElem, b: AlgElem) -> str:
    # degree-0 factors are scalars and do not force a group
    if a.n == 0 and b.n > 0:
        return "B" if b.group in ("B", "D") else "S"
    if b.n == 0 and a.n > 0:
        return "B" if a.group in ("B", "D") else "S"
    if a.group == b.group == "S":
        return "S"
    return "B"


EXTERNAL_DEGREE_CAP = 7
SHUFFLE_EXHAUSTIVE_TO = 5  # check_shuffle_coefficients tries every pair up to this degree


def external_product(a: AlgElem, b: AlgElem) -> AlgElem:
    """Shuffle product: sum over shuffles of the block embedding."""
    p, q = a.n, b.n
    if p + q > EXTERNAL_DEGREE_CAP:
        raise CapExceeded(f"external product capped at total degree {EXTERNAL_DEGREE_CAP}")
    group = _joint_group(a, b)
    tables = _shuffle_tables(p, q)
    embeds = block_words(byte_words(a.terms, p), byte_words(b.terms, q), p)
    # xi * (u x v) for each shuffle xi of each block pair (u, v): the
    # factorization of a product as a shuffle times a block pair is unique,
    # so no two products coincide and none has to be summed; a collision
    # (a wrong shuffle table) raises instead of keeping one coefficient
    products = map(byte_decoder(p + q), byte_products(embeds, tables))
    coeffs = [cu * cv for cu in a.terms.values() for cv in b.terms.values() for _ in tables]
    terms = dict(zip(products, coeffs))
    if len(terms) < len(coeffs):
        raise ArithmeticError(f"shuffle products coincide in degrees {p}, {q}")
    return AlgElem._raw(group, p + q, terms)


def coproduct_split(w: Perm, p: int):
    """The unique (shuffle, left block, right block) triple with
    w = (block pair) * shuffle^{-1}: the positions holding values of
    absolute value <= p, in order, form the left block."""
    left_pos, right_pos, w1, w2 = [], [], [], []
    for i, v in enumerate(w, 1):
        if -p <= v <= p:
            left_pos.append(i)
            w1.append(v)
        else:
            right_pos.append(i)
            w2.append(v - p if v > 0 else v + p)
    return tuple(left_pos + right_pos), tuple(w1), tuple(w2)


def _shuffle_word(xi: Perm, p: int) -> tuple:
    """(byte word of xi, whether xi increases on its first p and on its
    other positions), read once per pattern and p by _shuffle_plan."""
    return byte_word(xi), list(xi[:p]) == sorted(xi[:p]) and list(xi[p:]) == sorted(xi[p:])


@lru_cache(maxsize=None)
def _shuffle_plan(pattern: Perm) -> tuple:
    """The byte words of the shuffles of the splits at p = 0..n of each w
    with |w| = pattern, and whether each is a shuffle (_shuffle_word): xi
    lists the positions (from 1) of the values at most p, then the others,
    each in order, derived from the pattern apart from the byte split."""
    positions = range(1, len(pattern) + 1)
    return tuple(zip(*(
        _shuffle_word(tuple(sorted(positions, key=lambda i: pattern[i - 1] > p)), p)
        for p in range(len(pattern) + 1)
    )))


def _check_split_reassembly(w: Perm, word: bytes, lefts: list, rights: list):
    xis, shuffled = _shuffle_plan(tuple(map(abs, w)))
    # w * xi against the block pair, both as byte words
    products = byte_products(xis, [byte_table(w)])
    for p, (wxi, left, right, is_shuffle) in enumerate(zip(products, lefts, rights, shuffled)):
        if wxi != block_word(left, right):
            raise CheckFailure(f"factorization fails at w={w}, p={p}")
        if not is_shuffle:
            raise CheckFailure(f"factor is not a shuffle at w={w}, p={p}")


@lru_cache(maxsize=None)
def _coassociativity_plan(n: int) -> tuple:
    """For the pairs q <= p of rank n: their number, and the splitter of the
    left blocks at p (rank p) at q, then of the right blocks at q (rank n - q)
    at p - q, over the legs of an element (its left blocks at 0..n, then its
    right blocks), that keeps the left blocks at q, then the right blocks at p."""
    pairs = [(p, q) for p in range(n + 1) for q in range(p + 1)]
    return len(pairs), leg_splitter(
        [(p, p, q) for p, q in pairs] + [(n + 1 + q, n - q, p - q) for p, q in pairs],
        [q for _, q in pairs] + [n + 1 + p for p, _ in pairs],
    )


def _check_coassociative(w: Perm, word: bytes, lefts: list, rights: list):
    """Splitting the left block of w at q <= p, and splitting w at q and
    then its right block at p - q, give the same triple.  Each side of
    coassociativity holds one triple per length signature (q, p - q, n - p),
    so this equals comparing the two sides as multisets, and is stronger when
    a broken split gets the lengths wrong.  All legs split at once, each by its rank."""
    n = len(w)
    # the lengths of the left blocks, then, after -1, of the right blocks
    if [*map(len, lefts), -1, *map(len, rights)] != [*range(n + 1), -1, *range(n, -1, -1)]:
        raise CheckFailure(f"coassociativity fails at w={w}")
    m, split = _coassociativity_plan(n)
    # the left block at p split at q is (the left block at q, x), and the
    # right block at q split at p - q is (x, the right block at p)
    a, x, want = split(lefts + rights)
    if x[:m] != a[m:] or a[:m] + x[m:] != want:
        raise CheckFailure(f"coassociativity fails at w={w}")


def _check_counit(w: Perm, word: bytes, lefts: list, rights: list):
    if (lefts[0], rights[0]) != (b"", word):
        raise CheckFailure(f"counit (left) fails at w={w}")
    if (lefts[-1], rights[-1]) != (word, b""):
        raise CheckFailure(f"counit (right) fails at w={w}")


def check_split_reassembly(w: Perm):
    """Certify the factorization at every split point: w times the shuffle
    is the block pair, so the block pair times the inverse shuffle is w."""
    _check_split_reassembly(w, *byte_splits(w))


def check_coassociative(w: Perm):
    """(split left again) and (split right again) agree on w."""
    _check_coassociative(w, *byte_splits(w))


def check_counit(w: Perm):
    """The two extreme splits are the unit tensors."""
    _check_counit(w, *byte_splits(w))


def check_singles(w: Perm):
    """The three checks above on one byte split of w."""
    splits = byte_splits(w)
    _check_split_reassembly(w, *splits)
    _check_coassociative(w, *splits)
    _check_counit(w, *splits)


def coproduct(a: AlgElem) -> dict:
    """Sum of the block factorizations over all split points, as (left
    block, right block) -> coefficient (one-line tuples, no zero stored)."""
    if a.n > EXTERNAL_DEGREE_CAP:
        raise CapExceeded(f"coproduct capped at degree {EXTERNAL_DEGREE_CAP}")
    out: dict = {}
    for w, c in a.terms.items():
        for p in range(a.n + 1):
            _, w1, w2 = coproduct_split(w, p)
            add_multiple(out, c, {(w1, w2): 1})
    return out


# ---------------------------------------------------------------------------
# graded families


# A graded family: its class algebra in each degree (each builder looked up
# when called, so a patched or renewed one is read), its name in closure
# witnesses, the family whose classes its classes unite (None for the two
# families split element by element), and its descents-to-peaks transform
# by its name in maps (None for a family without one)
Family = namedtuple("Family", "algebra witness finer transform")

FAMILIES = {
    "SolA": Family(lambda n: descent_algebra("A", n), "type-A", None, "theta"),
    "SolB": Family(lambda n: descent_algebra("B", n), "type-B", "OmegaB", "theta_pm"),
    "I0": Family(lambda n: canonical_ideal_algebra(n), "ideal", "SolB", None),
    "OmegaB": Family(lambda n: t_algebra(n), "MR", None, "theta_pm"),
    "Peak": Family(lambda n: peak_algebra(n), "peak", "SolA", None),
    "PeakIdeal": Family(lambda n: interior_peak_algebra(n), "interior", "SolA", None),
}


# ---------------------------------------------------------------------------
# Hopf data on class coordinates
#
# Every family is closed under the coproduct; the shuffle products below
# land in the family that SHUFFLE_TARGETS names, and each transform is
# left multiplication by its image of the unit.  The coproduct of a class
# sum, the shuffle of two class sums and the transform's left_rows are
# computed once and binned; binning raises CheckFailure off the span, which
# makes building the data the closure check.  A family with a finer one
# sums the finer family's tables over its fibres (ClassAlgebra.fibres_over)
# in place of binning.  The identities then run on
# coordinate dicts, or on them packed into ints (perms.packer): class sums
# of one algebra have disjoint supports, and so have their tensor products,
# so equal coordinates mean equal elements.

# (left, right) -> the family their shuffle products land in; the type-B
# descent algebra and the peak algebra are only modules over the ideals
SHUFFLE_TARGETS = {
    ("SolA", "SolA"): "SolA",
    ("SolB", "I0"): "SolB",
    ("I0", "I0"): "I0",
    ("OmegaB", "OmegaB"): "OmegaB",
    ("Peak", "PeakIdeal"): "Peak",
    ("PeakIdeal", "PeakIdeal"): "PeakIdeal",
}


def _x_coords(family: str, n: int) -> dict:
    """label -> coordinates of the X-basis element of the label over the
    class sums in degree n: X_J sums the classes of the I inside J (for I0
    the labels are the even masks and X0_J = X_{{0} u J}), and OmegaB
    takes the S-tilde class sums."""
    if family == "OmegaB":
        return t_coords("Stilde", n)
    return {lab: x_to_y_coords({lab: 1}) for lab in FAMILIES[family].algebra(n).labels}


def _fibres(family: str, d: int) -> dict:
    """label -> the labels of the finer family that its class unites, in degree d."""
    spec = FAMILIES[family]
    return spec.algebra(d).fibres_over(FAMILIES[spec.finer].algebra(d))


@lru_cache(maxsize=None)
def coproduct_coords(family: str, n: int) -> dict:
    """label -> coproduct of the class sum, keyed (p, left label, right
    label) over the class sums of the family in degrees p and n - p.  An
    enumerated family splits the byte words of each class at each p and
    bins the tallied block pairs through the byte label maps of degrees p
    and n - p; a family with a finer one reads the table of the family
    whose classes it unites."""
    if FAMILIES[family].finer:
        return _merged_coproduct(family, n)
    algs = [FAMILIES[family].algebra(d) for d in range(n + 1)]
    class_of, size, out = [a.label_of.get for a in algs], [a.sizes.get for a in algs], {}
    for lab, ws in algs[n].classes.items():
        coords = out[lab] = {}
        for p in range(n + 1):
            tally = Counter(split_words(ws, n, p))
            lefts, rights = zip(*tally)
            pairs = zip(map(class_of[p], lefts), map(class_of[n - p], rights))
            # a block outside its group has no label, and its pair the size 0
            pc = bin_classes(
                pairs, tally.values(), lambda k: size[p](k[0], 0) * size[n - p](k[1], 0)
            )
            if pc is None:
                raise _closure_failure(family, n, lab)
            coords.update(((p, l1, l2), x) for (l1, l2), x in pc.items())
    return out


def _closure_failure(family: str, n: int, lab) -> CheckFailure:
    spec = FAMILIES[family]
    return CheckFailure(f"{spec.witness} coproduct closure fails at {spec.algebra(n).text(lab)}")


def _merged_coproduct(family: str, n: int) -> dict:
    """The coproduct of a union of classes is the sum of the finer rows
    over its fibre, and, as every finer class is non-empty, it lies in the
    family's tensor square exactly when that sum is constant on every
    pair of fibres (pair_fibres, as for ClassAlgebra._coarsened_cube)."""
    fibres = [_fibres(family, d) for d in range(n + 1)]
    pairs = {
        k: ls for p in range(n + 1) for k, ls in pair_fibres(fibres[p], fibres[n - p], p).items()
    }
    fine = coproduct_coords(FAMILIES[family].finer, n)
    return merged_rows(fine, fibres[n], pairs, partial(_closure_failure, family, n))


@lru_cache(maxsize=None)
def shuffle_coords(left: str, right: str, p: int, q: int) -> dict:
    """(left label, right label) -> shuffle product of the two class sums,
    over the class sums of SHUFFLE_TARGETS[(left, right)] in degree p + q:
    the block pairs of members (block_words) times each shuffle, tallied and
    binned, so a product off the span fails closure.  As for the cube, each
    cell must count |a| * |b| * C(p + q, p) products, so a product counted
    twice fails at its first cell."""
    target = SHUFFLE_TARGETS[(left, right)]
    alg, tables = FAMILIES[target].algebra(p + q), _shuffle_tables(p, q)
    lalg, ralg = FAMILIES[left].algebra(p), FAMILIES[right].algebra(q)
    out, size = {}, alg.sizes.get
    for l1, us in lalg.classes.items():
        for l2, vs in ralg.classes.items():
            tally = Counter(byte_products(block_words(us, vs, p), tables))
            coords = bin_classes(alg.labels_of(tally), tally.values(), size)
            total = None if coords is None else sum(c * size(lab) for lab, c in coords.items())
            if total != (want := len(us) * len(vs) * comb(p + q, p)):
                text = f"shuffle of {left} {lalg.text(l1)} and {right} {ralg.text(l2)}"
                why = f"counts {total} products, not {want}" if coords else f"leaves {target}"
                raise CheckFailure(f"{text} {why}")
            out[(l1, l2)] = coords
    return out


@lru_cache(maxsize=None)
def transform_coords(family: str, n: int) -> dict:
    """label -> the transform of the class sum, over the same class sums: the
    left_rows of its image of the unit, or, for a family with a finer one,
    the rows of the finer family summed over each fibre, which lie in its
    span when they lift."""
    spec = FAMILIES[family]
    name, alg = spec.transform, spec.algebra(n)

    def failure(lab) -> CheckFailure:
        return CheckFailure(leaves_span(name, alg.text(lab)))

    if spec.finer:
        fibres, fine = _fibres(family, n), transform_coords(spec.finer, n)
        return merged_rows(fine, fibres, fibres, failure)
    gen = getattr(maps, name)(AlgElem.unit(alg.group, n))
    unit = alg.label_of[byte_word(identity(n))]
    rows = alg.left_rows(alg.binned(gen, leaves_span(name, alg.text(unit))))
    if None in rows.values():
        raise failure(next(b for b, row in rows.items() if row is None))
    return rows


def _pair_sums(xs: dict, ys: dict, cells: dict):
    """((k1, k2), the sum of xs[k1][l1] * ys[k2][l2] * cells[l1, l2]), k1
    outer and one at a time, summed over the right factor once per (k2, l1)."""
    lefts = {l1 for x in xs.values() for l1 in x}
    halves = [
        (k2, {l1: sum(b * cells[l1, l2] for l2, b in y.items()) for l1 in lefts})
        for k2, y in ys.items()
    ]
    for k1, x in xs.items():
        for k2, h in halves:
            yield (k1, k2), sum(a * h[l] for l, a in x.items())


def _shuffle_sides(family: str, p: int, q: int):
    """((k1, k2), the transform of the shuffle of the basis elements k1 and
    k2 of degrees p and q, the shuffle of their images), packed."""
    xs, ys, table = _x_coords(family, p), _x_coords(family, q), shuffle_coords(family, family, p, q)
    rows = [transform_coords(family, d) for d in (p, q, p + q)]
    labels = FAMILIES[family].algebra(p + q).labels
    pack, _ = packer(labels, *(f.values() for f in (xs, ys, table, *rows)))
    mapped = packed_rows(table, {m: pack(row) for m, row in rows[2].items()})
    images = [{k: apply_rows(r, x) for k, x in b.items()} for r, b in zip(rows, (xs, ys))]
    right = _pair_sums(*images, {k: pack(c) for k, c in table.items()})
    return ((key, a, b) for (key, a), (_, b) in zip(_pair_sums(xs, ys, mapped), right))


def _tensor_sides(family: str, n: int, rows: list, tensors, copies: int):
    """(key, the coproduct of rows[n][key], (f x f)(tensors(key))), packed, for
    each key of rows[n] in turn: f is rows[d] in degree d, and the tensors are
    built of coproduct rows copies times.  In bidegree p, f of l1 packs with a
    block's stride and f of l2 within a block, so their product is f(l1) (x) f(l2)."""
    cop, alg = coproduct_coords(family, n), FAMILIES[family].algebra
    labels = [alg(d).labels for d in range(n + 1)]
    keys = [(p, k1, k2) for p in range(n + 1) for k1 in labels[p] for k2 in labels[n - p]]
    flat = [row for r in rows for row in r.values()]
    pack, shift = packer(keys, *[cop.values()] * copies, flat, flat)
    starts, heads, legs = [], [], []
    for p in range(n + 1):
        starts.append(shift[p, labels[p][0], labels[n - p][0]])
        at = {k: shift[p, k, labels[n - p][0]] - starts[p] for k in labels[p]}
        heads.append({lab: sum(c << at[k] for k, c in r.items()) for lab, r in rows[p].items()})
        at = {k: shift[p, labels[p][0], k] - starts[p] for k in labels[n - p]}
        legs.append({lab: sum(c << at[k] for k, c in r.items()) for lab, r in rows[n - p].items()})
    packed = {lab: pack(t) for lab, t in cop.items()}
    for key, row in rows[n].items():
        images: dict = {}
        for (p, l1, l2), c in tensors(key).items():
            images[p, l1] = images.get((p, l1), 0) + c * legs[p][l2]
        right = sum(heads[p][l1] * image << starts[p] for (p, l1), image in images.items())
        yield key, sum(c * packed[m] for m, c in row.items()), right


# ---------------------------------------------------------------------------
# generators and concatenation masks


def concat_mask_ordinary(p: int, m1: int, m2: int) -> int:
    """Label of the concatenated compositions: m1, the cut at p and m2
    shifted by p (at p = 0 the cut is 0, the pseudo-composition bit)."""
    return m1 | (1 << p) | (m2 << p)


# ---------------------------------------------------------------------------
# the section-by-section checks


def _product_text(left: str, p: int, l1, right: str, q: int, l2) -> str:
    """The product of the class sums l1 of left in degree p and l2 of right
    in degree q, as witness text."""
    return f"{FAMILIES[left].algebra(p).text(l1)} * {FAMILIES[right].algebra(q).text(l2)}"


def _check_concat(left: str, right: str, dmax: int, p0: int, concat, what: str):
    """The X-basis elements (S-tilde for OmegaB) concatenate under the
    shuffle product, read on the cached shuffle table: X_J1 * X_J2 is the
    X-basis element of concat(p, J1, J2), for p from p0 and q from 1 up to
    total degree dmax.  The witness names what, p, q and the texts of the
    first failing pair."""
    target = SHUFFLE_TARGETS[(left, right)]
    for p in range(p0, dmax):
        for q in range(1, dmax - p + 1):
            want, table = _x_coords(target, p + q), shuffle_coords(left, right, p, q)
            for l1, x in _x_coords(left, p).items():
                for l2, y in _x_coords(right, q).items():
                    if bilinear(table, x, y) != want[concat(p, l1, l2)]:
                        pair = _product_text(left, p, l1, right, q, l2)
                        raise CheckFailure(f"{what} fails at p={p}, q={q}, {pair}")


def check_sola_star(dmax: int):
    """Concatenation formula for the type-A X-basis under shuffles."""
    _check_concat("SolA", "SolA", dmax, 1, concat_mask_ordinary, "type-A concat")


def check_i0_star(dmax: int):
    _check_concat("I0", "I0", dmax, 1, concat_mask_ordinary, "ideal concat")


def check_solb_module_star(dmax: int):
    """Pseudo-composition times ideal generator concatenates."""
    _check_concat("SolB", "I0", dmax, 0, concat_mask_ordinary, "type-B module concat")


def check_omega_star(dmax: int):
    _check_concat("OmegaB", "OmegaB", dmax, 1, lambda p, a1, a2: a1 + a2, "S-tilde concat")


# the one-part generators in degree i, in check order, each with its
# witness: X_(i) of type A (the identity class), of type B (empty label),
# X0_(i) of the canonical ideal, and the S-tilde class sums of (i) and (-i);
# in degree 0 each is the unit (x0_generator's own: X0 has no rank-0 label)
GENERATORS = (
    (partial(x_basis, "A", J=0), "type-A generator coproduct fails at degree {m}"),
    (partial(x_basis, "B", J=0), "type-B generator coproduct fails at degree {m}"),
    (maps.x0_generator, "ideal generator coproduct fails at degree {m}"),
    (
        lambda i: stilde_basis(i, (i,) if i else ()),
        "S-tilde generator coproduct fails at degree {m}, sign 1",
    ),
    (
        lambda i: stilde_basis(i, (-i,) if i else ()),
        "S-tilde generator coproduct fails at degree {m}, sign -1",
    ),
)


def check_coproduct_generators(dmax: int):
    """The degreewise-split coproducts of all the one-part generators: the
    coproduct of gen(m) is the sum of gen(i) (x) gen(m - i), term by term."""
    for m in range(1, dmax + 1):
        for gen, witness in GENERATORS:
            want = Counter(
                (u, v) for i in range(m + 1) for u in gen(i).terms for v in gen(m - i).terms
            )
            if coproduct(gen(m)) != want:
                raise CheckFailure(witness.format(m=m))


def check_delta_closures(dmax: int):
    """Componentwise membership of the coproduct in family x family: the
    coproduct of every class sum of every family, binned."""
    for n in range(1, dmax + 1):
        for family in FAMILIES:
            coproduct_coords(family, n)


def _build_shuffles(left: str, right: str, dmax: int):
    """Build the shuffle tables up to total degree dmax: binning every
    product of class sums is the closure check."""
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            shuffle_coords(left, right, p, q)


def check_pint_star_closure(dmax: int):
    _build_shuffles("PeakIdeal", "PeakIdeal", dmax)


def check_peak_module_star(dmax: int):
    _build_shuffles("Peak", "PeakIdeal", dmax)


def check_peak_not_closed_witness():
    """The classical failure: the square of the one-peak class of rank 2
    is a two-term Y sum outside the rank-4 peak span."""

    prod = external_product(peak_basis(2, 0b10), peak_basis(2, 0b10))
    want = descent_algebra("A", 4).element({0b1110: 1, 0b1010: 1})
    if prod != want:
        raise CheckFailure("shuffle square of the one-peak class is wrong")
    if peak_coordinates(prod) is not None:
        raise CheckFailure("the witness unexpectedly lies in the peak span")


# the family of each descents-to-peaks transform -> its name in witnesses
_THETA_NAMES = {"OmegaB": "type-B transform", "SolA": "transform"}


def check_theta_hopf(dmax: int):
    """The descents-to-peaks transforms respect both the shuffle product
    and the coproduct.  Both identities are linear, so they are compared
    on bases, each side packed into one int per pair or class label."""
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            for family, name in _THETA_NAMES.items():
                pair = first_unequal(_shuffle_sides(family, p, q))
                if pair is not None:
                    pair = _product_text(family, p, pair[0], family, q, pair[1])
                    raise CheckFailure(f"{name} breaks shuffles at {pair}")
    for n in range(1, dmax + 1):
        for family, name in _THETA_NAMES.items():
            rows = [transform_coords(family, d) for d in range(n + 1)]
            lab = first_unequal(_tensor_sides(family, n, rows, coproduct_coords(family, n).get, 1))
            if lab is not None:
                text = FAMILIES[family].algebra(n).text(lab)
                raise CheckFailure(f"{name} breaks the coproduct at {text}")


def check_beta_via_coproduct(dmax: int):
    """The degree drop equals pairing the coproduct's left leg against
    the functional dual to the one-part generator of rank 1."""
    # eta((1)) = 1, eta((-1)) = -1, summed over each rank-1 class
    eta = {
        lab: sum(1 if u == byte_word((1,)) else -1 for u in ws)
        for lab, ws in descent_algebra("B", 1).classes.items()
    }
    for n in range(1, dmax + 1):
        src, dst = descent_algebra("B", n), descent_algebra("B", n - 1)
        drops = class_images(maps.beta_map, src, dst, "the drop")
        paired: dict = {}
        for lab, t in coproduct_coords("SolB", n).items():
            row = paired[lab] = {}
            for (p, l1, l2), c in t.items():
                if p == 1:
                    add_multiple(row, eta[l1] * c, {l2: 1})
        for m, x in _x_coords("SolB", n).items():
            if apply_rows(paired, x) != apply_rows(drops, x):
                raise CheckFailure(f"coproduct form of the drop fails at {src.text(m)}")


def check_module_morphisms(dmax: int):
    """The degree drops are morphisms of right modules over the ideals."""

    def drop(f, family: str, by: int, what: str):
        """f on coordinates from degree n of family to degree n - by, read
        on its rows; below degree by it vanishes."""
        alg = FAMILIES[family].algebra
        return lambda n, x: (
            apply_rows(class_images(f, alg(n), alg(n - by), what), x) if n >= by else {}
        )

    beta = drop(maps.beta_map, "SolB", 1, "the drop")
    pi = drop(maps.pi_map, "Peak", 2, "the projection")

    xb = {p: _x_coords("SolB", p) for p in range(0, dmax)}
    x0 = {q: _x_coords("I0", q) for q in range(1, dmax + 1)}
    for p in range(0, dmax):
        for q in range(1, dmax - p + 1):
            for m1, a in xb[p].items():
                da = beta(p, a)
                for m2, m in x0[q].items():
                    left = beta(p + q, bilinear(shuffle_coords("SolB", "I0", p, q), a, m))
                    right = bilinear(shuffle_coords("SolB", "I0", p - 1, q), da, m) if da else {}
                    if left != right:
                        pair = _product_text("SolB", p, m1, "I0", q, m2)
                        raise CheckFailure(f"drop is not a module morphism at {pair}")
            for fm in peak_algebra(p).labels:
                df = pi(p, {fm: 1})
                low = shuffle_coords("Peak", "PeakIdeal", p - 2, q) if df else {}
                for gm in interior_peak_algebra(q).labels:
                    left = pi(p + q, shuffle_coords("Peak", "PeakIdeal", p, q)[(fm, gm)])
                    right = bilinear(low, df, {gm: 1})
                    if left != right:
                        pair = _product_text("Peak", p, fm, "PeakIdeal", q, gm)
                        raise CheckFailure(f"projection is not a module morphism at {pair}")


def check_delta_internal_compat(dmax: int):
    """On the type-A descent algebra the coproduct respects the internal
    product componentwise.  Both sides are bilinear, so the identity is
    compared on each pair of class sums, their product read on the cube."""
    for n in range(1, dmax + 1):
        by_p = {
            lab: [[(l1, l2, c) for (q, l1, l2), c in t.items() if q == p] for p in range(n + 1)]
            for lab, t in coproduct_coords("SolA", n).items()
        }

        def paired(cell: tuple) -> dict:
            """The coproducts of the two class sums of a cell, bidegree by bidegree."""
            return {
                (p, (l1, k1), (l2, k2)): c * d for p in range(n + 1)
                for (l1, l2, c), (k1, k2, d) in product(by_p[cell[0]][p], by_p[cell[1]][p])
            }

        cubes = [descent_algebra("A", d).cube for d in range(n + 1)]
        pair = first_unequal(_tensor_sides("SolA", n, cubes, paired, 2))
        if pair is not None:
            pair = _product_text("SolA", n, pair[0], "SolA", n, pair[1])
            raise CheckFailure(f"internal compatibility fails at degree {n}, {pair}")


def check_free_module(dmax: int):
    """The products generator * ideal monomials are exactly the X-basis:
    the type-B descent algebra is a free right module over the ideal.
    Both the type-B generator X_(p) and the ideal generator X0_(q) are the
    class sum of the empty label, so each monomial is a chain of shuffles
    read from the cached table."""
    for n in range(1, dmax + 1):
        rows = []
        for mask, x in _x_coords("SolB", n).items():
            first, *rest = subset_to_pseudo_comp(members_of(mask), n)
            prod, degree = {0: 1}, first
            for part in rest:
                prod = bilinear(shuffle_coords("SolB", "I0", degree, part), prod, {0: 1})
                degree += part
            if prod != x:
                text = descent_algebra("B", n).text(mask)
                raise CheckFailure(f"monomial product is not X at {text}")
            rows.append(prod)
        if Echelon(rows).rank != 1 << n:
            raise CheckFailure(f"module monomials are dependent at degree {n}")


def check_shuffle_coefficients(dmax: int):
    """Shuffling two single permutations yields one term per shuffle, all
    distinct (every coefficient 1); exhaustive to total degree
    SHUFFLE_EXHAUSTIVE_TO, sampled above."""
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            us = group_elements("B", p)
            vs = group_elements("B", q)
            if p + q > SHUFFLE_EXHAUSTIVE_TO:
                us, vs = us[:: max(1, len(us) // 6)], vs[:: max(1, len(vs) // 6)]
            want = len(shuffles(p, q))
            for u, v in product(us, vs):
                prod = external_product(AlgElem._raw("B", p, {u: 1}), AlgElem._raw("B", q, {v: 1}))
                if len(prod) != want:
                    raise CheckFailure(f"shuffle of {u}, {v} has {len(prod)} terms, not {want}")
                if any(c != 1 for c in prod.terms.values()):
                    raise CheckFailure(f"shuffle terms collide at {u}, {v}")


def check_i0_sola_isomorphism(dmax: int):
    """The canonical ideal and the type-A descent algebra carry the same
    graded structure constants: their class labels coincide, and so do
    their cached shuffle and coproduct tables, cell by cell (the witness
    is the first key, type-A keys first, whose two values differ)."""
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            a, b = shuffle_coords("SolA", "SolA", p, q), shuffle_coords("I0", "I0", p, q)
            cell = first_unequal((k, a.get(k), b.get(k)) for k in [*a, *b])
            if cell is not None:
                pair = _product_text("SolA", p, cell[0], "SolA", q, cell[1])
                raise CheckFailure(f"shuffle constants differ at {pair}, p={p}, q={q}")
    for m in range(1, dmax + 1):
        a, b = coproduct_coords("SolA", m), coproduct_coords("I0", m)
        lab = first_unequal((k, a.get(k), b.get(k)) for k in [*a, *b])
        if lab is not None:
            text = FAMILIES["SolA"].algebra(m).text(lab)
            raise CheckFailure(f"coproduct constants differ at degree {m}, label {text}")
