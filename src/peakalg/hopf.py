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

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations

from .algebra import (
    ROW_TABLES,
    AlgElem,
    Echelon,
    add_multiple,
    apply_rows,
    class_images,
    label_text,
    pair_coords,
)
from .bases import (
    canonical_ideal_algebra,
    descent_algebra,
    subset_to_pseudo_comp,
    x_basis,
    x_to_y_coords,
    y_basis,
)
from .mr import stilde_basis, t_algebra, t_coords
from .peak import interior_peak_algebra, peak_algebra, peak_basis, peak_coordinates
from .perms import Perm, compose, inverse, members_of
from .reporting import CheckFailure


def block_embed(u: Perm, v: Perm) -> Perm:
    """u x v: u on the first block, v shifted up by the rank of u."""
    p = len(u)
    return tuple(u) + tuple(x + p if x > 0 else x - p for x in v)


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
    from .perms import CapExceeded

    p, q = a.n, b.n
    if p + q > EXTERNAL_DEGREE_CAP:
        raise CapExceeded(f"external product capped at total degree {EXTERNAL_DEGREE_CAP}")
    group = _joint_group(a, b)
    out: dict = {}
    shs = shuffles(p, q)
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            c = cu * cv
            base = block_embed(u, v)
            for xi in shs:
                key = compose(xi, base)
                s = out.get(key, 0) + c
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
    return AlgElem._raw(group, p + q, out)


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


def check_split_reassembly(w: Perm):
    """Certify the factorization: the block pair times the inverse
    shuffle recovers w, for every split point."""
    for p in range(len(w) + 1):
        xi, w1, w2 = coproduct_split(w, p)
        if compose(block_embed(w1, w2), inverse(xi)) != w:
            raise CheckFailure(f"factorization fails at w={w}, p={p}")
        if list(xi[:p]) != sorted(xi[:p]) or list(xi[p:]) != sorted(xi[p:]):
            raise CheckFailure(f"factor is not a shuffle at w={w}, p={p}")


@dataclass
class Tensor2:
    """A sum of two-sided tensors of group-algebra monomials, keyed by
    the pair of one-line tuples (degrees are the tuple lengths)."""

    group: str
    n: int  # total degree
    terms: dict

    @classmethod
    def zero(cls, group: str, n: int) -> "Tensor2":
        return cls(group, n, {})

    def add_term(self, u: Perm, v: Perm, c):
        key = (u, v)
        s = self.terms.get(key, 0) + c
        if s == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = s

    def __add__(self, other: "Tensor2") -> "Tensor2":
        out = Tensor2(self.group, self.n, dict(self.terms))
        for (u, v), c in other.terms.items():
            out.add_term(u, v, c)
        return out

    def scale(self, c) -> "Tensor2":
        if c == 0:
            return Tensor2.zero(self.group, self.n)
        return Tensor2(self.group, self.n, {k: c * x for k, x in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor2)
            and (self.group, self.n) == (other.group, other.n)
            and self.terms == other.terms
        )

    def bidegree(self, p: int) -> dict:
        return {k: c for k, c in self.terms.items() if len(k[0]) == p}

    def componentwise_internal(self, other: "Tensor2") -> "Tensor2":
        """Internal product in each tensor factor; mismatched bidegrees
        annihilate."""
        out: dict = {}
        for (u, v), c in self.terms.items():
            for (u2, v2), c2 in other.terms.items():
                if len(u) != len(u2) or len(v) != len(v2):
                    continue
                key = (compose(u, u2), compose(v, v2))
                s = out.get(key, 0) + c * c2
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return Tensor2(self.group, self.n, out)


def coproduct(a: AlgElem) -> Tensor2:
    """Sum of the block factorizations over all split points."""
    from .perms import CapExceeded

    if a.n > EXTERNAL_DEGREE_CAP:
        raise CapExceeded(f"coproduct capped at degree {EXTERNAL_DEGREE_CAP}")
    out = Tensor2.zero(a.group, a.n)
    for w, c in a.terms.items():
        for p in range(a.n + 1):
            _, w1, w2 = coproduct_split(w, p)
            out.add_term(w1, w2, c)
    return out


def check_coassociative(w: Perm):
    """(split left again) and (split right again) agree on w."""
    n = len(w)
    left: dict = {}
    right: dict = {}
    for p in range(n + 1):
        _, w1, w2 = coproduct_split(w, p)
        for q in range(p + 1):
            _, a, b = coproduct_split(w1, q)
            key = (a, b, w2)
            left[key] = left.get(key, 0) + 1
        for q in range(n - p + 1):
            _, b, c = coproduct_split(w2, q)
            key = (w1, b, c)
            right[key] = right.get(key, 0) + 1
    if left != right:
        raise CheckFailure(f"coassociativity fails at w={w}")


def check_counit(w: Perm):
    """The two extreme splits are the unit tensors."""
    n = len(w)
    _, w1, w2 = coproduct_split(w, 0)
    if w1 != () or w2 != w:
        raise CheckFailure(f"counit (left) fails at w={w}")
    _, w1, w2 = coproduct_split(w, n)
    if w1 != w or w2 != ():
        raise CheckFailure(f"counit (right) fails at w={w}")


# ---------------------------------------------------------------------------
# graded families


# name -> the family's class algebra in each degree
FAMILIES = {
    "SolA": partial(descent_algebra, "A"),
    "SolB": partial(descent_algebra, "B"),
    "I0": canonical_ideal_algebra,
    "OmegaB": t_algebra,
    "Peak": peak_algebra,
    "PeakIdeal": interior_peak_algebra,
}


def _class_coords(factory):
    """Membership test of a graded family of class algebras."""
    return lambda a: factory(a.n).coords(a)


FAMILY_TESTS = {
    "QS": lambda a: {} if a.group == "S" else None,
    "QB": lambda a: {} if a.group in ("B", "S") else None,
    **{name: _class_coords(factory) for name, factory in FAMILIES.items()},
}


@dataclass
class GradedElem:
    """A finitely supported element of one graded family: a family tag
    plus one group-algebra element per degree."""

    family: str
    components: dict  # degree -> AlgElem

    def __post_init__(self):
        if self.family not in FAMILY_TESTS:
            raise ValueError(f"unknown family {self.family!r}")

    def validate(self):
        test = FAMILY_TESTS[self.family]
        for deg, comp in self.components.items():
            if comp.n != deg:
                raise ValueError(f"component at degree {deg} has rank {comp.n}")
            if comp and test(comp) is None:
                raise ValueError(f"degree-{deg} component outside family {self.family}")
        return self

    def degrees(self):
        return sorted(d for d, c in self.components.items() if c)

    def component(self, d: int) -> AlgElem:
        group = "S" if self.family in ("QS", "SolA", "Peak", "PeakIdeal") else "B"
        return self.components.get(d, AlgElem.zero(group, d))

    def __add__(self, other: "GradedElem") -> "GradedElem":
        if self.family != other.family:
            raise ValueError("mixed graded families")
        out = dict(self.components)
        for d, c in other.components.items():
            out[d] = out[d] + c if d in out else c
        return GradedElem(self.family, {d: c for d, c in out.items() if c})

    def star(self, other: "GradedElem", family: str | None = None) -> "GradedElem":
        out: dict = {}
        for d1, c1 in self.components.items():
            for d2, c2 in other.components.items():
                if not c1 or not c2:
                    continue
                prod = external_product(c1, c2)
                d = d1 + d2
                out[d] = out[d] + prod if d in out else prod
        return GradedElem(family or self.family, {d: c for d, c in out.items() if c})


# ---------------------------------------------------------------------------
# Hopf data on class coordinates
#
# Every family is closed under the coproduct; the shuffle products below
# land in the family that SHUFFLE_TARGETS names, and each transform is
# multiplication by a fixed element of its family.  So the coproduct of a
# class sum, the shuffle of two class sums and the transform of a class
# sum are computed once, at element level, and binned; binning raises
# CheckFailure off the span, which makes building the data the
# element-level closure check.  The identities then run on coordinate
# dicts: class sums of one algebra have disjoint supports, and so have
# their tensor products, so equal coordinates mean equal elements.

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

# family -> the descents-to-peaks transform on it, by its name in maps
TRANSFORMS = {"SolA": "theta", "SolB": "theta_pm", "OmegaB": "theta_pm"}

# family -> its name in the closure witness
_CLOSURE_NAMES = {
    "SolA": "type-A",
    "SolB": "type-B",
    "I0": "ideal",
    "OmegaB": "MR",
    "Peak": "peak",
    "PeakIdeal": "interior",
}


def _x_coords(family: str, n: int) -> dict:
    """label -> coordinates of the X-basis element of the label over the
    class sums in degree n: X_J sums the classes of the I inside J (for I0
    the labels are the even masks and X0_J = X_{{0} u J}), and OmegaB
    takes the S-tilde class sums."""
    if family == "OmegaB":
        return t_coords("Stilde", n)
    return {lab: x_to_y_coords({lab: 1}) for lab in FAMILIES[family](n).labels}


@lru_cache(maxsize=None)
def coproduct_coords(family: str, n: int) -> dict:
    """label -> coproduct of the class sum, keyed (p, left label, right
    label) over the class sums of the family in degrees p and n - p."""
    factory = FAMILIES[family]
    out = {}
    for lab, c in factory(n).basis:
        t2 = coproduct(c)
        coords = {}
        for p in range(n + 1):
            pc = pair_coords(t2.bidegree(p), factory(p), factory(n - p))
            if pc is None:
                raise CheckFailure(
                    f"{_CLOSURE_NAMES[family]} coproduct closure fails at {label_text(lab)}"
                )
            for (l1, l2), x in pc.items():
                coords[(p, l1, l2)] = x
        out[lab] = coords
    return out


@lru_cache(maxsize=None)
def shuffle_coords(left: str, right: str, p: int, q: int) -> dict:
    """(left label, right label) -> shuffle product of the two class sums,
    over the class sums of SHUFFLE_TARGETS[(left, right)] in degree p + q."""
    target = SHUFFLE_TARGETS[(left, right)]
    alg = FAMILIES[target](p + q)
    rights = FAMILIES[right](q).basis
    return {
        (l1, l2): alg.binned(
            external_product(c1, c2),
            f"shuffle of {left} {label_text(l1)} and {right} {label_text(l2)} leaves {target}",
        )
        for l1, c1 in FAMILIES[left](p).basis
        for l2, c2 in rights
    }


@lru_cache(maxsize=None)
def transform_coords(family: str, n: int) -> dict:
    """label -> the transform of the class sum, over the same class sums."""
    from . import maps

    alg = FAMILIES[family](n)
    return class_images(getattr(maps, TRANSFORMS[family]), alg, alg, TRANSFORMS[family])


def _clear_transform_rows(clear=transform_coords.cache_clear):
    """transform_coords.cache_clear: the row tables of class_images go too,
    so a transform whose generator was changed in place is built again."""
    clear()
    ROW_TABLES.clear()


transform_coords.cache_clear = _clear_transform_rows


def _shuffle(left: str, right: str, p: int, q: int, x: dict, y: dict) -> dict:
    """Coordinates of the shuffle product of x (left, degree p) and y
    (right, degree q)."""
    table = shuffle_coords(left, right, p, q)
    out: dict = {}
    for l1, a in x.items():
        for l2, b in y.items():
            add_multiple(out, a * b, table[(l1, l2)])
    return out


def _map_tensor(t: dict, n: int, rows) -> dict:
    """f x f on tensor coordinates keyed (p, l1, l2) of total degree n,
    where rows(d) gives f in degree d: the left side, then the right."""
    mid: dict = {}
    for (p, l1, l2), c in t.items():
        add_multiple(mid, c, {(p, k1, l2): a for k1, a in rows(p)[l1].items()})
    out: dict = {}
    for (p, k1, l2), c in mid.items():
        add_multiple(out, c, {(p, k1, k2): b for k2, b in rows(n - p)[l2].items()})
    return out


# ---------------------------------------------------------------------------
# generators and concatenation masks


def x_of_pseudo_mask(p: int, mask: int) -> AlgElem:
    if p == 0:
        return AlgElem.unit("B", 0)
    return x_basis("B", p, mask)


def x0_of_mask(q: int, mask: int) -> AlgElem:
    """X_{{0} u J} in rank q; the empty rank is the unit."""
    if q == 0:
        return AlgElem.unit("B", 0)
    return x_basis("B", q, mask | 1)


def xa_of_mask(p: int, mask: int) -> AlgElem:
    if p == 0:
        return AlgElem.unit("S", 0)
    return x_basis("A", p, mask)


def concat_mask_ordinary(p: int, m1: int, m2: int) -> int:
    """Label of the concatenated compositions: m1, the cut at p and m2
    shifted by p (at p = 0 the cut is 0, the pseudo-composition bit)."""
    return m1 | (1 << p) | (m2 << p)


def _a_masks(p: int):
    if p == 0:
        return [0]
    return [m << 1 for m in range(1 << (p - 1))]


def _b_masks(p: int):
    if p == 0:
        return [0]
    return list(range(1 << p))


def _stilde(p: int, alpha) -> AlgElem:
    if p == 0:
        return AlgElem.unit("B", 0)
    return stilde_basis(p, alpha)


# ---------------------------------------------------------------------------
# the section-by-section checks


def _check_concat(left: str, right: str, dmax: int, p0: int, concat, witness):
    """The X-basis elements (S-tilde for OmegaB) concatenate under the
    shuffle product, read on the cached shuffle table: X_J1 * X_J2 is the
    X-basis element of concat(p, J1, J2), for p from p0 and q from 1 up to
    total degree dmax.  witness(p, q, J1, J2) names the first failing pair."""
    target = SHUFFLE_TARGETS[(left, right)]
    for p in range(p0, dmax):
        for q in range(1, dmax - p + 1):
            want = _x_coords(target, p + q)
            for l1, x in _x_coords(left, p).items():
                for l2, y in _x_coords(right, q).items():
                    if _shuffle(left, right, p, q, x, y) != want[concat(p, l1, l2)]:
                        raise CheckFailure(witness(p, q, l1, l2))


def _masks_witness(what: str):
    return lambda p, q, m1, m2: f"{what} fails at p={p}, q={q}, masks {bin(m1)},{bin(m2)}"


def check_sola_star(dmax: int):
    """Concatenation formula for the type-A X-basis under shuffles."""
    _check_concat(
        "SolA", "SolA", dmax, 1, concat_mask_ordinary, _masks_witness("type-A concat")
    )


def check_i0_star(dmax: int):
    _check_concat("I0", "I0", dmax, 1, concat_mask_ordinary, _masks_witness("ideal concat"))


def check_solb_module_star(dmax: int):
    """Pseudo-composition times ideal generator concatenates."""
    _check_concat(
        "SolB", "I0", dmax, 0, concat_mask_ordinary, _masks_witness("type-B module concat")
    )


def check_omega_star(dmax: int):
    _check_concat(
        "OmegaB",
        "OmegaB",
        dmax,
        1,
        lambda p, a1, a2: a1 + a2,
        lambda p, q, a1, a2: f"S-tilde concat fails at {a1} * {a2}",
    )


# the one-part generators in degree i, in check order, each with its
# witness: X_(i) of type A (the identity class), of type B (empty label),
# X0_(i) of the canonical ideal, and the S-tilde class sums of (i) and (-i)
GENERATORS = (
    (partial(xa_of_mask, mask=0), "type-A generator coproduct fails at degree {m}"),
    (partial(x_of_pseudo_mask, mask=0), "type-B generator coproduct fails at degree {m}"),
    (partial(x0_of_mask, mask=0), "ideal generator coproduct fails at degree {m}"),
    (lambda i: _stilde(i, (i,)), "S-tilde generator coproduct fails at degree {m}, sign 1"),
    (lambda i: _stilde(i, (-i,)), "S-tilde generator coproduct fails at degree {m}, sign -1"),
)


def check_coproduct_generators(dmax: int):
    """The degreewise-split coproducts of all the one-part generators: the
    coproduct of gen(m) is the sum of gen(i) (x) gen(m - i), term by term."""
    for m in range(1, dmax + 1):
        for gen, witness in GENERATORS:
            top = gen(m)
            want = Tensor2.zero(top.group, m)
            for i in range(m + 1):
                for u in gen(i).terms:
                    for v in gen(m - i).terms:
                        want.add_term(u, v, 1)
            if coproduct(top) != want:
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
    want = y_basis("A", 4, 0b1110) + y_basis("A", 4, 0b1010)
    if prod != want:
        raise CheckFailure("shuffle square of the one-peak class is wrong")
    if peak_coordinates(prod) is not None:
        raise CheckFailure("the witness unexpectedly lies in the peak span")


def check_theta_hopf(dmax: int):
    """The descents-to-peaks transforms respect both the shuffle product
    and the coproduct."""
    stilde = {n: _x_coords("OmegaB", n) for n in range(1, dmax + 1)}
    xa = {n: _x_coords("SolA", n) for n in range(1, dmax + 1)}
    bases = {"OmegaB": stilde, "SolA": xa}
    images = {
        family: {
            n: {k: apply_rows(transform_coords(family, n), x) for k, x in basis[n].items()}
            for n in basis
        }
        for family, basis in bases.items()
    }

    def breaks_shuffles(family, p, q, k1, k2):
        basis, image = bases[family], images[family]
        prod = _shuffle(family, family, p, q, basis[p][k1], basis[q][k2])
        left = apply_rows(transform_coords(family, p + q), prod)
        return left != _shuffle(family, family, p, q, image[p][k1], image[q][k2])

    def breaks_coproduct(family, n, k):
        cop = coproduct_coords(family, n)
        left = apply_rows(cop, images[family][n][k])
        delta = apply_rows(cop, bases[family][n][k])
        return left != _map_tensor(delta, n, partial(transform_coords, family))

    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            for a1 in stilde[p]:
                for a2 in stilde[q]:
                    if breaks_shuffles("OmegaB", p, q, a1, a2):
                        raise CheckFailure(f"type-B transform breaks shuffles at {a1}, {a2}")
            for m1 in xa[p]:
                for m2 in xa[q]:
                    if breaks_shuffles("SolA", p, q, m1, m2):
                        raise CheckFailure(
                            f"transform breaks shuffles at masks {bin(m1)}, {bin(m2)}"
                        )
    for n in range(1, dmax + 1):
        for alpha in stilde[n]:
            if breaks_coproduct("OmegaB", n, alpha):
                raise CheckFailure(f"type-B transform breaks the coproduct at {alpha}")
        for m in xa[n]:
            if breaks_coproduct("SolA", n, m):
                raise CheckFailure(f"transform breaks the coproduct at mask {bin(m)}")


def check_beta_via_coproduct(dmax: int):
    """The degree drop equals pairing the coproduct's left leg against
    the functional dual to the one-part generator of rank 1."""
    from .maps import beta_map

    # eta((1)) = 1, eta((-1)) = -1, summed over each rank-1 class
    eta = {
        lab: sum(1 if u == (1,) else -1 for u in ws)
        for lab, ws in descent_algebra("B", 1).classes.items()
    }
    for n in range(1, dmax + 1):
        src, dst = descent_algebra("B", n), descent_algebra("B", n - 1)
        drops = class_images(beta_map, src, dst, "the drop")
        paired: dict = {}
        for lab, t in coproduct_coords("SolB", n).items():
            row = paired[lab] = {}
            for (p, l1, l2), c in t.items():
                if p == 1:
                    add_multiple(row, eta[l1] * c, {l2: 1})
        for m, x in _x_coords("SolB", n).items():
            if apply_rows(paired, x) != apply_rows(drops, x):
                raise CheckFailure(f"coproduct form of the drop fails at mask {bin(m)}")


def check_module_morphisms(dmax: int):
    """The degree drops are morphisms of right modules over the ideals."""
    from .maps import beta_map, pi_map

    def drop(f, family: str, by: int, what: str):
        """f on coordinates from degree n of family to degree n - by, read
        on its rows; below degree by it vanishes."""
        alg = FAMILIES[family]
        return lambda n, x: (
            apply_rows(class_images(f, alg(n), alg(n - by), what), x) if n >= by else {}
        )

    beta, pi = drop(beta_map, "SolB", 1, "the drop"), drop(pi_map, "Peak", 2, "the projection")

    xb = {p: _x_coords("SolB", p) for p in range(0, dmax)}
    x0 = {q: _x_coords("I0", q) for q in range(1, dmax + 1)}
    for p in range(0, dmax):
        for q in range(1, dmax - p + 1):
            for m1, a in xb[p].items():
                da = beta(p, a)
                for m2, m in x0[q].items():
                    left = beta(p + q, _shuffle("SolB", "I0", p, q, a, m))
                    right = _shuffle("SolB", "I0", p - 1, q, da, m) if da else {}
                    if left != right:
                        raise CheckFailure(
                            f"drop is not a module morphism at masks {bin(m1)}, {bin(m2)}"
                        )
            for fm in peak_algebra(p).labels:
                df = pi(p, {fm: 1})
                for gm in interior_peak_algebra(q).labels:
                    left = pi(p + q, shuffle_coords("Peak", "PeakIdeal", p, q)[(fm, gm)])
                    right = _shuffle("Peak", "PeakIdeal", p - 2, q, df, {gm: 1}) if df else {}
                    if left != right:
                        raise CheckFailure(
                            f"projection is not a module morphism at {bin(fm)}, {bin(gm)}"
                        )


def check_delta_internal_compat(dmax: int):
    """On the type-A descent algebra the coproduct respects the internal
    product componentwise."""
    for n in range(1, dmax + 1):
        alg = descent_algebra("A", n)
        cop = coproduct_coords("SolA", n)
        elems = list(_x_coords("SolA", n).values())
        deltas = [_by_bidegree(apply_rows(cop, e)) for e in elems]
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                left = apply_rows(cop, alg.product(a, b))
                if left != _componentwise_internal(deltas[i], deltas[j], n):
                    raise CheckFailure(
                        f"internal compatibility fails at degree {n}, pair ({i},{j})"
                    )


def _by_bidegree(t: dict) -> dict:
    out: dict = {}
    for (p, l1, l2), c in t.items():
        out.setdefault(p, {})[(l1, l2)] = c
    return out


def _componentwise_internal(s: dict, t: dict, n: int) -> dict:
    """Internal product in each tensor factor of type-A tensor coordinates
    grouped by bidegree (read from the structure cubes); mismatched
    bidegrees annihilate."""
    out: dict = {}
    for p, sp in s.items():
        tp = t.get(p)
        if not tp:
            continue
        left_cube = descent_algebra("A", p).cube
        right_cube = descent_algebra("A", n - p).cube
        for (l1, l2), c in sp.items():
            for (k1, k2), d in tp.items():
                right = right_cube[(l2, k2)]
                for a1, x in left_cube[(l1, k1)].items():
                    add_multiple(out, c * d * x, {(p, a1, a2): y for a2, y in right.items()})
    return out


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
                prod = _shuffle("SolB", "I0", degree, part, prod, {0: 1})
                degree += part
            if prod != x:
                raise CheckFailure(f"monomial product is not X at mask {bin(mask)}")
            rows.append(prod)
        if Echelon(rows).rank != 1 << n:
            raise CheckFailure(f"module monomials are dependent at degree {n}")


def check_shuffle_coefficients(dmax: int):
    """Shuffling two single permutations yields all-distinct terms (every
    coefficient 1); exhaustive to total degree SHUFFLE_EXHAUSTIVE_TO, sampled above."""
    from .perms import group_elements

    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            us = group_elements("B", p)
            vs = group_elements("B", q)
            if p + q > SHUFFLE_EXHAUSTIVE_TO:
                us, vs = us[:: max(1, len(us) // 6)], vs[:: max(1, len(vs) // 6)]
            want = len(shuffles(p, q))
            for u in us:
                for v in vs:
                    prod = external_product(
                        AlgElem.monomial("B", p, u), AlgElem.monomial("B", q, v)
                    )
                    if len(prod) != want or any(c != 1 for c in prod.terms.values()):
                        raise CheckFailure(f"shuffle terms collide at {u}, {v}")


def _first_difference(a: dict, b: dict):
    """The first key of a, then of b, whose values differ, or None."""
    return next((k for k in [*a, *b] if a.get(k) != b.get(k)), None)


def check_i0_sola_isomorphism(dmax: int):
    """The canonical ideal and the type-A descent algebra carry the same
    graded structure constants: their class labels coincide, and so do
    their cached shuffle and coproduct tables, cell by cell."""
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            cell = _first_difference(
                shuffle_coords("SolA", "SolA", p, q), shuffle_coords("I0", "I0", p, q)
            )
            if cell is not None:
                raise CheckFailure(
                    f"shuffle constants differ at {bin(cell[0])} * {bin(cell[1])}, "
                    f"p={p}, q={q}"
                )
    for m in range(1, dmax + 1):
        lab = _first_difference(coproduct_coords("SolA", m), coproduct_coords("I0", m))
        if lab is not None:
            raise CheckFailure(f"coproduct constants differ at degree {m}, label {bin(lab)}")
