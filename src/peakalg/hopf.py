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

from .algebra import AlgElem, pair_coords
from .bases import (
    descent_algebra,
    descent_coordinates,
    descent_span_rank,
    subset_to_pseudo_comp,
    x_basis,
    y_basis,
    y_to_x_coords,
)
from .mr import signed_compositions, stilde_basis, t_algebra
from .peak import (
    interior_peak_algebra,
    interior_peak_coordinates,
    interior_peak_elements,
    peak_algebra,
    peak_basis,
    peak_coordinates,
    peak_elements,
)
from .perms import Perm, compose, inverse
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
    n = len(w)
    left_pos = [i for i, v in enumerate(w) if abs(v) <= p]
    right_pos = [i for i, v in enumerate(w) if abs(v) > p]
    xi = tuple(i + 1 for i in left_pos) + tuple(i + 1 for i in right_pos)
    w1 = tuple(w[i] for i in left_pos)
    w2 = tuple(w[i] - p if w[i] > 0 else w[i] + p for i in right_pos)
    return xi, w1, w2


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

    def map_sides(self, f, g) -> "Tensor2":
        """Apply linear maps to the two sides (monomial by monomial,
        memoized per distinct monomial)."""
        out: dict = {}
        fcache: dict = {}
        gcache: dict = {}
        for (u, v), c in self.terms.items():
            fu = fcache.get(u)
            if fu is None:
                fu = fcache[u] = f(AlgElem.monomial(self.group, len(u), u))
            gv = gcache.get(v)
            if gv is None:
                gv = gcache[v] = g(AlgElem.monomial(self.group, len(v), v))
            for u2, cu in fu.terms.items():
                ccu = c * cu
                for v2, cv in gv.terms.items():
                    key = (u2, v2)
                    s = out.get(key, 0) + ccu * cv
                    if s == 0:
                        out.pop(key, None)
                    else:
                        out[key] = s
        deg = 0
        for u2, v2 in out:
            deg = len(u2) + len(v2)
            break
        return Tensor2(self.group, deg if out else self.n, out)

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


def _i0_coords(a: AlgElem):
    if a.n == 0:  # the empty rank is the unit coefficient line
        return {0: a.coeff(())} if a else {}
    y = descent_coordinates(a, "B")
    if y is None:
        return None
    x = y_to_x_coords(y)
    if any(not m & 1 for m in x):
        return None
    return x


def _class_coords(factory):
    """Membership test of a graded family of class algebras."""
    return lambda a: factory(a.n).coords(a)


FAMILY_TESTS = {
    "QS": lambda a: {} if a.group == "S" else None,
    "QB": lambda a: {} if a.group in ("B", "S") else None,
    "SolA": _class_coords(partial(descent_algebra, "A")),
    "SolB": _class_coords(partial(descent_algebra, "B")),
    "OmegaB": _class_coords(t_algebra),
    "Peak": _class_coords(peak_algebra),
    "PeakIdeal": _class_coords(interior_peak_algebra),
    "I0": _i0_coords,
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
# tensor-component membership by pair binning


def tensor_coords(t2: Tensor2, p: int, factory):
    """Pair binning of the bidegree-(p, n-p) component of t2 over the class
    algebras factory(p) and factory(n - p); None off their tensor span."""
    return pair_coords(t2.bidegree(p), factory(p), factory(t2.n - p))


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


def tensor_i0_pair_coords(t2: Tensor2, p: int):
    """X-basis pair coordinates restricted to the canonical ideal on both
    sides (degree-0 sides count as the unit line)."""
    ycoords = tensor_coords(t2, p, partial(descent_algebra, "B"))
    if ycoords is None:
        return None
    xcoords = _double_y_to_x(ycoords)
    q = t2.n - p
    for ml, mr in xcoords:
        if (p > 0 and not ml & 1) or (q > 0 and not mr & 1):
            return None
    return xcoords


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
    """Label of the concatenated ordinary compositions."""
    if p == 0:
        return m2
    if m2 is None:
        return m1
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


def check_sola_star(dmax: int):
    """Concatenation formula for the type-A X-basis under shuffles."""
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            for m1 in _a_masks(p):
                for m2 in _a_masks(q):
                    got = external_product(xa_of_mask(p, m1), xa_of_mask(q, m2))
                    want = x_basis("A", p + q, concat_mask_ordinary(p, m1, m2))
                    if got != want:
                        raise CheckFailure(
                            f"type-A concat fails at p={p}, q={q}, masks {bin(m1)},{bin(m2)}"
                        )


def check_i0_star(dmax: int):
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            for m1 in _a_masks(p):
                for m2 in _a_masks(q):
                    got = external_product(x0_of_mask(p, m1), x0_of_mask(q, m2))
                    want_mask = (m1 | 1) | (1 << p) | (m2 << p)
                    want = x_basis("B", p + q, want_mask)
                    if got != want:
                        raise CheckFailure(
                            f"ideal concat fails at p={p}, q={q}, masks {bin(m1)},{bin(m2)}"
                        )


def check_solb_module_star(dmax: int):
    """Pseudo-composition times ideal generator concatenates."""
    for p in range(0, dmax):
        for q in range(1, dmax - p + 1):
            for m1 in _b_masks(p):
                for m2 in _a_masks(q):
                    got = external_product(x_of_pseudo_mask(p, m1), x0_of_mask(q, m2))
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


def check_omega_star(dmax: int):
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            for a1 in signed_compositions(p):
                for a2 in signed_compositions(q):
                    got = external_product(_stilde(p, a1), _stilde(q, a2))
                    want = stilde_basis(p + q, a1 + a2)
                    if got != want:
                        raise CheckFailure(f"S-tilde concat fails at {a1} * {a2}")


def check_coproduct_generators(dmax: int):
    """The degreewise-split coproducts of all the one-part generators."""
    for m in range(1, dmax + 1):
        # type A: X_(m) is the identity class
        got = coproduct(xa_of_mask(m, 0))
        want = Tensor2.zero("S", m)
        for i in range(m + 1):
            from .perms import identity

            want.add_term(identity(i), identity(m - i), 1)
        if got != want:
            raise CheckFailure(f"type-A generator coproduct fails at degree {m}")
        # type B: X_(m) with empty label
        got = coproduct(x_of_pseudo_mask(m, 0))
        want = Tensor2.zero("B", m)
        for i in range(m + 1):
            for u in x_of_pseudo_mask(i, 0).terms:
                for v in x_of_pseudo_mask(m - i, 0).terms:
                    want.add_term(u, v, 1)
        if got != want:
            raise CheckFailure(f"type-B generator coproduct fails at degree {m}")
        # canonical ideal: X0_(m)
        got = coproduct(x0_of_mask(m, 0))
        want = Tensor2.zero("B", m)
        for i in range(m + 1):
            for u in x0_of_mask(i, 0).terms:
                for v in x0_of_mask(m - i, 0).terms:
                    want.add_term(u, v, 1)
        if got != want:
            raise CheckFailure(f"ideal generator coproduct fails at degree {m}")
        # Mantaci-Reutenauer: both signs
        for sign in (1, -1):
            got = coproduct(_stilde(m, (sign * m,)))
            want = Tensor2.zero("B", m)
            for i in range(m + 1):
                left = _stilde(i, (sign * i,) if i else ())
                right = _stilde(m - i, (sign * (m - i),) if m - i else ())
                for u in left.terms:
                    for v in right.terms:
                        want.add_term(u, v, 1)
            if got != want:
                raise CheckFailure(
                    f"S-tilde generator coproduct fails at degree {m}, sign {sign}"
                )


def check_delta_closures(dmax: int):
    """Componentwise membership of the coproduct in family x family."""

    def in_classes(factory):
        return lambda t2, p: tensor_coords(t2, p, factory)

    families = (
        ("type-A", lambda n: [(f"mask {bin(m)}", x_basis("A", n, m)) for m in _a_masks(n)],
         in_classes(partial(descent_algebra, "A"))),
        ("type-B", lambda n: [(f"mask {bin(m)}", x_basis("B", n, m)) for m in _b_masks(n)],
         in_classes(partial(descent_algebra, "B"))),
        ("ideal", lambda n: [(f"mask {bin(m)}", x0_of_mask(n, m)) for m in _a_masks(n)],
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
                if any(test(t2, p) is None for p in range(n + 1)):
                    raise CheckFailure(f"{name} coproduct closure fails at {label}")


def check_pint_star_closure(dmax: int):
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            for fm, pf in interior_peak_elements(p):
                for gm, pg in interior_peak_elements(q):
                    prod = external_product(pf, pg)
                    if interior_peak_coordinates(prod) is None:
                        raise CheckFailure(
                            f"interior shuffle closure fails at {bin(fm)} * {bin(gm)}"
                        )


def check_peak_module_star(dmax: int):
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            for fm, pf in peak_elements(p):
                for gm, pg in interior_peak_elements(q):
                    prod = external_product(pf, pg)
                    if peak_coordinates(prod) is None:
                        raise CheckFailure(
                            f"peak module closure fails at {bin(fm)} * {bin(gm)}"
                        )


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
    from .maps import theta, theta_pm
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            for a1 in signed_compositions(p):
                for a2 in signed_compositions(q):
                    left = theta_pm(external_product(_stilde(p, a1), _stilde(q, a2)))
                    right = external_product(theta_pm(_stilde(p, a1)), theta_pm(_stilde(q, a2)))
                    if left != right:
                        raise CheckFailure(f"type-B transform breaks shuffles at {a1}, {a2}")
            for m1 in _a_masks(p):
                for m2 in _a_masks(q):
                    left = theta(external_product(xa_of_mask(p, m1), xa_of_mask(q, m2)))
                    right = external_product(theta(xa_of_mask(p, m1)), theta(xa_of_mask(q, m2)))
                    if left != right:
                        raise CheckFailure(
                            f"transform breaks shuffles at masks {bin(m1)}, {bin(m2)}"
                        )
    for n in range(1, dmax + 1):
        for alpha in signed_compositions(n):
            a = stilde_basis(n, alpha)
            if coproduct(theta_pm(a)) != coproduct(a).map_sides(theta_pm, theta_pm):
                raise CheckFailure(f"type-B transform breaks the coproduct at {alpha}")
        for m in _a_masks(n):
            a = x_basis("A", n, m)
            if coproduct(theta(a)) != coproduct(a).map_sides(theta, theta):
                raise CheckFailure(f"transform breaks the coproduct at mask {bin(m)}")


def check_beta_via_coproduct(dmax: int):
    """The degree drop equals pairing the coproduct's left leg against
    the functional dual to the one-part generator of rank 1."""
    from .maps import beta_map

    for n in range(1, dmax + 1):
        for m in _b_masks(n):
            a = x_basis("B", n, m)
            comp = coproduct(a).bidegree(1)
            out = AlgElem.zero("B", n - 1)
            for (u, v), c in comp.items():
                eta = 1 if u == (1,) else -1  # eta((1)) = 1, eta((-1)) = -1
                out += AlgElem.monomial("B", n - 1, v, c * eta)
            if out != beta_map(a):
                raise CheckFailure(f"coproduct form of the drop fails at mask {bin(m)}")


def check_module_morphisms(dmax: int):
    """The degree drops are morphisms of right modules over the ideals."""
    from .maps import beta_map, pi_map

    def beta_graded(a):
        return AlgElem.zero("B", 0) if a.n == 0 else beta_map(a)

    def pi_graded(a):
        return AlgElem.zero("S", max(a.n - 2, 0)) if a.n < 2 else pi_map(a)

    def same(left, right):
        # a vanishing drop has no home degree, so zeros compare loosely
        return left == right or (not left and not right)

    for p in range(0, dmax):
        for q in range(1, dmax - p + 1):
            for m1 in _b_masks(p):
                a = x_of_pseudo_mask(p, m1)
                for m2 in _a_masks(q):
                    m = x0_of_mask(q, m2)
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


def check_delta_internal_compat(dmax: int):
    """On the type-A descent algebra the coproduct respects the internal
    product componentwise."""
    for n in range(1, dmax + 1):
        elems = [x_basis("A", n, m) for m in _a_masks(n)]
        deltas = [coproduct(e) for e in elems]
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                if coproduct(a * b) != deltas[i].componentwise_internal(deltas[j]):
                    raise CheckFailure(
                        f"internal compatibility fails at degree {n}, pair ({i},{j})"
                    )


def check_free_module(dmax: int):
    """The products generator * ideal monomials are exactly the X-basis:
    the type-B descent algebra is a free right module over the ideal."""

    for n in range(1, dmax + 1):
        elems = []
        for mask in _b_masks(n):
            parts = subset_to_pseudo_comp(
                [i for i in range(n) if mask >> i & 1], n
            )
            prod = x_of_pseudo_mask(parts[0], 0)
            acc = parts[0]
            for part in parts[1:]:
                prod = external_product(prod, x0_of_mask(part, 0))
                acc += part
            if prod != x_basis("B", n, mask):
                raise CheckFailure(f"monomial product is not X at mask {bin(mask)}")
            elems.append(prod)
        if descent_span_rank(elems, "B") != 1 << n:
            raise CheckFailure(f"module monomials are dependent at degree {n}")


def check_shuffle_coefficients(dmax: int, exhaustive_to: int = 5):
    """Shuffling two single permutations yields all-distinct terms (every
    coefficient 1); exhaustive on low total degree, sampled above."""
    from .perms import group_elements

    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            us = group_elements("B", p)
            vs = group_elements("B", q)
            if p + q > exhaustive_to:
                us, vs = us[:: max(1, len(us) // 6)], vs[:: max(1, len(vs) // 6)]
            want = len(shuffles(p, q))
            for u in us:
                for v in vs:
                    prod = external_product(
                        AlgElem.monomial("B", p, u), AlgElem.monomial("B", q, v)
                    )
                    if len(prod) != want or any(c != 1 for c in prod.terms.values()):
                        raise CheckFailure(f"shuffle terms collide at {u}, {v}")


def check_i0_sola_isomorphism(dmax: int):
    """The canonical ideal and the type-A descent algebra carry the same
    graded structure constants on corresponding generators: products
    concatenate labels identically, and the generator coproducts split
    with the same (all-one) coefficients over matching bidegrees."""
    for p in range(1, dmax):
        for q in range(1, dmax - p + 1):
            for m1 in _a_masks(p):
                for m2 in _a_masks(q):
                    want = concat_mask_ordinary(p, m1, m2)
                    got_a = external_product(xa_of_mask(p, m1), xa_of_mask(q, m2))
                    coords_a = y_to_x_coords(descent_coordinates(got_a, "A"))
                    got_i = external_product(x0_of_mask(p, m1), x0_of_mask(q, m2))
                    coords_i = y_to_x_coords(descent_coordinates(got_i, "B"))
                    if coords_a != {want: 1}:
                        raise CheckFailure(f"type-A product constants differ at {bin(want)}")
                    if coords_i != {want | 1: 1}:
                        raise CheckFailure(f"ideal product constants differ at {bin(want)}")
    for m in range(1, dmax + 1):
        t_a = coproduct(xa_of_mask(m, 0))
        t_i = coproduct(x0_of_mask(m, 0))
        for i in range(m + 1):
            j = m - i
            comp_a = t_a.bidegree(i)
            comp_i = t_i.bidegree(i)
            want_a = {}
            for u in xa_of_mask(i, 0).terms:
                for v in xa_of_mask(j, 0).terms:
                    want_a[(u, v)] = 1
            want_i = {}
            for u in x0_of_mask(i, 0).terms:
                for v in x0_of_mask(j, 0).terms:
                    want_i[(u, v)] = 1
            if comp_a != want_a or comp_i != want_i:
                raise CheckFailure(
                    f"generator coproducts differ at degree {m}, split {i}+{j}"
                )
