"""The element-level oracles of the tests, shared by several modules.

The package does not call these: they restate, from the basis elements
alone, facts the checks under test read from class coordinates.  The
elimination oracle is the sparse Fraction echelon form and the dense
Fraction determinant that the integer core of peakalg.algebra replaced;
it runs no code of that core.  A class algebra holds its members as byte
words, and members decodes them here, not through peakalg.perms.

The oracles of the verify checks live in the modules of this package by
layer (rows, hopf, diagrams), the separate statements of the closed forms
in forms, and registry maps each check ID to its oracle.
"""

from fractions import Fraction
from functools import lru_cache

from peakalg.algebra import AlgElem, ClassAlgebra, bin_classes
from peakalg.bases import descent_algebra, descent_coordinates
from peakalg.commutative import (
    _choose,
    i0_number_algebra,
    interior_peak_number,
    peak_number,
    x0_number,
    x_number,
    y0_number,
    y_number,
)
from peakalg.hopf import FAMILIES, SHUFFLE_TARGETS, external_product, shuffles
from peakalg.peak import interior_peak_algebra
from peakalg.perms import compose, descent_mask, group_elements, interior_peak_mask, peak_mask, popcount
from peakalg.reporting import CheckFailure


def members(alg: ClassAlgebra) -> dict:
    """Label -> the members of its class in alg as signed tuples: byte b of
    a member word is the value b below 128 and b - 256 from 128 up."""
    return {
        lab: tuple(tuple(b - 256 if b > 127 else b for b in w) for w in ws)
        for lab, ws in alg.classes.items()
    }


def block_embed(u, v) -> tuple:
    """u x v: u on the first block, v shifted up by the rank of u."""
    p = len(u)
    return tuple(u) + tuple(x + p if x > 0 else x - p for x in v)


# ---------------------------------------------------------------------------
# the elimination oracle, on Fraction


def add_multiple(vec: dict, c, row: dict):
    """vec += c * row in place, dropping the entries that cancel."""
    for k, x in row.items():
        s = vec.get(k, 0) + c * x
        if s == 0:
            vec.pop(k, None)
        else:
            vec[k] = s


class Echelon:
    """Incremental echelon form of sparse rational rows (dicts).  The pivot
    of a reduced row is its least key; a row may carry a combination dict
    that is reduced alongside it."""

    def __init__(self, rows=()):
        self.pivots = []  # (pivot key, normalized row, normalized combination)
        for row in rows:
            self.add(row)

    def reduce(self, vec: dict, combo: dict | None = None):
        for key, pvec, pcombo in self.pivots:
            c = vec.get(key)
            if not c:
                continue
            add_multiple(vec, -c, pvec)
            if combo is not None:
                add_multiple(combo, -c, pcombo)

    def add(self, row: dict, combo: dict | None = None) -> bool:
        """Reduce row against the span and keep it; True if the rank grew."""
        vec = {k: v for k, v in row.items() if v != 0}
        self.reduce(vec, combo)
        if not vec:
            return False
        key = min(vec)
        inv = Fraction(1) / Fraction(vec[key])
        scaled = vec if inv == 1 else {k: inv * v for k, v in vec.items()}
        self.pivots.append((key, scaled, {i: inv * c for i, c in (combo or {}).items()}))
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


def reference_coords(rows, target: dict):
    """The coordinates of target over rows (a list of Fractions), or None
    off their span: each row enters with the combination {its index: 1}."""
    span = Echelon()
    for idx, row in enumerate(rows):
        span.add(row, {idx: Fraction(1)})
    vec = {k: v for k, v in target.items() if v != 0}
    combo: dict = {}
    span.reduce(vec, combo)
    if vec:
        return None
    out = [Fraction(0)] * len(rows)
    for i, c in combo.items():
        out[i] = -c
    return out


def reference_det(rows) -> Fraction:
    """Determinant of a square matrix of rationals, by exact elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("matrix is not square")
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, size):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


# ---------------------------------------------------------------------------
# spans and coordinates


def descent_span_rank(elems, ctype: str) -> int:
    """Rank of a family known to lie in the descent algebra, computed on
    exact Y-coordinates (raises if some element falls outside)."""
    rows = []
    for a in elems:
        coords = descent_coordinates(a, ctype)
        if coords is None:
            raise ValueError("element outside the descent algebra")
        rows.append(coords)
    return Echelon(rows).rank


def a_descent_number(n: int, j: int):
    """Sum of the unsigned permutations with j type-A descents."""
    alg = descent_algebra("A", n)
    return alg.element({m: 1 for m in alg.labels if popcount(m) == j})


# ---------------------------------------------------------------------------
# the graded builders, element by element


def sol_family(n: int) -> list:
    return [(f"y_{j}", y_number(n, j)) for j in range(n + 1)]


def i0_number_family(n: int) -> list:
    return [(f"y0_{j}", y0_number(n, j)) for j in range(1, n + 1)]


def wp_family(n: int) -> list:
    return [(f"p_{j}", peak_number(n, j)) for j in range(n // 2 + 1)]


def wp_interior_family(n: int) -> list:
    return [(f"p0_{j}", interior_peak_number(n, j)) for j in range(1, (n + 1) // 2 + 1)]


def reference_builder_relations(n: int):
    """The binomial change of spanning sets, each count sum as the sum of
    the elements of its count, and the rewritten forms of the ideal sums,
    on the builders' elements."""
    for x, y, lo, tag in ((x_number, y_number, 0, ""), (x0_number, y0_number, 1, "0")):
        for j in range(lo, n + 1):
            terms = (y(n, i).scale(_choose(n - i, j - i)) for i in range(lo, j + 1))
            if x(n, j) != sum(terms, AlgElem.zero("B", n)):
                raise CheckFailure(f"x{tag}_{j} != binomial sum of y{tag}_i at n={n}")
    if x_number(n, n) != x0_number(n, n):
        raise CheckFailure(f"x_n != x0_n at n={n}")
    # element by element: the i-th sum of a family (counted from 0) holds
    # exactly the elements whose statistic is i
    def descents(w, drop=0):
        return popcount(descent_mask(w, "B") & ~drop)

    for family, group, stat, what in (
        (sol_family(n), "B", descents, "y_j is not the sum of the classes of j descents"),
        (
            i0_number_family(n),
            "B",
            lambda w: descents(w, 1),
            "y0_j is not the sum over j-1 descents besides 0",
        ),
        (wp_family(n), "S", lambda u: popcount(peak_mask(u)), "p_j is not the sum of the classes of j peaks"),
        (
            wp_interior_family(n),
            "S",
            lambda u: popcount(interior_peak_mask(u)),
            "interior p_j is not the sum over j-1 peaks besides 1",
        ),
    ):
        members = [[] for _ in family]
        for w in group_elements(group, n):
            members[stat(w)].append(w)
        if any(e != AlgElem.class_sum(group, n, ws) for (_, e), ws in zip(family, members)):
            raise CheckFailure(f"{what} at n={n}")
    # rewritten forms: y0_j over #(J \ {0}) = j-1 against the sums of the
    # Y_{{0} u J} + Y_J, interior p_j over #(F \ {1}) = j-1 against the
    # classes of j-1 interior peaks
    for j in range(1, n + 1):
        if y0_number(n, j) != i0_number_algebra(n).element({j - 1: 1}):
            raise CheckFailure(f"y0_{j} rewritten form fails at n={n}")
    interior = interior_peak_algebra(n)
    for j in range(1, (n + 1) // 2 + 1):
        direct = interior.element({m: 1 for m in interior.labels if popcount(m) == j - 1})
        if interior_peak_number(n, j) != direct:
            raise CheckFailure(f"interior p_{j} rewritten form fails at n={n}")


def bidegree(t2, p: int) -> dict:
    """The component of a tensor {(u, v): c} (hopf.coproduct) whose left
    factors have degree p."""
    return {k: c for k, c in t2.items() if len(k[0]) == p}


def pair_coords(component: dict, left: ClassAlgebra, right: ClassAlgebra):
    """Coordinates of a tensor component {(u, v): c} over the tensor
    products of the class sums of left and right, or None: a pair with a
    term outside a group has the size 0."""
    label1, label2 = _element_labels(left), _element_labels(right)
    pairs = ((label1(u), label2(v)) for u, v in component)
    size1, size2 = left.sizes.get, right.sizes.get
    return bin_classes(pairs, component.values(), lambda k: size1(k[0], 0) * size2(k[1], 0))


def reference_bin_classes(terms, class_of, size):
    """Class binning term by term: the coefficients per class in order of
    first appearance, or None off the span."""
    seen: dict = {}
    for w, c in terms.items():
        k = class_of(w)
        if k is None:
            return None
        prev = seen.get(k)
        if prev is None:
            seen[k] = [c, 1]
        elif prev[0] == c:
            prev[1] += 1
        else:
            return None
    for k, (c, count) in seen.items():
        if count != size(k):
            return None
    return {k: c for k, (c, _) in seen.items()}


@lru_cache(maxsize=None)
def _element_labels(alg: ClassAlgebra):
    """Group element -> its label in alg, read off the members of each
    class; kept per algebra for the session, as a class never changes."""
    return {w: lab for lab, ws in members(alg).items() for w in ws}.get


def reference_element_rows(f, src: ClassAlgebra, dst: ClassAlgebra) -> dict:
    """The rows of a map f at element level: f of each class sum of src (a
    push-forward for maps.phi, psi and chi), binned term by term over dst,
    None for a row off the span."""
    label, size = _element_labels(dst), dst.sizes.__getitem__
    return {
        lab: reference_bin_classes(f(AlgElem.class_sum(src.group, src.n, ws)).terms, label, size)
        for lab, ws in members(src).items()
    }


def reference_shuffle_coords(left: str, right: str, p: int, q: int) -> dict:
    """hopf.shuffle_coords at element level: the external product of each
    pair of class sums, binned term by term, None for a cell off the span."""
    alg = FAMILIES[SHUFFLE_TARGETS[(left, right)]].algebra(p + q)
    label, size = _element_labels(alg), alg.sizes.__getitem__
    lefts, rights = FAMILIES[left].algebra(p), FAMILIES[right].algebra(q)
    return {
        (l1, l2): reference_bin_classes(external_product(c1, c2).terms, label, size)
        for l1, c1 in lefts.basis
        for l2, c2 in rights.basis
    }


def reference_cube(alg: ClassAlgebra, left=None) -> dict:
    """The structure cube by composing every pair of group elements, |G|^2
    products, or only its rows with the left labels given: each cell lists
    its labels in the order its products first appear, and a product off
    the span raises at the first such cell in label order."""
    class_of, size, classes = _element_labels(alg), alg.sizes.__getitem__, members(alg)
    cube = {}
    for l1 in alg.labels if left is None else left:
        c1 = classes[l1]
        for l2, c2 in classes.items():
            counts: dict = {}
            for v in c2:
                for w in c1:
                    key = compose(w, v)
                    counts[key] = counts.get(key, 0) + 1
            coords = reference_bin_classes(counts, class_of, size)
            if coords is None:
                raise ArithmeticError(f"class sums {l1} * {l2} leave the span")
            cube[(l1, l2)] = coords
    return cube


def _accumulate(out: dict, key, c):
    """out[key] += c, dropping the entry when it cancels."""
    s = out.get(key, 0) + c
    if s == 0:
        out.pop(key, None)
    else:
        out[key] = s


def reference_product(a: AlgElem, b: AlgElem) -> dict:
    """The terms of a * b through compose, v of b outer and u of a inner."""
    out: dict = {}
    for v, cv in b.terms.items():
        for w, cw in a.terms.items():
            _accumulate(out, compose(w, v), cw * cv)
    return out


def reference_external_product(a: AlgElem, b: AlgElem) -> dict:
    """The terms of the shuffle product a * b through compose."""
    out: dict = {}
    shs = shuffles(a.n, b.n)
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            base = block_embed(u, v)
            for xi in shs:
                _accumulate(out, compose(xi, base), cu * cv)
    return out


def in_label_order(cube: dict, labels) -> dict:
    """The cube with each cell's labels sorted into table order."""
    rank = {lab: i for i, lab in enumerate(labels)}
    return {k: {lab: cell[lab] for lab in sorted(cell, key=rank.get)} for k, cell in cube.items()}


def reference_map_tensor(t: dict, n: int, rows) -> dict:
    """f x f on tensor coordinates keyed (p, l1, l2) of total degree n, in
    two stages over the whole tensor: f on every left label, then f on
    every right label, where rows(d) gives f in degree d."""
    mid: dict = {}
    for (p, l1, l2), c in t.items():
        for k1, a in rows(p)[l1].items():
            key = (p, k1, l2)
            mid[key] = mid.get(key, 0) + c * a
    out: dict = {}
    for (p, k1, l2), c in mid.items():
        if c:
            for k2, b in rows(n - p)[l2].items():
                key = (p, k1, k2)
                out[key] = out.get(key, 0) + c * b
    return {k: c for k, c in out.items() if c}


def by_bidegree(t: dict) -> dict:
    """Tensor coordinates keyed (p, l1, l2), grouped: p -> (l1, l2) -> c."""
    out: dict = {}
    for (p, l1, l2), c in t.items():
        out.setdefault(p, {})[(l1, l2)] = c
    return out


def reference_componentwise_internal(s: dict, t: dict, n: int) -> dict:
    """Internal product in each tensor factor of type-A tensor coordinates
    grouped by bidegree (by_bidegree), read from the structure cubes;
    mismatched bidegrees annihilate."""
    out: dict = {}
    for p, sp in s.items():
        tp = t.get(p)
        if not tp:
            continue
        left_cube = descent_algebra("A", p).cube
        right_cube = descent_algebra("A", n - p).cube
        for (l1, l2), c in sp.items():
            for (k1, k2), d in tp.items():
                for a1, x in left_cube[(l1, k1)].items():
                    add_multiple(out.setdefault((p, a1), {}), c * d * x, right_cube[(l2, k2)])
    return {(p, a1, a2): c for (p, a1), row in out.items() for a2, c in row.items()}
