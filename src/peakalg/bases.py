"""Descent-class bases of the descent algebras of types A, B, D.

Y_J is the sum of the group elements with descent set exactly J; X_J sums
the elements with descent set contained in J.  Subsets are encoded by the
generator-label bitmasks of peakalg.perms, and are interchangeable with
(ordinary or pseudo) compositions through partial sums.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .algebra import AlgElem, ClassAlgebra, StructureTable
from .perms import GROUP_OF_TYPE, GeneratorSet, _valid_label_mask, descent_mask, mask_text, popcount


@lru_cache(maxsize=None)
def descent_algebra(ctype: str, n: int) -> ClassAlgebra:
    """The descent algebra of type ctype on the Y-basis: classes by
    descent-set bitmask, every subset of the generators a label, written
    as a set of generators (the type-D fork as 1')."""
    text = partial(mask_text, token=GeneratorSet(ctype, n, 0).token)
    return ClassAlgebra(
        GROUP_OF_TYPE[ctype], n, lambda w: descent_mask(w, ctype), _all_masks(ctype, n), text=text
    )


@lru_cache(maxsize=None)
def canonical_ideal_algebra(n: int) -> ClassAlgebra:
    """The canonical ideal of the type-B descent algebra, spanned by the
    X_{{0} u J}: classes by descent set less 0, so the class of J sums
    Y_J and Y_{{0} u J}, and X_{{0} u J} sums the classes of the I <= J."""
    return descent_algebra("B", n).coarsen(lambda m: m & ~1)


def _all_masks(ctype: str, n: int) -> tuple:
    full = _valid_label_mask(ctype, n)
    return tuple(m for m in range(full + 1) if m | full == full)


def descent_element(ctype: str, n: int, coords: dict) -> AlgElem:
    """The element with the given Y-coordinates, each label checked by GeneratorSet in turn."""
    for m in coords:
        GeneratorSet(ctype, n, m)
    return descent_algebra(ctype, n).element(coords)


def y_basis(ctype: str, n: int, J: int) -> AlgElem:
    """Y_J: sum over the descent class of the label mask J."""
    return descent_element(ctype, n, {J: 1})


def x_basis(ctype: str, n: int, J: int) -> AlgElem:
    """X_J: sum over elements whose descent set is contained in J."""
    mask = GeneratorSet(ctype, n, J).mask
    return descent_algebra(ctype, n).element(x_to_y_coords({mask: 1}))


def y_label_elements(ctype: str, n: int) -> list:
    """Ordered (mask, Y_J) pairs, masks ascending."""
    return descent_algebra(ctype, n).basis


def x_label_elements(ctype: str, n: int) -> list:
    return [(m, x_basis(ctype, n, m)) for m in _all_masks(ctype, n)]


def descent_coordinates(a: AlgElem, ctype: str):
    """Coordinates of a in the Y-basis (mask -> coefficient), or None if a
    lies outside the descent algebra."""
    return descent_algebra(ctype, a.n).coords(a)


def _submasks(jm: int):
    """The submasks of jm, from jm down to 0."""
    if jm < 0:  # it has no finite set of submasks
        raise ValueError(f"label mask {jm} is negative")
    sub = jm
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & jm


def x_to_y_coords(coords: dict) -> dict:
    """Rewrite X-label coordinates as Y-label coordinates."""
    out: dict = {}
    for jm, c in coords.items():
        if c != 0:
            for sub in _submasks(jm):
                out[sub] = out.get(sub, 0) + c
    return {m: c for m, c in out.items() if c != 0}


def y_to_x_coords(coords: dict) -> dict:
    """Inverse rewriting, via Y_J = sum over I<=J of (-1)^(#J-#I) X_I."""
    out: dict = {}
    for jm, c in coords.items():
        if c != 0:
            nj = popcount(jm)
            for sub in _submasks(jm):
                out[sub] = out.get(sub, 0) + (-c if (nj - popcount(sub)) % 2 else c)
    return {m: c for m, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# subset <-> composition codecs

def comp_to_subset(parts, n: int | None = None) -> frozenset:
    """(a_1,...,a_k) -> {a_1, a_1+a_2, ...}; ordinary parts are >= 1, a
    pseudo composition may lead with a_0 = 0 (putting 0 in the subset)."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("empty composition")
    if parts[0] < 0 or any(p <= 0 for p in parts[1:]):
        raise ValueError(f"malformed composition {parts}")
    total = sum(parts)
    if n is not None and total != n:
        raise ValueError(f"composition {parts} does not sum to {n}")
    acc, out = 0, []
    for p in parts[:-1]:
        acc += p
        out.append(acc)
    if parts[0] == 0 and len(parts) == 1:
        raise ValueError("pseudo composition (0) of a positive total is malformed")
    return frozenset(out)


def subset_to_comp(J, n: int) -> tuple:
    """Subset of [n-1] -> ordinary composition of n."""
    return _partial_sum_parts(J, n, 1)


def subset_to_pseudo_comp(J, n: int) -> tuple:
    """Subset of {0} u [n-1] -> pseudo composition of n (first part >= 0)."""
    return _partial_sum_parts(J, n, 0)


def _partial_sum_parts(J, n: int, lo: int) -> tuple:
    """The parts with the partial sums J, a subset of {lo, ..., n-1}."""
    ms = sorted(J)
    if any(not lo <= j <= n - 1 for j in ms):
        frame = f"[{n - 1}]" if lo else f"{{0}} u [{n - 1}]"
        raise ValueError(f"{J} is not a subset of {frame}")
    prev = 0
    parts = []
    for m in ms:
        parts.append(m - prev)
        prev = m
    parts.append(n - prev)
    return tuple(parts)


def comp_complement(parts, n: int | None = None) -> tuple:
    """Complementary ordinary composition: complement the subset in [n-1]."""
    parts = tuple(parts)
    total = sum(parts)
    if n is not None and total != n:
        raise ValueError(f"composition {parts} does not sum to {n}")
    inside = comp_to_subset(parts)
    return subset_to_comp(set(range(1, total)) - inside, total)


# ---------------------------------------------------------------------------
# structure constants


def structure_constants(ctype: str, n: int) -> StructureTable:
    """Full multiplication table of the descent algebra on the Y-basis.
    Raises if any product leaves the span: running this *is* the closure
    check for the descent algebra.  Its callers cap the rank by
    perms.STRUCTURE_CAPS; the group's enumeration cap bounds it here."""
    return descent_algebra(ctype, n).table(f"Sigma({ctype}_{n})[Y]")


def structure_cube(ctype: str, n: int) -> dict:
    """(mask_J, mask_K) -> Y-coordinates of Y_J * Y_K; building it is the
    closure check of the descent algebra."""
    return descent_algebra(ctype, n).cube
