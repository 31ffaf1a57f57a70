"""Signed compositions and the Mantaci-Reutenauer subalgebra of QB_n.

A signed composition of n is a sequence of nonzero integers whose
absolute values sum to n (there are 2 * 3^(n-1) of them).  Binning signed
permutations by their maximal runs of increasing absolute values with
constant sign produces a partition of B_n into 2 * 3^(n-1) classes; the
class sums span a subalgebra strictly containing the type-B descent
algebra.  Two further spanning families arise from relaxing maximality:
the S-classes fix the order of absolute values per run, the S-tilde
classes fix the order of the signed values per run.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .algebra import AlgElem, ClassAlgebra, apply_rows, class_images
from .bases import comp_complement, comp_to_subset, y_label_elements
from .perms import group_elements, mask_of
from .reporting import CheckFailure


def signed_compositions(n: int) -> tuple:
    """All signed compositions of n (count: 2 * 3^(n-1); just () for 0)."""
    if n == 0:
        return ((),)

    out = []

    def extend(prefix, remaining):
        for part in range(1, remaining + 1):
            for signed in (part, -part):
                if part == remaining:
                    out.append(prefix + (signed,))
                else:
                    extend(prefix + (signed,), remaining - part)

    extend((), n)
    return tuple(out)


def is_signed_composition(alpha, n: int | None = None) -> bool:
    ok = all(isinstance(a, int) and a != 0 for a in alpha)
    return ok and (n is None or sum(abs(a) for a in alpha) == n)


def segments(alpha) -> list:
    """Maximal constant-sign runs, in order."""
    segs = []
    cur: list = []
    for a in alpha:
        if cur and (a > 0) != (cur[-1] > 0):
            segs.append(tuple(cur))
            cur = []
        cur.append(a)
    if cur:
        segs.append(tuple(cur))
    return segs


def abs_comp(alpha) -> tuple:
    return tuple(abs(a) for a in alpha)


def underline(alpha) -> tuple:
    """Sum |parts| over maximal intervals of alternating signs."""
    parts = []
    total = 0
    prev_sign = None
    for a in alpha:
        sign = a > 0
        if prev_sign is not None and sign == prev_sign:
            parts.append(total)
            total = 0
        total += abs(a)
        prev_sign = sign
    parts.append(total)
    return tuple(parts)


def tilde(alpha) -> tuple:
    """Replace each negative segment by its complementary composition
    (an involution on signed compositions)."""
    out = []
    for seg in segments(alpha):
        if seg[0] > 0:
            out.extend(seg)
        else:
            out.extend(-p for p in comp_complement(tuple(-a for a in seg)))
    return tuple(out)


def o_comp(alpha) -> tuple:
    """Flatten each negative segment to all-ones and drop the signs."""
    out = []
    for seg in segments(alpha):
        if seg[0] > 0:
            out.extend(seg)
        else:
            out.extend([1] * sum(-a for a in seg))
    return tuple(out)


def u_comp(alpha) -> tuple:
    """Complement the negative segments, fuse each positive segment to a
    single part, then merge alternating-sign runs."""
    pre = []
    for seg in segments(alpha):
        if seg[0] > 0:
            pre.append(sum(seg))
        else:
            pre.extend(-p for p in comp_complement(tuple(-a for a in seg)))
    return underline(tuple(pre))


def _segment_signs(alpha) -> tuple:
    return tuple(seg[0] > 0 for seg in segments(alpha))


def leq(alpha, beta) -> bool:
    """Segmentwise refinement with matching signs: true when each segment
    of beta refines the corresponding segment of alpha."""
    sa, sb = segments(alpha), segments(beta)
    if len(sa) != len(sb) or _segment_signs(alpha) != _segment_signs(beta):
        return False
    for a_seg, b_seg in zip(sa, sb):
        if sum(abs(p) for p in a_seg) != sum(abs(p) for p in b_seg):
            return False
        if not comp_to_subset(tuple(abs(p) for p in a_seg)) <= comp_to_subset(
            tuple(abs(p) for p in b_seg)
        ):
            return False
    return True


def preceq(alpha, beta) -> bool:
    """Like leq, but on negative segments the refinement direction flips."""
    sa, sb = segments(alpha), segments(beta)
    if len(sa) != len(sb) or _segment_signs(alpha) != _segment_signs(beta):
        return False
    for a_seg, b_seg in zip(sa, sb):
        if sum(abs(p) for p in a_seg) != sum(abs(p) for p in b_seg):
            return False
        a_sub = comp_to_subset(tuple(abs(p) for p in a_seg))
        b_sub = comp_to_subset(tuple(abs(p) for p in b_seg))
        positive = a_seg[0] > 0
        if positive and not a_sub <= b_sub:
            return False
        if not positive and not b_sub <= a_sub:
            return False
    return True


# ---------------------------------------------------------------------------
# the three spanning families


def mr_class_of(w) -> tuple:
    """The signed composition of w: maximal intervals on which the
    absolute values increase and the sign is constant."""
    alpha = []
    run = 0
    for i, v in enumerate(w):
        run += 1
        last = i + 1 == len(w)
        if last or (v > 0) != (w[i + 1] > 0) or abs(w[i + 1]) < abs(v):
            alpha.append(run if v > 0 else -run)
            run = 0
    return tuple(alpha)


@lru_cache(maxsize=None)
def t_algebra(n: int) -> ClassAlgebra:
    """The Mantaci-Reutenauer algebra on the T-class sums."""
    return ClassAlgebra("B", n, mr_class_of, signed_compositions(n))


def t_classes(n: int) -> dict:
    return t_algebra(n).classes


def t_basis(n: int, alpha) -> AlgElem:
    alpha = tuple(alpha)
    try:
        ws = t_classes(n)[alpha]
    except KeyError:
        raise ValueError(f"{alpha} is not a signed composition of {n}") from None
    return AlgElem.class_sum("B", n, ws)


def _interval_blocks(n: int, sizes):
    """Yield tuples of value sets, one per interval, partitioning 1..n."""

    def rec(values, sizes):
        if not sizes:
            yield ()
            return
        k = sizes[0]
        for block in combinations(values, k):
            rest = tuple(v for v in values if v not in block)
            for tail in rec(rest, sizes[1:]):
                yield (block,) + tail

    yield from rec(tuple(range(1, n + 1)), tuple(sizes))


def s_basis(n: int, alpha) -> AlgElem:
    """Class sum: per interval, absolute values increase and the sign is
    the sign of the part."""
    alpha = tuple(alpha)
    if not is_signed_composition(alpha, n):
        raise ValueError(f"{alpha} is not a signed composition of {n}")
    sizes = [abs(a) for a in alpha]
    terms = {}
    for blocks in _interval_blocks(n, sizes):
        word = []
        for part, block in zip(alpha, blocks):
            vals = sorted(block)
            word.extend(vals if part > 0 else [-v for v in vals])
        terms[tuple(word)] = 1
    return AlgElem._raw("B", n, terms)


def stilde_basis(n: int, alpha) -> AlgElem:
    """Class sum: per interval, the signed entries increase and the sign
    is the sign of the part (so negative runs descend in absolute value)."""
    alpha = tuple(alpha)
    if not is_signed_composition(alpha, n):
        raise ValueError(f"{alpha} is not a signed composition of {n}")
    sizes = [abs(a) for a in alpha]
    terms = {}
    for blocks in _interval_blocks(n, sizes):
        word = []
        for part, block in zip(alpha, blocks):
            if part > 0:
                word.extend(sorted(block))
            else:
                word.extend(-v for v in sorted(block, reverse=True))
        terms[tuple(word)] = 1
    return AlgElem._raw("B", n, terms)


def mr_basis(kind: str, n: int, alpha) -> AlgElem:
    if kind == "T":
        return t_basis(n, alpha)
    if kind == "S":
        return s_basis(n, alpha)
    if kind == "Stilde":
        return stilde_basis(n, alpha)
    raise ValueError(f"unknown basis kind {kind!r}")


def tclass_coordinates(a: AlgElem):
    """Coordinates over the T-class sums, or None outside the span."""
    return t_algebra(a.n).coords(a)


# ---------------------------------------------------------------------------
# sign-forgetting images and the key product


def phi_on_s_formula(n: int, alpha) -> AlgElem:
    """X indexed by the absolute composition."""
    from .bases import x_basis

    return x_basis("A", n, mask_of(comp_to_subset(abs_comp(alpha), n)))


def _y_interval_sum(n: int, lo, hi) -> AlgElem:
    """Sum of Y_beta over compositions between lo and hi in refinement
    order (subset inclusion between the partial-sum sets)."""
    from .bases import y_basis

    lo_set = comp_to_subset(lo, n)
    hi_set = comp_to_subset(hi, n)
    if not lo_set <= hi_set:
        raise ValueError("empty refinement interval")
    out = AlgElem.zero("S", n)
    extra = sorted(hi_set - lo_set)
    for r in range(len(extra) + 1):
        for chosen in combinations(extra, r):
            out += y_basis("A", n, mask_of(lo_set | set(chosen)))
    return out


def phi_on_t_formula(n: int, alpha) -> AlgElem:
    """Sum of Y over the interval from the alternation coarsening to the
    absolute composition."""
    return _y_interval_sum(n, underline(alpha), abs_comp(alpha))


def phi_on_stilde_formula(n: int, alpha) -> AlgElem:
    return _y_interval_sum(n, u_comp(alpha), o_comp(alpha))


@lru_cache(maxsize=None)
def t_coords(kind: str, n: int) -> dict:
    """alpha -> coordinates over the T-class sums of the class sum of alpha
    of kind "S" or "Stilde" (see mr_basis), each binned once per rank."""
    alg, name = t_algebra(n), {"S": "S-class", "Stilde": "S-tilde class"}[kind]
    return {
        alpha: alg.binned(mr_basis(kind, n, alpha), f"the {name} of {alpha} is not a T-combination")
        for alpha in signed_compositions(n)
    }


@lru_cache(maxsize=None)
def _x0_tcoords(n: int, mask: int):
    """T-coordinates of X_{{0} u J}, binned once per label (None off the span)."""
    from .maps import x0_basis

    return t_algebra(n).coords(x0_basis(n, mask))


def bstilde_product(n: int, alpha) -> AlgElem:
    """The increasing-class sum times the S-tilde class sum collapses to
    the X0 element of the absolute composition; asserted, with the
    cardinality bookkeeping of the counting argument, and returned.  The
    product is read on T-coordinates: the S-tilde class sum, binned, under
    the cached rows of the type-B transform theta_pm, which multiplies by
    the increasing-class sum."""
    from .hopf import transform_coords
    from .maps import x0_basis, x0_generator

    coords = t_coords("Stilde", n).get(tuple(alpha))
    if coords is None:
        raise ValueError(f"{alpha} is not a signed composition of {n}")
    gen = x0_generator(n)
    if len(gen) != 1 << n:
        raise CheckFailure(f"increasing class has size {len(gen)} != 2^{n}")
    mask = mask_of(comp_to_subset(abs_comp(alpha), n))
    if apply_rows(transform_coords("OmegaB", n), coords) != _x0_tcoords(n, mask):
        raise CheckFailure(f"product with the S-tilde class of {alpha} is wrong")
    return x0_basis(n, mask)


# ---------------------------------------------------------------------------
# closure checks


def check_t_partition(n: int):
    classes = t_classes(n)
    total = sum(len(ws) for ws in classes.values())
    if total != len(group_elements("B", n)):
        raise CheckFailure(f"T-classes do not cover B_{n}")
    if len(classes) != (2 * 3 ** (n - 1) if n else 1):
        raise CheckFailure(f"wrong number of T-classes at n={n}")


def check_order_sums(n: int):
    """S and S-tilde expand over T along the two partial orders, with
    unit leading coefficient (unitriangular transitions)."""
    for alpha in signed_compositions(n):
        expect_s = AlgElem.zero("B", n)
        for beta in signed_compositions(n):
            if leq(beta, alpha):
                expect_s += t_basis(n, beta)
        if s_basis(n, alpha) != expect_s:
            raise CheckFailure(f"S-class of {alpha} is not the order sum of T-classes")
        expect_st = AlgElem.zero("B", n)
        ta = tilde(alpha)
        for beta in signed_compositions(n):
            if preceq(beta, ta):
                expect_st += t_basis(n, beta)
        if stilde_basis(n, alpha) != expect_st:
            raise CheckFailure(
                f"S-tilde class of {alpha} is not the flipped order sum of T-classes"
            )


def check_omega_closure(n: int):
    """Every product of T-class sums stays in the T-span (building the
    structure cube bins each one), and the type-B descent algebra embeds
    (every Y_J is a T-combination)."""
    t_algebra(n).cube
    for m, yj in y_label_elements("B", n):
        if tclass_coordinates(yj) is None:
            raise CheckFailure(f"Y at mask {bin(m)} is not a T-combination at n={n}")


def check_phi_images(n: int):
    """Sign forgetting matches all three closed forms (each binned), read
    on its rows from the T-classes to the type-A descent classes: a row is
    a T-class image, applied to t_coords it gives the S and S-tilde ones."""
    from .bases import descent_algebra
    from .maps import phi

    alg = descent_algebra("A", n)
    rows = class_images(phi, t_algebra(n), alg, f"sign forgetting at n={n}")
    s, stilde = t_coords("S", n), t_coords("Stilde", n)
    for alpha in signed_compositions(n):
        if apply_rows(rows, s[alpha]) != alg.coords(phi_on_s_formula(n, alpha)):
            raise CheckFailure(f"image of the S-class of {alpha} is wrong")
        if rows[alpha] != alg.coords(phi_on_t_formula(n, alpha)):
            raise CheckFailure(f"image of the T-class of {alpha} is wrong")
        if apply_rows(rows, stilde[alpha]) != alg.coords(phi_on_stilde_formula(n, alpha)):
            raise CheckFailure(f"image of the S-tilde class of {alpha} is wrong")


def check_phi_onto_descent_algebra(n: int):
    """The images of the S-classes span the full type-A descent algebra,
    read on class rows: the S-class sums binned over the T-classes, under
    the rows of sign forgetting from the T-classes to the descent classes."""
    from .bases import descent_algebra
    from .maps import Node, landed, phi

    source = Node("S-class span", t_algebra(n), list(t_coords("S", n).items()))
    target, what = Node("Sigma_n", descent_algebra("A", n)), f"sign forgetting at n={n}"
    rows = class_images(phi, source.algebra, target.algebra, what)
    if landed(rows, source, target, what).rank != 1 << (n - 1):
        raise CheckFailure(f"images do not span the descent algebra at n={n}")


def comp_to_text(alpha) -> str:
    """Parenthesized text form, e.g. "(2,2,-3,-1,1)"."""
    return "(" + ",".join(str(a) for a in alpha) + ")"


def comp_from_text(text: str) -> tuple:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    alpha = tuple(int(t) for t in body.split(",") if t.strip())
    if not is_signed_composition(alpha):
        raise ValueError(f"{text!r} is not a signed composition")
    return alpha
