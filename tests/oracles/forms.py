"""The separate statements of the closed forms, as they were written before.

maps, mr and bases state each closed form, class-sum builder, order and
composition parser once; the bodies they replaced are the oracles here,
each written out on its own (tests/test_closed_form_rules.py).
"""

from itertools import combinations

from peakalg import mr
from peakalg.algebra import AlgElem
from peakalg.bases import comp_to_subset, descent_algebra, y_basis
from peakalg.peak import interior_peak_algebra, peak_algebra
from peakalg.perms import GROUP_OF_TYPE, GeneratorSet, interior_sparse_masks, popcount, sparse_masks

from oracles import members


def ref_chi_on_y(n, jmask):
    j = jmask & ~3
    flags = jmask & 3
    if flags == 0:
        parts = [j]
    elif flags == 2:  # 1 in J
        parts = [j | 1, j | 2, j | 3]
    elif flags == 1:  # 0 in J
        parts = [j, j | 1, j | 2]
    else:  # 0 and 1 in J
        parts = [j | 3]
    out = AlgElem.zero("D", n)
    for m in parts:
        out += y_basis("D", n, m)
    return out


def ref_phi_on_y(n, jmask):
    window = jmask ^ (jmask << 1)
    coords = {fm: 1 << popcount(fm) for fm in sparse_masks(n) if fm & ~window == 0}
    return peak_algebra(n).element(coords)


def ref_phi_on_x(n, jmask):
    window = jmask | (jmask << 1)
    scale = 1 << popcount(jmask)
    coords = {fm: scale for fm in sparse_masks(n) if fm & ~window == 0}
    return peak_algebra(n).element(coords)


def ref_phi_on_x0(n, jmask):
    if jmask & 1:
        raise ValueError("label J must avoid 0; the 0 is implicit")
    window = jmask | (jmask << 1)
    scale = 1 << (1 + popcount(jmask))
    out = {}
    for fm in interior_sparse_masks(n):
        if fm & ~window == 0:
            out[fm] = scale
    return interior_peak_algebra(n).element(out)


def ref_phi_on_y0(n, jmask):
    if jmask & 1:
        raise ValueError("label J must avoid 0; the 0 is implicit")
    window = jmask ^ (jmask << 1)
    out = {}
    for fm in interior_sparse_masks(n):
        if fm & ~window == 0:
            out[fm] = 1 << (1 + popcount(fm))
    return interior_peak_algebra(n).element(out)


def ref_psi_on_y(n, jmask, case):
    if case not in ("plain", "one", "oneprime", "both"):
        raise ValueError(f"unknown case {case!r}")
    if jmask & 3:
        raise ValueError("residual subset J must sit inside {2,...,n-1}")
    if case == "plain":
        window = jmask ^ (jmask << 1)
        coords = {fm: 1 << popcount(fm) for fm in sparse_masks(n) if fm & ~window == 0}
        return peak_algebra(n).element(coords)
    if case in ("one", "oneprime"):
        window = jmask ^ (jmask << 1)
        coords = {}
        for fm in sparse_masks(n):
            if fm & 2 and (fm & ~2) & ~window == 0 and not fm & 4:
                coords[fm] = 1 << popcount(fm & ~2)
        return peak_algebra(n).element(coords)
    window = jmask ^ (4 | (jmask << 1))
    coords = {fm: 1 << popcount(fm) for fm in sparse_masks(n) if fm & ~window == 0}
    return peak_algebra(n).element(coords)


def ref_psi_on_x(n, jmask, case):
    if case not in ("plain", "one", "oneprime", "both"):
        raise ValueError(f"unknown case {case!r}")
    if jmask & 3:
        raise ValueError("residual subset J must sit inside {2,...,n-1}")
    if case == "plain":
        window = jmask | (jmask << 1)
        scale = 1 << popcount(jmask)
    elif case in ("one", "oneprime"):
        window = jmask | (jmask << 1) | 2
        scale = 1 << popcount(jmask)
    else:
        window = jmask | (jmask << 1) | 6
        scale = 1 << (popcount(jmask) + 1)
    coords = {fm: scale for fm in sparse_masks(n) if fm & ~window == 0}
    return peak_algebra(n).element(coords)


def ref_x_basis(ctype, n, J):
    mask = GeneratorSet(ctype, n, J).mask
    terms = {}
    for m, ws in members(descent_algebra(ctype, n)).items():
        if m | mask == mask:
            for w in ws:
                terms[w] = 1
    return AlgElem._raw(GROUP_OF_TYPE[ctype], n, terms)


def _ref_check(alpha, n):
    if not mr.is_signed_composition(alpha, n):
        raise ValueError(f"{alpha} is not a signed composition of {n}")


def ref_interval_blocks(n, sizes):
    """The interval blocks as first written: a recursive generator."""

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


def ref_s_basis(n, alpha):
    alpha = tuple(alpha)
    _ref_check(alpha, n)
    terms = {}
    for blocks in mr._blocks_of_sizes(n, tuple(abs(a) for a in alpha)):
        word = []
        for part, block in zip(alpha, blocks):
            vals = sorted(block)
            word.extend(vals if part > 0 else [-v for v in vals])
        terms[tuple(word)] = 1
    return AlgElem._raw("B", n, terms)


def ref_stilde_basis(n, alpha):
    alpha = tuple(alpha)
    _ref_check(alpha, n)
    terms = {}
    for blocks in mr._blocks_of_sizes(n, tuple(abs(a) for a in alpha)):
        word = []
        for part, block in zip(alpha, blocks):
            if part > 0:
                word.extend(sorted(block))
            else:
                word.extend(-v for v in sorted(block, reverse=True))
        terms[tuple(word)] = 1
    return AlgElem._raw("B", n, terms)


def _ref_signs(alpha):
    return tuple(seg[0] > 0 for seg in mr.segments(alpha))


def ref_leq(alpha, beta):
    sa, sb = mr.segments(alpha), mr.segments(beta)
    if len(sa) != len(sb) or _ref_signs(alpha) != _ref_signs(beta):
        return False
    for a_seg, b_seg in zip(sa, sb):
        if sum(abs(p) for p in a_seg) != sum(abs(p) for p in b_seg):
            return False
        if not comp_to_subset(tuple(abs(p) for p in a_seg)) <= comp_to_subset(
            tuple(abs(p) for p in b_seg)
        ):
            return False
    return True


def ref_preceq(alpha, beta):
    sa, sb = mr.segments(alpha), mr.segments(beta)
    if len(sa) != len(sb) or _ref_signs(alpha) != _ref_signs(beta):
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


def _ref_parts(ms, n):
    prev = 0
    parts = []
    for m in ms:
        parts.append(m - prev)
        prev = m
    parts.append(n - prev)
    return tuple(parts)


def ref_subset_to_comp(J, n):
    ms = sorted(J)
    if any(not 1 <= j <= n - 1 for j in ms):
        raise ValueError(f"{J} is not a subset of [{n - 1}]")
    return _ref_parts(ms, n)


def ref_subset_to_pseudo_comp(J, n):
    ms = sorted(J)
    if any(not 0 <= j <= n - 1 for j in ms):
        raise ValueError(f"{J} is not a subset of {{0}} u [{n - 1}]")
    return _ref_parts(ms, n)
