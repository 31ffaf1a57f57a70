"""Each closed form stated once, against its earlier, separate statements.

maps states the sign-forgetting closed forms (phi and psi on the Y-, X-,
X0- and Y0-labels) as one peak window, and chi on Y as a sum of the
three classes of the fold's image; mr states the S and S-tilde class sums
as one builder and the orders leq and preceq on two cut masks each;
bases states X_J through the Y-coordinates and the two composition
parsers as one.  The bodies they replaced live here as the reference,
each written out on its own: the new code must agree with them on every
label of rank at most 5 (the orders on every pair of rank at most 4),
with the same errors, and a broken rule must fail the comparison and the
verify check that reads it.
"""

from itertools import combinations

import pytest

from peakalg import bases, maps, mr
from peakalg.algebra import AlgElem
from peakalg.bases import comp_to_subset, descent_algebra, y_basis
from peakalg.peak import interior_peak_algebra, peak_algebra
from peakalg.perms import (
    GROUP_OF_TYPE,
    GeneratorSet,
    interior_sparse_masks,
    popcount,
    sparse_masks,
)
from peakalg.reporting import CheckFailure, run_checks

from oracles import members

RANKS = range(0, 6)

# ---------------------------------------------------------------------------
# the separate statements, as they were written before


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


# ---------------------------------------------------------------------------
# comparison


def _outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _disagreements(pairs, cases):
    """The (name, case) at which a pair (name, new, reference) differs."""
    return [
        (name, args)
        for name, new, ref in pairs
        for args in cases(name)
        if _outcome(new, *args) != _outcome(ref, *args)
    ]


def _label_cases(name):
    """Every label of rank at most 5, and labels each form rejects: psi
    takes the residual J in {2,...,n-1} and a case, the x0 and y0 forms
    reject bit 0."""
    if name.startswith("psi"):
        return [
            (n, j, case)
            for n in RANKS
            for j in range(0, 1 << n, 4)
            for case in ("plain", "one", "oneprime", "both")
        ] + [(3, 0b10, "one"), (3, 0b1, "plain"), (3, 0, "none")]
    return [(n, j) for n in RANKS for j in range(1 << n)]


# late-bound, so that a patched function of maps is the one compared
SIGN_FORGETTING = [
    ("phi_on_y", lambda *a: maps.phi_on_y(*a), ref_phi_on_y),
    ("phi_on_x", lambda *a: maps.phi_on_x(*a), ref_phi_on_x),
    ("phi_on_x0", lambda *a: maps.phi_on_x0(*a), ref_phi_on_x0),
    ("phi_on_y0", lambda *a: maps.phi_on_y0(*a), ref_phi_on_y0),
    ("psi_on_y", lambda *a: maps.psi_on_y(*a), ref_psi_on_y),
    ("psi_on_x", lambda *a: maps.psi_on_x(*a), ref_psi_on_x),
    ("chi_on_y", lambda *a: maps.chi_on_y(*a), ref_chi_on_y),
]


def test_label_closed_forms_match_their_separate_statements():
    assert not _disagreements(SIGN_FORGETTING, _label_cases)


def test_x_basis_matches_the_class_subset_sum():
    for ctype in ("A", "B", "D"):
        for n in RANKS:
            for j in range(1 << n):
                assert _outcome(bases.x_basis, ctype, n, j) == _outcome(ref_x_basis, ctype, n, j)
    with pytest.raises(ValueError):
        bases.x_basis("A", 3, 0b1)


def test_class_sums_match_their_separate_statements():
    pairs = [("s", mr.s_basis, ref_s_basis), ("stilde", mr.stilde_basis, ref_stilde_basis)]
    cases = [(n, alpha) for n in RANKS for alpha in mr.signed_compositions(n)]
    cases += [(3, (1, 1)), (3, (2, 0, 1)), (2, (3,))]
    assert not _disagreements(pairs, lambda name: cases)


def test_interval_blocks_match_the_recursive_listing_in_order():
    # every absolute composition of rank at most 6, and size tuples that
    # do not sum to the rank
    cases = {(n, tuple(map(abs, alpha))) for n in range(0, 7) for alpha in mr.signed_compositions(n)}
    cases |= {(3, (1, 1)), (3, (2, 0, 1)), (2, (3,)), (1, (0,))}
    for n, sizes in sorted(cases):
        assert list(mr._blocks_of_sizes(n, sizes)) == list(ref_interval_blocks(n, sizes)), (n, sizes)


def test_orders_match_their_separate_statements_on_all_pairs():
    comps = [alpha for n in range(0, 5) for alpha in mr.signed_compositions(n)]
    pairs = [("leq", mr.leq, ref_leq), ("preceq", mr.preceq, ref_preceq)]
    assert not _disagreements(pairs, lambda name: [(a, b) for a in comps for b in comps])


def test_composition_parsers_match_their_separate_statements():
    pairs = [
        ("comp", bases.subset_to_comp, ref_subset_to_comp),
        ("pseudo", bases.subset_to_pseudo_comp, ref_subset_to_pseudo_comp),
    ]
    cases = [
        (frozenset(chosen), n)
        for n in range(0, 6)
        for k in range(n + 2)
        for chosen in combinations(range(-1, n + 1), k)
    ]
    assert not _disagreements(pairs, lambda name: cases)
    with pytest.raises(ValueError, match=r"is not a subset of \[2\]$"):
        bases.subset_to_comp({0, 1}, 3)
    with pytest.raises(ValueError, match=r"is not a subset of \{0\} u \[2\]$"):
        bases.subset_to_pseudo_comp({3}, 3)


# ---------------------------------------------------------------------------
# mutations: a broken rule fails the comparison and its verify check


def _unshifted_phi_on_y(n, jmask):
    """The Y-form with its window missing the shift J+1."""
    return maps._peak_window(peak_algebra(n), jmask, per_peak=True)


def test_a_window_without_its_shift_fails(monkeypatch):
    from peakalg.verify import suite_phi

    monkeypatch.setattr(maps, "phi_on_y", _unshifted_phi_on_y)
    assert _disagreements(SIGN_FORGETTING[:1], _label_cases)
    # psi on a plain label is phi_on_y, so it breaks with it
    assert ("psi_on_y", (4, 0b100, "plain")) in _disagreements(SIGN_FORGETTING, _label_cases)
    closed = run_checks(c for c in suite_phi(4) if c.check_id == "phi/closed-forms")
    assert [c.status for c in closed] == ["fail"]


def test_preceq_without_the_flip_fails(monkeypatch):
    monkeypatch.setattr(mr, "preceq", mr.leq)
    pairs = [("preceq", mr.preceq, ref_preceq)]
    comps = mr.signed_compositions(3)
    assert _disagreements(pairs, lambda name: [(a, b) for a in comps for b in comps])
    with pytest.raises(CheckFailure, match="S-tilde class of"):
        mr.check_order_sums(3)


def test_a_class_sum_with_unreversed_negative_runs_fails(monkeypatch):
    monkeypatch.setattr(mr, "stilde_basis", mr.s_basis)
    pairs = [("stilde", mr.stilde_basis, ref_stilde_basis)]
    assert _disagreements(pairs, lambda name: [(2, (-2,))])
