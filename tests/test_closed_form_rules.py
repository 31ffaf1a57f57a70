"""Each closed form stated once, against its earlier, separate statements.

maps states the sign-forgetting closed forms (phi and psi on the Y-, X-,
X0- and Y0-labels) as one peak window, and chi on Y as a sum of the
three classes of the fold's image; mr states the S and S-tilde class sums
as one builder and the orders leq and preceq on two cut masks each;
bases states X_J through the Y-coordinates and the two composition
parsers as one.  The bodies they replaced are the reference, in
tests/oracles/forms.py: the new code must agree with them on every label
of rank at most 5 (the orders on every pair of rank at most 4), with the
same errors, and a broken rule must fail the comparison and the verify
check that reads it.
"""

from itertools import combinations

import pytest

from peakalg import bases, maps, mr
from peakalg.peak import peak_algebra
from peakalg.reporting import CheckFailure, run_checks

from oracles.forms import ref_chi_on_y, ref_interval_blocks, ref_leq, ref_phi_on_x, ref_phi_on_x0
from oracles.forms import ref_phi_on_y, ref_phi_on_y0, ref_preceq, ref_psi_on_x, ref_psi_on_y
from oracles.forms import ref_s_basis, ref_stilde_basis, ref_subset_to_comp
from oracles.forms import ref_subset_to_pseudo_comp, ref_x_basis

RANKS = range(0, 6)

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
