import itertools

import pytest

from peakalg import peak, perms, verify
from peakalg.perms import (
    CapExceeded,
    GeneratorSet,
    PeakIndex,
    chi_element,
    compose,
    coxeter_generators,
    coxeter_length_table,
    descent_mask,
    descent_set,
    fibonacci,
    forget_signs,
    group_elements,
    identity,
    interior_peak_set,
    interior_sparse_masks,
    inverse,
    iter_group,
    lambda_interior_mask,
    lambda_mask,
    length_descent_mask,
    members_of,
    peak_set,
    rho_element,
    s0_gen,
    s1p_gen,
    sigma,
    sparse_masks,
)
from peakalg.reporting import CheckFailure, run_checks


def signed_apply(w, i):
    """w as a function on {-n..-1, 1..n} with w(-i) = -w(i)."""
    return w[i - 1] if i > 0 else -w[-i - 1]


def test_identity_neutral():
    for w in group_elements("B", 3):
        assert compose(identity(3), w) == w
        assert compose(w, identity(3)) == w


def test_s0_involution():
    for n in (1, 2, 3, 4):
        assert compose(s0_gen(n), s0_gen(n)) == identity(n)


def test_compose_matches_function_composition_oracle():
    # oracle: compose the induced functions on {+-1, ..., +-3}
    for u in group_elements("B", 3):
        for v in group_elements("B", 3):
            expected = tuple(signed_apply(u, signed_apply(v, i)) for i in range(1, 4))
            assert compose(u, v) == expected


def test_compose_rank_mismatch():
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_inverse():
    for w in group_elements("B", 3):
        assert compose(w, inverse(w)) == identity(3)
        assert compose(inverse(w), w) == identity(3)


def test_descent_examples():
    assert descent_set(identity(4), "A").labels() == ()
    # the fork generator has a descent at 1' only
    assert descent_set(s1p_gen(4), "D").labels() == (0,)
    assert descent_set(s0_gen(3), "B").labels() == (0,)


def test_descents_match_length_oracle():
    for ctype in ("A", "B", "D"):
        lo = 2 if ctype == "D" else 1
        group = {"A": "S", "B": "B", "D": "D"}[ctype]
        for n in range(lo, 5):
            for w in group_elements(group, n):
                assert descent_mask(w, ctype) == length_descent_mask(w, ctype)


def test_descent_set_rejects_wrong_group():
    with pytest.raises(ValueError):
        descent_set((-1, 2, 3), "D")  # odd number of bars
    with pytest.raises(ValueError):
        descent_set((-1, 2), "A")


def test_peak_examples():
    assert peak_set((4, 2, 1, 5, 3)).members() == (1, 4)
    assert peak_set(identity(5)).members() == ()
    assert interior_peak_set(identity(5)).members() == ()
    with pytest.raises(ValueError):
        peak_set((-1, 2))


def test_peaks_are_collapsed_descents():
    for u in group_elements("S", 6):
        J = descent_set(u, "A")
        assert lambda_mask(J.mask) == peak_set(u).mask
        assert lambda_interior_mask(J.mask) == interior_peak_set(u).mask


def test_interior_vs_full_peaks():
    for u in group_elements("S", 5):
        full = set(peak_set(u).members())
        interior = set(interior_peak_set(u).members())
        if 1 in descent_set(u, "A"):
            assert full == interior | {1}
        else:
            assert full == interior


def test_lambda_examples():
    J = GeneratorSet.from_labels("A", 6, [1, 2, 4])
    assert members_of(lambda_mask(J.mask)) == (1, 4)
    assert members_of(lambda_interior_mask(J.mask)) == (4,)
    assert lambda_mask(0) == 0


def test_enumeration_counts():
    assert len(list(iter_group("S", 3))) == 6
    assert len(list(iter_group("B", 3))) == 48
    assert len(list(iter_group("D", 4))) == 192
    assert len(list(iter_group("S", 0))) == 1


def test_enumeration_no_repeats():
    for group, n in (("S", 4), ("B", 3), ("D", 3)):
        elems = list(iter_group(group, n))
        assert len(set(elems)) == len(elems)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        list(iter_group("B", 9))


def test_sign_maps():
    assert forget_signs((2, -4, 1, 3)) == (2, 4, 1, 3)
    assert chi_element((-1, 2, 3)) == (1, 2, 3)
    assert sigma((1, -2)) == (-1, 2)
    assert rho_element((1, 2, 3)) == (-1, -2, 3)
    assert rho_element(rho_element((2, -3, -1, 4))) == (2, -3, -1, 4)


def test_sigma_complements_descents():
    full = (1 << 4) - 1
    for w in group_elements("B", 4):
        assert descent_mask(sigma(w), "B") == full ^ descent_mask(w, "B")


def test_chi_lands_in_d_and_preserves_shadow():
    for w in group_elements("B", 4):
        img = chi_element(w)
        assert sum(1 for v in img if v < 0) % 2 == 0
        assert forget_signs(img) == forget_signs(w)


def test_length_examples():
    assert coxeter_length_table("S", 3)[identity(3)] == 0
    assert coxeter_length_table("S", 3)[(3, 2, 1)] == 3


def word_search_length(group, n, target, max_len):
    """Independent oracle: breadth over all generator words up to max_len."""
    gens = [g for _, g in coxeter_generators({"S": "A", "B": "B", "D": "D"}[group], n)]
    frontier = {identity(n)}
    if target in frontier:
        return 0
    for length in range(1, max_len + 1):
        frontier = {compose(w, g) for w in frontier for g in gens}
        if target in frontier:
            return length
    raise AssertionError("target not reached")


def compose_length_table(group, n):
    """The breadth-first length table built with compose, the oracle of
    the composition kernel."""
    gens = [g for _, g in coxeter_generators({"S": "A", "B": "B", "D": "D"}[group], n)]
    table, frontier = {identity(n): 0}, [identity(n)]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                wg = compose(w, g)
                if wg not in table:
                    table[wg] = table[w] + 1
                    nxt.append(wg)
        frontier = nxt
    return table


@pytest.mark.parametrize(
    "group, n", [("S", n) for n in range(7)] + [(g, n) for g in "BD" for n in range(6)]
)
def test_length_tables_equal_a_compose_build(group, n):
    table = coxeter_length_table(group, n)
    assert table == compose_length_table(group, n)
    assert list(table) == list(compose_length_table(group, n))  # the same search order


def test_length_vs_word_search():
    table = coxeter_length_table("B", 2)
    assert table[(-2, -1)] == word_search_length("B", 2, (-2, -1), 4)
    for w in group_elements("B", 2):
        assert table[w] == word_search_length("B", 2, w, 4)


def test_fibonacci_counts():
    assert [fibonacci(k) for k in range(7)] == [1, 1, 2, 3, 5, 8, 13]
    for n in range(21):
        assert len(sparse_masks(n)) == fibonacci(n)
    for n in range(1, 21):
        assert len(interior_sparse_masks(n)) == fibonacci(n - 1)


def test_sparse_mask_invariant():
    for n in range(9):
        for m in sparse_masks(n):
            assert not m & (m << 1)
            PeakIndex(n, m)  # validates


def test_peak_index_validation():
    with pytest.raises(ValueError):
        PeakIndex(4, 0b110)  # adjacent members
    with pytest.raises(ValueError):
        PeakIndex(4, 0b1)  # 0 is not a peak position
    with pytest.raises(ValueError):
        PeakIndex(3, 0b1000)  # out of range


def test_generator_set_text_roundtrip():
    gs = GeneratorSet.from_labels("D", 4, [0, 1, 3])
    assert gs.text() == "{1',1,3}"
    assert GeneratorSet.parse("D", 4, gs.text()) == gs
    gs2 = GeneratorSet.from_labels("B", 4, [0, 2])
    assert gs2.text() == "{0,2}"
    assert GeneratorSet.parse("B", 4, "{0,2}") == gs2
    assert GeneratorSet.parse("A", 5, "{}").mask == 0


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet.from_labels("A", 4, [0])  # 0 is not a type-A label
    with pytest.raises(ValueError):
        GeneratorSet.from_labels("B", 3, [3])
    with pytest.raises(ValueError):
        GeneratorSet.parse("B", 3, "{1'}")


def test_every_peak_set_realized_up_to_8():
    for n in range(1, 9):
        seen = set()
        for u in itertools.permutations(range(1, n + 1)):
            seen.add(peak_set(u).mask)
        assert seen == set(sparse_masks(n))


def two_pass_peak_realization(n):
    """The peak-set check of the descents suite as two passes over S_n:
    the realized sets first, then peaks against collapsed descents."""
    classes = {m: 0 for m in sparse_masks(n)}
    for u in group_elements("S", n):
        classes[perms.peak_mask(u)] += 1
    empty = [perms.mask_text(m) for m, c in classes.items() if c == 0]
    if empty:
        raise CheckFailure(f"unrealized peak sets at n={n}: {empty}")
    for u in group_elements("S", n):
        if perms.lambda_mask(descent_mask(u, "A")) != perms.peak_mask(u):
            raise CheckFailure(f"peaks differ from collapsed descents at {u}")


def peak_realization_witness():
    checks = verify.suite_descents(1)
    (result,) = run_checks(c for c in checks if c.check_id == "descents/peak-sets-realized")
    return result.witness


def no_peak_lanes(words, n, kernel=perms.descent_peak_masks):
    """The statistics kernel with every peak lane cleared."""
    descents, peaks = kernel(words, n)
    return descents, bytes(len(peaks))


@pytest.mark.parametrize(
    "broken",
    [
        # no peak at all, in the kernel's peak lanes that the check reads and in
        # the reference's peak_mask: sets go unrealized and peaks differ from descents
        {"peak_mask": lambda u: 0, "descent_peak_masks": no_peak_lanes},
        # every set realized, and the descent set {2} collapses to nothing
        {"lambda_mask": lambda m: 0 if m == 0b100 else m},
    ],
    ids=["unrealized-first", "first-mismatch"],
)
def test_one_pass_peak_realization_keeps_the_witness(broken, monkeypatch):
    # the shared tally of S_n reads the statistics where peak imports them
    for name, function in broken.items():
        for owner in (perms, peak):
            monkeypatch.setattr(owner, name, function)
    peak.descent_peak_pairs.cache_clear()
    try:
        with pytest.raises(CheckFailure) as two_pass:
            for n in range(1, 9):
                two_pass_peak_realization(n)
        assert peak_realization_witness() == str(two_pass.value)
    finally:
        peak.descent_peak_pairs.cache_clear()


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("PEAKALG_CAP", "3")
    with pytest.raises(CapExceeded):
        list(iter_group("B", 4))
    monkeypatch.setenv("PEAKALG_CAP", "S=8,B=4,BFS=7")
    assert len(list(iter_group("B", 4))) == 384
    with pytest.raises(CapExceeded):
        list(iter_group("B", 5))


def test_a_lowered_cap_stops_a_group_already_listed(monkeypatch):
    monkeypatch.delenv("PEAKALG_CAP", raising=False)
    listing = group_elements("S", 4)
    assert len(listing) == 24
    monkeypatch.setenv("PEAKALG_CAP", "3")
    with pytest.raises(CapExceeded, match="S_4 exceeds enumeration cap 3"):
        group_elements("S", 4)
    assert len(group_elements("S", 3)) == 6
    monkeypatch.delenv("PEAKALG_CAP")
    # the listing is cached, not rebuilt
    assert group_elements("S", 4) is listing


@pytest.mark.deep
def test_descents_match_length_oracle_rank_6():
    for ctype in ("A", "B", "D"):
        group = {"A": "S", "B": "B", "D": "D"}[ctype]
        for w in group_elements(group, 6):
            assert descent_mask(w, ctype) == length_descent_mask(w, ctype)
