import pytest

from peakalg.algebra import AlgElem, add_multiple
from peakalg.maps import interior_peak_generator, x0_generator
from peakalg.words import (
    Alphabet,
    act,
    act_word,
    check_action_algebra_morphism,
    check_bracket_identity,
    check_convolution,
    check_right_action,
    check_symmetrizer_identity,
    concat,
    convolve_actions,
    jordan_bracket,
    nested_bracket,
    nested_symmetrizer,
    symmetrizer,
)

AB = Alphabet(("a", "b", "c"), {"a": "b", "b": "a", "c": "c"})
TRIV = Alphabet(("a", "b", "c"))


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(("a", "b"), {"a": "b", "b": "c"})
    with pytest.raises(ValueError):
        Alphabet(("a", "b"), {"a": "a"})


def test_identity_acts_trivially():
    t = {("a", "b", "c"): 1}
    assert act(t, (1, 2, 3), AB) == t


def test_barred_reversal_action():
    # moving by the all-barred reversal applies the bar map entrywise
    got = act({("a", "b"): 1}, (-2, -1), AB)
    assert got == {("a", "b"): 1}  # bar(b), bar(a) = a, b
    got2 = act({("a", "c"): 1}, (-2, -1), AB)
    assert got2 == {("c", "b"): 1}


def test_length_mismatch():
    with pytest.raises(ValueError):
        act_word(("a",), (1, 2), AB)


def test_symmetrizer_examples():
    t = {("a",): 1}
    assert symmetrizer(t, AB) == {("a",): 1, ("b",): 1}
    assert act(t, x0_generator(1), AB) == {("a",): 1, ("b",): 1}
    # a palindromic self-barred word doubles
    t2 = {("c", "c"): 1}
    assert symmetrizer(t2, AB) == {("c", "c"): 2}


def test_bracket_examples():
    a, b = {("a",): 1}, {("b",): 1}
    assert jordan_bracket(a, b) == {("a", "b"): 1, ("b", "a"): 1}
    got = act({("a", "b", "c"): 1}, interior_peak_generator(3), TRIV)
    want = {("a", "b", "c"): 1, ("b", "a", "c"): 1, ("c", "a", "b"): 1, ("c", "b", "a"): 1}
    assert got == want
    assert nested_bracket(("a", "b", "c")) == want


def test_symmetrizer_identity_lengths():
    for n in (1, 2, 3, 4):
        check_symmetrizer_identity(n, AB)


def test_bracket_identity_lengths():
    for n in (1, 2, 3, 4, 5):
        check_bracket_identity(n, TRIV)
    with pytest.raises(ValueError):
        check_bracket_identity(2, AB)


def test_doubling_under_trivial_involution():
    for word in TRIV.words(3):
        doubled = {w: 2 * c for w, c in nested_bracket(word).items()}
        assert nested_symmetrizer(word, TRIV) == doubled


def test_right_action_law():
    check_right_action(2, AB)
    check_right_action(3, AB)


def test_action_is_algebra_morphism():
    check_action_algebra_morphism(2, AB)


def test_convolution():
    check_convolution(1, 1, AB)
    check_convolution(1, 2, AB)
    # explicit smallest case: two singles convolve to both interleavings
    got = convolve_actions((1,), (1,), ("a", "b"), AB)
    assert got == {("a", "b"): 1, ("b", "a"): 1}


def test_linearity_of_action():
    t = {("a", "b"): 1}
    x = AlgElem.monomial("B", 2, (2, 1), 2) + AlgElem.monomial("B", 2, (-1, 2))
    got = act(t, x, AB)
    want = {}
    add_multiple(want, 2, act(t, (2, 1), AB))
    add_multiple(want, 1, act(t, (-1, 2), AB))
    assert got == want


def _no_zero(combination: dict) -> dict:
    assert 0 not in combination.values(), combination
    return combination


def test_combinations_store_no_zero_coefficient():
    # a combination whose terms cancel is the empty dict, so plain dict
    # equality compares combinations
    u, v = AlgElem.monomial("B", 2, (1, 2)), AlgElem.monomial("B", 2, (2, 1))
    assert _no_zero(act({("c", "c"): 1}, u - v, AB)) == {}
    assert _no_zero(act({("a", "b"): 1, ("b", "a"): -1}, (2, 1), AB)) == {
        ("b", "a"): 1,
        ("a", "b"): -1,
    }
    assert _no_zero(symmetrizer({("a",): 1, ("b",): -1}, AB)) == {}
    # a.aa and aa.a cancel in the product of a - aa with aa + a
    s, t = {("a",): 1, ("a", "a"): -1}, {("a", "a"): 1, ("a",): 1}
    assert _no_zero(concat(s, t)) == {("a", "a"): 1, ("a", "a", "a", "a"): -1}
    assert _no_zero(concat(s, {})) == {}
    # ab and ba cancel in (a + b)(a - b) + (a - b)(a + b)
    s, t = {("a",): 1, ("b",): 1}, {("a",): 1, ("b",): -1}
    assert _no_zero(jordan_bracket(s, t)) == {("a", "a"): 2, ("b", "b"): -2}
    assert _no_zero(jordan_bracket(s, {("a",): 1, ("b",): 1})) == {
        ("a", "a"): 2,
        ("a", "b"): 2,
        ("b", "a"): 2,
        ("b", "b"): 2,
    }
