"""Class binning reads one byte word -> label table per group and rank.

The enumerated parent (an algebra with no parent) holds the table; each
coarsening reads it through its fibre map (parent label -> its own
label), one entry per parent label.  A term that is not a group element
has no label, so an element with such a term is off the span; a term of
another rank raises.
"""

import pytest

from peakalg.algebra import AlgElem
from peakalg.bases import descent_algebra
from peakalg.commutative import wp_algebra
from peakalg.hopf import coproduct
from peakalg.peak import interior_peak_algebra, peak_algebra
from peakalg.perms import byte_word, byte_words, group_elements

from oracles import bidegree, members, pair_coords

OUTSIDE = (3, -1, 2)  # not in S_3; its type-A descent set is {1}, as for (3, 1, 2)


def swapped(members, old, new) -> AlgElem:
    """The class sum of members with old replaced by new, unvalidated."""
    assert old in members
    return AlgElem._raw("S", 3, {(new if w == old else w): 1 for w in members})


def test_a_term_outside_the_group_is_off_the_span():
    parent = descent_algebra("A", 3)
    assert parent.coords(AlgElem._raw("S", 3, {(2, 1, 3): 1, (3, 1, 2): 1})) == {0b10: 1}
    assert parent.coords(AlgElem._raw("S", 3, {(2, 1, 3): 1, OUTSIDE: 1})) is None
    for coarse in (peak_algebra(3), wp_algebra(3)):  # a coarsening, and one of a coarsening
        (label,) = coarse.labels_of([byte_word((3, 1, 2))])
        assert coarse.coords(coarse.element({label: 1})) == {label: 1}
        assert coarse.coords(swapped(members(coarse)[label], (3, 1, 2), OUTSIDE)) is None
        # a term of another rank is no term of the group: it raises
        with pytest.raises(ValueError, match="rank mismatch"):
            coarse.coords(AlgElem._raw("S", 3, {(2, 1, 3): 1, (2, 1): 1}))
    assert list(peak_algebra(3).labels_of([byte_word(OUTSIDE)])) == [None]
    with pytest.raises(ValueError, match="rank mismatch"):
        parent.coords(AlgElem._raw("S", 3, {(1, 2, 3, 4): 1}))


def test_a_tensor_term_outside_the_group_is_off_the_span():
    p3, p0 = peak_algebra(3), peak_algebra(0)
    class_members = members(p3)[0b10]
    whole = {(w, ()): 1 for w in class_members}
    assert pair_coords(whole, p3, p0) == {(0b10, 0): 1}
    fake = {((OUTSIDE if w == (3, 1, 2) else w), ()): 1 for w in class_members}
    assert pair_coords(fake, p3, p0) is None


def test_only_the_enumerated_parent_holds_an_element_table():
    n = 5
    tuples = set(group_elements("S", n))
    elements = set(byte_words(tuples, n))
    parent = descent_algebra("A", n)
    coarsenings = (peak_algebra(n), interior_peak_algebra(n))
    for alg in coarsenings:
        for lab, c in alg.basis:
            assert alg.coords(c) == {lab: 1}
            for p in range(n + 1):
                pair_coords(bidegree(coproduct(c), p), peak_algebra(p), peak_algebra(n - p))
    for alg in coarsenings:
        assert alg.parent is parent
        assert len(alg.fibre_of) == len(parent.labels)
        held = [
            name
            for name, value in vars(alg).items()
            if isinstance(value, dict) and not elements.isdisjoint(value)
        ]
        assert held == [], f"a coarsening holds an element-keyed dict: {held}"
    assert set(vars(parent)["label_of"]) == elements
    for alg in (parent, *coarsenings):  # members are byte words: no dict or tuple of tuples
        signed = [
            name
            for name, value in vars(alg).items()
            for part in ([value, *value.values()] if isinstance(value, dict) else [value])
            if isinstance(part, (dict, tuple)) and not tuples.isdisjoint(part)
        ]
        assert signed == [], f"an algebra holds signed tuples: {signed}"
