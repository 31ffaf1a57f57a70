"""The label codec of peakalg.perms, and the one validator per kind of label.

Generator subsets (types A, B, D) and peak sets (P and the interior ideal
P°) are bitmasks built by mask_of, read by members_of, counted by popcount
and printed by mask_text.  GeneratorSet and PeakIndex are the only range
and adjacency checks: a library call with a bad mask, and a CLI label with
a bad or repeated member, fail naming the label and the member.
"""

import pytest

from peakalg.bases import descent_algebra, y_basis
from peakalg.cli import main
from peakalg.peak import interior_peak_algebra, interior_peak_basis, peak_algebra, peak_basis
from peakalg.perms import GeneratorSet, PeakIndex, mask_of, mask_text, members_of, popcount

RANKS = range(0, 7)


@pytest.mark.parametrize("ctype", ["A", "B", "D"])
def test_every_generator_label_round_trips(ctype):
    for n in RANKS:
        labels = descent_algebra(ctype, n).labels
        for m in labels:
            gs = GeneratorSet(ctype, n, m)
            assert mask_of(members_of(m)) == m
            assert gs.labels() == members_of(m)
            assert len(gs) == popcount(m) == len(members_of(m))
            assert gs.text() == mask_text(m, gs.token)
            assert GeneratorSet.parse(ctype, n, gs.text()).mask == m
        for m in set(range(1 << (n + 1))) - set(labels):
            with pytest.raises(ValueError, match=f"is not a type-{ctype} generator of rank {n}"):
                GeneratorSet(ctype, n, m)


@pytest.mark.parametrize("interior", [False, True], ids=["P", "interior"])
def test_every_peak_label_round_trips(interior):
    for n in RANKS:
        labels = (interior_peak_algebra if interior else peak_algebra)(n).labels
        for m in labels:
            index = PeakIndex(n, m)
            assert mask_of(members_of(m)) == m
            assert index.members() == members_of(m)
            assert len(index) == popcount(m) == len(members_of(m))
            assert index.text() == mask_text(m)
            assert PeakIndex.parse(n, index.text(), interior=interior).mask == m
        for m in set(range(1 << (n + 1))) - set(labels):
            with pytest.raises(ValueError, match="label '{.*}': "):
                index = PeakIndex(n, m)
                if interior:
                    index.require_interior()


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: interior_peak_basis(4, 0b10),
            "label '{1}': '1' is not a peak position of an interior peak set of rank 4",
        ),
        (lambda: y_basis("B", 3, 1 << 7), "label '{7}': '7' is not a type-B generator of rank 3"),
        (lambda: peak_basis(4, 0b110), "label '{1,2}': peaks 1 and 2 are adjacent"),
        (lambda: y_basis("A", 3, 0b1), "label '{0}': '0' is not a type-A generator of rank 3"),
    ],
    ids=["interior-peak-1", "type-B-past-rank", "adjacent-peaks", "type-A-0"],
)
def test_library_label_error_names_label_and_member(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
    assert "0b" not in str(err.value)


@pytest.mark.parametrize(
    "make",
    [
        lambda: GeneratorSet("B", 3, -1),
        lambda: PeakIndex(4, -4),
        lambda: y_basis("A", 3, -2),
        lambda: peak_basis(4, -1),
        lambda: interior_peak_basis(5, -8),
    ],
    ids=["GeneratorSet", "PeakIndex", "y_basis", "peak_basis", "interior_peak_basis"],
)
def test_negative_mask_is_rejected(make):
    with pytest.raises(ValueError, match="label mask -[0-9]+ is negative"):
        make()


@pytest.mark.parametrize(
    "argv, label",
    [
        (["P", "--n", "5", "--label", "{3,3}"], "'{3,3}'"),
        (["Y", "--group", "D", "--n", "3", "--label", "{0,1'}"], "\"{0,1'}\""),
        (["Y", "--group", "B", "--n", "3", "--label", "{2,2}"], "'{2,2}'"),
    ],
    ids=["peak", "fork-by-both-names", "type-B"],
)
def test_repeated_member_exits_2(argv, label, capsys):
    assert main(["export", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"label {label}: " in captured.err and "repeats a member" in captured.err


def test_member_past_the_rank_is_rejected_before_a_mask_is_built(capsys):
    # a 10**14-bit mask would not fit in memory; the token is refused first
    assert main(["export", "P", "--n", "4", "--label", "{99999999999999}"]) == 2
    assert "'99999999999999' is not a peak position of rank 4" in capsys.readouterr().err
