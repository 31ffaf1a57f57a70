"""A label with a member out of range exits 2 naming the label and that
member, never a binary mask: a peak past the rank, adjacent peaks, 1 in an
interior peak set, a generator past the rank."""

import pytest

from peakalg.cli import main
from peakalg.perms import GeneratorSet, PeakIndex


@pytest.mark.parametrize(
    "argv, message",
    [
        (["P", "--n", "4", "--label", "{5}"], "label '{5}': '5' is not a peak position of rank 4"),
        (["P", "--n", "4", "--label", "{0}"], "label '{0}': '0' is not a peak position of rank 4"),
        (["P", "--n", "4", "--label", "{1,2}"], "label '{1,2}': peaks 1 and 2 are adjacent"),
        (
            ["Pint", "--n", "4", "--label", "{1}"],
            "label '{1}': '1' is not a peak position of an interior peak set of rank 4",
        ),
        (
            ["Y", "--group", "B", "--n", "3", "--label", "{7}"],
            "label '{7}': '7' is not a type-B generator of rank 3",
        ),
        (
            ["Y", "--group", "D", "--n", "3", "--label", "{3}"],
            "label '{3}': '3' is not a type-D generator of rank 3",
        ),
        (
            ["X", "--group", "S", "--n", "3", "--label", "{0}"],
            "label '{0}': '0' is not a type-A generator of rank 3",
        ),
    ],
)
def test_out_of_range_member_is_named(argv, message, capsys):
    assert main(["export", *argv]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "0b" not in err and "mask" not in err


def test_members_in_range_still_parse():
    assert PeakIndex.parse(5, "{1,3}").mask == 0b1010
    assert PeakIndex.parse(5, "{2,4}", interior=True).mask == 0b10100
    assert GeneratorSet.parse("D", 3, "{1',2}").mask == 0b101
    assert GeneratorSet.parse("D", 3, "{0,2}").mask == 0b101
    assert GeneratorSet.parse("A", 4, "{1,3}").mask == 0b1010
