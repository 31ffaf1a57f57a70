"""StructureTable.json_text, the one-pass writer of `table --format json`,
against its oracle json.dumps(table.to_json(), indent=2): every table of
the command line at every rank up to its cap, and hand-built tables with a
Fraction cell, with no labels and with labels that need escaping."""

import json
from fractions import Fraction

import pytest

from peakalg.algebra import StructureTable
from peakalg.cli import TABLE_CAPS, TABLE_CAPS_DEEP, build_table


def assert_writes_the_oracle(table: StructureTable):
    """json_text() equals json.dumps(table.to_json(), indent=2); compared
    line by line so that a failure names its first line without a slow
    diff of two long strings."""
    assert table.json_text().split("\n") == json.dumps(table.to_json(), indent=2).split("\n")


def ranks(lo_caps: dict, caps: dict) -> list:
    """Each (algebra, n) with lo_caps[algebra] < n <= caps[algebra]."""
    return [(alg, n) for alg, cap in caps.items() for n in range(lo_caps[alg] + 1, cap + 1)]


@pytest.mark.parametrize("algebra, n", ranks(dict.fromkeys(TABLE_CAPS, -1), TABLE_CAPS))
def test_writer_matches_json_dumps(algebra, n):
    assert_writes_the_oracle(build_table(algebra, n))


@pytest.mark.deep
@pytest.mark.parametrize("algebra, n", ranks(TABLE_CAPS, TABLE_CAPS_DEEP))
def test_writer_matches_json_dumps_deep(algebra, n):
    assert_writes_the_oracle(build_table(algebra, n, deep=True))


@pytest.mark.parametrize(
    "table",
    [
        StructureTable("t", ["a", "b"], [[(1, Fraction(-3, 2)), (0, 1)], [(0, 1), (1, Fraction(-3, 2))]]),
        StructureTable("empty", [], []),
        StructureTable("no coordinates", ["a"], [[()]]),
        StructureTable('q"t\\é', ['say "hi"', "back\\slash", "ñ", "tab\tline\n"], [[(1,) * 4] * 4] * 4),
    ],
    ids=["fraction-cell", "no-labels", "empty-cell", "escaped-labels"],
)
def test_writer_matches_json_dumps_on_hand_built_tables(table):
    assert_writes_the_oracle(table)

