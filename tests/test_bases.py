import os
import subprocess
import sys
from pathlib import Path

import pytest

from peakalg.algebra import AlgElem
from peakalg.bases import (
    comp_complement,
    comp_to_subset,
    descent_algebra,
    descent_coordinates,
    structure_constants,
    structure_cube,
    subset_to_comp,
    subset_to_pseudo_comp,
    x_basis,
    x_to_y_coords,
    y_basis,
    y_label_elements,
    y_to_x_coords,
)
from peakalg.perms import descent_mask, group_elements


def test_y_empty_is_unit():
    for ctype, n in (("A", 4), ("B", 3), ("D", 3)):
        assert y_basis(ctype, n, 0) == AlgElem.unit(y_basis(ctype, n, 0).group, n)


def test_x_full_is_whole_group():
    assert len(x_basis("B", 2, 0b11)) == 8
    assert len(x_basis("A", 3, 0b110)) == 6
    assert len(x_basis("D", 3, 0b111)) == 24


def test_y_support_counts_against_enumeration():
    # brute-force descent enumeration oracle
    for ctype, group, n in (("B", "B", 3), ("D", "D", 3), ("A", "S", 4)):
        for m, yj in y_label_elements(ctype, n):
            count = sum(1 for w in group_elements(group, n) if descent_mask(w, ctype) == m)
            assert len(yj) == count


def test_y_classes_partition_group():
    for ctype, group, n in (("A", "S", 6), ("B", "B", 5), ("D", "D", 5)):
        total = sum(len(ws) for ws in descent_algebra(ctype, n).classes.values())
        assert total == len(group_elements(group, n))


def test_invalid_label_rejected():
    with pytest.raises(ValueError):
        y_basis("A", 3, 0b1)  # 0 is not a type-A generator
    with pytest.raises(ValueError):
        x_basis("B", 2, 0b100)


def test_composition_codec():
    assert comp_to_subset((2, 1, 2), 5) == frozenset({2, 3})
    assert subset_to_comp({2, 3}, 5) == (2, 1, 2)
    assert comp_to_subset((5,)) == frozenset()
    assert subset_to_comp(set(), 5) == (5,)
    assert subset_to_pseudo_comp({0, 2}, 4) == (0, 2, 2)
    assert subset_to_pseudo_comp(set(), 4) == (4,)
    assert comp_complement((2, 1, 2)) == (1, 3, 1)


def test_codec_roundtrip():
    for n in (1, 2, 5):
        for m in range(1 << (n - 1)):
            subset = frozenset(i + 1 for i in range(n - 1) if (m >> i) & 1)
            assert comp_to_subset(subset_to_comp(subset, n), n) == subset


def test_codec_rejects_malformed():
    with pytest.raises(ValueError):
        comp_to_subset((2, 0, 3))
    with pytest.raises(ValueError):
        comp_to_subset((2, 2), 5)
    with pytest.raises(ValueError):
        subset_to_comp({0, 2}, 5)


def test_xy_coordinate_changes_inverse():
    for m in range(1 << 4):
        assert y_to_x_coords(x_to_y_coords({m: 1})) == {m: 1}
        assert x_to_y_coords(y_to_x_coords({m: 1})) == {m: 1}


NEGATIVE_MASK_PROBE = """
from peakalg.bases import {name}
try:
    {name}({{-1: 1}})
except ValueError as error:
    print(error)
"""


@pytest.mark.parametrize("name", ["x_to_y_coords", "y_to_x_coords"])
def test_a_negative_label_mask_is_rejected(name):
    # in a fresh interpreter with a timeout, so a submask walk that never
    # reaches 0 fails the test instead of hanging the suite
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    probe = NEGATIVE_MASK_PROBE.format(name=name)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=30
    )
    assert out.stdout == "label mask -1 is negative\n"
    # a zero coordinate names no label, as for any other mask
    assert x_to_y_coords({-1: 0}) == y_to_x_coords({-1: 0}) == {}


def test_descent_coordinates_roundtrip():
    a = y_basis("B", 3, 0b1) + y_basis("B", 3, 0b10).scale(3)
    coords = descent_coordinates(a, "B")
    assert coords == {0b1: 1, 0b10: 3}
    assert descent_algebra("B", 3).element(coords) == a
    assert descent_coordinates(AlgElem.monomial("B", 3, (2, 1, 3)), "B") is None


def test_structure_table_rank_1():
    t = structure_constants("A", 2)
    assert t.labels == ["{}", "{1}"]
    assert t.cell(0, 1) == (0, 1)  # unit times Y_{1}
    assert t.cell(1, 1) == (1, 0)  # Y_{1}^2 = Y_{}


def test_descent_algebras_closed():
    # running the builders *is* the closure theorem check
    structure_constants("B", 4)
    structure_constants("D", 3)
    structure_constants("A", 4)


def test_structure_constants_nonneg_integers():
    for ctype, n in (("A", 4), ("B", 3), ("D", 3)):
        t = structure_constants(ctype, n)
        for row in t.cells:
            for cell in row:
                for c in cell:
                    assert isinstance(c, int) and c >= 0


def test_structure_cube_matches_products():
    cube = structure_cube("B", 3)
    elems = dict(y_label_elements("B", 3))
    for m1 in (0b0, 0b101):
        for m2 in (0b10, 0b111):
            prod = elems[m1] * elems[m2]
            rebuilt = descent_algebra("B", 3).element(cube[(m1, m2)])
            assert prod == rebuilt


def test_csv_layout():
    t = structure_constants("A", 2)
    lines = t.to_csv().strip().splitlines()
    assert lines[0].endswith("{},{1}")
    assert lines[1].startswith("{},")


def test_every_descent_set_realized():
    # every generator subset occurs as a descent set, so the Y-family is
    # a genuine basis (dimensions 2^(n-1), 2^n, 2^n)
    for ctype, lo in (("A", 1), ("B", 1), ("D", 2)):
        for n in range(lo, 6):
            for m, ws in descent_algebra(ctype, n).classes.items():
                assert ws, (ctype, n, bin(m))
