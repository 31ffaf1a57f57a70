"""Malformed input exits 2 and names its defect: a JSON coefficient with a
zero denominator, a label or signed composition with an empty token, and
a composition part that is not an integer.
The empty label "{}" stays the empty set.  Every --map name of apply
reads the function of peakalg.maps it names."""

import json
from fractions import Fraction

import pytest

from peakalg import maps
from peakalg.algebra import coeff_from_str, elem_to_json
from peakalg.bases import y_basis
from peakalg.cli import MAPS, main
from peakalg.mr import comp_from_text
from peakalg.peak import peak_basis
from peakalg.perms import GeneratorSet, PeakIndex


@pytest.mark.parametrize("coeff", ["1/0", "-3/0", "0/0"])
def test_a_zero_denominator_exits_2(coeff, tmp_path, capsys):
    src = tmp_path / "elem.json"
    src.write_text(json.dumps({"group": "B", "n": 1, "terms": [{"perm": [1], "coeff": coeff}]}))
    assert main(["apply", "--map", "phi", "--in", str(src)]) == 2
    err = capsys.readouterr().err
    assert f"coefficient {coeff!r} has a zero denominator" in err
    assert "Traceback" not in err
    with pytest.raises(ValueError, match="zero denominator"):
        coeff_from_str(coeff)


@pytest.mark.parametrize("label", ["{0,,2}", "{,}", "{0,2,}", "{,0}", "0,,2"])
def test_an_empty_label_member_exits_2(label, capsys):
    assert main(["export", "Y", "--group", "B", "--n", "3", "--label", label]) == 2
    assert f"label {label!r} has an empty member" in capsys.readouterr().err
    with pytest.raises(ValueError, match="empty member"):
        GeneratorSet.parse("D", 3, label)
    with pytest.raises(ValueError, match="empty member"):
        PeakIndex.parse(5, label.replace("0", "1"))


@pytest.mark.parametrize("alpha", ["(1,,2)", "(,)", "(1,2,)", "(,3)"])
def test_an_empty_composition_part_exits_2(alpha, capsys):
    assert main(["export", "T", "--n", "3", "--alpha", alpha]) == 2
    assert f"{alpha!r} is not a signed composition: it has an empty part" in capsys.readouterr().err


@pytest.mark.parametrize("alpha, part", [("(a,2)", "a"), ("(1,2", "(1")])
def test_a_composition_part_that_is_not_an_integer_exits_2(alpha, part, capsys):
    assert main(["export", "T", "--n", "3", "--alpha", alpha]) == 2
    err = capsys.readouterr().err
    assert f"{alpha!r} is not a signed composition: part {part!r} is not an integer" in err
    assert "invalid literal" not in err
    with pytest.raises(ValueError, match="is not an integer"):
        comp_from_text(alpha)


@pytest.mark.parametrize("label", ["{}", "{ }", "", " {} "])
def test_the_empty_label_is_the_empty_set(label):
    assert GeneratorSet.parse("B", 3, label).mask == 0
    assert PeakIndex.parse(4, label).mask == 0


def test_labels_and_compositions_with_members_still_parse(capsys):
    assert GeneratorSet.parse("B", 3, "{ 0 , 2 }").mask == 0b101
    assert comp_from_text("(2, -1)") == (2, -1)
    assert comp_from_text("()") == ()
    assert main(["export", "Y", "--group", "B", "--n", "3", "--label", "{}"]) == 0
    assert main(["export", "T", "--n", "3", "--alpha", "(1,-2)"]) == 0


@pytest.mark.parametrize("name", sorted(MAPS))
def test_each_map_name_applies_its_function(name, tmp_path, capsys):
    if name == "pi":
        elem = peak_basis(4, 0b10)
    else:
        ctype = {"psi": "D", "rho": "D", "gamma": "D", "theta": "A"}.get(name, "B")
        elem = y_basis(ctype, 3, 0b100)
    elem = elem.scale(Fraction(3, 2))
    src = tmp_path / "elem.json"
    src.write_text(json.dumps(elem_to_json(elem)))
    assert main(["apply", "--map", name, "--in", str(src)]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got == elem_to_json(getattr(maps, MAPS[name])(elem))
