"""Malformed or misplaced CLI input exits 2 with a message that names it:
sign forgetting on an element outside QB_n and QD_n, and a peak or
generator label with a token that is not a member."""

import json

import pytest

from peakalg import maps
from peakalg.algebra import AlgElem, elem_to_json
from peakalg.cli import main


@pytest.mark.parametrize("group", ["S", "B", "D"])
def test_phi_rejects_every_group_but_b_and_d(group):
    a = AlgElem.unit(group, 3)
    if group == "S":
        with pytest.raises(ValueError, match="phi acts on elements of QB_n or QD_n"):
            maps.phi(a)
    else:
        assert maps.phi(a) == AlgElem.unit("S", 3)


def test_apply_phi_to_a_symmetric_group_element_exits_2(tmp_path, capsys):
    src = tmp_path / "s.json"
    src.write_text(json.dumps(elem_to_json(AlgElem.unit("S", 3))))
    assert main(["apply", "--map", "phi", "--in", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "phi acts on elements of QB_n or QD_n" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["Pint", "--n", "4", "--label", "{x}"], "label '{x}': 'x' is not a peak position"),
        (["P", "--n", "5", "--label", "{2,-1}"], "label '{2,-1}': '-1' is not a peak position"),
        (
            ["Y", "--group", "B", "--n", "3", "--label", "{0,x}"],
            "label '{0,x}': 'x' is not a type-B generator",
        ),
        (
            ["X", "--group", "B", "--n", "3", "--label", "{1'}"],
            "label \"{1'}\": \"1'\" is not a type-B generator",
        ),
    ],
)
def test_bad_label_token_is_named(argv, message, capsys):
    assert main(["export", *argv]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("kind", ["Y0", "X0"])
def test_an_ideal_label_holding_0_exits_2(kind, capsys):
    assert main(["export", kind, "--n", "3", "--label", "{0}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "label J must avoid 0; the 0 is implicit" in captured.err


def test_good_labels_still_parse(capsys):
    assert main(["export", "Pint", "--n", "4", "--label", "{ 3 }"]) == 0
    assert main(["export", "Y", "--group", "D", "--n", "3", "--label", "{1',2}"]) == 0
    capsys.readouterr()
