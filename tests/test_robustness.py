"""The runner keeps its report when a check body raises, malformed size
caps, JSON elements and numeric arguments are rejected with exit 2, a
degree drop below its rank exits 2 naming the rank it needs, any other
exception exits 3, and `table --deep` lifts the cap on the structure
constants."""

import json
import re
from fractions import Fraction

import pytest

import peakalg.bases
import peakalg.peak
import peakalg.verify
from peakalg.algebra import AlgElem, elem_from_json
from peakalg.cli import main
from peakalg.perms import bfs_cap, enum_cap
from peakalg.reporting import Check, VerifyReport, run_check


def _raise_key_error():
    return {}["missing"]


def _raise_type_error():
    return len(3)


@pytest.mark.parametrize(
    "body, witness",
    [
        (_raise_key_error, "KeyError: 'missing'"),
        (_raise_type_error, "TypeError: object of type 'int' has no len()"),
    ],
)
def test_unexpected_exception_is_an_error(body, witness):
    result = run_check("demo/raises", body)
    assert result.status == "error"
    assert result.witness == witness
    report = VerifyReport("demo", [run_check("demo/ok", lambda: None), result])
    assert not report.passed and report.errored
    data = json.loads(report.to_json())
    assert data["passed"] is False
    assert data["checks"][1] == {"id": "demo/raises", "status": "error", "witness": witness}
    assert "[ERR ] demo/raises" in report.pretty()


def test_failure_is_not_an_error():
    report = VerifyReport("demo", [run_check("demo/fails", lambda: 1 / 0)])
    assert report.checks[0].status == "fail"
    assert not report.passed and not report.errored


def _suite_with_error(n_max, deep=False):
    return [
        Check("boom/ok", [None], lambda _: None),
        Check("boom/key-error", [None], lambda _: _raise_key_error()),
        Check("boom/type-error", [None], lambda _: _raise_type_error()),
    ]


def test_verify_exit_code_3_keeps_the_report(capsys, monkeypatch):
    monkeypatch.setitem(peakalg.verify.SUITES, "boom", _suite_with_error)
    code = main(["verify", "--suite", "boom", "--format", "json"])
    assert code == 3
    data = json.loads(capsys.readouterr().out)
    assert [c["status"] for c in data["checks"]] == ["error", "pass", "error"]


@pytest.mark.parametrize("value", ["S=abc", "B=-3", "Q=4", "S=8,,B=6", "-3", "S"])
def test_malformed_cap_rejected(value, monkeypatch, capsys):
    monkeypatch.setenv("PEAKALG_CAP", value)
    with pytest.raises(ValueError, match="PEAKALG_CAP"):
        enum_cap("S")
    with pytest.raises(ValueError, match="PEAKALG_CAP"):
        bfs_cap()
    assert main(["table", "--algebra", "P", "--n", "2"]) == 2
    assert "PEAKALG_CAP" in capsys.readouterr().err


def test_wellformed_caps_accepted(monkeypatch):
    monkeypatch.setenv("PEAKALG_CAP", " s=5 , BFS=0 ")
    assert enum_cap("S") == 5 and enum_cap("B") == 7 and bfs_cap() == 0
    monkeypatch.setenv("PEAKALG_CAP", "4")
    assert enum_cap("D") == 4 and bfs_cap() == 6


def test_table_passes_deep_through(monkeypatch, capsys):
    """The CLI caps the rank, and --deep lifts its cap."""
    seen = []

    def fake(ctype, n):
        seen.append((ctype, n))
        return peakalg.bases.StructureTable(name="fake", labels=[], cells=[])

    monkeypatch.setattr(peakalg.bases, "structure_constants", fake)
    assert main(["table", "--algebra", "SigB", "--n", "5", "--format", "csv"]) == 2
    assert "table SigB is capped at n=4" in capsys.readouterr().err
    assert seen == []
    assert main(["table", "--algebra", "SigB", "--n", "5", "--deep", "--format", "csv"]) == 0
    assert seen == [("B", 5)]


@pytest.mark.parametrize("exc", [KeyError("x"), TypeError("boom")], ids=["KeyError", "TypeError"])
def test_an_unexpected_exception_outside_a_check_exits_3(exc, monkeypatch, capsys):
    def broken(n):
        raise exc

    monkeypatch.setattr(peakalg.peak, "peak_table", broken)
    assert main(["table", "--algebra", "P", "--n", "3"]) == 3
    assert capsys.readouterr().err == f"error: {type(exc).__name__}: {exc}\n"
    # malformed input stays a usage error
    assert main(["export", "P", "--n", "5", "--label", "{2,-1}"]) == 2


@pytest.mark.deep
def test_table_sigd_rank_5_deep(capsys):
    assert main(["table", "--algebra", "SigD", "--n", "5", "--deep", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["name"] == "Sigma(D_5)[Y]"
    assert len(data["labels"]) == len(data["cells"]) == 32


@pytest.mark.parametrize(
    "text, defect",
    [
        ('{"group": "B", "n": 2, "terms": 5}', "'terms' must be a list"),
        ("[1, 2]", "must be an object, not list"),
        ('{"group": "B", "n": 2}', "no 'terms'"),
        ('{"group": "B", "n": -1, "terms": []}', "'n' must be a non-negative integer"),
        ('{"group": "B", "n": 2, "terms": [{"perm": [1, 2]}]}', "needs a 'perm' and a 'coeff'"),
        ('{"group": "B", "n": 2, "terms": [{"coeff": "1"}]}', "needs a 'perm' and a 'coeff'"),
        ('{"group": "B", "n": 2, "terms": [7]}', "needs a 'perm' and a 'coeff'"),
        ('{"group": "B", "n": 2, "terms": [{"perm": "12", "coeff": "1"}]}', "not a list of int"),
        ('{"group": "B", "n": 2, "terms": [{"perm": [1, 2.0], "coeff": "1"}]}', "not a list"),
        ('{"group": "B", "n": 2, "terms": [{"perm": [1, 2], "coeff": 0.1}]}', "coefficient 0.1"),
        ('{"group": "B", "n": 2, "terms": [{"perm": [1, 2], "coeff": true}]}', "coefficient True"),
    ],
)
def test_malformed_json_element_exits_2(text, defect, tmp_path, capsys):
    src = tmp_path / "elem.json"
    src.write_text(text)
    assert main(["apply", "--map", "phi", "--in", str(src)]) == 2
    assert defect in capsys.readouterr().err
    with pytest.raises(ValueError, match=re.escape(defect)):
        elem_from_json(json.loads(text))


def test_exact_json_coefficients_accepted():
    terms = [{"perm": [1, 2], "coeff": 3}, {"perm": [-2, 1], "coeff": "-3/2"}]
    data = {"group": "B", "n": 2, "terms": terms}
    assert elem_from_json(data) == AlgElem("B", 2, {(1, 2): 3, (-2, 1): Fraction(-3, 2)})


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--jobs", "0"], "--jobs"),
        (["verify", "--jobs", "-3"], "--jobs"),
        (["verify", "--suite", "peaks", "--n-max", "-2"], "--n-max"),
        (["table", "--algebra", "P", "--n", "-1"], "--n"),
        (["table", "--algebra", "P", "--n", "two"], "--n"),
        (["export", "identity", "--n", "-1"], "--n"),
    ],
)
def test_out_of_range_numbers_exit_2(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "map_name, group, n, perm, need",
    [
        ("beta", "B", 0, [], "beta needs rank >= 1"),
        ("gamma", "D", 1, [1], "gamma needs rank >= 2"),
        ("beta2", "B", 1, [1], "beta needs rank >= 1"),
    ],
)
def test_drop_below_its_rank_exits_2(map_name, group, n, perm, need, tmp_path, capsys):
    src = tmp_path / "elem.json"
    src.write_text(json.dumps({"group": group, "n": n, "terms": [{"perm": perm, "coeff": 1}]}))
    assert main(["apply", "--map", map_name, "--in", str(src)]) == 2
    assert need in capsys.readouterr().err


def test_rank_0_table_still_valid(capsys):
    assert main(["table", "--algebra", "P", "--n", "0", "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("P_0")
