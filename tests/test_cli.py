import json

import pytest

from peakalg.algebra import elem_from_json
from peakalg.cli import main
from peakalg.verify import SUITES, run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_table_peak_rank_2_matches_frozen(capsys):
    code, out = run_cli(capsys, "table", "--algebra", "P", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "P_2,{},{1}"
    assert lines[1] == '{},"(1,0)","(0,1)"'
    assert lines[2] == '{1},"(0,1)","(1,0)"'


def test_table_whp_rank_3(capsys):
    code, out = run_cli(capsys, "table", "--algebra", "whp", "--n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["labels"] == ["p_0", "p_1", "p0_1", "p0_2"]
    assert data["cells"][1][1] == ["5", "4", "0", "0"]


def test_table_peak_rank_1_trivial(capsys):
    code, out = run_cli(capsys, "table", "--algebra", "P", "--n", "1", "--format", "csv")
    assert code == 0
    assert "(1)" in out


def test_table_cap(capsys):
    code, _ = run_cli(capsys, "table", "--algebra", "SigB", "--n", "5")
    assert code == 2


def test_verify_smoke(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "all", "--n-max", "2")
    assert code == 0
    assert "PASS" in out


def test_verify_single_suite_json(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "words", "--n-max", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all(c["status"] == "pass" for c in data["checks"])


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    assert "argument --suite: invalid choice: 'nonsense'" in capsys.readouterr().err


def test_verify_help_lists_the_suites(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-h"])
    assert exc.value.code == 0
    assert "{" + ",".join(["all", *sorted(SUITES)]) + "}" in capsys.readouterr().out


def test_report_determinism_across_runs_and_workers():
    r1 = run_suite("all", 4, jobs=1).to_json()
    r2 = run_suite("all", 4, jobs=1).to_json()
    r3 = run_suite("all", 4, jobs=2).to_json()
    assert r1 == r2 == r3


def test_export_interior_generator(capsys, tmp_path):
    out = tmp_path / "elem.json"
    code, _ = run_cli(
        capsys, "export", "Pint", "--n", "4", "--label", "{}", "--out", str(out)
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["group"] == "S" and data["n"] == 4
    assert len(data["terms"]) == 8  # decreasing-then-increasing permutations


def test_export_identity_single_term(capsys):
    code, out = run_cli(capsys, "export", "identity", "--group", "B", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [{"perm": [1, 2, 3], "coeff": "1"}]


def test_apply_phi_to_increasing_class(capsys, tmp_path):
    src = tmp_path / "x0.json"
    code, _ = run_cli(
        capsys, "export", "X0", "--n", "2", "--label", "{}", "--out", str(src)
    )
    assert code == 0
    dst = tmp_path / "img.json"
    code, _ = run_cli(capsys, "apply", "--map", "phi", "--in", str(src), "--out", str(dst))
    assert code == 0
    image = elem_from_json(json.loads(dst.read_text()))
    from peakalg.maps import interior_peak_generator

    assert image == interior_peak_generator(2).scale(2)


def test_apply_roundtrip_json(capsys, tmp_path):
    src = tmp_path / "y.json"
    run_cli(capsys, "export", "Y", "--group", "B", "--n", "3", "--label", "{0,1}", "--out", str(src))
    first = json.loads(src.read_text())
    assert elem_from_json(first) == elem_from_json(json.loads(json.dumps(first)))


def test_apply_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"group": "B", "n": 2, "terms": [{"perm": [2, 2], "coeff": "1"}]}')
    code, _ = run_cli(capsys, "apply", "--map", "phi", "--in", str(bad))
    assert code == 2


def test_export_graded_builder(capsys):
    code, out = run_cli(capsys, "export", "p", "--n", "4", "--j", "0")
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [{"perm": [1, 2, 3, 4], "coeff": "1"}]


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--algebra", "P", "--n", "3", "--format", "json"],
        ["table", "--algebra", "SigD", "--n", "2", "--format", "csv"],
        ["table", "--algebra", "whp", "--n", "3", "--format", "pretty"],
        ["verify", "--suite", "words", "--n-max", "2", "--format", "json"],
        ["export", "Y", "--group", "B", "--n", "2", "--label", "{0}"],
    ],
    ids=["table-json", "table-csv", "table-pretty", "verify", "export"],
)
def test_out_file_holds_the_bytes_stdout_prints(argv, capsys, tmp_path):
    code, printed = run_cli(capsys, *argv)
    assert code == 0 and printed.endswith("\n")
    out = tmp_path / "out"
    assert run_cli(capsys, *argv, "--out", str(out)) == (0, "")
    assert out.read_bytes() == printed.encode()
