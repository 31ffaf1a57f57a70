"""How a verify check is declared and run, and what a cap hit inside one does.

Every check of peakalg.verify is declared by _add as a reporting.Check:
an id, its cases, and a body of one case.  Declaring runs no body;
reporting.run_checks runs the body over the cases in order as a single
run_check.  The checks a suite declares are the checks a run reports, and
declaring every suite lists no group.  The low-ceiling reports are pinned
by sha256, and a check that reaches past a cap set by PEAKALG_CAP stops
the command with exit code 2 instead of failing an identity.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from peakalg import verify
from peakalg.cli import main
from peakalg.reporting import CheckFailure, run_checks

SRC = Path(__file__).resolve().parent.parent / "src"

# sha256 of `verify --suite all --n-max N --format json`
LOW_CEILINGS = {
    0: "5df081a88977d9a3d21e2214dd2bb2fe7b1eb97485681a2e6a451d90d4f2dfa7",
    1: "e12f405d15e3e232c8cf1c27dc7865c5569dd3bcd68c36fcbf668b7998f4f523",
    2: "68770e1d64f02ba02dcfcee607f2a48f08e9ceb02b8459c4fc7c4852f61601f0",
}


def test_a_check_over_no_case_gets_no_entry():
    seen = []
    checks = []
    verify._add(checks, "x/none", range(0), seen.append)
    verify._add(checks, "x/empty", [], seen.append)
    assert checks == [] and seen == []


def test_cases_run_in_order_as_one_check():
    seen = []
    checks = []
    verify._add(checks, "x/all", [(1, "a"), (2, "b"), (3, "c")], seen.append)
    assert seen == []
    checks = run_checks(checks)
    assert [(c.check_id, c.status) for c in checks] == [("x/all", "pass")]
    assert seen == [(1, "a"), (2, "b"), (3, "c")]


def test_the_first_failing_case_gives_the_witness():
    seen = []

    def body(n):
        seen.append(n)
        if n >= 3:
            raise CheckFailure(f"fails at n={n}")

    checks = []
    verify._add(checks, "x/fail", range(1, 6), body)
    assert seen == []
    (check,) = run_checks(checks)
    assert (check.status, check.witness) == ("fail", "fails at n=3")
    assert seen == [1, 2, 3]


def test_an_unexpected_exception_is_an_error():
    def body(n):
        if n == 2:
            raise KeyError(n)

    checks = []
    verify._add(checks, "x/error", [1, 2, 3], body)
    (check,) = run_checks(checks)
    assert (check.status, check.witness) == ("error", "KeyError: 2")


@pytest.mark.parametrize("n_max", sorted(LOW_CEILINGS))
def test_low_ceiling_report_is_pinned(n_max, capsys, monkeypatch):
    for name in list(os.environ):
        if name.startswith("PEAKALG_"):
            monkeypatch.delenv(name)
    assert main(["verify", "--suite", "all", "--n-max", str(n_max), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LOW_CEILINGS[n_max]


# ---------------------------------------------------------------------------
# declaring is cheap and declares what a run reports


def _declared(n_max: int, deep: bool = False) -> list:
    return [c for suite in verify.SUITES.values() for c in suite(n_max, deep)]


@pytest.mark.parametrize("n_max,deep", [(n, False) for n in range(6)] + [(5, True)])
def test_the_declared_checks_are_the_checks_a_run_reports(n_max, deep):
    declared = sorted(c.check_id for c in _declared(n_max, deep))
    assert declared == [c.check_id for c in verify.run_suite("all", n_max, deep=deep).checks]


# load peakalg.perms before the package body, make listing a group raise,
# then declare every suite at n 5 with and without deep; a declared check
# that lists a group, run, reports the raise
LISTS_NO_GROUP = """
import importlib.util, json, sys

spec = importlib.util.find_spec("peakalg")
package = sys.modules["peakalg"] = importlib.util.module_from_spec(spec)
import peakalg.perms as perms


def listed(group, n):
    raise RuntimeError(f"listed {group}_{n}")


perms.iter_group = perms.group_elements = listed
spec.loader.exec_module(package)
from peakalg import verify
from peakalg.reporting import run_checks

checks = [c for deep in (False, True) for s in verify.SUITES.values() for c in s(5, deep)]
oracle = next(c for c in checks if c.check_id == "descents/length-oracle")
(control,) = run_checks([oracle])
print(json.dumps([len(checks), control.status, control.witness]))
"""


def test_declaring_every_suite_lists_no_group():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PEAKALG_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", LISTS_NO_GROUP], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    count = len(_declared(5)) + len(_declared(5, deep=True))
    assert json.loads(done.stdout) == [count, "error", "RuntimeError: listed S_1"]


# ---------------------------------------------------------------------------
# a cap hit inside a check is a cap error, not a failed identity


def _cli(cap: str, *argv):
    """Run the command line in a fresh interpreter, so that no group listed
    before the cap was set is read from a cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PEAKALG_")}
    env["PEAKALG_CAP"] = cap
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import sys; from peakalg.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "cap,suite,n_max,message",
    [
        ("3", "peaks", "4", "S_4 exceeds enumeration cap 3"),
        ("BFS=4", "descents", "6", "BFS cap is 4, got rank 5"),
        ("3", "all", "4", "S_4 exceeds enumeration cap 3"),  # --jobs 2 runs a pool
    ],
)
def test_a_cap_hit_inside_a_check_exits_2(cap, suite, n_max, message, jobs):
    argv = ["verify", "--suite", suite, "--n-max", n_max, "--jobs", jobs, "--format", "json"]
    done = _cli(cap, *argv)
    assert done.returncode == 2, done.stdout
    assert done.stdout == ""
    assert f"error: {message}" in done.stderr


def test_partition_and_xy_inverse_lists_only_the_cases_it_checks():
    # its body works every case it is given: type A to rank 6, B and D to 5
    registered = {c.check_id: c.cases for c in verify.suite_descents(6)}
    want = [("A", n) for n in range(1, 7)]
    want += [("B", n) for n in range(1, 6)] + [("D", n) for n in range(2, 6)]
    assert registered["descents/partition-and-xy-inverse"] == want
