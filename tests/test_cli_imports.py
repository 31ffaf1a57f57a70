"""A command loads only what it runs.  Each command runs in a fresh
interpreter with PYTHONPATH=src, as the benchmark's child runs it: a table
or export command never imports the suite registry (peakalg.verify), the
maps and diagrams (peakalg.maps) or a process pool, and verify loads
multiprocessing only for --jobs above 1.  No command loads dataclasses or
inspect: the package's records are plain classes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from peakalg.cli import TABLE_CAPS

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE = """
import contextlib, io, sys
from peakalg.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m in {names!r}))
"""
POOL = ("concurrent.futures", "multiprocessing")
RECORDS = ("dataclasses", "inspect")


def loaded(argv: list, names: tuple) -> list:
    """The exit code of argv run in a fresh interpreter, then which of
    names it left in sys.modules."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PEAKALG_")}
    env["PYTHONPATH"] = str(SRC)
    probe = PROBE.format(names=set(names))
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, check=True
    ).stdout
    return out.split()


@pytest.mark.parametrize(
    "argv",
    [["table", "--algebra", alg, "--n", str(cap), "--format", "json"] for alg, cap in TABLE_CAPS.items()]
    + [["export", "Y", "--group", "B", "--n", "3", "--label", "{0,1}"]],
    ids=[*TABLE_CAPS, "export"],
)
def test_table_and_export_load_no_suites_and_no_pool(argv):
    assert loaded(argv, ("peakalg.verify", "peakalg.maps", *POOL, *RECORDS)) == ["0"]


def test_verify_with_one_job_loads_no_multiprocessing():
    argv = ["verify", "--suite", "words", "--n-max", "2", "--jobs", "1"]
    assert loaded(argv, ("multiprocessing",)) == ["0"]



def test_verify_with_one_job_loads_no_dataclasses():
    argv = ["verify", "--suite", "all", "--n-max", "2", "--jobs", "1"]
    assert loaded(argv, ("peakalg.maps", "peakalg.hopf", *RECORDS)) == ["0", "peakalg.hopf", "peakalg.maps"]
