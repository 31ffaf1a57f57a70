"""Byte-identity of the command outputs against the benchmark's digests.

perfbench/digests.json holds the sha256 of the standard output of each
benchmarked command: every table the benchmark runs, up to the rank-6
type-A tables, and the n <= 5 verify reports.  All are cheap enough for
tier-1: each runs here through peakalg.cli.main with every PEAKALG_*
variable cleared, as the benchmark runs them.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from peakalg.cli import main

DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "digests.json").read_text()
)


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_output_matches_digest(command, capsys, monkeypatch):
    for name in list(os.environ):
        if name.startswith("PEAKALG_"):
            monkeypatch.delenv(name)
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]
