"""Byte-identity of the cheap command outputs against the benchmark's digests.

perfbench/digests.json holds the sha256 of the standard output of each
benchmarked command.  The n <= 4 entries and the n <= 5 verify report are
cheap enough for tier-1: each runs here through peakalg.cli.main with every
PEAKALG_* variable cleared, as the benchmark runs them.
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
CHEAP = [
    "verify --suite all --n-max 3 --format json",
    "verify --suite all --n-max 5 --format json",
] + [
    f"table --algebra {alg} --n 4 --format json"
    for alg in ("P", "SigA", "SigB", "SigD", "solB", "whp")
]


@pytest.mark.parametrize("command", CHEAP)
def test_output_matches_digest(command, capsys, monkeypatch):
    for name in list(os.environ):
        if name.startswith("PEAKALG_"):
            monkeypatch.delenv(name)
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]
