"""Byte-identity of the rank-6 type-A tables against the benchmark's digests.

P 6, whp 6 and SigA 6 all read the structure cube of the type-A descent
algebra at rank 6 (the peak and peak-count tables as coarsenings of it),
so the three together cost about one enumerated cube.  Each runs through
peakalg.cli.main with every PEAKALG_* variable cleared, as the benchmark
runs them, and its JSON must hash to the entry of perfbench/digests.json.
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
RANK6 = [f"table --algebra {alg} --n 6 --format json" for alg in ("P", "whp", "SigA")]


@pytest.mark.parametrize("command", RANK6)
def test_rank6_table_matches_digest(command, capsys, monkeypatch):
    for name in list(os.environ):
        if name.startswith("PEAKALG_"):
            monkeypatch.delenv(name)
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]
