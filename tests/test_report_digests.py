"""Byte-identity of the reports that the diagram checks write.

perfbench/digests.json covers the n <= 3 and n <= 5 reports of every
suite; these two reach further: the exactseq suite at n <= 6 (sbexact at
rank 6) and the --deep report at n <= 5.  Each runs through
peakalg.cli.main with every PEAKALG_* variable cleared, and its JSON must
hash to the pinned sha256.
"""

import hashlib
import os

import pytest

from peakalg.cli import main

EXACTSEQ_N6 = "7f6820d64225cf0b8bbbfd3f26825eebd27a4e97d668c367baeff616f9b5423a"
DEEP_N5 = "09b53d41d4657efa150c9a01f8cfcbf93379dacc917d5fa0722c6181505e1123"


def _digest(command, capsys, monkeypatch):
    for name in list(os.environ):
        if name.startswith("PEAKALG_"):
            monkeypatch.delenv(name)
    assert main(command.split()) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_exactseq_report_to_rank_6(capsys, monkeypatch):
    command = "verify --suite exactseq --n-max 6 --format json"
    assert _digest(command, capsys, monkeypatch) == EXACTSEQ_N6


@pytest.mark.deep
def test_deep_report_to_rank_5(capsys, monkeypatch):
    command = "verify --suite all --n-max 5 --deep --format json"
    assert _digest(command, capsys, monkeypatch) == DEEP_N5
