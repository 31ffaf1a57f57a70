"""Byte-identity of the default report.

`peakalg verify --format json`, with no other option, runs every suite at
n <= 4.  It runs here through peakalg.cli.main with every PEAKALG_*
variable cleared, and its JSON must hash to the pinned sha256.
"""

import hashlib
import os

from peakalg.cli import main

DEFAULT_N4 = "89856f6c01f2a6844545ab0158cb09e2054385c07c1e7374800f13ec618c922a"


def test_default_report_digest(capsys, monkeypatch):
    for name in list(os.environ):
        if name.startswith("PEAKALG_"):
            monkeypatch.delenv(name)
    assert main(["verify", "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DEFAULT_N4
