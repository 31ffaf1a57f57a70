"""Only peakalg.perms holds the composition kernel.

compose(u, v) is composer(v)(lifted(u)): an operator.itemgetter of the
word v applied to the signed table (0, u_1, ..., u_n, -u_n, ..., -u_1).
On the byte encoding it is byte_word(v).translate(byte_table(u)), a
bytes.translate through a 256-byte table built from bytearray(range(256)).
A table read by a word of another rank gives a wrong product silently, so
perms builds both halves, behind its rank checks.  This test reads the
source of every other module of the package for itemgetter, translate and
the idioms that build a lifted or byte table by hand.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "peakalg"

KERNEL = {
    "itemgetter": re.compile(r"\bitemgetter\b"),
    "(0, *u, ...)": re.compile(r"\(\s*0\s*,\s*\*"),
    "-x for x in reversed(u)": re.compile(r"-\s*(\w+)\s+for\s+\1\s+in\s+reversed\("),
    ".translate": re.compile(r"\.translate\b"),
    "bytearray(range(256))": re.compile(r"\b(bytes|bytearray)\(\s*range\(\s*256\s*\)"),
}


def _hits(path: Path) -> list:
    return [
        (path.name, lineno, idiom)
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        for idiom, pattern in KERNEL.items()
        if pattern.search(line)
    ]


def test_perms_holds_every_kernel_idiom():
    found = {idiom for _, _, idiom in _hits(SRC / "perms.py")}
    assert found == set(KERNEL)


def test_no_other_module_builds_the_kernel():
    modules = sorted(SRC.glob("*.py"))
    assert any(path.name == "perms.py" for path in modules)
    found = [hit for path in modules if path.name != "perms.py" for hit in _hits(path)]
    assert not found
