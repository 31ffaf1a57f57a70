"""Only peakalg.perms holds the composition kernel.

compose(u, v) is byte_word(v).translate(byte_table(u)), a bytes.translate
through a 256-byte table built from bytes(range(256)), and byte_decoder(n)
reads a product back through the unpack of a struct.Struct of n signed
bytes.  A table read by a word of another rank gives a wrong product
silently, so perms builds both halves, behind its rank checks, and is the
only module that encodes or decodes.  The split tables cut and shift byte
words by translate too, and the leg splitter picks the legs to split again
with an itemgetter.  The statistics kernel reads columns of words of S_n as
big ints (int.from_bytes) and writes its byte lanes back (to_bytes), and the
tables of inverses are built by bytes.maketrans.  This test reads the source
of every other module of the package for itemgetter, translate, struct,
unpack, from_bytes, to_bytes and maketrans, and the idiom that builds a byte
table by hand.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "peakalg"

KERNEL = {
    "itemgetter": re.compile(r"\bitemgetter\b"),
    ".translate": re.compile(r"\.translate\b"),
    "bytearray(range(256))": re.compile(r"\b(bytes|bytearray)\(\s*range\(\s*256\s*\)"),
    "struct.Struct(": re.compile(r"\bStruct\("),
    ".unpack": re.compile(r"\.unpack\b"),
    "int.from_bytes": re.compile(r"\bfrom_bytes\b"),
    ".to_bytes": re.compile(r"\.to_bytes\b"),
    "maketrans": re.compile(r"\bmaketrans\b"),
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
