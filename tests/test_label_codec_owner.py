"""Only peakalg.perms encodes labels as bitmasks.

Every basis label is a set of small integers stored as a bitmask, and
perms holds the codec: popcount, mask_of, members_of and mask_text.
This test reads the source of every other module of the package for the
idioms that build, count or walk a mask by hand, and for bin(, which
prints one in binary: a label reaches a witness or a table through the
text of its class algebra (ClassAlgebra.text).
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "peakalg"

HAND_CODEC = {
    "bin(...).count('1')": re.compile(r"""bin\(.*\)\.count\(\s*["']1["']\s*\)"""),
    "|= 1 <<": re.compile(r"\|=\s*1\s*<<"),
    ".bit_length()": re.compile(r"\.bit_length\(\)"),
    "bin(": re.compile(r"\bbin\("),
}


def test_only_perms_builds_counts_or_walks_a_mask():
    modules = sorted(SRC.glob("*.py"))
    assert any(path.name == "perms.py" for path in modules)
    found = [
        (path.name, lineno, idiom)
        for path in modules
        if path.name != "perms.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        for idiom, pattern in HAND_CODEC.items()
        if pattern.search(line)
    ]
    assert not found
