"""The integer elimination core against the Fraction oracle.

peakalg.algebra has one elimination: Echelon, on integers, fraction-free,
with content-divided kept rows whose pivot entry, at the least key, is
positive.  SpanSolver.coords and exact_det read their answers off it.
oracles.Echelon, reference_coords and reference_det are the Fraction forms
it replaced.  On every row set that a verify run builds (all suites to
rank 5, and --deep), and on random integer and rational matrices from a
fixed seed, singular ones included, both must give the same rank, the same
pivot keys in the same order, the same coordinates and the same
determinant; and the kept rows of the core must be primitive with a
positive pivot entry.  Three mutants of the core must fail that
comparison.
"""

import inspect
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from peakalg import algebra
from peakalg.algebra import NOT_IN_SPAN, AlgElem, Echelon, SpanSolver, exact_det

import oracles

SRC = Path(__file__).resolve().parent.parent / "src"
OFF = object()

# the rows of every Echelon that a verify run builds, per Echelon, in order
RECORD = """
import pickle, sys
from peakalg import algebra, verify

sets, add = {}, algebra.Echelon.add

def recording(self, row, combo=None):
    sets.setdefault(id(self), (self, []))[1].append(dict(row))
    return add(self, row, combo)

algebra.Echelon.add = recording
verify.run_suite("all", 5, deep=sys.argv[2] == "deep")
with open(sys.argv[1], "wb") as out:
    pickle.dump([rows for _, rows in sets.values()], out)
"""


def recorded(path: Path, deep: bool) -> list:
    """The row sets of run_suite("all", 5), run in a fresh interpreter so
    that no cached cube or table hides an elimination."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PEAKALG_")}
    env["PYTHONPATH"] = str(SRC)
    argv = [str(path), "deep" if deep else "default"]
    subprocess.run([sys.executable, "-c", RECORD, *argv], env=env, check=True)
    return pickle.loads(path.read_bytes())


@pytest.fixture(scope="module")
def verify_rows(tmp_path_factory) -> list:
    return recorded(tmp_path_factory.mktemp("rows") / "all-5.pickle", deep=False)


def random_rows(rng: random.Random, rational: bool) -> list:
    """A random sparse matrix as row dicts on the columns 0..size - 1, with
    a repeated row, a zero row or a sum of two rows now and then."""
    size = rng.randrange(1, 8)
    rows = []
    for _ in range(size):
        roll = rng.random()
        if rows and roll < 0.1:
            rows.append(dict(rng.choice(rows)))
        elif roll < 0.15:
            rows.append({})
        elif len(rows) > 1 and roll < 0.25:
            a, b = rng.sample(rows, 2)
            rows.append({k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()})
        else:
            row = {}
            for k in range(size):
                if rng.random() < 0.6:
                    x = rng.randint(-6, 6)
                    row[k] = Fraction(x, rng.randint(1, 5)) if rational else x
            rows.append(row)
    return rows


def random_row_sets(seed: int = 31, count: int = 300) -> list:
    rng = random.Random(seed)
    return [random_rows(rng, rational=i % 2 == 1) for i in range(count)]


def targets(rows: list) -> list:
    """A combination of the rows with small integer weights (in their span)
    and the same plus the key OFF, which no row holds (off it)."""
    rng = random.Random(len(rows))
    inside: dict = {}
    for row in rows:
        c = rng.randint(-2, 2)
        for k, x in row.items():
            inside[k] = inside.get(k, 0) + c * x
    return [inside, {**inside, OFF: 1}]


def square(rows: list) -> list:
    """The leading square block of the rows over their sorted keys."""
    keys = sorted({k for row in rows for k in row})
    size = min(len(rows), len(keys))
    return [[row.get(k, 0) for k in keys[:size]] for row in rows[:size]]


def as_elem(row: dict) -> AlgElem:
    """A row as the terms of an element (SpanSolver reads only its terms)."""
    return AlgElem._raw("S", 0, {k: v for k, v in row.items() if v != 0})


def mismatches(row_sets: list) -> list:
    """(what, row set index) of each disagreement between the core and the
    oracle, or of a kept row of the core that is not primitive with a
    positive pivot entry at its least key."""
    out = []
    for index, rows in enumerate(row_sets):
        core, oracle = Echelon(rows), oracles.Echelon(rows)
        if core.rank != oracle.rank:
            out.append(("rank", index))
        if [p[0] for p in core.pivots] != [p[0] for p in oracle.pivots]:
            out.append(("pivot keys", index))
        for key, row, combo in core.pivots:
            if key != min(row) or row[key] <= 0 or gcd(*row.values(), *combo.values()) != 1:
                out.append(("kept row", index))
        solver = SpanSolver(map(as_elem, rows))
        for target in targets(rows):
            got, want = solver.coords(as_elem(target)), oracles.reference_coords(rows, target)
            if (None if got is NOT_IN_SPAN else list(got)) != want:
                out.append(("coords", index))
        matrix = square(rows)
        if exact_det(matrix) != oracles.reference_det(matrix):
            out.append(("det", index))
    return out


def test_the_core_agrees_with_the_oracle_on_random_matrices():
    row_sets = random_row_sets()
    assert any(exact_det(square(rows)) == 0 for rows in row_sets)
    assert any(abs(exact_det(square(rows))) > 1 for rows in row_sets)
    assert not mismatches(row_sets)


def test_the_core_agrees_with_the_oracle_on_the_verify_rows(verify_rows):
    assert len(verify_rows) > 500
    assert not mismatches(verify_rows)


@pytest.mark.deep
def test_the_core_agrees_with_the_oracle_on_the_deep_verify_rows(tmp_path):
    row_sets = recorded(tmp_path / "deep.pickle", deep=True)
    # the largest is the saturation of the T_4 certificate, from its 5 generator rows
    assert max(map(len, row_sets)) == 214
    assert not mismatches(row_sets)


# ---------------------------------------------------------------------------
# mutants of the core fail the comparison


def mutant(monkeypatch, old: str, new: str):
    """Replace Echelon's methods by those of its source with old replaced by new."""
    source = inspect.getsource(algebra.Echelon)
    assert source.count(old) == 1
    namespace = dict(vars(algebra))
    exec(source.replace(old, new), namespace)
    for name in ("reduce", "add"):
        monkeypatch.setattr(algebra.Echelon, name, getattr(namespace["Echelon"], name))


MUTANTS = {
    # the content division keeps the sign of the pivot entry
    "unsigned content": ("(1 if vec[key] > 0 else -1)", "1"),
    # vec := vec - c * kept row, with no multiple of vec
    "no cross-multiplication": ("if (a := pvec[key]) != 1:", "if False:"),
    "largest pivot key": ("key = min(vec)", "key = max(vec)"),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_a_mutant_core_fails_the_comparison(name, monkeypatch, verify_rows):
    # the first hundred verify row sets: past them the integers of the
    # mutant with no cross-multiplication grow too long to replay quickly
    mutant(monkeypatch, *MUTANTS[name])
    assert mismatches(random_row_sets(count=100))
    assert mismatches(verify_rows[:100])
