"""Reference constructions that several test modules use as oracles.

The package does not call these: they restate, from the basis elements
alone, facts the checks under test read from class coordinates.
"""

from peakalg.algebra import Echelon
from peakalg.bases import descent_algebra, descent_coordinates
from peakalg.perms import popcount


def descent_span_rank(elems, ctype: str) -> int:
    """Rank of a family known to lie in the descent algebra, computed on
    exact Y-coordinates (raises if some element falls outside)."""
    rows = []
    for a in elems:
        coords = descent_coordinates(a, ctype)
        if coords is None:
            raise ValueError("element outside the descent algebra")
        rows.append(coords)
    return Echelon(rows).rank


def a_descent_number(n: int, j: int):
    """Sum of the unsigned permutations with j type-A descents."""
    alg = descent_algebra("A", n)
    return alg.element({m: 1 for m in alg.labels if popcount(m) == j})


def bidegree(t2, p: int) -> dict:
    """The component of a hopf.Tensor2 whose left factors have degree p."""
    return {k: c for k, c in t2.terms.items() if len(k[0]) == p}
