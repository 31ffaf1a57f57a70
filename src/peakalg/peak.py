"""The peak algebra of the symmetric group and its interior-peak ideal.

P_F sums the permutations whose peak set is exactly F (peaks may occur at
position 1, with the convention w_0 = 0); the span of the P_F over the
sparse sets F is a unital subalgebra of the descent algebra of dimension
the Fibonacci number f_n.  The interior-peak sums (peaks at 1 excluded)
span a two-sided ideal of dimension f_{n-1}, which is the kernel of the
degree-lowering projection onto the peak algebra two ranks down.

Both are coarsenings of the type-A descent algebra, so the ideal property
is read on its cube (algebra.two_sided_failure), and the quotient on
labels: the projection's rows and the interior class sums carried to
P-coordinates.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .algebra import (
    AlgElem,
    ClassAlgebra,
    Echelon,
    SpanSolver,
    StructureTable,
    apply_rows,
    two_sided_failure,
)
from .bases import descent_algebra
from .perms import (
    PeakIndex,
    byte_word,
    descent_peak_masks,
    group_elements,
    interior_peak_mask,
    interior_sparse_masks,
    iter_group,
    lambda_interior_mask,
    lambda_mask,
    peak_mask,
    sparse_masks,
)
from .reporting import CheckFailure


@lru_cache(maxsize=None)
def peak_algebra(n: int) -> ClassAlgebra:
    """The peak algebra on the P-basis, labels in table order: the peak
    set of u is Lambda(Des(u)), so each peak class is a union of descent
    classes of the type-A descent algebra."""
    return descent_algebra("A", n).coarsen(lambda_mask, sparse_masks(n))


@lru_cache(maxsize=None)
def interior_peak_algebra(n: int) -> ClassAlgebra:
    """The interior-peak ideal on the interior P-basis, likewise a
    coarsening of the type-A descent algebra."""
    return descent_algebra("A", n).coarsen(lambda_interior_mask, interior_sparse_masks(n))


@lru_cache(maxsize=None)
def _forms_agree(n: int) -> bool:
    """The peak and interior-peak classes, read as fibres of the lambda
    operators over the descent classes, are the classes binned element by
    element by peak set and by interior peak set."""
    for alg, key in (
        (peak_algebra(n), peak_mask),
        (interior_peak_algebra(n), interior_peak_mask),
    ):
        binned: dict = {}
        for u in group_elements("S", n):
            binned.setdefault(key(u), set()).add(byte_word(u))
        for m in sorted(set(binned) | set(alg.labels)):
            if binned.get(m) != set(alg.classes.get(m, ())):
                raise AssertionError(f"peak-basis forms disagree at n={n}, F={alg.text(m)}")
    return True


def peak_basis(n: int, F: int) -> AlgElem:
    """P_F: sum of the permutations with peak set the label mask F."""
    mask = PeakIndex(n, F).mask
    _forms_agree(n)
    return peak_algebra(n).element({mask: 1})


def interior_peak_basis(n: int, F: int) -> AlgElem:
    """Interior P_F: sum of the permutations with interior peak set F."""
    mask = PeakIndex(n, F).require_interior().mask
    _forms_agree(n)
    return interior_peak_algebra(n).element({mask: 1})


def peak_elements(n: int) -> list:
    """(mask, P_F) pairs in table order: by cardinality, then members."""
    return peak_algebra(n).basis


def interior_peak_elements(n: int) -> list:
    return interior_peak_algebra(n).basis


@lru_cache(maxsize=None)
def peak_solver(n: int) -> SpanSolver:
    elems = peak_elements(n)
    return SpanSolver([e for _, e in elems], labels=tuple(m for m, _ in elems))


@lru_cache(maxsize=None)
def interior_peak_solver(n: int) -> SpanSolver:
    elems = interior_peak_elements(n)
    return SpanSolver([e for _, e in elems], labels=tuple(m for m, _ in elems))


@lru_cache(maxsize=None)
def descent_peak_pairs(n: int) -> Counter:
    """(type-A descent mask, peak mask) -> the number of u in S_n with them:
    one kernel pass over S_n streamed, read by the peak-set and dimension checks."""
    return Counter(zip(*descent_peak_masks(iter_group("S", n), n)))


def class_sum_ranks(n: int) -> tuple:
    """The ranks of the class sums of peak_algebra(n) and interior_peak_algebra(n):
    by disjoint supports, those of the fibre rows over the realized descent sets."""
    realized = {descents for descents, _ in descent_peak_pairs(n)}
    return tuple(
        Echelon({m: 1 for m in ms if m in realized} for ms in alg.fibres.values()).rank
        for alg in (peak_algebra(n), interior_peak_algebra(n))
    )


def peak_coordinates(a: AlgElem):
    """P-basis coordinates by class binning, or None outside the span."""
    return peak_algebra(a.n).coords(a)


def interior_peak_coordinates(a: AlgElem):
    return interior_peak_algebra(a.n).coords(a)


# ---------------------------------------------------------------------------
# the projection two ranks down

def pi_label(mask: int):
    """Image of the label F under the projection: (new mask, sign), or
    None when the image vanishes (2 in F)."""
    if mask & 4:  # 2 in F
        return None
    if mask & 2:  # 1 in F
        return ((mask & ~2) >> 2, -1)
    return (mask >> 2, 1)


def _pi_row(mask: int) -> dict:
    """The projection of P_F as coordinates two ranks down."""
    image = pi_label(mask)
    return {} if image is None else {image[0]: image[1]}


def pi_map(a: AlgElem) -> AlgElem:
    """Project the peak algebra in rank n onto rank n-2: P_F goes to
    P_{F-2}, to -P_{(F-1)-2} when 1 is in F, and to 0 when 2 is in F.
    Inputs outside span{P_F} are rejected."""
    n = a.n
    if n < 2:
        raise ValueError("projection needs rank >= 2")
    coords = peak_coordinates(a)
    if coords is None:
        raise ValueError("element is not in the peak algebra")
    return peak_algebra(n - 2).element(apply_rows({m: _pi_row(m) for m in coords}, coords))


# ---------------------------------------------------------------------------
# tables and theorem checks

def peak_table(n: int) -> StructureTable:
    """Multiplication table of the peak algebra on the P-basis."""
    return peak_algebra(n).table(f"P_{n}")


def check_closure(n: int):
    """Every product P_F * P_G lies in span{P_F}: building the structure
    cube bins each product and raises on the first one off the span."""
    return peak_algebra(n).cube


def check_two_sided_ideal(n: int):
    """P * interior-P and interior-P * P land in the interior span, read
    on the type-A cube of which both are coarsenings."""
    failure = two_sided_failure(peak_algebra(n), interior_peak_algebra(n), ("P", "interior P"))
    if failure:
        raise CheckFailure(failure)


def check_quotient(n: int):
    """The projection is onto rank n-2 with kernel exactly the ideal, on
    labels: its rows come from pi_label, and each interior class sum is
    carried from type-A to P coordinates."""
    from .perms import fibonacci

    peaks, interior = peak_algebra(n), interior_peak_algebra(n)
    rows = {m: _pi_row(m) for m in peaks.labels}
    img_rank = Echelon(rows.values()).rank
    if img_rank != fibonacci(n - 2):
        raise CheckFailure(f"image rank {img_rank} != f_{n - 2}")
    # the ideal sits in the kernel, and by dimensions fills it
    for mg in interior.labels:
        coords = peaks.lift(interior.spread({mg: 1}))
        if coords is None or apply_rows(rows, coords):
            raise CheckFailure(f"interior P_{interior.text(mg)} not killed")
    if fibonacci(n) - img_rank != len(interior.labels):
        raise CheckFailure("kernel dimension is not f_{n-1}")


def check_unitriangular(n: int):
    """The sign-forgetting images of X_{F-1} expand in the P-basis with a
    nonzero coefficient on P_F and zero on every P_G with G above F in the
    max-of-symmetric-difference total order (= integer order on masks)."""
    from .maps import phi_on_x  # late import; maps builds on this module

    text = peak_algebra(n).text
    for fm in sparse_masks(n):
        coords = peak_coordinates(phi_on_x(n, fm >> 1))
        if coords is None:
            raise CheckFailure(f"image of X at F={text(fm)} outside P_{n}")
        if not coords.get(fm):
            raise CheckFailure(f"diagonal coefficient vanishes at F={text(fm)}")
        above = [text(g) for g, c in coords.items() if g > fm and c]
        if above:
            raise CheckFailure(f"F={text(fm)}: nonzero above-diagonal terms at {above}")
