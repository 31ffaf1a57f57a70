"""Commutative subalgebras graded by descent and peak counts.

Summing the type-B descent classes by cardinality of the descent set gives
a commutative subalgebra of the descent algebra; adding the analogous sums
over the canonical ideal gives a larger one of dimension 2n with the ideal
sums as a two-sided ideal.  Forgetting signs carries this picture to the
peak algebra: sums of permutations with a fixed number of peaks (interior
peaks) span a commutative subalgebra (an ideal of their joint span), and
the degree-lowering maps restrict with simple casework formulas.

Each count algebra is a coarsening of the type-B descent algebra or of the
peak algebra, by the size of a label (less its first generator for the
ideal sums).  Each twin (a fine algebra, its count algebra and ideal) is
stated once, in TWINS.  One product loop serves both sides: the block
table multiplies each pair of class sums once on the fine cube and lifts
the product, so building it is the closure check, and the table's
symmetry is commutativity.  The maps on the count sums are read on their
rows over the fine classes, like every map check (see maps.landed).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import repeat
from math import comb

from .algebra import (
    AlgElem,
    ClassAlgebra,
    Echelon,
    StructureTable,
    add_multiple,
    apply_rows,
    class_images,
)
from .bases import descent_algebra, x_to_y_coords
from .peak import interior_peak_algebra, peak_algebra
from .perms import popcount
from .reporting import CheckFailure


def _choose(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


# ---------------------------------------------------------------------------
# the count algebras: unions of classes with equal label size


@lru_cache(maxsize=None)
def sol_algebra(n: int) -> ClassAlgebra:
    """Descent-count sums y_0..y_n (type B), labels j."""
    return descent_algebra("B", n).coarsen(popcount, text=lambda j: f"y_{j}")


@lru_cache(maxsize=None)
def i0_number_algebra(n: int) -> ClassAlgebra:
    """Ideal sums y0_1..y0_n, label j-1 = #(J minus {0})."""
    return descent_algebra("B", n).coarsen(lambda m: popcount(m & ~1), text=lambda j: f"y0_{j + 1}")


@lru_cache(maxsize=None)
def wp_algebra(n: int) -> ClassAlgebra:
    """Peak-count sums p_0..p_{n//2}, labels j."""
    return peak_algebra(n).coarsen(popcount, text=lambda j: f"p_{j}")


@lru_cache(maxsize=None)
def wp_interior_algebra(n: int) -> ClassAlgebra:
    """Interior sums p0_1..p0_{(n+1)//2}, label j-1 = #(F minus {1})
    interior peaks: the peak-side twin of i0_number_algebra."""
    return peak_algebra(n).coarsen(lambda m: popcount(m & ~2), text=lambda j: f"p0_{j + 1}")


# A count algebra and its ideal, coarsenings of one fine algebra (each a
# factory of the rank, its builder looked up when called, so a patched or
# renewed one is read), and the names of the two spans in witnesses; the
# class sums of each are named by its text.
Twin = namedtuple("Twin", "fine count ideal witnesses")


TWINS = {
    "whp": Twin(
        lambda n: peak_algebra(n),
        lambda n: wp_algebra(n),
        lambda n: wp_interior_algebra(n),
        ("peak-count span", "interior ideal"),
    ),
    "solhat": Twin(
        lambda n: descent_algebra("B", n),
        lambda n: sol_algebra(n),
        lambda n: i0_number_algebra(n),
        ("descent-count span", "ideal"),
    ),
}


def _count_rows(twin: str, n: int) -> tuple:
    """(text, fine coordinates) of the class sums of the count algebra and
    of the ideal of a twin."""
    spec = TWINS[twin]
    return tuple(
        [(alg.text(lab), alg.spread({lab: 1})) for lab in alg.labels]
        for alg in (spec.count(n), spec.ideal(n))
    )


# ---------------------------------------------------------------------------
# graded builders


def y_number(n: int, j: int) -> AlgElem:
    """Sum of the signed permutations with exactly j type-B descents."""
    if not 0 <= j <= n:
        raise ValueError(f"descent count {j} out of range 0..{n}")
    return sol_algebra(n).element({j: 1})


def x_number(n: int, j: int) -> AlgElem:
    """Sum of X_J over the type-B labels of cardinality j."""
    if not 0 <= j <= n:
        raise ValueError(f"label size {j} out of range 0..{n}")
    return descent_algebra("B", n).element(x_count_coords(n, j))


def y0_number(n: int, j: int) -> AlgElem:
    """Sum of the ideal elements Y_{{0} u J} + Y_J over #J = j-1 (the unit
    in rank 0, which has no generator 0)."""
    if not 1 <= j <= max(n, 1):
        raise ValueError(f"index {j} out of range 1..{max(n, 1)}")
    return descent_algebra("B", n).element(y0_count_coords(n, j))


def x0_number(n: int, j: int) -> AlgElem:
    """Sum of the ideal elements X_{{0} u J} over #J = j-1 (the unit in rank 0)."""
    if not 1 <= j <= max(n, 1):
        raise ValueError(f"index {j} out of range 1..{max(n, 1)}")
    return descent_algebra("B", n).element(x_count_coords(n, j, ideal=True))


def peak_number(n: int, j: int) -> AlgElem:
    """p_j: sum of the permutations with exactly j peaks."""
    if not 0 <= j <= n // 2:
        raise ValueError(f"peak count {j} out of range 0..{n // 2}")
    return wp_algebra(n).element({j: 1})


def interior_peak_number(n: int, j: int) -> AlgElem:
    """Interior p_j: sum of the permutations with j-1 interior peaks (the
    unit in rank 0, whose one permutation has none)."""
    top = max((n + 1) // 2, 1)
    if not 1 <= j <= top:
        raise ValueError(f"index {j} out of range 1..{top}")
    return wp_interior_algebra(n).element({j - 1: 1})


BUILDERS = {
    "y": y_number,
    "x": x_number,
    "y0": y0_number,
    "x0": x0_number,
    "p": peak_number,
    "pint": interior_peak_number,
}


def graded_builder(name: str, n: int, j: int) -> AlgElem:
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown builder {name!r}") from None
    return builder(n, j)


# ---------------------------------------------------------------------------
# graded coordinates (None when the element leaves the graded span)


def descent_number_coordinates(a: AlgElem) -> list | None:
    """Coordinates over y_0..y_n, or None."""
    return sol_algebra(a.n).vector(a)


def i0_number_coordinates(a: AlgElem) -> list | None:
    """Coordinates over the ideal sums y0_1..y0_n, or None."""
    return i0_number_algebra(a.n).vector(a)


def peak_number_coordinates(a: AlgElem) -> list | None:
    """Coordinates over p_0..p_{n//2}, or None."""
    return wp_algebra(a.n).vector(a)


def interior_number_coordinates(a: AlgElem) -> list | None:
    """Coordinates over the interior sums p0_1..p0_{(n+1)//2}, or None."""
    return wp_interior_algebra(a.n).vector(a)


# ---------------------------------------------------------------------------
# closed forms for the restricted maps


def phi_y_number_formula(n: int, j: int) -> AlgElem:
    """Image of y_j under sign forgetting: a positive combination of the
    peak-count sums with binomial coefficients and powers of 4."""
    coords = {i: (1 << (2 * i)) * _choose(n - 2 * i, j - i) for i in range(j + 1)}
    return wp_algebra(n).element(coords)


def phi_y0_number_formula(n: int, j: int) -> AlgElem:
    """Image of y0_j: the sum of 2^(2i-1) C(n+1-2i, j-i) p0_i."""
    coords = {i - 1: (1 << (2 * i - 1)) * _choose(n + 1 - 2 * i, j - i) for i in range(1, j + 1)}
    return wp_interior_algebra(n).element(coords)


def _drop_difference(alg: ClassAlgebra, j: int, what: str) -> AlgElem:
    """The count sum j less the count sum j - 1, each where it is a label."""
    if not 0 <= j <= len(alg.labels):
        raise ValueError(f"{what} {j} out of range 0..{len(alg.labels)}")
    return alg.element({i: c for i, c in ((j, 1), (j - 1, -1)) if i in alg.labels})


def beta_y_number_formula(n: int, j: int) -> AlgElem:
    """Casework for the degree drop on the descent-count sums: y_j - y_{j-1}
    one rank down, less the one that is not a label (at j = 0 and j = n)."""
    return _drop_difference(sol_algebra(n - 1), j, "descent count")


def beta_x_number_formula(n: int, j: int) -> AlgElem:
    """x_j one rank down (no label of size n there, so 0 at j = n)."""
    if not 0 <= j <= n:
        raise ValueError(f"label size {j} out of range 0..{n}")
    return descent_algebra("B", n - 1).element(x_count_coords(n - 1, j))


def pi_peak_number_formula(n: int, j: int) -> AlgElem:
    """Casework for the projection on the peak-count sums: p_j - p_{j-1}
    two ranks down, less the one that is not a label.  The middle case
    applies for all 0 < j < n//2; at j = 1 it is forced by the definition
    of the projection even though the boundary is usually stated from j = 2 up."""
    return _drop_difference(wp_algebra(n - 2), j, "peak count")


# ---------------------------------------------------------------------------
# multiplication tables in the block format


@lru_cache(maxsize=None)
def _count_table(twin: str, n: int) -> StructureTable:
    """The block table of a twin, which is its closure check: each product
    of two class sums is taken once on the fine cube and lifted, pure count
    products to the count algebra (the head block), anything touching the
    ideal to the ideal (the tail block).  A product that does not lift
    raises CheckFailure naming the pair and the span it left.  Built once
    per twin and rank, and shared: no caller may change it."""
    spec = TWINS[twin]
    fine, count, ideal = spec.fine(n), spec.count(n), spec.ideal(n)
    heads, tails = _count_rows(twin, n)
    k, m = len(heads), len(tails)
    every = heads + tails
    cells = []
    for i, (labi, ci) in enumerate(every):
        row = []
        for j, (labj, cj) in enumerate(every):
            if i < k and j < k:
                alg, where, before, after = count, spec.witnesses[0], 0, m
            else:
                alg, where, before, after = ideal, spec.witnesses[1], k, 0
            coords = alg.lift(fine.product(ci, cj))
            if coords is None:
                raise CheckFailure(f"{labi} * {labj} left the {where} at n={n}")
            values = list(map(coords.get, alg.labels, repeat(0)))
            row.append(tuple([0] * before + values + [0] * after))
        cells.append(row)
    labels = [lab for lab, _ in every]
    return StructureTable(name=f"{twin}_{n}", labels=labels, cells=cells, blocks=(k, m))


def whp_table(n: int) -> StructureTable:
    """Multiplication table of the span of the peak-count and interior
    sums: pure peak-count products are written in the p-block, anything
    touching the ideal in the interior block."""
    return _count_table("whp", n)


def solhat_table(n: int) -> StructureTable:
    """The type-B analog, on the descent-count and ideal sums."""
    return _count_table("solhat", n)


# ---------------------------------------------------------------------------
# theorem checks


def check_builder_relations(n: int):
    """The binomial change of spanning sets, each count sum as the union of
    the classes of its count, and the rewritten forms of the ideal sums, on
    fine class coordinates (the class sums have disjoint supports)."""
    for count, lo, tag in ((sol_algebra(n), 0, ""), (i0_number_algebra(n), 1, "0")):
        for j in range(lo, n + 1):
            terms: dict = {}
            for i in range(lo, j + 1):
                add_multiple(terms, _choose(n - i, j - i), count.spread({i - lo: 1}))
            if x_count_coords(n, j, ideal=lo == 1) != terms:
                raise CheckFailure(f"x{tag}_{j} != binomial sum of y{tag}_i at n={n}")
    if x_count_coords(n, n) != x_count_coords(n, n, ideal=True):
        raise CheckFailure(f"x_n != x0_n at n={n}")
    # each count sum is the union of the classes of its count: the fibre of
    # count label j holds exactly the fine labels with j members outside drop
    solb, peaks = descent_algebra("B", n), peak_algebra(n)
    for alg, fine, drop, what in (
        (sol_algebra(n), solb, 0, "y_j is not the sum of the classes of j descents"),
        (i0_number_algebra(n), solb, 1, "y0_j is not the sum over j-1 descents besides 0"),
        (wp_algebra(n), peaks, 0, "p_j is not the sum of the classes of j peaks"),
        (wp_interior_algebra(n), peaks, 2, "interior p_j is not the sum over j-1 peaks besides 1"),
    ):
        fibres: dict = {}
        for lab in fine.labels:
            fibres.setdefault(popcount(lab & ~drop), set()).add(lab)
        if {g: set(ls) for g, ls in alg.fibres.items()} != fibres:
            raise CheckFailure(f"{what} at n={n}")
    # rewritten forms: y0_j over #(J \ {0}) = j-1 against the sums of the
    # Y_{{0} u J} + Y_J, interior p_j over #(F \ {1}) = j-1 against the
    # classes of j-1 interior peaks
    for j in range(1, n + 1):
        if y0_count_coords(n, j) != i0_number_algebra(n).spread({j - 1: 1}):
            raise CheckFailure(f"y0_{j} rewritten form fails at n={n}")
    interior = interior_peak_algebra(n)
    for j in range(1, (n + 1) // 2 + 1):
        direct = interior.spread({m: 1 for m in interior.labels if popcount(m) == j - 1})
        if peaks.spread(wp_interior_algebra(n).spread({j - 1: 1})) != direct:
            raise CheckFailure(f"interior p_{j} rewritten form fails at n={n}")


def _ideal_labels(n: int, j: int) -> list:
    """The labels {0} u J over the J of size j - 1 avoiding 0 (J alone in rank 0: no 0)."""
    return [m | min(n, 1) for m in range(0, 1 << n, 2) if popcount(m) == j - 1]


def x_count_coords(n: int, j: int, ideal: bool = False) -> dict:
    """Type-B class coordinates of x_j, the sum of the X_J over the labels
    of size j, or, with ideal, of x0_j, the same over the labels {0} u J."""
    labels = _ideal_labels(n, j) if ideal else (m for m in range(1 << n) if popcount(m) == j)
    return x_to_y_coords(dict.fromkeys(labels, 1))


def y0_count_coords(n: int, j: int) -> dict:
    """Type-B class coordinates of y0_j: the labels J and {0} u J over the
    J of size j - 1 that avoid 0."""
    return {m & ~b: 1 for m in _ideal_labels(n, j) for b in (1, 0)}


def check_phi_number_forms(n: int):
    """Sign forgetting on the graded sums matches the closed forms, is
    palindromic, and sends the all-group sums to the stated multiples."""
    from .maps import phi  # late import: the tables and builders need no maps
    sol, target = sol_algebra(n), peak_algebra(n)
    rows = class_images(phi, sol.parent, target, "sign forgetting")
    forms = {j: target.coords(phi_y_number_formula(n, j)) for j in sol.labels}
    for j in sol.labels:
        if apply_rows(rows, sol.spread({j: 1})) != forms[j]:
            raise CheckFailure(f"phi(y_{j}) closed form fails at n={n}")
    ideal = i0_number_algebra(n)
    for j in range(1, n + 1):
        form = target.coords(phi_y0_number_formula(n, j))
        if apply_rows(rows, ideal.spread({j - 1: 1})) != form:
            raise CheckFailure(f"phi(y0_{j}) closed form fails at n={n}")
    for j in sol.labels:
        if forms[j] != forms[n - j]:
            raise CheckFailure(f"phi(y_{j}) != phi(y_{n - j}) at n={n}")
    # the sum of all p_i is the sum of all peak classes
    total = apply_rows(rows, sol.spread(dict.fromkeys(sol.labels, 1)))
    weighted = apply_rows(rows, sol.spread({j: j for j in sol.labels}))
    if total != dict.fromkeys(target.labels, 1 << n):
        raise CheckFailure(f"phi(sum y_j) != 2^n sum p_i at n={n}")
    if weighted != dict.fromkeys(target.labels, n << (n - 1)):
        raise CheckFailure(f"phi(sum j y_j) != n 2^(n-1) sum p_i at n={n}")


def check_beta_number_forms(n: int):
    """The degree drop on the graded sums matches the casework; on the
    descent-count span it has rank n, its kernel spanned by x_n."""
    from .maps import Node, beta_map, coarse_node, landed
    sol, low = sol_algebra(n), descent_algebra("B", n - 1)
    rows = class_images(beta_map, sol.parent, low, "beta")
    for j in sol.labels:
        if apply_rows(rows, sol.spread({j: 1})) != low.coords(beta_y_number_formula(n, j)):
            raise CheckFailure(f"beta(y_{j}) casework fails at n={n}")
        if apply_rows(rows, x_count_coords(n, j)) != low.coords(beta_x_number_formula(n, j)):
            raise CheckFailure(f"beta(x_{j}) casework fails at n={n}")
    rank = landed(rows, coarse_node("sol", sol), Node("SolB1", low), f"beta at n={n}").rank
    if rank != n:
        raise CheckFailure(f"restricted beta rank {rank} != {n} at n={n}")
    if apply_rows(rows, x_count_coords(n, n)):
        raise CheckFailure(f"beta(x_n) != 0 at n={n}")


def check_pi_number_forms(n: int):
    """The projection on the peak-count sums matches the casework."""
    from .maps import pi_map
    wp, low = wp_algebra(n), peak_algebra(n - 2)
    rows = class_images(pi_map, wp.parent, low, "the projection")
    for j in wp.labels:
        if apply_rows(rows, wp.spread({j: 1})) != low.coords(pi_peak_number_formula(n, j)):
            raise CheckFailure(f"pi(p_{j}) casework fails at n={n}")


def check_ker_beta2_on_sol(n: int):
    """ker of the double drop inside the descent-count span is exactly
    the span of x_n and x_{n-1}."""
    from .maps import Node, beta2_map, coarse_node, landed, node_span
    sol, low = sol_algebra(n), descent_algebra("B", n - 2)
    rows = class_images(beta2_map, sol.parent, low, "beta^2")
    kernel = Node("K", sol.parent, [(f"x_{j}", x_count_coords(n, j)) for j in (n, n - 1)])
    landed(rows, kernel, Node("0", low, []), f"beta^2 at n={n}")
    rank = landed(rows, coarse_node("sol", sol), Node("SolB2", low), f"beta^2 at n={n}").rank
    if rank != n - 1:
        raise CheckFailure(f"beta^2 restricted rank {rank} != {n - 1} at n={n}")
    if node_span(kernel).rank != 2:
        raise CheckFailure("x_n, x_{n-1} are dependent")


def check_graded_dimensions(n: int):
    """dims: joint peak span n, peak-count span n//2+1, interior span
    (n+1)//2; type B: 2n, n+1, n."""
    from .maps import Node, node_span
    check_wp_dimensions(n)
    heads, tails = _count_rows("solhat", n)
    if node_span(Node("joint", TWINS["solhat"].fine(n), heads + tails)).rank != 2 * n:
        raise CheckFailure(f"type-B joint span dimension != {2 * n} at n={n}")


def _check_count_closure(twin: str, n: int):
    """Closure, commutativity, the ideal property and generation for the
    count algebra and the ideal of a twin.  Closure and the ideal property
    are the block table (_count_table), commutativity its symmetry.  Then
    the first count sum generates the count span, the first ideal sum the
    ideal, and both together the joint span (the two spans meet in the line
    of the group sum).  The joint span holds the unit, is closed and
    commutative, so the ideal that the first ideal sum generates is its
    products with the joint span."""
    spec = TWINS[twin]
    table, fine = _count_table(twin, n), spec.fine(n)
    labels, cells = table.labels, table.cells
    for i, labi in enumerate(labels):
        for j in range(i + 1, len(labels)):
            if cells[i][j] != cells[j][i]:
                raise CheckFailure(f"{labi} and {labels[j]} do not commute at n={n}")
    heads, tails = _count_rows(twin, n)
    (k, m), head_span = table.blocks, spec.witnesses[0]
    (_, unit), (gen, gen_coords), (tail_gen, gen0) = heads[0], heads[1], tails[0]
    if fine.saturate([unit, gen_coords]) != k:
        raise CheckFailure(f"{gen} does not generate the {head_span} at n={n}")
    if fine.saturate([unit, gen_coords, gen0]) != k + m - 1:
        raise CheckFailure(f"{gen}, {tail_gen} do not generate the joint span at n={n}")
    if Echelon(fine.product(gen0, c) for _, c in heads + tails).rank != m:
        raise CheckFailure(f"{tail_gen} does not generate the ideal at n={n}")


def check_solhat_closure(n: int):
    """Closure, commutativity, the ideal property and generation for the
    type-B graded spans (cost grows with |B_n|^2; rank 5 is deep)."""
    _check_count_closure("solhat", n)


def check_whp_closure(n: int):
    """The same on the peak side, read on the cube of the peak algebra."""
    _check_count_closure("whp", n)


# ---------------------------------------------------------------------------
# the graded exact sequence and the type-D images


def sbexact_diagram(n: int):
    """The maps.DiagramSpec of 0 -> span{x_n, x_{n-1}} -> descent-count
    span -> (two ranks down) -> 0 over the analogous peak-count row,
    vertical sign forgetting.  The kernel rows are x_n, x_{n-1} (carried
    from the type-B classes) and the sum of all p_i."""
    from .maps import Node, beta2_map, exact_square, phi
    sol, wp = sol_algebra(n), wp_algebra(n)
    x_rows = [(f"x_{tag}", sol.lift(x_count_coords(n, j))) for tag, j in (("n", n), ("n1", n - 1))]
    return exact_square(
        f"sbexact/n={n}",
        [Node("K", sol, x_rows), Node("sol", sol), Node("sol2", sol_algebra(n - 2))],
        [
            Node("k", wp, [("sum_p", dict.fromkeys(wp.labels, 1))]),
            Node("wp", wp),
            Node("wp2", wp_algebra(n - 2)),
        ],
        ("beta2", beta2_map),
        ("phi", phi),
    )


def chi_x0_number_coords(n: int, j: int) -> dict:
    """Type-D X-coordinates of the image of x0_j under the fold: all
    labels of size j containing 1', plus all containing 1."""
    out: dict = {}
    for m in range(1 << n):
        if popcount(m) == j:
            if m & 1:
                out[m] = out.get(m, 0) + 1
            if m & 2:
                out[m] = out.get(m, 0) + 1
    return out


def chi_x_number_coords(n: int, j: int) -> dict:
    """Image of x_j: the x0_j image plus the untouched labels of size j
    plus the both-forks labels with j-1 residual elements."""
    out = chi_x0_number_coords(n, j)
    for m in range(0, 1 << n, 4):
        if popcount(m) == j:
            out[m] = out.get(m, 0) + 1
        if popcount(m) == j - 1:
            key = m | 3
            out[key] = out.get(key, 0) + 1
    return {m: c for m, c in out.items() if c}


def check_type_d_numbers(n: int):
    """The fold's images of the graded type-B sums match the closed
    forms; the x_j images and the x0_j images are separately independent
    (ranks n+1 and n), but the joint span has rank 2n - 1: besides the
    image of x_n = x0_n there is a second relation, since no subset of
    {2,...,n-1} has n-1 elements and therefore the images of x_{n-1} and
    x0_{n-1} differ exactly by half the image of x_n."""
    from .maps import Node, chi, landed
    solb, sold = descent_algebra("B", n), descent_algebra("D", n)
    rows = class_images(chi, solb, sold, "the fold")
    xs = [(f"x_{j}", x_count_coords(n, j)) for j in range(n + 1)]
    x0s = [(f"x0_{j}", x_count_coords(n, j, ideal=True)) for j in range(1, n + 1)]
    images = {label: apply_rows(rows, row) for label, row in xs + x0s}
    forms = [(f"x_{j}", chi_x_number_coords(n, j)) for j in range(n + 1)]
    forms += [(f"x0_{j}", chi_x0_number_coords(n, j)) for j in range(1, n + 1)]
    for label, form in forms:
        if images[label] != x_to_y_coords(form):
            raise CheckFailure(f"fold image of {label} closed form fails at n={n}")
    if images[f"x_{n}"] != images[f"x0_{n}"]:
        raise CheckFailure(f"fold images of x_n and x0_n differ at n={n}")

    def rank(family):
        return landed(rows, Node("x", solb, family), Node("SolD", sold), "the fold").rank

    if rank(xs) != n + 1:
        raise CheckFailure(f"rank of fold images of x_j != {n + 1}")
    if rank(x0s) != n:
        raise CheckFailure(f"rank of fold images of x0_j != {n}")
    x, x0, xn = images[f"x_{n - 1}"], images[f"x0_{n - 1}"], images[f"x_{n}"]
    if any(2 * (x.get(m, 0) - x0.get(m, 0)) != xn.get(m, 0) for m in sold.labels):
        raise CheckFailure(f"second fold relation fails at n={n}")
    if rank(xs + x0s) != 2 * n - 1:
        raise CheckFailure(f"joint rank of fold images != {2 * n - 1}")


# ---------------------------------------------------------------------------
# non-containment in the descent-count span of type A


def loday_witness(kind: str):
    """Smallest rank at which the peak-count span (kind 'p') or interior
    span (kind 'pint') escapes the span of the type-A descent-count sums;
    returns (n, offending label) or None if none found up to rank 6.  The
    count sums are a coarsening of the type-A descent algebra, so a member
    is one exactly when its type-A coordinates lift."""
    for n in range(2, 7):
        counts = descent_algebra("A", n).coarsen(popcount)
        heads, tails = _count_rows("whp", n)
        for lab, row in heads if kind == "p" else tails:
            if counts.lift(TWINS["whp"].fine(n).spread(row)) is None:
                return (n, lab)
    return None


def check_wp_dimensions(n: int):
    """Peak-side dimensions alone (valid to rank 8): joint span n, count
    span n//2 + 1, interior span (n+1)//2, with the single relation; read
    on the class sums of the count algebras in peak-class coordinates."""
    from .maps import Node, node_span
    p_rows, pi_rows = _count_rows("whp", n)
    for rows, dim, what in (
        (p_rows, n // 2 + 1, "peak-count span dimension wrong"),
        (pi_rows, (n + 1) // 2, "interior span dimension wrong"),
        (p_rows + pi_rows, n, f"joint span dimension != {n}"),
    ):
        if node_span(Node("span", TWINS["whp"].fine(n), rows)).rank != dim:
            raise CheckFailure(f"{what} at n={n}")
