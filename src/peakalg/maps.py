"""Maps between the descent algebras of types A, B, D and the peak algebra.

Element-level maps (forget signs, fold B onto D, flip leading signs) are
pushed forward linearly; each also has a closed form on the Y- or X-basis,
implemented separately so the two routes can be checked against each other
exhaustively.  The degree-lowering maps live on basis coordinates: the
type-B map drops generator 0, its square and the type-D map drop the two
leftmost generators, and both descend to the projection of the peak
algebra two ranks down.

Every check of a map runs on class rows: a Node is a class algebra (with
spanning rows for a subspace), a map's rows are the binned images of its
source's class sums, landed checks that they send one Node into another
and node_span ranks a Node; the diagrams and exact rows read the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    AlgElem,
    ClassAlgebra,
    Echelon,
    apply_rows,
    class_images,
    exact_det,
    push_forward,
)
from .bases import (
    descent_algebra,
    descent_coordinates,
    x_basis,
    x_to_y_coords,
    y_basis,
    y_to_x_coords,
)
from .peak import interior_peak_algebra, interior_peak_basis, peak_algebra, pi_map
from .perms import (
    chi_element,
    forget_signs,
    interior_sparse_masks,
    popcount,
    rho_element,
    sigma,
    sparse_masks,
)
from .reporting import CheckFailure, run_check

# ---------------------------------------------------------------------------
# element-level linear maps


def phi(a: AlgElem) -> AlgElem:
    """Forget the signs: QB_n (or QD_n) -> QS_n."""
    if a.group not in ("B", "D"):
        raise ValueError("phi acts on elements of QB_n or QD_n")
    return push_forward(forget_signs, a, group="S")


def psi(a: AlgElem) -> AlgElem:
    if a.group != "D":
        raise ValueError("psi acts on elements of QD_n")
    return push_forward(forget_signs, a, group="S")


def chi(a: AlgElem) -> AlgElem:
    """Fold QB_n onto QD_n along w -> w (even bars) / w s_0 (odd bars)."""
    if a.group != "B":
        raise ValueError("chi acts on elements of QB_n")
    return push_forward(chi_element, a, group="D")


def sigma_map(a: AlgElem) -> AlgElem:
    return push_forward(sigma, a)


def inclusion(a: AlgElem) -> AlgElem:
    """A subspace into its ambient algebra: one map, so its rows are shared."""
    return a


def rho_map(a: AlgElem) -> AlgElem:
    if a.group != "D":
        raise ValueError("rho acts on elements of QD_n")
    return push_forward(rho_element, a)


# ---------------------------------------------------------------------------
# closed forms on bases
#
# Type-B subset masks use bit 0 for the sign generator; type-D masks use
# bit 0 for the fork generator 1'.  In the four-case formulas the residual
# subset J sits in {2,...,n-1}, i.e. occupies bits >= 2.


def chi_on_y(n: int, jmask: int) -> AlgElem:
    """Image in the type-D descent algebra of the type-B basis element
    Y_J, by the four-case closed form."""
    j = jmask & ~3
    flags = jmask & 3
    if flags == 0:
        parts = [j]
    elif flags == 2:  # 1 in J
        parts = [j | 1, j | 2, j | 3]
    elif flags == 1:  # 0 in J
        parts = [j, j | 1, j | 2]
    else:  # 0 and 1 in J
        parts = [j | 3]
    out = AlgElem.zero("D", n)
    for m in parts:
        out += y_basis("D", n, m)
    return out


def chi_on_x(n: int, jmask: int) -> AlgElem:
    j = jmask & ~3
    flags = jmask & 3
    if flags == 0:
        return x_basis("D", n, j)
    if flags == 2:
        return x_basis("D", n, j | 3)
    if flags == 1:
        return x_basis("D", n, j | 1) + x_basis("D", n, j | 2)
    return x_basis("D", n, j | 3).scale(2)


def phi_on_y(n: int, jmask: int) -> AlgElem:
    """Sum of 2^{#F} P_F over sparse F contained in the symmetric
    difference of J and J+1 (type-B label J)."""
    window = jmask ^ (jmask << 1)
    coords = {
        fm: 1 << popcount(fm) for fm in sparse_masks(n) if fm & ~window == 0
    }
    return peak_algebra(n).element(coords)


def phi_on_x(n: int, jmask: int) -> AlgElem:
    """2^{#J} times the sum of P_F over sparse F inside J u (J+1)."""
    window = jmask | (jmask << 1)
    scale = 1 << popcount(jmask)
    coords = {fm: scale for fm in sparse_masks(n) if fm & ~window == 0}
    return peak_algebra(n).element(coords)


def phi_on_x0(n: int, jmask: int) -> AlgElem:
    """Image of X_{{0} u J}, J inside [n-1]: lands in the interior-peak
    ideal with a global factor 2^{1+#J}."""
    if jmask & 1:
        raise ValueError("label J must avoid 0; the 0 is implicit")
    window = jmask | (jmask << 1)
    scale = 1 << (1 + popcount(jmask))
    out: dict = {}
    for fm in interior_sparse_masks(n):
        if fm & ~window == 0:
            out[fm] = scale
    return interior_peak_algebra(n).element(out)


def phi_on_y0(n: int, jmask: int) -> AlgElem:
    """Image of Y_{{0} u J} + Y_J, J inside [n-1]."""
    if jmask & 1:
        raise ValueError("label J must avoid 0; the 0 is implicit")
    window = jmask ^ (jmask << 1)
    out: dict = {}
    for fm in interior_sparse_masks(n):
        if fm & ~window == 0:
            out[fm] = 1 << (1 + popcount(fm))
    return interior_peak_algebra(n).element(out)


PSI_CASES = ("plain", "one", "oneprime", "both")


def psi_on_y(n: int, jmask: int, case: str) -> AlgElem:
    """Image of the type-D basis element Y with residual subset J in
    {2,...,n-1} and case tag: plain / one (1 in the label) / oneprime
    (1' in the label) / both."""
    if case not in PSI_CASES:
        raise ValueError(f"unknown case {case!r}")
    if jmask & 3:
        raise ValueError("residual subset J must sit inside {2,...,n-1}")
    if case == "plain":
        window = jmask ^ (jmask << 1)
        coords = {fm: 1 << popcount(fm) for fm in sparse_masks(n) if fm & ~window == 0}
        return peak_algebra(n).element(coords)
    if case in ("one", "oneprime"):
        window = jmask ^ (jmask << 1)
        coords = {}
        for fm in sparse_masks(n):
            if fm & 2 and (fm & ~2) & ~window == 0 and not fm & 4:
                # fm = {1} u F with F sparse avoiding 1 and 2, F inside window
                coords[fm] = 1 << popcount(fm & ~2)
        return peak_algebra(n).element(coords)
    window = jmask ^ (4 | (jmask << 1))
    coords = {fm: 1 << popcount(fm) for fm in sparse_masks(n) if fm & ~window == 0}
    return peak_algebra(n).element(coords)


def psi_on_x(n: int, jmask: int, case: str) -> AlgElem:
    if case not in PSI_CASES:
        raise ValueError(f"unknown case {case!r}")
    if jmask & 3:
        raise ValueError("residual subset J must sit inside {2,...,n-1}")
    if case == "plain":
        window = jmask | (jmask << 1)
        scale = 1 << popcount(jmask)
    elif case in ("one", "oneprime"):
        window = jmask | (jmask << 1) | 2
        scale = 1 << popcount(jmask)
    else:
        window = jmask | (jmask << 1) | 6
        scale = 1 << (popcount(jmask) + 1)
    coords = {fm: scale for fm in sparse_masks(n) if fm & ~window == 0}
    return peak_algebra(n).element(coords)


# ---------------------------------------------------------------------------
# degree-lowering maps on coordinates


def beta_y_label(jmask: int):
    """(sign, new label) of the type-B Y_J image one rank down."""
    if jmask & 1:
        return (-1, (jmask & ~1) >> 1)
    return (1, jmask >> 1)


def gamma_x_label(jmask: int):
    """Type D: X_J two ranks down into type B, or None (1' or 1 in J)."""
    return None if jmask & 3 else jmask >> 2


def _descent_coords_or_raise(a: AlgElem, ctype: str) -> dict:
    coords = descent_coordinates(a, ctype)
    if coords is None:
        raise ValueError(f"element is not in the type-{ctype} descent algebra")
    return coords


def beta_map(a: AlgElem) -> AlgElem:
    """Drop generator 0: the type-B descent algebra onto rank n-1."""
    if a.group != "B":
        raise ValueError("beta acts on the type-B descent algebra")
    if a.n < 1:
        raise ValueError("beta needs rank >= 1")
    coords = _descent_coords_or_raise(a, "B")
    out: dict = {}
    for m, c in coords.items():
        sign, m2 = beta_y_label(m)
        out[m2] = out.get(m2, 0) + sign * c
    return descent_algebra("B", a.n - 1).element(out)


def beta2_map(a: AlgElem) -> AlgElem:
    return beta_map(beta_map(a))


def gamma_map(a: AlgElem) -> AlgElem:
    """Drop generators 1' and 1: the type-D descent algebra onto the
    type-B one two ranks down."""
    if a.group != "D":
        raise ValueError("gamma acts on the type-D descent algebra")
    if a.n < 2:
        raise ValueError("gamma needs rank >= 2")
    xcoords = y_to_x_coords(_descent_coords_or_raise(a, "D"))
    out: dict = {}
    for m, c in xcoords.items():
        m2 = gamma_x_label(m)
        if m2 is not None:
            out[m2] = out.get(m2, 0) + c
    return descent_algebra("B", a.n - 2).element(x_to_y_coords(out))


# ---------------------------------------------------------------------------
# descents-to-peaks transforms


def x0_generator(n: int) -> AlgElem:
    """X_{{0}} in rank n: the sum of the 2^n signed permutations whose
    entries increase."""
    if n == 0:
        return AlgElem.unit("B", 0)
    return x_basis("B", n, 1)


def interior_peak_generator(n: int) -> AlgElem:
    """The sum of the permutations that decrease then increase (empty
    interior peak set)."""
    if n == 0:
        return AlgElem.unit("S", 0)
    return interior_peak_basis(n, 0)


def theta(a: AlgElem) -> AlgElem:
    """Descents-to-peaks transform: right multiplication by twice the
    interior-peak generator.  In degree 0 the factor 2 degenerates (it
    counts the sign choices of a nonempty block) and the transform is the
    identity, matching its type-B analog whose degree-0 generator is 1."""
    if a.group != "S":
        raise ValueError("theta acts on QS_n")
    if a.n == 0:
        return a
    return interior_peak_generator(a.n).scale(2) * a


def theta_pm(a: AlgElem) -> AlgElem:
    """Type-B analog: right multiplication by the increasing-class sum."""
    if a.group != "B":
        raise ValueError("theta_pm acts on QB_n")
    return x0_generator(a.n) * a


# ---------------------------------------------------------------------------
# distinguished subspaces


def canonical_ideal_labels(n: int) -> list:
    """J inside [n-1] (bits >= 1) indexing X_{{0} u J}."""
    return [m << 1 for m in range(1 << (n - 1))] if n >= 1 else [0]


def x0_basis(n: int, jmask: int) -> AlgElem:
    return x_basis("B", n, jmask | 1)


def y0_basis(n: int, jmask: int) -> AlgElem:
    return y_basis("B", n, jmask | 1) + y_basis("B", n, jmask)


def canonical_ideal_basis(n: int) -> list:
    return [(m, x0_basis(n, m)) for m in canonical_ideal_labels(n)]


def canonical_ideal_node(n: int) -> "Node":
    """The canonical ideal, spanned by the X_{{0} u J}, as a subspace node."""
    return x_span_node("canonical ideal", "B", n, [m | 1 for m in canonical_ideal_labels(n)])


def ker_beta2_basis(n: int) -> list:
    """X_J with 0 or 1 in J: the kernel of the double degree drop."""
    return [
        (m, x_basis("B", n, m)) for m in range(1 << n) if m & 3
    ]


def imchi_row(jmask: int, i: int) -> dict:
    """Type-D class coordinates spanning the image of the B-to-D fold: for
    J inside {2,...,n-1}, the classes with no leftmost descents (i = 1),
    with exactly one of 1', 1 (i = 2), and with both (i = 3)."""
    if jmask & 3:
        raise ValueError("residual subset J must sit inside {2,...,n-1}")
    if i not in (1, 2, 3):
        raise ValueError("class index must be 1, 2 or 3")
    return ({jmask: 1}, {jmask | 1: 1, jmask | 2: 1}, {jmask | 3: 1})[i - 1]


def imchi_basis(n: int, jmask: int, i: int) -> AlgElem:
    """The element with the coordinates imchi_row(jmask, i)."""
    return sum((y_basis("D", n, m) for m in imchi_row(jmask, i)), AlgElem.zero("D", n))


# ---------------------------------------------------------------------------
# commutative diagrams and exact rows


@dataclass
class Node:
    """A node of a diagram: its ambient class algebra and, for a proper
    subspace only, spanning rows (label, coordinates over the ambient's
    labels)."""

    name: str
    algebra: ClassAlgebra
    rows: list | None = None


@dataclass
class DiagramSpec:
    """A finite diagram of linear maps with asserted path equalities and
    exact rows.  Arrows are (source node, target node, element map)."""

    name: str
    nodes: dict
    arrows: dict
    path_equalities: list = field(default_factory=list)  # (path_a, path_b)
    exact_rows: list = field(default_factory=list)  # (inclusion arrow, projection arrow)
    surjections: list = field(default_factory=list)  # arrow names


def node_rows(node: Node) -> list:
    """The spanning rows of a node: one per class sum of its algebra, or
    its own rows, each checked to lie over the algebra's labels."""
    if node.rows is None:
        return [(lab, {lab: 1}) for lab in node.algebra.labels]
    labels = set(node.algebra.labels)
    for label, row in node.rows:
        if row is None or not labels.issuperset(row):
            raise CheckFailure(f"row {label} of node {node.name} is off its algebra")
    return node.rows


def node_span(node: Node) -> Echelon:
    """The echelon of a node's rows."""
    return Echelon(row for _, row in node_rows(node))


def landed(rows: dict, src: Node, dst: Node, what: str) -> Echelon:
    """The echelon of the images of the rows of src under the linear map
    with the given rows (class_images between the two algebras), each
    checked to lie in dst."""
    target, images = node_span(dst), Echelon()
    for label, row in node_rows(src):
        image = apply_rows(rows, row)
        if target.add(image):  # off the span of dst
            raise CheckFailure(f"{what} sends {label} outside {dst.name}")
        images.add(image)
    return images


def coarse_node(name: str, coarse: ClassAlgebra) -> Node:
    """The class sums of a coarsening, as a subspace node of its parent."""
    return Node(name, coarse.parent, [(g, coarse.spread({g: 1})) for g in coarse.labels])


def x_span_node(name: str, ctype: str, n: int, labels) -> Node:
    """The X_J over labels, as a subspace node of the descent algebra."""
    return Node(name, descent_algebra(ctype, n), [(m, x_to_y_coords({m: 1})) for m in labels])


def verify_diagram(spec: DiagramSpec) -> list:
    """The checks of a diagram, on class rows.  The rows of an arrow are
    those of its map between the algebras of its two nodes (class_images);
    every check applies them to the spanning rows of the nodes and
    compares, lands or ranks them."""
    nodes = spec.nodes

    def table(arrow) -> dict:
        src, dst, f = spec.arrows[arrow]
        return class_images(f, nodes[src].algebra, nodes[dst].algebra, f"arrow {arrow}")

    def along(path, rows):
        for arrow in path:
            rows = [(label, apply_rows(table(arrow), row)) for label, row in rows]
        return rows

    def land(arrow) -> Echelon:
        src, dst, _ = spec.arrows[arrow]
        return landed(table(arrow), nodes[src], nodes[dst], f"arrow {arrow}")

    head = f"diagram/{spec.name}"
    checks = [run_check(f"{head}/arrows-land-in-nodes", lambda: [land(a) for a in spec.arrows])]

    for path_a, path_b in spec.path_equalities:
        src = spec.arrows[path_a[0]][0]
        if src != spec.arrows[path_b[0]][0]:
            raise ValueError("paths start at different nodes")
        a, b = "*".join(path_a), "*".join(path_b)

        def check_paths(path_a=path_a, path_b=path_b, src=src, a=a, b=b):
            rows = node_rows(nodes[src])
            for (label, x), (_, y) in zip(along(path_a, rows), along(path_b, rows)):
                if x != y:
                    raise CheckFailure(f"paths {a} and {b} differ on {label}")

        checks.append(run_check(f"{head}/path[{a}=={b}]", check_paths))

    for inc, proj in spec.exact_rows:

        def check_exact(inc=inc, proj=proj):
            src, mid, _ = spec.arrows[inc]
            mid2, out, _ = spec.arrows[proj]
            if mid != mid2:
                raise ValueError("exact row arrows do not compose")
            for label, image in along((inc, proj), node_rows(nodes[src])):
                if image:
                    raise CheckFailure(f"{proj}({inc}({label})) != 0")
            # ranks: injective inclusion, surjective projection, and
            # ker(projection) = im(inclusion) by rank-nullity
            r_src, r_mid, r_out = (node_span(nodes[name]).rank for name in (src, mid, out))
            r_in, r_img = land(inc).rank, land(proj).rank
            if r_in != r_src:
                raise CheckFailure(f"{inc} is not injective ({r_in} < {r_src})")
            if r_img != r_out:
                raise CheckFailure(f"{proj} is not onto ({r_img} < {r_out})")
            if r_in + r_img != r_mid:
                raise CheckFailure(f"row not exact at {mid}: {r_in} + {r_img} != {r_mid}")

        checks.append(run_check(f"{head}/exact-row[{inc},{proj}]", check_exact))

    for arrow in spec.surjections:

        def check_surjective(arrow=arrow):
            dst = spec.arrows[arrow][1]
            if land(arrow).rank != node_span(nodes[dst]).rank:
                raise CheckFailure(f"{arrow} is not onto {dst}")

        checks.append(run_check(f"{head}/onto[{arrow}]", check_surjective))

    return checks

# ---------------------------------------------------------------------------
# the standard diagrams


def exact_square(name: str, upper: list, lower: list, drop: tuple, down: tuple) -> DiagramSpec:
    """Two exact rows 0 -> K -> M -> M2 -> 0 over 0 -> k -> N -> N2 -> 0,
    each given as its three Nodes: the upper row is an inclusion and the
    degree drop = (name, map), the lower row an inclusion and the
    projection pi.  The vertical arrows are the map down = (name, map) on
    K and M, and sign forgetting on M2."""
    (top, mid, bot), (low_top, low_mid, low_bot) = upper, lower
    drop_name, v = drop[0], down[0]
    arrows = {
        "inc": (top.name, mid.name, inclusion),
        drop_name: (mid.name, bot.name, drop[1]),
        f"{v}_top": (top.name, low_top.name, down[1]),
        f"{v}_mid": (mid.name, low_mid.name, down[1]),
        "phi_bot": (bot.name, low_bot.name, phi),
        "inc_low": (low_top.name, low_mid.name, inclusion),
        "pi": (low_mid.name, low_bot.name, pi_map),
    }
    return DiagramSpec(
        name=name,
        nodes={node.name: node for node in upper + lower},
        arrows=arrows,
        path_equalities=[
            (("inc", f"{v}_mid"), (f"{v}_top", "inc_low")),
            ((drop_name, "phi_bot"), (f"{v}_mid", "pi")),
        ],
        exact_rows=[("inc", drop_name), ("inc_low", "pi")],
        surjections=[f"{v}_top", f"{v}_mid", "phi_bot"],
    )


def _peak_row(n: int) -> list:
    """0 -> interior peaks -> peaks_n -> peaks_{n-2} -> 0 as Nodes; the
    interior class sums are lifted to P-coordinates."""
    P, interior = peak_algebra(n), interior_peak_algebra(n)
    pint = [(m, P.lift(interior.spread({m: 1}))) for m in interior.labels]
    return [Node("Pint", P, pint), Node("P", P), Node("P2", peak_algebra(n - 2))]


def _descent_row(ctype: str, kernel: str, n: int) -> list:
    """0 -> ideal -> Sol(ctype_n) -> Sol(B_{n-2}) as Nodes, the ideal
    spanned by the X_J with 0 (1') or 1 in J."""
    return [
        x_span_node(kernel, ctype, n, [m for m in range(1 << n) if m & 3]),
        Node(f"Sol{ctype}", descent_algebra(ctype, n)),
        Node("SolB2", descent_algebra("B", n - 2)),
    ]


def bexact_diagram(n: int) -> DiagramSpec:
    """Rows 0 -> ker(beta^2) -> Sol(B_n) -> Sol(B_{n-2}) -> 0 over
    0 -> interior peaks -> peaks_n -> peaks_{n-2} -> 0, with the
    sign-forgetting map as the vertical arrows."""
    return exact_square(
        f"bexact/n={n}",
        _descent_row("B", "I01", n),
        _peak_row(n),
        ("beta2", beta2_map),
        ("phi", phi),
    )


def dexact_diagram(n: int) -> DiagramSpec:
    """The type-D analog, with the two leftmost generators dropped."""
    return exact_square(
        f"dexact/n={n}",
        _descent_row("D", "Iprime", n),
        _peak_row(n),
        ("gamma", gamma_map),
        ("psi", psi),
    )


def bd_triangles(n: int) -> DiagramSpec:
    """The fold through type D composed with the projections: psi after
    chi is phi, and gamma after chi is the double degree drop."""
    nodes = {
        "SolB": Node("SolB", descent_algebra("B", n)),
        "SolD": Node("SolD", descent_algebra("D", n)),
        "SolB2": Node("SolB2", descent_algebra("B", n - 2)),
        "P": Node("P", peak_algebra(n)),
    }
    arrows = {
        "chi": ("SolB", "SolD", chi),
        "psi": ("SolD", "P", psi),
        "phi": ("SolB", "P", phi),
        "gamma": ("SolD", "SolB2", gamma_map),
        "beta2": ("SolB", "SolB2", beta2_map),
    }
    return DiagramSpec(
        name=f"bd-triangles/n={n}",
        nodes=nodes,
        arrows=arrows,
        path_equalities=[
            (("chi", "psi"), ("phi",)),
            (("chi", "gamma"), ("beta2",)),
        ],
    )


# ---------------------------------------------------------------------------
# principal right ideals


def x_support_coords(ctype: str, allowed: frozenset):
    """Coordinates on the X-basis restricted to an allowed label set;
    None outside the corresponding span."""

    def coords(a: AlgElem):
        y = descent_coordinates(a, ctype)
        if y is None:
            return None
        x = y_to_x_coords(y)
        if any(m not in allowed for m in x):
            return None
        return x

    return coords


def right_ideal_check(generator: AlgElem, algebra_family, ideal_family, coordizer, what: str):
    """generator * algebra spans exactly the ideal: both spans coordinate
    to equal rank and their union adds nothing."""
    products = []
    for label, b in algebra_family:
        prod = generator * b
        c = coordizer(prod)
        if c is None:
            raise CheckFailure(f"{what}: generator * {label} leaves the ideal")
        products.append(c)
    ideal_rows = []
    for label, b in ideal_family:
        c = coordizer(b)
        if c is None:
            raise CheckFailure(f"{what}: ideal family member {label} rejected")
        ideal_rows.append(c)
    r_prod = Echelon(products).rank
    r_ideal = Echelon(ideal_rows).rank
    r_union = Echelon(products + ideal_rows).rank
    if not (r_prod == r_ideal == r_union):
        raise CheckFailure(
            f"{what}: span ranks differ (products {r_prod}, ideal {r_ideal}, union {r_union})"
        )


def theta_pm_ideal_matrix(n: int):
    """Rows of the type-B transform restricted to the canonical ideal, in
    X0 coordinates: entry [alpha][beta] is the coefficient of X0_beta in
    the image of X0_alpha.  Returns (labels, matrix).  The images are read
    on Y coordinates from the cached rows of the transform on the type-B
    descent classes (building them checks that it stays in the algebra)."""
    from .hopf import transform_coords

    transform = transform_coords("SolB", n)
    labels = canonical_ideal_labels(n)
    index = {m: i for i, m in enumerate(labels)}
    rows = []
    for m in labels:
        xcoords = y_to_x_coords(apply_rows(transform, x_to_y_coords({m | 1: 1})))
        row = [Fraction(0)] * len(labels)
        for xm, c in xcoords.items():
            if not xm & 1:
                raise CheckFailure("transform image left the canonical ideal")
            row[index[xm & ~1]] = Fraction(c)
        rows.append(row)
    return labels, rows


def check_theta_pm_bijective(n: int):
    """Triangularity with diagonal 2^(number of parts), support only on
    refinements, and a nonzero exact determinant."""
    labels, rows = theta_pm_ideal_matrix(n)
    for i, m in enumerate(labels):
        parts = popcount(m) + 1
        if rows[i][i] != (1 << parts):
            raise CheckFailure(
                f"diagonal at label {bin(m)} is {rows[i][i]}, expected 2^{parts}"
            )
        for j, m2 in enumerate(labels):
            c = rows[i][j]
            if c and (m & ~m2):
                raise CheckFailure(
                    f"entry at ({bin(m)}, {bin(m2)}) is nonzero but not a refinement"
                )
            if c and not (c.denominator == 1 and c >= 0):
                raise CheckFailure(f"entry at ({bin(m)}, {bin(m2)}) is not a nonnegative integer")
    det = exact_det(rows)
    if det == 0:
        raise CheckFailure("determinant vanishes")
    return det
