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

from collections import Counter, namedtuple

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
    canonical_ideal_algebra,
    descent_algebra,
    descent_coordinates,
    descent_element,
    x_basis,
    x_to_y_coords,
    y_to_x_coords,
)
from .peak import interior_peak_algebra, interior_peak_basis, peak_algebra, pi_map
from .perms import (
    byte_decoder,
    byte_words,
    chi_element,
    forget_signs,
    popcount,
    rho_element,
    sigma,
    unsigned_tally,
)
from .reporting import Check, CheckFailure, run_checks

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


# element_rows tallies each class, on byte words: members, rank -> image -> multiplicity
phi.tally = psi.tally = unsigned_tally
chi.tally = lambda ws, n: Counter(byte_words(map(chi_element, map(byte_decoder(n), ws)), n))
inclusion.tally = lambda ws, n: Counter(ws)


# ---------------------------------------------------------------------------
# closed forms on bases
#
# Type-B subset masks use bit 0 for the sign generator; type-D masks use
# bit 0 for the fork generator 1'.  In the four-case formulas the residual
# subset J sits in {2,...,n-1}, i.e. occupies bits >= 2.


def chi_on_y(n: int, jmask: int) -> AlgElem:
    """Image in the type-D descent algebra of the type-B basis element
    Y_J, by the four-case closed form: the sum of the imchi_row classes
    of J less 0 and 1 picked by which of 0 and 1 lie in J."""
    classes = ((1,), (1, 2), (2, 3), (3,))[jmask & 3]
    return descent_element("D", n, {m: 1 for i in classes for m in imchi_row(jmask & ~3, i)})


def chi_on_x(n: int, jmask: int) -> AlgElem:
    """The X-form, for J less 0 and 1: X_J, X_{J u 1'} + X_{J u 1} (0 in the
    label), X_{J u {1',1}} (1 in it), twice that (both)."""
    j = jmask & ~3
    xcoords = ({j: 1}, {j | 1: 1, j | 2: 1}, {j | 3: 1}, {j | 3: 2})[jmask & 3]
    return descent_element("D", n, x_to_y_coords(xcoords))


def _peak_window(alg: ClassAlgebra, window: int, scale=1, per_peak=False, lead=0) -> AlgElem:
    """The closed form of sign forgetting: the sum of scale * P_F, times
    2^{#G} with per_peak, over the labels F = lead u G of alg (the peak
    or interior-peak sets) with G inside the window."""
    coords = {}
    for fm in alg.labels:
        g = fm & ~lead
        if fm & lead == lead and g & ~window == 0:
            coords[fm] = scale << popcount(g) if per_peak else scale
    return alg.element(coords)


def phi_on_y(n: int, jmask: int) -> AlgElem:
    """Sum of 2^{#F} P_F over sparse F contained in the symmetric
    difference of J and J+1 (type-B label J)."""
    return _peak_window(peak_algebra(n), jmask ^ (jmask << 1), per_peak=True)


def phi_on_x(n: int, jmask: int) -> AlgElem:
    """2^{#J} times the sum of P_F over sparse F inside J u (J+1)."""
    return _peak_window(peak_algebra(n), jmask | (jmask << 1), 1 << popcount(jmask))


def _ideal_label(jmask: int) -> int:
    """The label J of an ideal form (X0, Y0 or their phi images), which
    must avoid 0: the 0 is implicit."""
    if jmask & 1:
        raise ValueError("label J must avoid 0; the 0 is implicit")
    return jmask


def phi_on_x0(n: int, jmask: int) -> AlgElem:
    """Image of X_{{0} u J}, J inside [n-1]: lands in the interior-peak
    ideal with a global factor 2^{1+#J}.  The transform theta sends the
    type-A X_J to this same sum."""
    _ideal_label(jmask)
    return _peak_window(interior_peak_algebra(n), jmask | (jmask << 1), 2 << popcount(jmask))


def phi_on_y0(n: int, jmask: int) -> AlgElem:
    """Image of Y_{{0} u J} + Y_J, J inside [n-1]."""
    _ideal_label(jmask)
    return _peak_window(interior_peak_algebra(n), jmask ^ (jmask << 1), 2, per_peak=True)


# the case of a type-D label by its two low bits: neither, 1', 1, both
PSI_CASES = ("plain", "oneprime", "one", "both")


def _psi_label(jmask: int, case: str):
    if case not in PSI_CASES:
        raise ValueError(f"unknown case {case!r}")
    if jmask & 3:
        raise ValueError("residual subset J must sit inside {2,...,n-1}")


def psi_on_y(n: int, jmask: int, case: str) -> AlgElem:
    """Image of the type-D basis element Y with residual subset J in
    {2,...,n-1} and case tag: plain / one (1 in the label) / oneprime
    (1' in the label) / both.  On a plain label it is phi_on_y; with one
    of 1 and 1' the sparse F are {1} u G with G in the plain window."""
    _psi_label(jmask, case)
    if case == "plain":
        return phi_on_y(n, jmask)
    window = jmask ^ (jmask << 1)
    if case == "both":
        return _peak_window(peak_algebra(n), window ^ 4, per_peak=True)
    return _peak_window(peak_algebra(n), window, per_peak=True, lead=2)


def psi_on_x(n: int, jmask: int, case: str) -> AlgElem:
    """The X-form of psi_on_y: phi_on_x on a plain label, else the window
    J u (J+1) with 1 (one of 1 and 1') or 1 and 2 (both) added."""
    _psi_label(jmask, case)
    if case == "plain":
        return phi_on_x(n, jmask)
    window = jmask | (jmask << 1)
    if case == "both":
        return _peak_window(peak_algebra(n), window | 6, 2 << popcount(jmask))
    return _peak_window(peak_algebra(n), window | 2, 1 << popcount(jmask))


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
    interior peak set; the unit in rank 0)."""
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
    """X_{{0} u J}."""
    return x_basis("B", n, _ideal_label(jmask) | 1)


def y0_basis(n: int, jmask: int) -> AlgElem:
    """Y_{{0} u J} + Y_J."""
    return descent_element("B", n, {_ideal_label(jmask) | 1: 1, jmask: 1})


def canonical_ideal_basis(n: int) -> list:
    return [(m, x0_basis(n, m)) for m in canonical_ideal_labels(n)]


def canonical_ideal_node(n: int) -> "Node":
    """The canonical ideal, spanned by the X_{{0} u J}, as a subspace node."""
    return x_span_node("canonical ideal", "B", n, [m | 1 for m in canonical_ideal_labels(n)])


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
    return descent_element("D", n, imchi_row(jmask, i))


# ---------------------------------------------------------------------------
# commutative diagrams and exact rows


# A node of a diagram: its ambient class algebra and, for a proper
# subspace only, spanning rows (label, coordinates over the ambient's labels)
Node = namedtuple("Node", "name algebra rows", defaults=(None,))

# A finite diagram of arrows (source node, target node, element map) with
# asserted path equalities (path_a, path_b), exact rows (inclusion arrow,
# projection arrow) and surjections (arrow names)
DiagramSpec = namedtuple(
    "DiagramSpec",
    "name nodes arrows path_equalities exact_rows surjections",
    defaults=((), (), ()),
)


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


def _refuse_malformed(spec: DiagramSpec):
    """Raise ValueError naming the first shape error of a spec: an arrow
    from or to a node it lacks, an arrow name it lacks, a path or exact
    row whose consecutive arrows do not compose, or asserted-equal paths
    with different ends."""
    nodes, arrows = spec.nodes, spec.arrows
    for src, dst, _ in arrows.values():
        for node in (src, dst):
            if node not in nodes:
                raise ValueError(f"diagram {spec.name} has no node {node}")
    rows = [("path", p) for pair in spec.path_equalities for p in pair]
    rows += [("exact row", row) for row in spec.exact_rows]
    for arrow in [a for _, row in rows for a in row] + list(spec.surjections):
        if arrow not in arrows:
            raise ValueError(f"diagram {spec.name} has no arrow {arrow}")
    for kind, row in rows:
        for f, g in zip(row, row[1:]):
            if arrows[f][1] != arrows[g][0]:
                raise ValueError(f"{kind} arrows {f} and {g} do not compose")
    for a, b in spec.path_equalities:
        names = f"paths {'*'.join(a)} and {'*'.join(b)}"
        if arrows[a[0]][0] != arrows[b[0]][0]:
            raise ValueError(f"{names} start at different nodes")
        if arrows[a[-1]][1] != arrows[b[-1]][1]:
            raise ValueError(f"{names} end at different nodes")


def diagram_checks(spec: DiagramSpec) -> list:
    """The checks of a diagram on class rows, declared and not run.  The
    rows of an arrow are those of its map between the algebras of its two
    nodes (class_images); every check applies them to the spanning rows
    of the nodes and compares, lands or ranks them.  A malformed spec
    raises ValueError (_refuse_malformed)."""
    _refuse_malformed(spec)
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

    def check_paths(pair):
        a, b = pair
        rows = node_rows(nodes[spec.arrows[a[0]][0]])
        for (label, x), (_, y) in zip(along(a, rows), along(b, rows)):
            if x != y:
                raise CheckFailure(f"paths {'*'.join(a)} and {'*'.join(b)} differ on {label}")

    def check_exact(row):
        inc, proj = row
        (src, mid, _), out = spec.arrows[inc], spec.arrows[proj][1]
        for label, image in along(row, node_rows(nodes[src])):
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

    def check_surjective(arrow):
        dst = spec.arrows[arrow][1]
        if land(arrow).rank != node_span(nodes[dst]).rank:
            raise CheckFailure(f"{arrow} is not onto {dst}")

    head = f"diagram/{spec.name}"
    checks = [Check(f"{head}/arrows-land-in-nodes", list(spec.arrows), land)]
    for a, b in spec.path_equalities:
        checks.append(Check(f"{head}/path[{'*'.join(a)}=={'*'.join(b)}]", [(a, b)], check_paths))
    checks += [Check(f"{head}/exact-row[{','.join(r)}]", [r], check_exact) for r in spec.exact_rows]
    checks += [Check(f"{head}/onto[{a}]", [a], check_surjective) for a in spec.surjections]
    return checks


def verify_diagram(spec: DiagramSpec) -> list:
    """The CheckResults of the checks of a diagram (diagram_checks)."""
    return run_checks(diagram_checks(spec))


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
    interior class sums are carried to P-coordinates."""
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
        row = [0] * len(labels)
        for xm, c in xcoords.items():
            if not xm & 1:
                raise CheckFailure("transform image left the canonical ideal")
            row[index[xm & ~1]] = c
        rows.append(row)
    return labels, rows


def check_theta_pm_bijective(n: int):
    """Triangularity with diagonal 2^(number of parts), support only on
    refinements, and a nonzero exact determinant."""
    labels, rows = theta_pm_ideal_matrix(n)
    text = canonical_ideal_algebra(n).text
    for i, m in enumerate(labels):
        parts = popcount(m) + 1
        if rows[i][i] != (1 << parts):
            raise CheckFailure(f"diagonal at label {text(m)} is {rows[i][i]}, expected 2^{parts}")
        for j, m2 in enumerate(labels):
            c = rows[i][j]
            if c and (m & ~m2 or not (c.denominator == 1 and c >= 0)):
                why = "nonzero but not a refinement" if m & ~m2 else "not a nonnegative integer"
                raise CheckFailure(f"entry at ({text(m)}, {text(m2)}) is {why}")
    det = exact_det(rows)
    if det == 0:
        raise CheckFailure("determinant vanishes")
    return det
