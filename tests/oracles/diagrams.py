"""The oracles of the diagram checks that maps.diagram_checks declares.

The same diagram has element-level nodes here, spanning families of
group-algebra elements with an exact coordinatizer, and every arrow is
applied to every family element.  Each oracle takes that diagram and one
declared case of its check: an arrow, a pair of paths or an exact row.
"""

from dataclasses import dataclass

from peakalg.algebra import AlgElem
from peakalg.bases import descent_coordinates, x_basis, y_label_elements
from peakalg.commutative import peak_number, sbexact_diagram, sol_algebra, wp_algebra, x_number
from peakalg.maps import DiagramSpec, bd_triangles, bexact_diagram, dexact_diagram, x_support_coords
from peakalg.peak import interior_peak_coordinates, interior_peak_elements
from peakalg.peak import peak_coordinates, peak_elements
from peakalg.reporting import CheckFailure

from oracles import Echelon, sol_family, wp_family

# the standard diagrams by the name in their check IDs
DIAGRAMS = {
    "bd-triangles": bd_triangles,
    "bexact": bexact_diagram,
    "dexact": dexact_diagram,
    "sbexact": sbexact_diagram,
}


@dataclass
class RefNode:
    """A subspace given by a spanning family and an exact coordinatizer
    (returns None outside the subspace)."""

    name: str
    family: list  # (label, AlgElem)
    coords: object  # callable AlgElem -> dict | None

    def rank(self) -> int:
        return Echelon(self._coords_or_fail(e) for _, e in self.family).rank

    def _coords_or_fail(self, elem: AlgElem) -> dict:
        c = self.coords(elem)
        if c is None:
            raise CheckFailure(f"element falls outside node {self.name}")
        return c


def _descent(ctype):
    return lambda a: descent_coordinates(a, ctype)


def _x_ideal(ctype, n):
    family = [(m, x_basis(ctype, n, m)) for m in range(1 << n) if m & 3]
    return family, x_support_coords(ctype, frozenset(m for m, _ in family))


def _all_p(n):
    return sum((peak_number(n, i) for i in range(n // 2 + 1)), AlgElem.zero("S", n))


def _sol(a):
    return sol_algebra(a.n).coords(a)


def _wp(a):
    return wp_algebra(a.n).coords(a)


# the element-level nodes of the standard diagrams, by node name
REF_NODES = {
    "I01": lambda n: _x_ideal("B", n),
    "Iprime": lambda n: _x_ideal("D", n),
    "SolB": lambda n: (y_label_elements("B", n), _descent("B")),
    "SolD": lambda n: (y_label_elements("D", n), _descent("D")),
    "SolB2": lambda n: (y_label_elements("B", n - 2), _descent("B")),
    "Pint": lambda n: (interior_peak_elements(n), interior_peak_coordinates),
    "P": lambda n: (peak_elements(n), peak_coordinates),
    "P2": lambda n: (peak_elements(n - 2), peak_coordinates),
    "K": lambda n: ([("x_n", x_number(n, n)), ("x_n1", x_number(n, n - 1))], _sol),
    "sol": lambda n: (sol_family(n), _sol),
    "sol2": lambda n: (sol_family(n - 2), _sol),
    "k": lambda n: ([("sum_p", _all_p(n))], _wp),
    "wp": lambda n: (wp_family(n), _wp),
    "wp2": lambda n: (wp_family(n - 2), _wp),
}


def reference_spec(spec, n):
    """The same diagram (same arrows, same element maps) on element-level
    nodes."""
    nodes = {name: RefNode(name, *REF_NODES[name](n)) for name in spec.nodes}
    return DiagramSpec(spec.name, nodes, spec.arrows, spec.path_equalities, spec.exact_rows, spec.surjections)


def _apply_path(spec, path, elem):
    for name in path:
        elem = spec.arrows[name][2](elem)
    return elem


def ref_lands(spec, arrow):
    """The arrow sends every family element of its source into its target."""
    src, dst, f = spec.arrows[arrow]
    for label, elem in spec.nodes[src].family:
        if spec.nodes[dst].coords(f(elem)) is None:
            raise CheckFailure(f"arrow {arrow} sends {label} outside {dst}")


def ref_paths(spec, pair):
    path_a, path_b = pair
    for label, elem in spec.nodes[spec.arrows[path_a[0]][0]].family:
        if _apply_path(spec, path_a, elem) != _apply_path(spec, path_b, elem):
            raise CheckFailure(f"paths {'*'.join(path_a)} and {'*'.join(path_b)} differ on {label}")


def ref_exact(spec, row):
    inc_name, proj_name = row
    inc_src, mid, f = spec.arrows[inc_name]
    _, out, g = spec.arrows[proj_name]
    mid_node, out_node, src_node = spec.nodes[mid], spec.nodes[out], spec.nodes[inc_src]
    for label, elem in src_node.family:
        if g(f(elem)):
            raise CheckFailure(f"{proj_name}({inc_name}({label})) != 0")
    r_src, r_mid, r_out = src_node.rank(), mid_node.rank(), out_node.rank()
    r_in = Echelon(mid_node._coords_or_fail(f(e)) for _, e in src_node.family).rank
    r_img = Echelon(out_node._coords_or_fail(g(e)) for _, e in mid_node.family).rank
    if r_in != r_src:
        raise CheckFailure(f"{inc_name} is not injective ({r_in} < {r_src})")
    if r_img != r_out:
        raise CheckFailure(f"{proj_name} is not onto ({r_img} < {r_out})")
    if r_in + r_img != r_mid:
        raise CheckFailure(f"row not exact at {mid}: {r_in} + {r_img} != {r_mid}")


def ref_onto(spec, arrow):
    src, dst, f = spec.arrows[arrow]
    dst_node = spec.nodes[dst]
    rank = Echelon(dst_node._coords_or_fail(f(e)) for _, e in spec.nodes[src].family).rank
    if rank != dst_node.rank():
        raise CheckFailure(f"{arrow} is not onto {dst}")
