"""The diagram checks on class rows against their element-level form.

maps.verify_diagram reads every check of a diagram (landing, path
equalities, exact rows, surjections) from the rows of its arrows: the
binned image of every class sum of the source's algebra, applied to the
spanning rows of the nodes.  The element-level body it replaced lives
here as the reference: nodes are spanning families of group-algebra
elements with an exact coordinatizer, and every arrow is applied to every
family element.  Both must give the same check IDs in the same order and
the same verdicts on every standard diagram.
"""

from dataclasses import dataclass

import pytest

from peakalg.algebra import AlgElem
from peakalg.bases import descent_coordinates, x_basis, y_label_elements
from peakalg.commutative import (
    peak_number,
    sbexact_diagram,
    sol_algebra,
    wp_algebra,
    x_number,
)
from peakalg.maps import (
    DiagramSpec,
    bd_triangles,
    bexact_diagram,
    dexact_diagram,
    verify_diagram,
    x_support_coords,
)
from peakalg.peak import (
    interior_peak_coordinates,
    interior_peak_elements,
    peak_coordinates,
    peak_elements,
)
from peakalg.reporting import CheckFailure, run_check

from oracles import Echelon, sol_family, wp_family

# ---------------------------------------------------------------------------
# the element-level reference


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


def _apply_path(spec, path, elem):
    for name in path:
        elem = spec.arrows[name][2](elem)
    return elem


def reference_verify_diagram(spec) -> list:
    checks = []

    def check_membership():
        for name, (src, dst, f) in spec.arrows.items():
            for label, elem in spec.nodes[src].family:
                image = f(elem)
                if spec.nodes[dst].coords(image) is None:
                    raise CheckFailure(f"arrow {name} sends {label} outside {dst}")

    checks.append(run_check(f"diagram/{spec.name}/arrows-land-in-nodes", check_membership))

    for path_a, path_b in spec.path_equalities:
        src = spec.arrows[path_a[0]][0]
        if src != spec.arrows[path_b[0]][0]:
            raise ValueError("paths start at different nodes")

        def check_paths(path_a=path_a, path_b=path_b, src=src):
            for label, elem in spec.nodes[src].family:
                if _apply_path(spec, path_a, elem) != _apply_path(spec, path_b, elem):
                    raise CheckFailure(
                        f"paths {'*'.join(path_a)} and {'*'.join(path_b)} differ on {label}"
                    )

        checks.append(
            run_check(
                f"diagram/{spec.name}/path[{'*'.join(path_a)}=={'*'.join(path_b)}]",
                check_paths,
            )
        )

    for inc_name, proj_name in spec.exact_rows:

        def check_exact(inc_name=inc_name, proj_name=proj_name):
            inc_src, mid, f = spec.arrows[inc_name]
            mid2, out, g = spec.arrows[proj_name]
            if mid != mid2:
                raise ValueError("exact row arrows do not compose")
            mid_node, out_node = spec.nodes[mid], spec.nodes[out]
            src_node = spec.nodes[inc_src]
            for label, elem in src_node.family:
                if g(f(elem)):
                    raise CheckFailure(f"{proj_name}({inc_name}({label})) != 0")
            r_src = src_node.rank()
            r_mid = mid_node.rank()
            r_out = out_node.rank()
            r_in = Echelon(mid_node._coords_or_fail(f(e)) for _, e in src_node.family).rank
            r_img = Echelon(out_node._coords_or_fail(g(e)) for _, e in mid_node.family).rank
            if r_in != r_src:
                raise CheckFailure(f"{inc_name} is not injective ({r_in} < {r_src})")
            if r_img != r_out:
                raise CheckFailure(f"{proj_name} is not onto ({r_img} < {r_out})")
            if r_in + r_img != r_mid:
                raise CheckFailure(f"row not exact at {mid}: {r_in} + {r_img} != {r_mid}")

        checks.append(
            run_check(f"diagram/{spec.name}/exact-row[{inc_name},{proj_name}]", check_exact)
        )

    for name in spec.surjections:

        def check_surjective(name=name):
            src, dst, f = spec.arrows[name]
            dst_node = spec.nodes[dst]
            rank = Echelon(
                dst_node._coords_or_fail(f(e)) for _, e in spec.nodes[src].family
            ).rank
            if rank != dst_node.rank():
                raise CheckFailure(f"{name} is not onto {dst}")

        checks.append(run_check(f"diagram/{spec.name}/onto[{name}]", check_surjective))

    return checks


# The element-level nodes of the standard diagrams, by node name.


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


def verdicts(checks):
    return [(c.check_id, c.status) for c in checks]


# ---------------------------------------------------------------------------
# both paths agree on every standard diagram

CASES = (
    [("bd-triangles", bd_triangles, n) for n in (3, 4, 5)]
    + [("bexact", bexact_diagram, n) for n in (3, 4, 5)]
    + [("dexact", dexact_diagram, n) for n in (3, 4, 5)]
    + [("sbexact", sbexact_diagram, n) for n in (4, 5, 6)]
)


@pytest.mark.parametrize("kind,diagram,n", CASES, ids=[f"{c[0]}{c[2]}" for c in CASES])
def test_rows_match_the_element_reference(kind, diagram, n):
    rows = verify_diagram(diagram(n))
    reference = reference_verify_diagram(reference_spec(diagram(n), n))
    assert verdicts(rows) == verdicts(reference)
    assert all(c.ok for c in rows), [(c.check_id, c.witness) for c in rows if not c.ok]
    assert all(c.check_id.startswith(f"diagram/{kind}/n={n}/") for c in rows)
