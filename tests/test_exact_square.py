"""The bexact, dexact and sbexact diagrams are one exact square each.

Their check IDs are frozen here: the arrow names, path equalities, exact
rows and surjections that maps.exact_square writes out for all three.  No
report digest covers sbexact at n = 6.
"""

import pytest

from peakalg.commutative import sbexact_diagram
from peakalg.maps import (
    beta2_map,
    bexact_diagram,
    dexact_diagram,
    gamma_map,
    phi,
    psi,
    verify_diagram,
)
from peakalg.peak import pi_map

PHI_SQUARE = [
    "arrows-land-in-nodes",
    "path[inc*phi_mid==phi_top*inc_low]",
    "path[beta2*phi_bot==phi_mid*pi]",
    "exact-row[inc,beta2]",
    "exact-row[inc_low,pi]",
    "onto[phi_top]",
    "onto[phi_mid]",
    "onto[phi_bot]",
]
PSI_SQUARE = [
    "arrows-land-in-nodes",
    "path[inc*psi_mid==psi_top*inc_low]",
    "path[gamma*phi_bot==psi_mid*pi]",
    "exact-row[inc,gamma]",
    "exact-row[inc_low,pi]",
    "onto[psi_top]",
    "onto[psi_mid]",
    "onto[phi_bot]",
]
CASES = (
    [("bexact", bexact_diagram, n, PHI_SQUARE) for n in (3, 4, 5)]
    + [("dexact", dexact_diagram, n, PSI_SQUARE) for n in (3, 4, 5)]
    + [("sbexact", sbexact_diagram, n, PHI_SQUARE) for n in (4, 5, 6)]
)


@pytest.mark.parametrize(
    "kind,diagram,n,suffixes", CASES, ids=[f"{c[0]}{c[2]}" for c in CASES]
)
def test_exact_square_check_ids_are_frozen(kind, diagram, n, suffixes):
    checks = verify_diagram(diagram(n))
    assert [c.check_id for c in checks] == [f"diagram/{kind}/n={n}/{s}" for s in suffixes]
    assert all(c.ok for c in checks), [(c.check_id, c.witness) for c in checks if not c.ok]


def test_the_three_squares_share_their_rows_and_columns():
    for n in (3, 4):
        b, d, sb = bexact_diagram(n), dexact_diagram(n), sbexact_diagram(n + 1)
        assert list(b.nodes) == ["I01", "SolB", "SolB2", "Pint", "P", "P2"]
        assert list(d.nodes) == ["Iprime", "SolD", "SolB2", "Pint", "P", "P2"]
        assert list(sb.nodes) == ["K", "sol", "sol2", "k", "wp", "wp2"]
        for spec in (b, d, sb):
            assert spec.arrows["pi"][2] is pi_map
            assert spec.arrows["phi_bot"][2] is phi
        assert b.arrows["beta2"][2] is sb.arrows["beta2"][2] is beta2_map
        assert d.arrows["gamma"][2] is gamma_map
        assert d.arrows["psi_mid"][2] is d.arrows["psi_top"][2] is psi
