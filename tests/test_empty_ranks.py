"""A check whose rank range is empty checked nothing, so it gets no entry.

At --n-max 0 and 1 the checks that start at a higher rank drop out of the
report instead of passing vacuously; the checks that still run pass.
"""

import json

import pytest

from peakalg.cli import main
from peakalg.verify import run_suite

# checks whose every rank range starts at 1 drop out at n_max 0 ...
FROM_ONE = {
    "descents/length-oracle",
    "descents/partition-and-xy-inverse",
    "descents/sign-maps",
    "descents/structure-closure",
    "ideals/canonical-two-sided",
    "mr/increasing-class-products",
    "phi/closed-forms",
    "phi/complement-symmetry",
    "phi/ideal-closed-forms",
    "phi/increasing-class-image",
    "phi/multiplicative",
    "theta/bijective-on-ideal",
    "theta/square-with-sign-forgetting",
    "theta/type-a-values",
    "theta/type-b-values",
    "words/convolution",
    "words/symmetrizer-identity",
}
# ... and those that start at 2 also at n_max 1
FROM_TWO = {
    "chi/class-support-counts",
    "chi/closed-forms",
    "chi/image-three-classes",
    "chi/multiplicative",
    "ideals/drops-multiplicative",
    "ideals/images-onto-interior",
    "ideals/kernel-of-drop",
    "peaks/projection-multiplicative",
    "peaks/tables-build",
    "psi/closed-forms",
    "psi/flip-invariance",
    "psi/fork-equality",
    "theta/bijective-on-interior",
    "theta/image-is-interior-ideal",
}
FROM_THREE = {"theta/principal-right-ideals"}


@pytest.mark.parametrize("n_max", [0, 1, 2])
def test_checks_over_no_rank_get_no_entry(n_max):
    report = run_suite("all", n_max)
    ids = {c.check_id for c in report.checks}
    dropped = set()
    for lo, ids_from in ((1, FROM_ONE), (2, FROM_TWO), (3, FROM_THREE)):
        if n_max < lo:
            dropped |= ids_from
    assert not ids & dropped
    assert (FROM_ONE | FROM_TWO | FROM_THREE) - dropped <= ids
    assert report.passed and report.checks
    # per-rank checks stop at n_max as before
    assert not any(cid.endswith(f"/n={n_max + 1}") for cid in ids)


@pytest.mark.parametrize("n_max", ["0", "1"])
def test_cli_at_the_lowest_ceilings(n_max, capsys):
    assert main(["verify", "--suite", "all", "--n-max", n_max, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]
    assert all(c["status"] == "pass" for c in report["checks"])
    assert not {c["id"] for c in report["checks"]} & FROM_TWO


def test_a_suite_with_nothing_to_check_does_not_print_pass(capsys):
    assert main(["verify", "--suite", "chi", "--n-max", "1"]) == 0
    assert capsys.readouterr().out.strip() == "suite chi: no checks at these ranks"
    assert main(["verify", "--suite", "chi", "--n-max", "2"]) == 0
    assert capsys.readouterr().out.startswith("suite chi: PASS")
