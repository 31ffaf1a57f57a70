"""Every verify check against its element-level oracle, on its own cases.

For each check ID that oracles.registry maps to an oracle, the harness
reads the Check records that verify declares at each rank ceiling, runs
each through run_checks and its oracle on the same cases, and both must
pass: the ranks of a check are stated once, in verify.
"""

import pytest

from peakalg import hopf, verify
from peakalg.reporting import Check

from oracles.registry import NO_ORACLE, ORACLES, both, declared, declared_check, normalized

# the rank ceilings each oracle runs at: every ceiling up to 4 in the
# default tier, and, for the oracles in REACH, up to its (default, deep) tops
TOP = 4
SHUFFLES = ["concat-ideal", "concat-mr", "concat-type-a", "concat-type-b-module", "free-module"]
SHUFFLES += ["ideal-type-a-isomorphism", "interior-shuffle-closure", "peak-module-closure"]
REACH = {
    **{f"hopf/{name}": (5, 6) for name in SHUFFLES},
    "hopf/transform-morphisms": (TOP, 5),
    **{check_id: (6, 6) for check_id in ORACLES if check_id.startswith("diagram/")},
}


def _cases() -> list:
    """(ceiling, deep, check ID) of each record of a registered check at the
    first ceiling of its tier that declares it with its cases; a deep
    record whose cases the default tier runs already is left out."""
    seen, found = set(), []
    for deep in (False, True):
        for n_max in range(0, 7):
            for check in declared(n_max, deep):
                name, key = normalized(check.check_id), (check.check_id, repr(check.cases))
                top = REACH.get(name, (TOP, TOP))[deep]
                if name in ORACLES and n_max <= top and key not in seen:
                    seen.add(key)
                    found.append((n_max, deep, check.check_id))
    return found


CASES = [
    pytest.param(n, deep, c, id=f"{c}@{n}" + "-deep" * deep, marks=[pytest.mark.deep] * deep)
    for n, deep, c in _cases()
]


@pytest.mark.parametrize("n_max, deep, check_id", CASES)
def test_the_check_and_its_oracle_pass_on_its_declared_cases(n_max, deep, check_id):
    results = both(declared_check(check_id, n_max, deep))
    assert [(r.status, r.witness) for r in results] == [("pass", "")] * 2


@pytest.mark.deep
@pytest.mark.parametrize("check_id", ["hopf/free-module", "hopf/ideal-type-a-isomorphism"])
def test_the_shuffle_checks_capped_at_degree_5_meet_their_oracles_at_6(check_id):
    # verify stops these two at degree 5: their bodies and oracles still
    # agree one degree further
    (check,) = [c for c in verify.suite_hopf(5) if c.check_id == check_id]
    check.body(6)
    ORACLES[check_id](6)


# ---------------------------------------------------------------------------
# every declared check has exactly one entry


def registry_gaps() -> dict:
    """What breaks the rule that each declared ID, at every ceiling up to 5
    with and without deep, has exactly one entry: IDs with none, with two,
    and entries that no suite declares."""
    ids = set()
    for n_max in range(0, 6):
        for deep in (False, True):
            ids |= {normalized(i) for i in verify.check_ids("all", n_max, deep=deep)}
    return {
        "no entry": sorted(ids - ORACLES.keys() - NO_ORACLE.keys()),
        "two entries": sorted(ORACLES.keys() & NO_ORACLE.keys()),
        "declared by no suite": sorted((ORACLES.keys() | NO_ORACLE.keys()) - ids),
    }


def test_every_declared_check_has_exactly_one_entry():
    assert registry_gaps() == {"no entry": [], "two entries": [], "declared by no suite": []}
    assert all(reason and "\n" not in reason for reason in NO_ORACLE.values())


def test_an_extra_declared_check_has_no_entry(monkeypatch):
    suite = verify.SUITES["words"]
    extra = Check("words/unregistered", [1], lambda n: None)
    monkeypatch.setitem(verify.SUITES, "words", lambda n_max, deep: [*suite(n_max, deep), extra])
    assert registry_gaps()["no entry"] == ["words/unregistered"]


@pytest.mark.parametrize(
    "table, check_id", [(ORACLES, "hopf/free-module"), (NO_ORACLE, "mr/closure")], ids=["oracle", "reason"]
)
def test_a_dropped_entry_leaves_its_check_with_none(table, check_id, monkeypatch):
    monkeypatch.delitem(table, check_id)
    assert registry_gaps()["no entry"] == [check_id]


def test_an_entry_no_suite_declares_is_found(monkeypatch):
    monkeypatch.setitem(ORACLES, "hopf/retired", hopf.check_free_module)
    assert registry_gaps()["declared by no suite"] == ["hopf/retired"]
