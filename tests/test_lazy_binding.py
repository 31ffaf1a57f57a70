"""Class algebras bind their group on first use.

ClassAlgebra lists and bins its group only when classes or sizes are
read, and a coarsening merges its parent's members only when its classes
are read.  So the checks that read labels and fibres alone (the peak-side
dimensions to rank 8, the span ranks of the peak classes) never list
S_8, and a verify run keeps no listing above its ranks.  The first read
must equal the eager construction, and a label that goes astray must fail
loudly there.
"""

import sys
from collections import Counter
from functools import lru_cache

import pytest

from peakalg import algebra, bases, peak, perms, verify
from peakalg.algebra import ClassAlgebra
from peakalg.commutative import check_wp_dimensions
from peakalg.perms import fibonacci, group_elements
from peakalg.reporting import run_checks

from oracles import members


@pytest.fixture
def fresh(monkeypatch):
    """Fresh caches for the life of a test: each cached builder of the
    package outside perms is replaced, in every module that holds it, by a
    new cache around the same function, and the row tables by an empty
    dict.  So the test sees no algebra bound by an earlier test, and
    leaves the caches of later tests as they were."""
    modules = [m for name, m in sys.modules.items() if name.startswith("peakalg.")]
    originals = {
        value
        for m in modules
        if m is not perms
        for value in vars(m).values()
        if callable(value) and hasattr(value, "cache_clear") and hasattr(value, "__wrapped__")
    }
    renewed = {f: lru_cache(maxsize=None)(f.__wrapped__) for f in originals}
    for m in modules:
        for name, value in list(vars(m).items()):
            if callable(value) and value in renewed:
                monkeypatch.setattr(m, name, renewed[value])
    monkeypatch.setattr(algebra, "ROW_TABLES", {})


def test_fresh_renews_the_builders_that_tables_hold(fresh):
    # the count twins and the Hopf families call their builders by name, so
    # a fresh test fills no cache of the session through them
    from peakalg import commutative, hopf

    for n in range(2, 9):
        assert commutative.TWINS["whp"].count(n) is commutative.wp_algebra(n)
        assert commutative.wp_algebra(n).parent is peak.peak_algebra(n)
        assert commutative.TWINS["solhat"].fine(n) is bases.descent_algebra("B", n)
    for n in range(0, 5):
        assert hopf.FAMILIES["Peak"].algebra(n) is peak.peak_algebra(n)
        assert hopf.FAMILIES["I0"].algebra(n) is bases.canonical_ideal_algebra(n)


def patch_everywhere(monkeypatch, name: str, value):
    """Bind name to value in every module of the package that imports it."""
    original = getattr(perms, name)
    for mod_name, m in list(sys.modules.items()):
        if mod_name.startswith("peakalg") and getattr(m, name, None) is original:
            monkeypatch.setattr(m, name, value)


def refuse(group, n):
    raise AssertionError(f"listed {group}_{n}")


def bound(alg: ClassAlgebra) -> bool:
    return "classes" in vars(alg)


# ---------------------------------------------------------------------------
# binding fails loudly


def test_a_key_off_the_labels_fails_at_the_first_read():
    alg = ClassAlgebra("S", 3, lambda w: w[0], (1, 2))  # 3 is not listed
    named = r"the element \(3, 1, 2\) has the label 3, which is not listed"
    with pytest.raises(ValueError, match=named):
        alg.classes
    with pytest.raises(ValueError, match="which is not listed"):
        alg.sizes


def test_a_given_partition_without_a_label_fails_at_the_first_read():
    classes = {0: group_elements("S", 2)}
    alg = ClassAlgebra("S", 2, None, (0, 1), classes)
    with pytest.raises(ValueError, match="the partition has no class for the label 1"):
        alg.classes


# ---------------------------------------------------------------------------
# binding is lazy


def test_the_rank_8_peak_side_needs_no_group(monkeypatch, fresh):
    from peakalg import commutative

    patch_everywhere(monkeypatch, "group_elements", refuse)
    algs = [
        peak.peak_algebra(8),
        peak.interior_peak_algebra(8),
        commutative.wp_algebra(8),
        commutative.wp_interior_algebra(8),
    ]
    check_wp_dimensions(8)
    assert len(algs[0].labels) == fibonacci(8)
    assert not any(bound(alg) for alg in algs + [bases.descent_algebra("A", 8)])


def eager(alg: ClassAlgebra) -> dict:
    """The classes as the eager construction built them: the group binned
    by key in listing order, or, for a coarsening, the parent's members
    merged over each fibre in the parent's label order."""
    if alg.parent is not None:
        parent = eager(alg.parent)
        return {g: tuple(w for lab in ls for w in parent[lab]) for g, ls in alg.fibres.items()}
    classes = {lab: [] for lab in alg.labels}
    for w in group_elements(alg.group, alg.n):
        classes[alg.key(w)].append(w)
    return {lab: tuple(ws) for lab, ws in classes.items()}


FACTORIES = {
    "A4": lambda: bases.descent_algebra("A", 4),
    "B3": lambda: bases.descent_algebra("B", 3),
    "ideal3": lambda: bases.canonical_ideal_algebra(3),
}


@pytest.mark.parametrize("name", list(FACTORIES))
def test_the_first_read_is_the_eager_construction(name, fresh):
    alg = FACTORIES[name]()
    assert not bound(alg)
    classes = members(alg)  # the first read, its byte words decoded
    assert list(classes) == list(alg.labels)
    assert list(classes.items()) == list(eager(alg).items())


@pytest.mark.parametrize("name", ["ideal3", "P5", "wp5"])
def test_a_coarsening_sums_its_sizes_without_merging(name, fresh):
    from peakalg import commutative

    alg = {
        "ideal3": lambda: bases.canonical_ideal_algebra(3),
        "P5": lambda: peak.peak_algebra(5),
        "wp5": lambda: commutative.wp_algebra(5),
    }[name]()
    sizes = alg.sizes
    assert alg.parent is not None and not bound(alg)
    assert sizes == {g: len(ws) for g, ws in alg.classes.items()}


def test_a_verify_run_lists_no_rank_above_its_own(monkeypatch, fresh):
    # a deterministic stand-in for the memory of a verify run: the counting
    # checks to rank 8 request no listing past 6, and S_8 is never binned
    requested = []

    def spy(group, n):
        requested.append((group, n))
        return group_elements(group, n)

    patch_everywhere(monkeypatch, "group_elements", spy)
    for suite in (verify.suite_descents, verify.suite_peaks, verify.suite_commutative):
        assert all(check.ok for check in run_checks(suite(5)))
    assert requested and max(n for _, n in requested) < 7
    assert not bound(bases.descent_algebra("A", 8))


# ---------------------------------------------------------------------------
# the span ranks of the peak classes


@pytest.mark.parametrize("n", range(1, 7))
def test_class_sum_ranks_match_elimination(n):
    solvers = peak.peak_solver(n), peak.interior_peak_solver(n)
    assert peak.class_sum_ranks(n) == tuple(solver.rank for solver in solvers)


def dimensions_witness() -> str:
    checks = verify.suite_peaks(1)
    (result,) = run_checks(c for c in checks if c.check_id == "peaks/dimensions-to-8")
    assert result.status == "fail"
    return result.witness


def test_merging_two_peak_sets_fails_the_dimensions(monkeypatch, fresh):
    # the peak sets {2} and {3} as one class at rank 4
    def merged(jmask):
        image = perms.lambda_mask(jmask)
        return 0b100 if image == 0b1000 else image

    wrong = bases.descent_algebra("A", 4).coarsen(merged)
    assert len(wrong.labels) == fibonacci(4) - 1
    right = peak.peak_algebra
    monkeypatch.setattr(peak, "peak_algebra", lambda n: wrong if n == 4 else right(n))
    assert dimensions_witness() == "peak span rank != f_4"


def test_the_rank_8_peak_checks_enumerate_each_symmetric_group_once(monkeypatch, fresh):
    # descents/peak-sets-realized and peaks/dimensions-to-8 read one tally
    # of (descent mask, peak mask) pairs per rank, and S_n is scanned again
    # only to name a mismatch (other checks list S_n for n <= 5 only)
    listed = {}
    for owner in (peak, perms):
        listed[owner], stream = Counter(), owner.iter_group

        def counted(group, n, count=listed[owner], stream=stream, **kw):
            count[group, n] += 1
            return stream(group, n, **kw)

        monkeypatch.setattr(owner, "iter_group", counted)
    ids = {"descents/peak-sets-realized", "peaks/dimensions-to-8"}
    suites = (verify.suite_descents, verify.suite_peaks)
    results = run_checks([c for s in suites for c in s(5)])
    assert [c.ok for c in results if c.check_id in ids] == [True, True]
    assert listed[peak] == {("S", n): 1 for n in range(1, 9)}
    assert not [n for _, n in listed[perms] if n > 5]


def test_a_stream_missing_a_peak_class_fails_the_dimensions(monkeypatch, fresh):
    stream = perms.iter_group

    def missing(group, n, **kw):
        # no element of S_5 with the peak set {2, 4}
        dropped = 0b10100 if n == 5 else None
        return (u for u in stream(group, n, **kw) if perms.peak_mask(u) != dropped)

    monkeypatch.setattr(peak, "iter_group", missing)
    assert dimensions_witness() == "peak span rank != f_5"
