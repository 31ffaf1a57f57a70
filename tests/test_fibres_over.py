"""One refinement relation: ClassAlgebra.fibres_over.

Each graded family of the Hopf layer that reads its tables off a finer
family unites that family's classes: the canonical ideal unites type-B
descent classes, the peak and interior-peak classes unite type-A descent
classes, and each type-B descent class unites Mantaci-Reutenauer T-classes.
fibres_over states the relation once, as the fibres of a coarsening or as
the finer classes binned through the coarser labels.  The oracle is the
group: the members united over each fibre are the elements with the coarse
statistic, read element by element.
"""

import pytest

from peakalg.algebra import ClassAlgebra
from peakalg.bases import descent_algebra
from peakalg.hopf import FAMILIES
from peakalg.mr import mr_class_of, signed_compositions
from peakalg.perms import descent_mask, group_elements, interior_peak_mask, peak_mask

from oracles import members

# family -> its class label of a group element, read element by element
STATISTICS = {
    "SolB": lambda w: descent_mask(w, "B"),
    "I0": lambda w: descent_mask(w, "B") & ~1,
    "Peak": peak_mask,
    "PeakIdeal": interior_peak_mask,
}

PAIRS = [(family, spec.finer) for family, spec in FAMILIES.items() if spec.finer]


def test_the_pairs_are_the_four_of_the_paper():
    assert sorted(PAIRS) == sorted(
        [("I0", "SolB"), ("Peak", "SolA"), ("PeakIdeal", "SolA"), ("SolB", "OmegaB")]
    )


@pytest.mark.parametrize("n", range(0, 6))
@pytest.mark.parametrize("family, finer", PAIRS)
def test_each_class_is_the_union_of_its_fibre(family, finer, n):
    coarse, fine = FAMILIES[family].algebra(n), FAMILIES[finer].algebra(n)
    fibres = coarse.fibres_over(fine)
    assert list(fibres) == list(coarse.labels)
    want: dict = {g: [] for g in coarse.labels}
    for w in group_elements(coarse.group, n):
        want[STATISTICS[family](w)].append(w)
    position, fine_members = {lab: i for i, lab in enumerate(fine.labels)}, members(fine)
    assert sorted(position[lab] for ls in fibres.values() for lab in ls) == list(position.values())
    for g, ls in fibres.items():
        assert list(ls) == sorted(ls, key=position.get), g  # in finer label order
        assert sorted(w for lab in ls for w in fine_members[lab]) == sorted(want[g]), g
        assert sorted(w for lab in ls for w in fine.classes[lab]) == sorted(coarse.classes[g]), g


@pytest.mark.parametrize("family", ["I0", "Peak", "PeakIdeal"])
def test_a_coarsening_reads_its_own_fibres(family):
    spec = FAMILIES[family]
    for n in range(0, 6):
        alg = spec.algebra(n)
        assert alg.fibres_over(FAMILIES[spec.finer].algebra(n)) is alg.fibres


def test_a_second_call_bins_nothing():
    labels = descent_algebra("B", 3).labels
    coarse = ClassAlgebra("B", 3, lambda w: descent_mask(w, "B"), labels)
    finer = ClassAlgebra("B", 3, mr_class_of, signed_compositions(3))
    binned, labels_of = [], coarse.labels_of
    coarse.labels_of = lambda ws: binned.append(ws) or labels_of(ws)
    fibres = coarse.fibres_over(finer)
    assert len(binned) == len(finer.labels)  # each finer class binned once
    assert coarse.fibres_over(finer) is fibres
    assert len(binned) == len(finer.labels)

