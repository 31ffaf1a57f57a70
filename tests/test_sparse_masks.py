"""The sparse masks, generated directly, against the brute-force filter
over all 2^n masks: the same tuple, order included."""

import pytest

from peakalg.perms import interior_sparse_masks, members_of, popcount, sparse_masks


def filtered_sparse_masks(n: int) -> tuple:
    """Every mask of a subset of [n-1] with no two consecutive members,
    ordered by (cardinality, lexicographic member list)."""
    masks = [
        m
        for m in range(1 << max(n, 1))
        if not (m & 1) and not (m & (m << 1)) and m < (1 << n)
    ]
    masks.sort(key=lambda m: (popcount(m), members_of(m)))
    return tuple(masks)


@pytest.mark.parametrize("n", range(15))
def test_sparse_masks_are_the_filtered_masks(n):
    oracle = filtered_sparse_masks(n)
    assert sparse_masks(n) == oracle
    assert interior_sparse_masks(n) == tuple(m for m in oracle if not m & 2)
