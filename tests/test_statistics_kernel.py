"""The bit-sliced statistics kernel of peakalg.perms against its oracle.

perms.descent_peak_masks computes the type-A descent mask and the peak mask
of every word of a stream of S_n at once, in byte lanes.  descent_mask and
peak_mask, one element at a time, are its oracle on every u of S_0..S_8 in
listing order.  Source mutants of the kernel must fail the check that reads
it, descents/peak-sets-realized; two mutants that compute the same masks are
pinned as equivalent, with the reason.
"""

import inspect
import struct

import pytest

from peakalg import peak, perms, verify
from peakalg.reporting import run_checks


@pytest.mark.parametrize("n", range(9))
def test_the_kernel_equals_the_element_statistics_in_listing_order(n):
    words = perms.group_elements("S", n)
    descents, peaks = perms.descent_peak_masks(iter(words), n)
    assert list(descents) == [perms.descent_mask(u, "A") for u in words]
    assert list(peaks) == [perms.peak_mask(u) for u in words]


@pytest.mark.parametrize("count", [0, 1, 5039, 5041, 12345])
def test_the_blocks_keep_the_stream_order(count):
    # blocks of 5040 words: no block, one short block, a full one and a short one, three
    words = perms.group_elements("S", 8)[::-3][:count]
    descents, peaks = perms.descent_peak_masks(words, 8)
    assert list(descents) == [perms.descent_mask(u, "A") for u in words]
    assert list(peaks) == [perms.peak_mask(u) for u in words]


@pytest.mark.parametrize("n", [9, 10, 127])
def test_a_rank_past_the_lanes_is_refused(n):
    with pytest.raises(ValueError, match="byte lanes"):
        perms.descent_peak_masks([perms.identity(n)], n)


@pytest.mark.parametrize(
    "words, message",
    [([(1, 2, 3), (2, 1)], "expected 3 items"), ([(1, 2, 3), (-1, 2, 3)], "0 <= number <= 255")],
    ids=["another rank", "a barred entry"],
)
def test_a_word_outside_the_symmetric_group_of_the_rank_is_refused(words, message):
    # each word is packed by a struct of a zero byte and n unsigned bytes
    with pytest.raises(struct.error, match=message):
        perms.descent_peak_masks(words, 3)


# ---------------------------------------------------------------------------
# source mutants


def kernel_source() -> str:
    """The source of the kernel's two translation tables and its function."""
    tables = [
        line + "\n"
        for line in inspect.getsource(perms).splitlines()
        if line.startswith(("_PLUS_128 =", "_ABOVE_128 ="))
    ]
    assert len(tables) == 2
    return "".join(tables) + inspect.getsource(perms.descent_peak_masks)


def mutant(old: str, new: str):
    """The kernel built from its source with old replaced by new."""
    source = kernel_source()
    assert source.count(old) == 1
    namespace = dict(vars(perms))
    exec(source.replace(old, new), namespace)
    return namespace["descent_peak_masks"]


MUTANTS = {
    # a lane below 128 (a < b) read as a descent: the threshold flipped
    "flipped threshold": ("0xFF if b > 128 else 0", "0xFF if b < 128 else 0"),
    # the peak lanes as the complement of the descent lanes, from position 2
    # on, while lambda_mask keeps position 1
    "complemented descents": (
        "peaks | down & above(columns[i], columns[i - 1])",
        "peaks | down & (~(descents << 1) if i > 1 else 0)",
    ),
    # 127 + a - b: a descent or an ascent by one is lost
    "offset 127": ("(b + 128) % 256", "(b + 127) % 256"),
}


def peak_realization_result():
    checks = verify.suite_descents(1)
    (result,) = run_checks(c for c in checks if c.check_id == "descents/peak-sets-realized")
    return result


@pytest.fixture
def fresh_tally():
    peak.descent_peak_pairs.cache_clear()
    yield
    peak.descent_peak_pairs.cache_clear()


def test_the_check_passes_on_the_kernel(fresh_tally):
    assert peak_realization_result().ok


@pytest.mark.parametrize("name", list(MUTANTS))
def test_a_mutant_kernel_fails_the_peak_realization(name, monkeypatch, fresh_tally):
    broken = mutant(*MUTANTS[name])
    for owner in (perms, peak):  # the tally reads the kernel where peak imports it
        monkeypatch.setattr(owner, "descent_peak_masks", broken)
    result = peak_realization_result()
    assert result.status == "fail"
    assert "peak" in result.witness


EQUIVALENT = {
    # a lane holds exactly 128 only when a = b, which two entries of one
    # permutation, or an entry and u_0 = 0, never are
    "threshold at 128 or above": ("0xFF if b > 128 else 0", "0xFF if b >= 128 else 0"),
    # u_{i-1} < u_i is "not u_{i-1} > u_i" on distinct entries, so these
    # peaks are lambda_mask of the descents: the check that compares them
    # would pass whatever the descent lanes were, which is why the kernel
    # takes the peak lanes from their own ascents
    "complement with position 1": (
        "peaks | down & above(columns[i], columns[i - 1])",
        "peaks | down & ~(descents << 1)",
    ),
}


@pytest.mark.parametrize("name", list(EQUIVALENT))
def test_an_equivalent_mutant_computes_the_same_masks(name):
    broken = mutant(*EQUIVALENT[name])
    for n in range(9):
        words = perms.group_elements("S", n)
        assert broken(words, n) == perms.descent_peak_masks(words, n)
