"""The exhaustive group laws read on tables still catch a wrong table.

The associativity of composition is checked on the table of all products
of B_3, and the right action on tensor words on the table of t . u for
every signed permutation u and word t.  A table built from a wrong
product or a wrong action must make the check fail (a CheckFailure, so a
"fail" in the report), never raise anything else.
"""

import pytest

from peakalg import perms, verify, words
from peakalg.reporting import run_check

GROUP = perms.group_elements("B", 3)
U0, V0 = GROUP[5], GROUP[17]
AB = words.Alphabet(("a", "b", "c"), {"a": "b", "b": "a", "c": "c"})
WORD0 = ("a", "c", "b")


def failure(fn) -> str:
    result = run_check("law", fn)
    assert result.status == "fail", result
    return result.witness


def patch_compose(monkeypatch, module, wrong):
    real = perms.compose
    monkeypatch.setattr(
        module, "compose", lambda u, v: wrong if (u, v) == (U0, V0) else real(u, v)
    )


def test_the_laws_pass_on_the_true_tables():
    verify._check_associative("B", 3)
    words.check_right_action(3, AB)


def test_a_wrong_product_fails_associativity(monkeypatch):
    wrong = next(w for w in GROUP if w != perms.compose(U0, V0))
    patch_compose(monkeypatch, perms, wrong)
    assert failure(lambda: verify._check_associative("B", 3)).startswith("associativity fails at")


@pytest.mark.parametrize("wrong", [(1, 2, 2), (1, 2, 3, 4), (4, -2, 1)])
def test_a_product_outside_the_group_fails_associativity(monkeypatch, wrong):
    patch_compose(monkeypatch, perms, wrong)
    assert failure(lambda: verify._check_associative("B", 3)) == (
        f"the product {U0} * {V0} leaves B_3"
    )


def patch_act(monkeypatch, wrong):
    """act, but moving WORD0 by U0 to the combination wrong."""
    real = words.act

    def act(t, x, alphabet):
        if t == {WORD0: 1} and tuple(x) == U0:
            return wrong
        return real(t, x, alphabet)

    monkeypatch.setattr(words, "act", act)


def test_a_wrong_action_fails_the_right_action_law(monkeypatch):
    right = words.act({WORD0: 1}, U0, AB)
    wrong = next({w: 1} for w in AB.words(3) if {w: 1} != right)
    patch_act(monkeypatch, wrong)
    assert failure(lambda: words.check_right_action(3, AB)).startswith("right action law fails")


@pytest.mark.parametrize(
    "wrong",
    [
        {("a", "b", "c"): 1, ("c", "b", "a"): 1},  # two words
        {("a", "b", "c"): 2},  # one word, coefficient 2
        {},  # no word
    ],
)
def test_an_action_that_is_not_one_word_fails(monkeypatch, wrong):
    patch_act(monkeypatch, wrong)
    assert failure(lambda: words.check_right_action(3, AB)).startswith(
        f"{WORD0} . {U0} is not one word"
    )


def test_a_product_outside_the_group_fails_the_right_action_law(monkeypatch):
    patch_compose(monkeypatch, words, (1, 1, 2))
    assert failure(lambda: words.check_right_action(3, AB)) == (
        f"the product {U0} * {V0} leaves B_3"
    )
