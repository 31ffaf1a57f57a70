"""hopf.check_coproduct_generators reads one table of generator families.

A coproduct that is wrong on the degree-2 generator of one family fails
with that family's witness.  The S-tilde class sum of (2) is the type-B
X_(2) (both are the identity alone), so a coproduct wrong there is caught
by the type-B family, which is checked first.
"""

import pytest

from peakalg import hopf
from peakalg.algebra import add_multiple
from peakalg.reporting import CheckFailure


def _wrong_on(gen):
    """The coproduct, with one more unit on the first split of gen: the
    block pair of degree 0 and the first term of gen."""
    coproduct = hopf.coproduct

    def broken(a):
        out = coproduct(a)
        if a == gen:
            add_multiple(out, 1, {((), next(iter(a.terms))): 1})
        return out

    return broken


@pytest.mark.parametrize(
    "family, witness",
    [
        (0, "type-A generator coproduct fails at degree 2"),
        (1, "type-B generator coproduct fails at degree 2"),
        (2, "ideal generator coproduct fails at degree 2"),
        (3, "type-B generator coproduct fails at degree 2"),
        (4, "S-tilde generator coproduct fails at degree 2, sign -1"),
    ],
)
def test_a_coproduct_wrong_on_one_family_fails_with_its_witness(family, witness, monkeypatch):
    gen = hopf.GENERATORS[family][0]
    broken = _wrong_on(gen(2))
    # the mutant is a dict tensor that differs from the coproduct on gen(2) alone
    assert type(broken(gen(2))) is dict and broken(gen(2)) != hopf.coproduct(gen(2))
    assert broken(gen(3)) == hopf.coproduct(gen(3))
    monkeypatch.setattr(hopf, "coproduct", broken)
    with pytest.raises(CheckFailure) as failure:
        hopf.check_coproduct_generators(3)
    assert str(failure.value) == witness


def test_the_positive_s_tilde_generator_is_the_type_b_one():
    s_tilde, type_b = hopf.GENERATORS[3][0], hopf.GENERATORS[1][0]
    for m in range(4):
        assert s_tilde(m) == type_b(m)


def test_every_generator_passes_to_degree_5():
    hopf.check_coproduct_generators(5)
