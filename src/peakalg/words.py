"""The right action of (signed) permutations on tensor words.

Words over a finite alphabet with an involution carry a right action of
signed permutations: position i of the moved word reads letter number
|w_i|, barred letters picking up the involution.  Under this action the
increasing-class sum of rank n acts as an n-fold symmetrizer, and the
empty-interior-peak class sum acts as a left-nested Jordan bracket; the
shuffle product of operators corresponds to convolution.

A combination of words is a dict word -> coefficient, summed with
add_multiple, which drops the coefficients that cancel: two combinations
are equal exactly when their dicts are.
"""

from __future__ import annotations

from itertools import combinations

from .algebra import AlgElem, add_multiple
from .perms import Perm, compose
from .reporting import CheckFailure


class Alphabet:
    """Finite letter set with a self-inverse bar map."""

    def __init__(self, letters, involution=None):
        self.letters = tuple(letters)
        if involution is None:
            involution = {x: x for x in self.letters}
        self._bar = dict(involution)
        for x in self.letters:
            if x not in self._bar:
                raise ValueError(f"involution undefined on {x!r}")
            if self._bar[self._bar[x]] != x:
                raise ValueError(f"bar map is not an involution at {x!r}")

    def bar(self, letter):
        return self._bar[letter]

    def words(self, length: int):
        from itertools import product

        return product(self.letters, repeat=length)

    def is_trivial(self) -> bool:
        return all(self.bar(x) == x for x in self.letters)


def act_word(word: tuple, w: Perm, alphabet: Alphabet) -> tuple:
    """Position i reads letter |w_i|, barred entries apply the bar map."""
    if len(word) != len(w):
        raise ValueError(f"word length {len(word)} != rank {len(w)}")
    return tuple(
        word[v - 1] if v > 0 else alphabet.bar(word[-v - 1]) for v in w
    )


def concat(s: dict, t: dict) -> dict:
    """The product st in the tensor algebra: each word of s followed by
    each word of t."""
    out: dict = {}
    for w1, c1 in s.items():
        for w2, c2 in t.items():
            add_multiple(out, c1 * c2, {w1 + w2: 1})
    return out


def act(t: dict, x, alphabet: Alphabet) -> dict:
    """Right action of a permutation or a group-algebra element, summed
    into one dict over the terms of the element."""
    moved: dict = {}
    for w, c in (x.terms if isinstance(x, AlgElem) else {tuple(x): 1}).items():
        for word, cw in t.items():
            add_multiple(moved, cw * c, {act_word(word, w, alphabet): 1})
    return moved


def symmetrizer(t: dict, alphabet: Alphabet) -> dict:
    """Word plus its barred reversal (the action of the two-element sum
    12...n + barred n...21)."""
    out: dict = {}
    for word, c in t.items():
        for key in (word, tuple(alphabet.bar(x) for x in reversed(word))):
            add_multiple(out, c, {key: 1})
    return out


def jordan_bracket(s: dict, t: dict) -> dict:
    """st + ts in the tensor algebra."""
    out = concat(s, t)
    add_multiple(out, 1, concat(t, s))
    return out


def nested_symmetrizer(word: tuple, alphabet: Alphabet) -> dict:
    """tau(...tau(tau(y_1) y_2) ... y_n)."""
    out = symmetrizer({word[:1]: 1}, alphabet)
    for letter in word[1:]:
        out = symmetrizer(concat(out, {(letter,): 1}), alphabet)
    return out


def nested_bracket(word: tuple) -> dict:
    """[...[[x_1, x_2], x_3], ..., x_n]."""
    out = {word[:1]: 1}
    for letter in word[1:]:
        out = jordan_bracket(out, {(letter,): 1})
    return out


def convolve_actions(u: Perm, v: Perm, word: tuple, alphabet: Alphabet) -> dict:
    """Convolution of the endomorphisms attached to u and v, evaluated on
    a word: split the positions all ways, act separately, concatenate."""
    n = len(word)
    p = len(u)
    if p + len(v) != n:
        raise ValueError("degrees do not add up")
    out: dict = {}
    for chosen in combinations(range(n), p):
        rest = tuple(i for i in range(n) if i not in chosen)
        left = act_word(tuple(word[i] for i in chosen), u, alphabet)
        key = left + act_word(tuple(word[i] for i in rest), v, alphabet)
        out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# identity checks


def check_right_action(n: int, alphabet: Alphabet):
    """(t . u) . v = t . (uv) over the whole rank-n signed group and every
    word t, read on the table of t . u: each entry is checked to be one
    word with coefficient 1, and each product uv to be in the group."""
    from .perms import group_elements

    words = list(alphabet.words(n))
    group = group_elements("B", n)
    moved_by = {}  # u -> {word: word . u}
    for u in group:
        row = moved_by[u] = {}
        for word in words:
            moved = act({word: 1}, u, alphabet)
            if list(moved.values()) != [1]:
                raise CheckFailure(f"{word} . {u} is not one word: {moved}")
            (row[word],) = moved
    for u in group:
        by_u = moved_by[u]
        for v in group:
            by_v, by_uv = moved_by[v], moved_by.get(compose(u, v))
            if by_uv is None:
                raise CheckFailure(f"the product {u} * {v} leaves B_{n}")
            for word in words:
                if by_v.get(by_u[word]) != by_uv[word]:
                    raise CheckFailure(f"right action law fails at {u}, {v}, {word}")


def check_action_algebra_morphism(n: int, alphabet: Alphabet):
    """The action of a product of algebra elements is the composite of
    the actions, on a spanning family."""
    from .bases import y_label_elements

    words = [{w: 1} for w in alphabet.words(n)]
    elems = [e for _, e in y_label_elements("B", n)]
    for a in elems:
        for b in elems:
            ab = a * b
            for t in words:
                if act(act(t, a, alphabet), b, alphabet) != act(t, ab, alphabet):
                    raise CheckFailure("algebra-morphism law fails")


def check_symmetrizer_identity(n: int, alphabet: Alphabet):
    """The increasing-class sum acts as the nested symmetrizer."""
    from .maps import x0_generator

    gen = x0_generator(n)
    for word in alphabet.words(n):
        if act({word: 1}, gen, alphabet) != nested_symmetrizer(word, alphabet):
            raise CheckFailure(f"symmetrizer identity fails at {word}")


def check_bracket_identity(n: int, alphabet: Alphabet):
    """Over a trivial involution the empty-interior-peak class sum acts
    as the left-nested Jordan bracket, and the nested symmetrizer is
    twice the nested bracket."""
    from .maps import interior_peak_generator

    if not alphabet.is_trivial():
        raise ValueError("the bracket identity needs a trivial involution")
    gen = interior_peak_generator(n)
    for word in alphabet.words(n):
        bracket = nested_bracket(word)
        if act({word: 1}, gen, alphabet) != bracket:
            raise CheckFailure(f"bracket identity fails at {word}")
        if nested_symmetrizer(word, alphabet) != {w: 2 * c for w, c in bracket.items()}:
            raise CheckFailure(f"symmetrizer != 2 * bracket at {word}")


def check_convolution(p: int, q: int, alphabet: Alphabet):
    """The action of a shuffle product is the convolution of actions."""
    from .hopf import external_product
    from .perms import group_elements

    n = p + q
    us = group_elements("B", p)[:6]
    vs = group_elements("B", q)[:6]
    words = list(alphabet.words(n))[:9]
    for u in us:
        for v in vs:
            star = external_product(
                AlgElem.monomial("B", p, u), AlgElem.monomial("B", q, v)
            )
            for word in words:
                if act({word: 1}, star, alphabet) != convolve_actions(u, v, word, alphabet):
                    raise CheckFailure(f"convolution fails at {u}, {v}, {word}")
