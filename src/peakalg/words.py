"""The right action of (signed) permutations on tensor words.

Words over a finite alphabet with an involution carry a right action of
signed permutations: position i of the moved word reads letter number
|w_i|, barred letters picking up the involution.  Under this action the
increasing-class sum of rank n acts as an n-fold symmetrizer, and the
empty-interior-peak class sum acts as a left-nested Jordan bracket; the
shuffle product of operators corresponds to convolution.
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


class TensorElem:
    """Finitely supported rational combination of words of one length."""

    __slots__ = ("length", "terms")

    def __init__(self, length: int, terms=None):
        self.length = length
        self.terms = {}
        for word, c in dict(terms or {}).items():
            if c == 0:
                continue
            word = tuple(word)
            if len(word) != length:
                raise ValueError(f"word {word} has length {len(word)} != {length}")
            self.terms[word] = c

    @classmethod
    def word(cls, letters) -> "TensorElem":
        letters = tuple(letters)
        return cls(len(letters), {letters: 1})

    def __add__(self, other: "TensorElem") -> "TensorElem":
        if self.length != other.length:
            raise ValueError("length mismatch")
        out = dict(self.terms)
        add_multiple(out, 1, other.terms)
        return TensorElem(self.length, out)

    def scale(self, c) -> "TensorElem":
        return TensorElem(self.length, {w: c * x for w, x in self.terms.items()})

    def concat(self, other: "TensorElem") -> "TensorElem":
        out: dict = {}  # the constructor drops the coefficients that cancel
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                key = w1 + w2
                out[key] = out.get(key, 0) + c1 * c2
        return TensorElem(self.length + other.length, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorElem)
            and self.length == other.length
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self):
        bits = [f"{c}*{''.join(map(str, w))}" for w, c in sorted(self.terms.items())]
        return "TensorElem(" + " + ".join(bits) + ")" if bits else "TensorElem(0)"


def act_word(word: tuple, w: Perm, alphabet: Alphabet) -> tuple:
    """Position i reads letter |w_i|, barred entries apply the bar map."""
    if len(word) != len(w):
        raise ValueError(f"word length {len(word)} != rank {len(w)}")
    return tuple(
        word[v - 1] if v > 0 else alphabet.bar(word[-v - 1]) for v in w
    )


def act(t: TensorElem, x, alphabet: Alphabet) -> TensorElem:
    """Right action of a permutation or a group-algebra element, summed
    into one dict over the terms of the element."""
    moved: dict = {}
    for w, c in (x.terms if isinstance(x, AlgElem) else {tuple(x): 1}).items():
        for word, cw in t.terms.items():
            key = act_word(word, w, alphabet)
            moved[key] = moved.get(key, 0) + cw * c
    return TensorElem(t.length, moved)


def symmetrizer(t: TensorElem, alphabet: Alphabet) -> TensorElem:
    """Word plus its barred reversal (the action of the two-element sum
    12...n + barred n...21)."""
    out: dict = {}
    for word, c in t.terms.items():
        for key in (word, tuple(alphabet.bar(x) for x in reversed(word))):
            out[key] = out.get(key, 0) + c
    return TensorElem(t.length, out)


def jordan_bracket(s: TensorElem, t: TensorElem) -> TensorElem:
    """st + ts in the tensor algebra."""
    return s.concat(t) + t.concat(s)


def nested_symmetrizer(word: tuple, alphabet: Alphabet) -> TensorElem:
    """tau(...tau(tau(y_1) y_2) ... y_n)."""
    out = symmetrizer(TensorElem.word(word[:1]), alphabet)
    for letter in word[1:]:
        out = symmetrizer(out.concat(TensorElem.word((letter,))), alphabet)
    return out


def nested_bracket(word: tuple) -> TensorElem:
    """[...[[x_1, x_2], x_3], ..., x_n]."""
    out = TensorElem.word(word[:1])
    for letter in word[1:]:
        out = jordan_bracket(out, TensorElem.word((letter,)))
    return out


def convolve_actions(u: Perm, v: Perm, word: tuple, alphabet: Alphabet) -> TensorElem:
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
    return TensorElem(n, out)


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
            moved = act(TensorElem.word(word), u, alphabet).terms
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

    words = [TensorElem.word(w) for w in alphabet.words(n)]
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
        t = TensorElem.word(word)
        if act(t, gen, alphabet) != nested_symmetrizer(word, alphabet):
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
        t = TensorElem.word(word)
        bracket = nested_bracket(word)
        if act(t, gen, alphabet) != bracket:
            raise CheckFailure(f"bracket identity fails at {word}")
        if nested_symmetrizer(word, alphabet) != bracket.scale(2):
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
                t = TensorElem.word(word)
                if act(t, star, alphabet) != convolve_actions(u, v, word, alphabet):
                    raise CheckFailure(f"convolution fails at {u}, {v}, {word}")
