"""Signed permutations and Coxeter combinatorics for types A, B and D.

A signed permutation of rank n is a tuple (w_1, ..., w_n) of nonzero
integers whose absolute values form a permutation of {1, ..., n}; negative
entries are "barred".  S_n sits inside B_n as the sign-free tuples and D_n
as the tuples with an even number of bars.  Values compare in ordinary
integer order, so ... < -2 < -1 < 1 < 2 < ...

Composition is (u * v)_i = sgn(v_i) * u_{|v_i|}, i.e. u after v, extended
to negative indices by w(-i) = -w(i).  With this convention the action of
permutations on tensor words (see peakalg.words) is a right action.

Groups are tagged "S", "B", "D"; descent statistics by Coxeter type "A",
"B", "D".  Generator labels are small integers: type A uses 1..n-1, type B
uses 0..n-1 (0 is the sign flip s_0), and type D uses 0..n-1 where label 0
stands for the fork generator 1' (rendered "1'" in text form; the shifted
position 1'+1 is position 2, the same as 1+1).
"""

from __future__ import annotations

import itertools
import os
import struct
from collections import Counter
from functools import lru_cache

Perm = tuple  # tuple[int, ...], one-line signed permutation

GROUPS = ("S", "B", "D")
COXETER_TYPES = ("A", "B", "D")

#: group tag of the ambient group carrying each Coxeter type's descent algebra
GROUP_OF_TYPE = {"A": "S", "B": "B", "D": "D"}
TYPE_OF_GROUP = {"S": "A", "B": "B", "D": "D"}

_DEFAULT_ENUM_CAPS = {"S": 8, "B": 7, "D": 7}
DEFAULT_BFS_CAP = 6
#: rank cap of the full structure constants of each Coxeter type,
#: (default, deep); PEAKALG_CAP does not move it
STRUCTURE_CAPS = {"A": (6, 6), "B": (4, 5), "D": (4, 5)}


class CapExceeded(ValueError):
    """Requested rank is above the configured enumeration/BFS cap."""


def parse_cap_env() -> dict:
    """PEAKALG_CAP is either a bare integer (all enumeration caps) or a
    comma list like "S=8,B=6,BFS=7".  Any other item (an unknown key, a
    value that is not a non-negative integer) raises ValueError."""
    raw = os.environ.get("PEAKALG_CAP", "").strip()
    if not raw:
        return {}
    if raw.isdecimal():
        return {g: int(raw) for g in GROUPS}
    out = {}
    for item in raw.split(","):
        key, _, val = item.partition("=")
        key, val = key.strip().upper(), val.strip()
        if key not in (*GROUPS, "BFS") or not val.isdecimal():
            raise ValueError(f"malformed PEAKALG_CAP item {item.strip()!r}")
        out[key] = int(val)
    return out


def enum_cap(group: str) -> int:
    return parse_cap_env().get(group, _DEFAULT_ENUM_CAPS[group])


def bfs_cap() -> int:
    return parse_cap_env().get("BFS", DEFAULT_BFS_CAP)


# ---------------------------------------------------------------------------
# elements


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def is_signed_perm(values) -> bool:
    vals = tuple(values)
    return all(isinstance(v, int) and v != 0 for v in vals) and sorted(
        abs(v) for v in vals
    ) == list(range(1, len(vals) + 1))


def bar_count(w: Perm) -> int:
    return sum(1 for v in w if v < 0)


def in_group(w: Perm, group: str) -> bool:
    if not is_signed_perm(w):
        return False
    if group == "S":
        return all(v > 0 for v in w)
    if group == "D":
        return bar_count(w) % 2 == 0
    if group == "B":
        return True
    raise ValueError(f"unknown group {group!r}")


def compose(u: Perm, v: Perm) -> Perm:
    """(u * v)_i = sgn(v_i) * u_{|v_i|}; apply v first, then u."""
    if len(u) != len(v):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(v)}")
    return tuple([u[j - 1] if j > 0 else -u[-j - 1] for j in v])


# The composition kernel: byte_word(v).translate(t), with t the byte table
# of u (byte_tables), is byte_word(compose(u, v)), one C call whose result
# caches its hash; compose stays as the oracle.  Each value is kept mod 256,
# so j and -j are the bytes j and 256 - j, which stay apart below rank
# BYTE_RANK_LIMIT only, and byte_decoder(n) reads a byte word back as the
# signed tuple.  Convolution, the shuffle embeds, the length oracle and the
# class algebras, whose members are byte words, multiply on it; products
# that must stay tuples are keyed by their byte words and each distinct one
# is decoded once.  A table read by a word of another rank gives a wrong
# product without an error, so bulk callers encode through byte_words and
# build tables through byte_tables and inverse_tables, which all check the
# rank, and multiply with byte_products.

BYTE_RANK_LIMIT = 128

# rank n -> the struct of n signed bytes: pack encodes a word, unpack decodes it
_BYTE_STRUCTS = tuple(struct.Struct(f"{n}b") for n in range(BYTE_RANK_LIMIT))
_IDENTITY_TABLE = bytes(range(256))
_NEGATED = bytes(-x % 256 for x in range(256))
_UNSIGNED = bytes(min(x, 256 - x) for x in range(256))  # the byte of v -> that of |v|


def byte_decoder(n: int):
    """The map byte_word(v) -> v for v of rank n, in one C call: each byte
    is read as a signed value, so 256 - j is -j."""
    return _BYTE_STRUCTS[n].unpack


def byte_word(v: Perm) -> bytes:
    """v as signed bytes, each value taken mod 256."""
    return _BYTE_STRUCTS[len(v)].pack(*v)


def _word_table(word: bytes) -> bytes:
    """The byte table of the word u whose byte word is word: entry j is u_j
    and entry 256 - j is -u_j, mod 256, and the others are the identity."""
    n = len(word)
    return b"".join((b"\0", word, _IDENTITY_TABLE[n + 1 : 256 - n], word[::-1].translate(_NEGATED)))


def _require_byte_rank(words, n: int) -> list:
    """words as a list, checked to have rank n, below BYTE_RANK_LIMIT."""
    if n >= BYTE_RANK_LIMIT:
        raise ValueError(f"rank {n} is too large for the byte kernel (limit {BYTE_RANK_LIMIT})")
    words = list(words)
    lengths = set(map(len, words)) - {n}
    if lengths:
        raise ValueError(f"rank mismatch: {min(lengths)} vs {n}")
    return words


def byte_words(words, n: int) -> list:
    """byte_word(v) for each word v, every one checked to have rank n."""
    words, pack = _require_byte_rank(words, n), _BYTE_STRUCTS[n].pack
    return [pack(*v) for v in words]


def byte_tables(words, n: int) -> list:
    """The byte table of each byte word, every one checked to have rank n."""
    return list(map(_word_table, _require_byte_rank(words, n)))


def inverse_tables(words, n: int) -> list:
    """The byte table of the inverse of each byte word, every one checked to
    have rank n: the table that takes w_j back to j and -w_j back to -j."""
    words, ident = _require_byte_rank(words, n), bytes(range(1, n + 1))
    back = ident + ident[::-1].translate(_NEGATED)
    return [bytes.maketrans(w + w[::-1].translate(_NEGATED), back) for w in words]


@lru_cache(maxsize=None)
def _lift_table(p: int) -> bytes:
    """The translation table that moves each value v away from 0 by p (towards it when p < 0)."""
    return bytes((b + p if 0 < b < 128 else b - p) % 256 for b in range(256))


def block_words(lefts, rights, p: int) -> list:
    """The byte word of each block pair of byte words (u, v), u of rank p outer."""
    moved = [w.translate(_lift_table(p)) for w in rights]
    return [u + v for u in lefts for v in moved]


def byte_products(words, tables):
    """The byte products of each byte word v with each byte table of u,
    byte_word(compose(u, v)), lazily: v outer and u inner."""
    return itertools.starmap(bytes.translate, itertools.product(words, tables))


# The split kernel.  The coproduct splits a signed permutation w at each p
# into the values of absolute value at most p, kept in place, and the rest,
# shifted down by p with their signs kept (hopf.coproduct_split).  Each block
# is one translate through the byte strings of its rank n and split point p
# (split_tables), of a byte word or of a stream, the byte words of rank n
# joined, in which the blocks at p have p and n - p bytes, at fixed strides.
# Only this module reads the tables or cuts a stream; no split is kept.


@lru_cache(maxsize=None)
def split_tables(n: int) -> tuple:
    """(bigs, shifts, smalls), indexed by p = 0..n: the bytes of the values
    v with p < |v| <= n, the table that takes v to v - p and -v to p - v
    (mod 256), and the bytes of the values with |v| <= p."""
    signed = bytes(x % 256 for v in range(1, n + 1) for x in (v, -v))  # 1, -1, 2, -2, ...
    return tuple(zip(*((signed[2 * p :], _lift_table(-p), signed[: 2 * p]) for p in range(n + 1))))


def split_words(words: list, n: int, p: int):
    """The (left, right) block pairs at p of byte words of rank n."""
    bigs, shifts, smalls = split_tables(n)
    # the identity table in place of None halves a left block's time
    return zip(
        map(bytes.translate, words, itertools.repeat(_IDENTITY_TABLE), itertools.repeat(bigs[p])),
        map(bytes.translate, words, itertools.repeat(shifts[p]), itertools.repeat(smalls[p])),
    )


def split_stream(flat: bytes, n: int) -> list:
    """(the left blocks, the right blocks) at each p = 0..n of the stream
    flat of byte words of rank n, each a stream in the order of flat."""
    return [
        (flat.translate(_IDENTITY_TABLE, big), flat.translate(shift, small))
        for big, shift, small in zip(*split_tables(n))
    ]


def block_columns(lefts: bytes, rights: bytes, n: int, p: int) -> list:
    """The n columns of the block pairs at p of a stream of rank n, each in
    stream order: of its left blocks, then of its right blocks lifted back by p."""
    lifted = rights.translate(_lift_table(p))
    return [lefts[j::p] for j in range(p)] + [lifted[j :: n - p] for j in range(n - p)]


def pattern_runs(flat: bytes, n: int, m: int) -> list:
    """(the byte word of |w|, the n columns of the run) for each run of
    consecutive words w that share |w| in the stream flat of m byte words
    of rank n, in order."""
    unsigned = flat.translate(_UNSIGNED)
    patterns = [unsigned[i * n : i * n + n] for i in range(m)]
    starts = [i for i in range(m) if not i or patterns[i] != patterns[i - 1]]
    return [
        (patterns[a], [flat[a * n + j : b * n : n] for j in range(n)])
        for a, b in zip(starts, starts[1:] + [m])
    ]


def inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for i, v in enumerate(w, start=1):
        if v > 0:
            out[v - 1] = i
        else:
            out[-v - 1] = -i
    return tuple(out)


def forget_signs(w: Perm) -> Perm:
    return tuple(abs(v) for v in w)


def unsigned_tally(words, n: int) -> Counter:
    """The byte word of forget_signs(v) -> how many of the byte words v of
    rank n it is the image of, in order of first appearance."""
    return Counter(w.translate(_UNSIGNED) for w in _require_byte_rank(words, n))


def sigma(w: Perm) -> Perm:
    """Reverse the sign of every entry (multiplication by the all-barred
    element, on either side)."""
    return tuple(-v for v in w)


def chi_element(w: Perm) -> Perm:
    """Fold B_n onto D_n: flip the sign of the first entry if the number of
    bars is odd.  Not a group homomorphism."""
    if bar_count(w) % 2 == 0:
        return w
    return (-w[0],) + w[1:]


def rho_element(w: Perm) -> Perm:
    """Reverse the signs of the first two entries (an involution on D_n)."""
    if len(w) < 2:
        raise ValueError("rho needs rank >= 2")
    return (-w[0], -w[1]) + w[2:]


# ---------------------------------------------------------------------------
# generators

def s_gen(n: int, i: int) -> Perm:
    """The adjacent transposition s_i = (i, i+1), 1 <= i <= n-1."""
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def s0_gen(n: int) -> Perm:
    """s_0 = bar(1) 2 ... n."""
    return (-1,) + tuple(range(2, n + 1))


def s1p_gen(n: int) -> Perm:
    """s_1' = bar(2) bar(1) 3 ... n."""
    if n < 2:
        raise ValueError("s_1' needs rank >= 2")
    return (-2, -1) + tuple(range(3, n + 1))


def coxeter_generators(ctype: str, n: int) -> list:
    """Ordered list of (label, element); labels as documented above."""
    gens = []
    if ctype == "B" and n >= 1:
        gens.append((0, s0_gen(n)))
    if ctype == "D" and n >= 2:
        gens.append((0, s1p_gen(n)))
    gens.extend((i, s_gen(n, i)) for i in range(1, n))
    if ctype not in COXETER_TYPES:
        raise ValueError(f"unknown Coxeter type {ctype!r}")
    return gens


# ---------------------------------------------------------------------------
# enumeration

def group_order(group: str, n: int) -> int:
    import math

    if n == 0:
        return 1
    fact = math.factorial(n)
    if group == "S":
        return fact
    if group == "B":
        return fact << n
    if group == "D":
        return fact << (n - 1)
    raise ValueError(f"unknown group {group!r}")


def _require_cap(group: str, n: int):
    """CapExceeded when rank n of group is above its enumeration cap."""
    if n > (cap := enum_cap(group)):
        raise CapExceeded(f"{group}_{n} exceeds enumeration cap {cap}")


def iter_group(group: str, n: int):
    """Yield each element exactly once: base permutations in lexicographic
    order, then sign masks in increasing binary order (bit i = bar at
    position i+1)."""
    _require_cap(group, n)
    if group == "S":
        yield from itertools.permutations(range(1, n + 1))
        return
    if group not in ("B", "D"):
        raise ValueError(f"unknown group {group!r}")
    even_only = group == "D"
    for base in itertools.permutations(range(1, n + 1)):
        for mask in range(1 << n):
            if even_only and popcount(mask) % 2:
                continue
            yield tuple(-v if (mask >> i) & 1 else v for i, v in enumerate(base))


def _capped(listing):
    """The cached listing behind a cap read on every call, so a PEAKALG_CAP
    lowered after a group was listed still stops it.  The wrapper carries
    the listing's cache_info and cache_clear: it is the one name of the
    cache."""

    def group_elements(group: str, n: int) -> tuple:
        _require_cap(group, n)
        return listing(group, n)

    group_elements.cache_info = listing.cache_info
    group_elements.cache_clear = listing.cache_clear
    return group_elements


@_capped
@lru_cache(maxsize=None)
def group_elements(group: str, n: int) -> tuple:
    return tuple(iter_group(group, n))


# ---------------------------------------------------------------------------
# descent and peak statistics

def descent_mask(w: Perm, ctype: str) -> int:
    """Bitmask of descent positions of w under the stated type's rules."""
    n = len(w)
    mask = 0
    if ctype == "A":
        pass
    elif ctype == "B":
        if n >= 1 and w[0] < 0:  # w_0 = 0 > w_1
            mask |= 1
    elif ctype == "D":
        if n >= 2 and -w[0] > w[1]:
            mask |= 1  # bit 0 encodes the fork generator 1'
    else:
        raise ValueError(f"unknown Coxeter type {ctype!r}")
    for i in range(1, n):
        if w[i - 1] > w[i]:
            mask |= 1 << i
    return mask


def peak_mask(u: Perm) -> int:
    """Peaks of an unsigned permutation, with the convention u_0 = 0;
    position 1 may be a peak."""
    n = len(u)
    mask = 0
    prev = 0
    for i in range(1, n):
        if prev < u[i - 1] > u[i]:
            mask |= 1 << i
        prev = u[i - 1]
    return mask


def interior_peak_mask(u: Perm) -> int:
    return peak_mask(u) & ~2


def lambda_mask(jmask: int) -> int:
    """{i in J : i-1 not in J} on bitmask-encoded subsets of [n-1]."""
    return jmask & ~(jmask << 1)


def lambda_interior_mask(jmask: int) -> int:
    return lambda_mask(jmask) & ~2


# The statistics kernel, bit-sliced: each word of S_n behind a zero byte (u_0), a byte lane
# per word, 5040 words a block to bound memory.  As big ints, a column offset by +128 less
# another holds 128 + a - b per lane (1..255: no borrow crosses lanes); a translate sends a
# lane above 128 (a > b) to 0xFF.  Peaks AND their own ascents with descents, not lambda_mask.
_PLUS_128 = bytes((b + 128) % 256 for b in range(256))
_ABOVE_128 = bytes(0xFF if b > 128 else 0 for b in range(256))


def descent_peak_masks(words, n: int) -> tuple:
    """descent_mask(u, "A") and peak_mask(u) of each u of S_n streamed, as two byte strings."""
    if n > 8:  # a mask of rank n takes bits 1..n-1 of its lane
        raise ValueError(f"rank {n} is past the byte lanes of the statistics kernel (limit 8)")
    packed, masks = itertools.starmap(struct.Struct(f"x{n}B").pack, words), [(b"", b"")]
    def above(left, right):  # 0xFF in each lane of the block where left > right
        lanes = int.from_bytes(left.translate(_PLUS_128), "big") - int.from_bytes(right, "big")
        return int.from_bytes(lanes.to_bytes(size, "big").translate(_ABOVE_128), "big")

    while flat := bytes(itertools.chain.from_iterable(itertools.islice(packed, 5040))):
        size, columns = len(flat) // (n + 1), [flat[i :: n + 1] for i in range(n + 1)]
        descents = peaks = 0
        for i in range(1, n):
            down = above(columns[i], columns[i + 1]) & int.from_bytes(bytes([1 << i]) * size, "big")
            descents, peaks = descents | down, peaks | down & above(columns[i], columns[i - 1])
        masks.append((descents.to_bytes(size, "big"), peaks.to_bytes(size, "big")))
    return tuple(map(b"".join, zip(*masks)))


# ---------------------------------------------------------------------------
# the label codec: a set of small non-negative integers as a bitmask
#
# Every basis label is such a set: generator subsets J (0 standing for s_0
# in type B and for the fork 1' in type D) and sparse peak sets F.  This
# section is the only place that builds, reads, checks or prints the masks.


def popcount(mask: int) -> int:
    return mask.bit_count()


def mask_of(members) -> int:
    mask = 0
    for i in members:
        mask |= 1 << i
    return mask


def members_of(mask: int) -> tuple:
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def mask_text(mask: int, token=str) -> str:
    """Text form of a label, e.g. "{0,2}"; token renders one member."""
    return "{" + ",".join(token(i) for i in members_of(mask)) + "}"


def _check_members(mask: int, allowed: int, what: str, token=str):
    """ValueError naming the label and its first member outside allowed."""
    if mask < 0:
        raise ValueError(f"label mask {mask} is negative")
    if mask & ~allowed:
        bad = token(members_of(mask & ~allowed)[0])
        raise ValueError(f"label {mask_text(mask, token)!r}: {bad!r} is not {what}")


def _valid_label_mask(ctype: str, n: int) -> int:
    if ctype == "A":
        return ((1 << n) - 1) & ~1 if n >= 1 else 0
    if ctype == "B":
        return (1 << n) - 1
    if ctype == "D":
        return (1 << n) - 1 if n >= 2 else 0
    raise ValueError(f"unknown Coxeter type {ctype!r}")


def _label_members(text: str, what: str, n: int, named=None) -> list:
    """The members of a label text such as "{0,2}", each token a key of
    named or a number below the rank n; ValueError names any other token,
    an empty one and a repeated member ("{}" has no members).  Whether a
    member belongs to the label's kind is the value type's check."""
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    members = []
    for tok in map(str.strip, body.split(",") if body.strip() else []):
        if not tok:
            raise ValueError(f"label {text!r} has an empty member")
        i = (named or {}).get(tok, int(tok) if tok.isdecimal() else -1)
        if not 0 <= i < n:
            raise ValueError(f"label {text!r}: {tok!r} is not {what}")
        if i in members:
            raise ValueError(f"label {text!r}: {tok!r} repeats a member")
        members.append(i)
    return members


class Frozen:
    """A read-only record: __init__ sets its __slots__ once (_set).  Two
    records of one class are equal when their field values are, and hash
    as the tuple of those values; a record is never equal to a tuple."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()


class GeneratorSet(Frozen):
    """Subset of the Coxeter generators of one type, encoded as a bitmask.

    Type A masks live in {1..n-1}, type B in {0..n-1}, type D in {0..n-1}
    with bit 0 standing for the fork generator 1'.  Text form is the sorted
    token list, e.g. "{0,2}" or "{1',1,3}".
    """

    __slots__ = ("ctype", "n", "mask")

    def __init__(self, ctype: str, n: int, mask: int):
        self._set(ctype, n, mask)
        if ctype not in COXETER_TYPES:
            raise ValueError(f"unknown Coxeter type {ctype!r}")
        what = f"a type-{self.ctype} generator of rank {self.n}"
        _check_members(self.mask, _valid_label_mask(self.ctype, self.n), what, self.token)

    @classmethod
    def from_labels(cls, ctype: str, n: int, labels) -> "GeneratorSet":
        return cls(ctype, n, mask_of(labels))

    @classmethod
    def parse(cls, ctype: str, n: int, text: str) -> "GeneratorSet":
        what = f"a type-{ctype} generator of rank {n}"
        named = {"1'": 0} if ctype == "D" else None
        return cls.from_labels(ctype, n, _label_members(text, what, n, named))

    def token(self, i: int) -> str:
        return "1'" if (self.ctype == "D" and i == 0) else str(i)

    def labels(self) -> tuple:
        return members_of(self.mask)

    def text(self) -> str:
        return mask_text(self.mask, self.token)

    def __len__(self) -> int:
        return popcount(self.mask)

    def __contains__(self, label: int) -> bool:
        return bool((self.mask >> label) & 1)


def descent_set(w: Perm, ctype: str) -> GeneratorSet:
    group = GROUP_OF_TYPE[ctype]
    if not in_group(w, group):
        raise ValueError(f"{w} is not in group {group}_{len(w)}")
    return GeneratorSet(ctype, len(w), descent_mask(w, ctype))


def fibonacci(n: int) -> int:
    """f_0 = f_1 = 1, f_2 = 2, f_n = f_{n-1} + f_{n-2}."""
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@lru_cache(maxsize=None)
def sparse_masks(n: int) -> tuple:
    """All bitmasks F of subsets of [n-1] with no two consecutive elements,
    ordered by (cardinality, lexicographic member list).  #sparse_masks(n)
    is the Fibonacci number f_n.  The sparse k-subsets a_1 < ... < a_k
    of [n-1] are the a_i = b_i + i - 1 over the k-subsets b of [n-k], in
    the same lexicographic order."""
    return tuple(
        mask_of(b + i for i, b in enumerate(chosen))
        for k in range(n // 2 + 1)
        for chosen in itertools.combinations(range(1, n - k + 1), k)
    )


@lru_cache(maxsize=None)
def interior_sparse_masks(n: int) -> tuple:
    return tuple(m for m in sparse_masks(n) if not (m & 2))


class PeakIndex(Frozen):
    """Sparse subset of [n-1]: if i is in F then i+1 is not.  Interior peak
    sets additionally avoid 1."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int):
        self._set(n, mask)
        _check_members(self.mask, ((1 << self.n) - 1) & ~1, f"a peak position of rank {self.n}")
        if self.mask & (self.mask >> 1):
            i = members_of(self.mask & (self.mask >> 1))[0]
            raise ValueError(f"label {self.text()!r}: peaks {i} and {i + 1} are adjacent")

    @classmethod
    def from_members(cls, n: int, members) -> "PeakIndex":
        return cls(n, mask_of(members))

    @classmethod
    def parse(cls, n: int, text: str, interior: bool = False) -> "PeakIndex":
        what = f"a peak position of {'an interior peak set of ' if interior else ''}rank {n}"
        index = cls.from_members(n, _label_members(text, what, n))
        return index.require_interior() if interior else index

    def require_interior(self) -> "PeakIndex":
        """This peak set, checked to be an interior one (1 not a member)."""
        if self.mask & 2:
            raise ValueError(
                f"label {self.text()!r}: '1' is not a peak position of an "
                f"interior peak set of rank {self.n}"
            )
        return self

    def members(self) -> tuple:
        return members_of(self.mask)

    def text(self) -> str:
        return mask_text(self.mask)

    def __len__(self) -> int:
        return popcount(self.mask)

    def __contains__(self, i: int) -> bool:
        return bool((self.mask >> i) & 1)


def peak_set(u: Perm) -> PeakIndex:
    if not in_group(u, "S"):
        raise ValueError(f"{u} is not an unsigned permutation")
    return PeakIndex(len(u), peak_mask(u))


def interior_peak_set(u: Perm) -> PeakIndex:
    if not in_group(u, "S"):
        raise ValueError(f"{u} is not an unsigned permutation")
    return PeakIndex(len(u), interior_peak_mask(u))


# ---------------------------------------------------------------------------
# Cayley-graph length oracle

@lru_cache(maxsize=None)
def _generator_words(ctype: str, n: int) -> tuple:
    """(labels, byte words) of the standard generators, in order."""
    gens = coxeter_generators(ctype, n)
    return tuple(label for label, _ in gens), byte_words([g for _, g in gens], n)


@lru_cache(maxsize=None)
def _byte_length_table(group: str, n: int) -> dict:
    """Length of every element of the group, keyed by its byte word, by
    breadth-first search from the identity along right multiplication by
    the standard generators."""
    if n > bfs_cap():
        raise CapExceeded(f"BFS cap is {bfs_cap()}, got rank {n}")
    _, gens = _generator_words(TYPE_OF_GROUP[group], n)
    start = byte_word(identity(n))
    table = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            lw, w_table = table[w] + 1, _word_table(w)
            for g in gens:
                wg = g.translate(w_table)  # compose(w, generator)
                if wg not in table:
                    table[wg] = lw
                    nxt.append(wg)
        frontier = nxt
    if len(table) != group_order(group, n):
        raise AssertionError(f"BFS did not reach all of {group}_{n}")
    return table


@lru_cache(maxsize=None)
def coxeter_length_table(group: str, n: int) -> dict:
    """Length of every element of the group, in breadth-first search order."""
    table = _byte_length_table(group, n)
    return dict(zip(map(byte_decoder(n), table), table.values()))


def length_descent_mask(w: Perm, ctype: str) -> int:
    """Descents read off the length function: labels s with l(ws) < l(w)."""
    table = _byte_length_table(GROUP_OF_TYPE[ctype], len(w))
    labels, gens = _generator_words(ctype, len(w))
    word = byte_word(w)
    lw, w_table = table[word], _word_table(word)
    return mask_of(label for label, g in zip(labels, gens) if table[g.translate(w_table)] < lw)


def packer(keys, *factors) -> tuple:
    """(pack, shift): pack(vec) holds the coordinate of each ordered key in a
    signed field of one int, from bit shift[key].  The factors (iterables of
    int rows, else ValueError naming the argument and a coefficient) build the
    vectors from unit vectors, so the product of their largest l1 row norms
    bounds every coefficient, below 2**(width - 1): equal packs, equal vectors."""
    bound = 1
    for i, rows in enumerate(factors, 2):
        norms = [sum(map(abs, row.values())) for row in rows]
        if any(type(s) is not int for s in norms):
            c = next(c for row in rows for c in row.values() if type(c) is not int)
            raise ValueError(f"packed coordinates must be integers: argument {i} holds {c!r}")
        bound *= max([1, *norms])
    shift = {key: i * (bound.bit_length() + 1) for i, key in enumerate(keys)}
    return (lambda vec: sum(c << shift[k] for k, c in vec.items())), shift
