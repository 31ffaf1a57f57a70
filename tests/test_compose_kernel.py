"""The composition kernel of peakalg.perms against compose, its oracle.

byte_word(v).translate(byte_table(u)) is byte_word(compose(u, v)) in one C
call, and byte_decoder(n) reads a byte word back as the signed tuple.  The
enumerated cube of peakalg.algebra, internal_product and the shuffle
product hopf.external_product run on it.  The reference products and the
|G|^2 cube of tests/oracles are compose-based forms, and the
kernel must give the same products and binnings, down to dict order and
the type of each value.  The enumerated cube is a closure certificate from
a few generator rows and a count from one representative per class: it
must give the |G|^2 cube with each cell in label order, compose exactly
the pinned number of products, and fail on each mutation below.  A class
whose sum already lies in the span saturated under the earlier rows gets
no row of its own, and the cubes that skip classes that way are still the
|G|^2 cubes.
"""

import itertools
import random
import struct
from fractions import Fraction

import pytest

from oracles import in_label_order, members, reference_bin_classes, reference_cube
from oracles import reference_external_product, reference_product
from peakalg import algebra, bases, hopf, mr, peak, perms
from peakalg.algebra import AlgElem, ClassAlgebra, bin_classes, internal_product
from peakalg.hopf import external_product
from peakalg.perms import (
    byte_decoder,
    byte_tables,
    byte_word,
    byte_words,
    compose,
    descent_mask,
    group_elements,
    identity,
    inverse,
    inverse_tables,
    popcount,
)


def byte_table(u) -> bytes:
    """The byte table of the signed permutation u, built by the kernel."""
    return byte_tables([byte_word(u)], len(u))[0]


def typed(cube: dict) -> list:
    """The cube as a list that tells 1 from Fraction(1) and keeps order."""
    return [(k, [(lab, type(c), c) for lab, c in v.items()]) for k, v in cube.items()]


def fresh(alg: ClassAlgebra) -> ClassAlgebra:
    """An uncached copy of an enumerated algebra, its cube not yet built."""
    return ClassAlgebra(alg.group, alg.n, None, alg.labels, members(alg))


# ---------------------------------------------------------------------------
# the kernel


def byte_mismatch(words_u, words_v, table=byte_table, word=byte_word):
    """The first pair (u, v) whose byte product is not compose(u, v)."""
    for v in words_v:
        encoded = word(v)
        for u in words_u:
            if encoded.translate(table(u)) != byte_word(compose(u, v)):
                return u, v
    return None


@pytest.mark.parametrize("group", ["S", "B", "D"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_kernel_is_compose_on_every_pair(group, n):
    words = group_elements(group, n)
    assert byte_mismatch(words, words) is None


def test_kernel_is_compose_on_a_sample_of_b4():
    words = group_elements("B", 4)
    rng = random.Random(4)
    assert byte_mismatch(rng.sample(words, 48), rng.sample(words, 48)) is None


def test_small_ranks_return_tuples():
    for group in ("S", "B", "D"):
        one = AlgElem.unit(group, 0)
        assert internal_product(one, one).terms == {(): 1}
    bar, one = AlgElem.monomial("B", 1, (-1,)), AlgElem.unit("B", 1)
    for a, b, want in ((bar, bar, (1,)), (bar, one, (-1,)), (one, bar, (-1,))):
        (got,) = internal_product(a, b).terms
        assert type(got) is tuple and got == want


def test_the_oracle_catches_a_wrong_kernel():
    words = group_elements("B", 2)

    def reversed_word(v):
        return byte_word(tuple(reversed(v)))

    assert byte_mismatch(words, words, table=without_negative_half) is not None
    assert byte_mismatch(words, words, word=reversed_word) is not None


@pytest.mark.parametrize("group,n", [("S", 4), ("B", 3), ("D", 4)])
def test_byte_kernel_is_compose_on_every_pair(group, n):
    words = group_elements(group, n)
    assert byte_mismatch(words, words) is None


@pytest.mark.parametrize("group,n", [("B", 5), ("S", 6)])
def test_byte_kernel_is_compose_on_a_sample(group, n):
    words = group_elements(group, n)
    rng = random.Random(f"bytes-{group}{n}")
    assert byte_mismatch(rng.sample(words, 60), rng.sample(words, 60)) is None


def test_byte_kernel_is_compose_at_the_largest_rank():
    rng = random.Random(127)

    def signed(n):
        values = list(range(1, n + 1))
        rng.shuffle(values)
        return tuple(x if rng.random() < 0.5 else -x for x in values)

    words = [signed(127) for _ in range(6)]
    assert byte_mismatch(words, words) is None
    assert [byte_decoder(127)(byte_word(w)) for w in words] == words


@pytest.mark.parametrize("group,n", [("S", 5), ("B", 4), ("D", 4)])
def test_the_decoder_inverts_the_encoding(group, n):
    decode = byte_decoder(n)
    for w in group_elements(group, n):
        word = byte_word(w)
        assert word == bytes(x % 256 for x in w) and decode(word) == w


def test_byte_table_reads_signed_values():
    u = (2, -3, 1)
    table = byte_table(u)
    assert len(table) == 256 and byte_word(u) == bytes([2, 253, 1])
    for j in range(1, 4):
        assert table[j] == u[j - 1] % 256 and table[256 - j] == -u[j - 1] % 256
    assert [table[j] for j in range(4, 253)] == list(range(4, 253))
    assert table[0] == 0 and byte_word(()).translate(byte_table(())) == b""


def without_negative_half(u):
    """byte_table(u) with the entries 256 - j left as the identity."""
    table = bytearray(byte_table(u))
    table[256 - len(u) :] = range(256 - len(u), 256)
    return bytes(table)


def test_the_oracle_catches_a_byte_table_without_its_negative_half():
    words = group_elements("B", 2)
    assert byte_mismatch(words, words, table=without_negative_half) is not None
    # sign-free words never read the negative half
    words = group_elements("S", 3)
    assert byte_mismatch(words, words, table=without_negative_half) is None


# ---------------------------------------------------------------------------
# malformed input fails as loudly as on compose


@pytest.mark.parametrize("build", [byte_words, byte_tables])
def test_byte_words_of_another_rank_raise(build):
    with pytest.raises(ValueError, match="rank mismatch"):
        build([(1, 2, 3), (2, 1)], 3)
    with pytest.raises(ValueError, match="rank mismatch"):
        build([(1, 2)], 3)
    assert build([], 3) == []


@pytest.mark.parametrize("build", [byte_words, byte_tables])
def test_the_byte_kernel_refuses_rank_128_before_encoding(monkeypatch, build):
    def refuse(word):
        raise AssertionError("encoded a word of rank 128")

    monkeypatch.setattr(perms, "byte_word", refuse)
    word = tuple(range(1, 129))  # j and 256 - j collide at j = 128
    with pytest.raises(ValueError, match="rank 128 is too large"):
        build([word], 128)


@pytest.mark.parametrize("short_side", ["left", "right", "both"])
def test_internal_product_rejects_a_term_of_another_rank(short_side):
    good = AlgElem("S", 3, {(1, 2, 3): 1, (2, 1, 3): 2})
    bad = AlgElem._raw("S", 3, {(1, 2, 3): 1, (2, 1): 1})
    short = AlgElem._raw("S", 3, {(2, 1): 1})
    a, b = {"left": (bad, good), "right": (good, bad), "both": (short, short)}[short_side]
    with pytest.raises(ValueError, match="rank mismatch"):
        internal_product(a, b)


def test_enumerated_cube_rejects_a_class_of_another_rank():
    classes = {0: [(1, 2, 3)], 1: [(2, 1)]}
    alg = ClassAlgebra("S", 3, None, [0, 1], classes)
    with pytest.raises(ValueError, match="rank mismatch"):
        alg.cube


# ---------------------------------------------------------------------------
# the cube, the convolution and the binning against their references

CUBE_CASES = [
    *[("A", n) for n in range(0, 7)],
    *[(t, n) for t in "BD" for n in range(0, 5)],
    *[pytest.param(t, 5, marks=pytest.mark.deep) for t in "BD"],
]


def the_compose_cube(alg: ClassAlgebra) -> list:
    """typed(reference_cube(alg)), each cell sorted into label order."""
    return typed(in_label_order(reference_cube(alg), alg.labels))


@pytest.mark.parametrize("ctype,n", CUBE_CASES)
def test_kernel_cube_equals_the_compose_cube(ctype, n):
    alg = bases.descent_algebra(ctype, n)
    assert typed(alg.cube) == the_compose_cube(alg)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mantaci_reutenauer_cube_equals_the_compose_cube(n):
    alg = mr.t_algebra(n)
    assert typed(alg.cube) == the_compose_cube(alg)


GIVEN_PARTITIONS = {
    "rank-0": ("S", 0, {0: [()]}),
    "rank-0-empty-class": ("B", 0, {0: [], 1: [()]}),
    "rank-1": ("B", 1, {0: [(1,)], 1: [(-1,)]}),
    "rank-1-one-class": ("B", 1, {0: [(-1,), (1,)]}),
    "s3-empty-class": ("S", 3, {**members(bases.descent_algebra("A", 3)), 1: []}),
    "b2-empty-class-first": ("B", 2, {9: [], **members(bases.descent_algebra("B", 2))}),
}


@pytest.mark.parametrize("group,n,classes", GIVEN_PARTITIONS.values(), ids=list(GIVEN_PARTITIONS))
def test_a_given_partition_builds_the_compose_cube(group, n, classes):
    alg = ClassAlgebra(group, n, None, list(classes), classes)
    assert typed(alg.cube) == the_compose_cube(alg)
    for empty in [lab for lab, ws in classes.items() if not ws]:
        assert all(alg.cube[(empty, b)] == alg.cube[(b, empty)] == {} for b in alg.labels)


def counting_byte_products(counts: list):
    """algebra.byte_products, appending 1 to counts for each product."""
    real = algebra.byte_products

    def counted(words, tables):
        for product in real(words, tables):
            counts.append(1)
            yield product

    return counted


# |G| products per member of each generator class, then |G| per class for
# the cells; the |G|^2 count composed 518,400, 147,456 and 36,864
@pytest.mark.parametrize(
    "ctype,n,products",
    [("A", 6, 12_240 + 23_040), ("B", 4, 15_744 + 6_144), ("D", 4, 4_416 + 3_072)],
)
def test_the_cube_composes_the_pinned_number_of_products(monkeypatch, ctype, n, products):
    alg = fresh(bases.descent_algebra(ctype, n))
    counts: list = []
    monkeypatch.setattr(algebra, "byte_products", counting_byte_products(counts))
    alg.cube
    assert len(counts) == products


# the classes the B_3 certificate takes, by size (1, 1, 5, 7), ties in label order;
# the class 0b100, of size 5, is skipped
B3_GENERATORS = [0b0, 0b111, 0b11, 0b1]


def test_the_b3_certificate_takes_its_generators_by_size(monkeypatch):
    alg = fresh(bases.descent_algebra("B", 3))
    firsts = []

    def spied(real):
        def tables(words, n):
            words = list(words)
            firsts.append(words[0])
            return real(words, n)

        return tables

    monkeypatch.setattr(algebra, "byte_tables", spied(algebra.byte_tables))
    monkeypatch.setattr(algebra, "inverse_tables", spied(algebra.inverse_tables))
    alg.cube
    # a table per generator row, then the inverse tables of each class
    assert [alg.label_of[w] for w in firsts[: len(B3_GENERATORS)]] == B3_GENERATORS
    assert len(firsts) == len(B3_GENERATORS) + len(alg.labels)


def spied_rows(monkeypatch) -> list:
    """The coordinates that ClassAlgebra.left_rows is called on, in order."""
    calls, real = [], ClassAlgebra.left_rows

    def spied(self, coords):
        calls.append(coords)
        return real(self, coords)

    monkeypatch.setattr(ClassAlgebra, "left_rows", spied)
    return calls


def test_a_b3_class_in_the_saturated_span_gets_no_generator_row(monkeypatch):
    alg = fresh(bases.descent_algebra("B", 3))
    rows = spied_rows(monkeypatch)
    alg.cube
    assert rows == [{g: 1} for g in B3_GENERATORS]
    # 0b100 ties with 0b11 on size, so by size alone it would come next; its
    # class sum lies in the algebra that the three classes before it generate
    assert alg.sizes[0b100] == alg.sizes[0b11] == 5
    earlier = [{g: 1} for g in B3_GENERATORS[:3]]
    assert alg.saturate(earlier) == alg.saturate(earlier + [{0b100: 1}]) < len(alg.labels)


@pytest.mark.parametrize("n,skipped", [(1, []), (2, [(2,), (-2,)]), (3, [(3,), (-3,)])])
def test_the_t_cubes_that_skip_classes_equal_the_compose_cube(monkeypatch, n, skipped):
    alg = fresh(mr.t_algebra(n))
    rows = spied_rows(monkeypatch)
    assert typed(alg.cube) == the_compose_cube(alg)
    # the classes of size one that get no row: T_1 takes both of its classes
    taken = [lab for coords in rows for lab in coords]
    assert [lab for lab in alg.labels if alg.sizes[lab] == 1 and lab not in taken] == skipped


def one_descent_or_other(w) -> int:
    """The position of the only descent of w, or 0 for any other descent set."""
    mask = descent_mask(w, "A")
    return mask.bit_length() - 1 if popcount(mask) == 1 else 0


@pytest.mark.parametrize("n", [4, 5])
def test_one_descent_or_other_is_rejected_at_the_first_cell_off_the_span(n):
    alg = ClassAlgebra("S", n, one_descent_or_other, range(n))
    with pytest.raises(ArithmeticError) as oracle:
        reference_cube(alg)
    with pytest.raises(ArithmeticError) as certificate:
        alg.cube
    assert str(certificate.value) == f"{oracle.value} in S_{n}"


@pytest.mark.deep
def test_the_a7_cube_is_certified_and_coarsens_to_p7():
    alg = bases.descent_algebra("A", 7)
    cube = alg.cube
    assert len(cube) == 64**2
    # the rows of the two smallest classes but the unit, against the |G|^2 count
    left = sorted(alg.labels, key=alg.sizes.__getitem__)[1:3]
    want = in_label_order(reference_cube(alg, left), alg.labels)
    assert typed({k: cube[k] for k in want}) == typed(want)
    p7 = peak.peak_algebra(7)
    assert p7.parent is alg and len(p7.cube) == len(p7.labels) ** 2
    assert len(p7.labels) == perms.fibonacci(7) and all(p7.sizes.values())


def byte_products_wrong_on(u0, v0, product):
    """algebra.byte_products giving the byte word of product for (u0, v0)."""
    real, pair0 = algebra.byte_products, (byte_word(v0), byte_table(u0))

    def broken(words, tables):
        for pair, got in zip(itertools.product(words, tables), real(words, tables)):
            yield byte_word(product) if pair == pair0 else got

    return broken


def test_a_composer_wrong_on_one_pair_breaks_the_cube(monkeypatch):
    alg = fresh(bases.descent_algebra("B", 3))
    # u0 lies in a generator class, so the certificate composes u0 * v0
    u0, v0 = members(alg)[0b11][0], members(alg)[0b010][-1]
    assert 0b11 in B3_GENERATORS
    wrong = compose(u0, (-v0[0],) + v0[1:])
    assert wrong != compose(u0, v0)
    monkeypatch.setattr(algebra, "byte_products", byte_products_wrong_on(u0, v0, wrong))
    with pytest.raises(ArithmeticError, match=r"class sums 3 \* 2 leave the span"):
        alg.cube


def test_a_composer_wrong_in_the_cells_breaks_their_count(monkeypatch):
    alg = fresh(bases.descent_algebra("B", 3))
    # u0^-1 lies in no generator class, so only the cells compose u0^-1 * w_c
    classes = members(alg)
    u0 = next(
        u for u in classes[0b101] if alg.label_of[byte_word(inverse(u))] not in B3_GENERATORS
    )
    w_c = classes[0b110][0]
    monkeypatch.setattr(
        algebra, "byte_products", byte_products_wrong_on(inverse(u0), w_c, identity(3))
    )
    # Y_5 * Y_0 = Y_5, with 11 members, gains the 7 members of class 6
    with pytest.raises(ArithmeticError, match=r"class sums 5 \* 0 count 18 products in B_3"):
        alg.cube


def test_representatives_from_the_wrong_classes_give_another_cube(monkeypatch):
    alg = fresh(bases.descent_algebra("B", 3))
    # classes 0b10 and 0b101 have 11 members each: with their
    # representatives swapped every cell still counts |a| * |b| products,
    # and only the oracle tells the cube is wrong
    w1, w2 = (alg.classes[lab][0] for lab in (0b10, 0b101))
    swap, real = {w1: w2, w2: w1}, algebra.byte_products

    def swapped(words, tables):
        if len(words) == 1 and words[0] in swap:
            words = [swap[words[0]]]
        return real(words, tables)

    monkeypatch.setattr(algebra, "byte_products", swapped)
    assert alg.cube != reference_cube(alg)


def test_a_saturation_that_drops_rows_raises(monkeypatch):
    alg = fresh(bases.descent_algebra("B", 3))
    real = algebra.Echelon.add

    def dropping(self, row, combo=None):  # no row past rank 7
        return self.rank < 7 and real(self, row, combo)

    monkeypatch.setattr(algebra.Echelon, "add", dropping)
    with pytest.raises(ArithmeticError, match="the generators reach rank 7 of 8 in B_3"):
        alg.cube


def test_a_byte_table_without_its_negative_half_breaks_the_type_b_cube(monkeypatch):
    alg = fresh(bases.descent_algebra("B", 3))

    def broken(words, n):
        return [without_negative_half(byte_decoder(n)(w)) for w in words]

    monkeypatch.setattr(algebra, "byte_tables", broken)
    with pytest.raises(ArithmeticError, match="leave the span"):
        alg.cube


@pytest.mark.parametrize("n", range(7))
def test_inverse_tables_are_the_tables_of_the_inverses(n):
    words = group_elements("B", n)
    assert inverse_tables(byte_words(words, n), n) == [byte_table(inverse(w)) for w in words]


def test_inverse_tables_without_their_negative_half_break_the_type_b_cube(monkeypatch):
    alg = fresh(bases.descent_algebra("B", 3))

    def broken(words, n):
        return [without_negative_half(inverse(byte_decoder(n)(w))) for w in words]

    monkeypatch.setattr(algebra, "inverse_tables", broken)
    with pytest.raises(ArithmeticError, match="count"):
        alg.cube


@pytest.mark.parametrize("sizes", [(3, 8), (8, 3)])
def test_a_composer_wrong_on_one_pair_changes_the_product(monkeypatch, sizes):
    words = group_elements("B", 2)
    a = AlgElem("B", 2, {w: i + 1 for i, w in enumerate(words[: sizes[0]])})
    b = AlgElem("B", 2, {w: 1 for w in words[: sizes[1]]})
    want = reference_product(a, b)
    assert internal_product(a, b).terms == want
    u0, v0 = words[1], words[2]
    monkeypatch.setattr(algebra, "byte_products", byte_products_wrong_on(u0, v0, words[0]))
    assert internal_product(a, b).terms != want


def unsigned_decoder(n):
    """A decoder that reads each byte as unsigned, so 255 is 255, not -1."""
    return struct.Struct(f"{n}B").unpack


def test_an_unsigned_decoder_breaks_both_products_on_b3(monkeypatch):
    words = group_elements("B", 3)
    a = AlgElem("B", 3, {w: 1 for w in words[:6]})
    b = AlgElem("B", 3, {w: 1 for w in words[-6:]})
    left, right = AlgElem.monomial("B", 1, (-1,)), AlgElem.monomial("B", 2, (2, -1))
    want = reference_product(a, b), reference_external_product(left, right)
    assert (internal_product(a, b).terms, external_product(left, right).terms) == want
    monkeypatch.setattr(algebra, "byte_decoder", unsigned_decoder)
    monkeypatch.setattr(hopf, "byte_decoder", unsigned_decoder)
    assert internal_product(a, b).terms != want[0]
    assert external_product(left, right).terms != want[1]


@pytest.mark.parametrize("group,n", [("S", 4), ("B", 3), ("D", 4)])
def test_internal_product_equals_the_compose_product(group, n):
    rng = random.Random(f"{group}{n}")
    words = group_elements(group, n)
    coeffs = [1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]

    def element(size):
        return AlgElem(group, n, {w: rng.choice(coeffs) for w in rng.sample(words, size)})

    for size_a, size_b in itertools.product((1, 5, 24), repeat=2):
        a, b = element(size_a), element(size_b)
        got, want = internal_product(a, b).terms, reference_product(a, b)
        assert list(got.items()) == list(want.items())
        assert [type(c) for c in got.values()] == [type(c) for c in want.values()]
    # a product that cancels: (1 - s)(1 + s) = 1 - s^2 = 0 for an involution s
    s = words[1]
    one, e = AlgElem.unit(group, n), AlgElem.monomial(group, n, s)
    assert compose(s, s) == words[0]
    assert internal_product(one - e, one + e).terms == {}


def binned(terms, class_of, size):
    """bin_classes on terms labelled term by term by class_of."""
    return bin_classes(map(class_of, terms), terms.values(), size)


def test_bin_classes_keeps_the_first_value_and_the_first_appearance_order():
    class_of = {"a": 0, "b": 1, "c": 0, "d": 1, "e": 2}.get
    size = {0: 2, 1: 2, 2: 1}.__getitem__
    terms = {"b": Fraction(1), "a": 1, "d": 1, "c": Fraction(1), "e": Fraction(2, 3)}
    got = binned(terms, class_of, size)
    assert got == reference_bin_classes(terms, class_of, size)
    assert list(got) == [1, 0, 2]
    assert [type(c) for c in got.values()] == [Fraction, int, Fraction]
    # the same terms with class 1 on two values, class 0 short of c, and z with no label
    short = {k: c for k, c in terms.items() if k != "c"}
    for off_span in ({**terms, "d": 2}, short, {"z": 1, **terms}):
        assert binned(off_span, class_of, size) is None
        assert reference_bin_classes(off_span, class_of, size) is None


def test_bin_classes_wants_one_value_even_where_each_value_fills_its_class():
    # a label map that puts two terms in a class of one: each value alone
    # covers the size, so only the constancy test turns the terms away
    class_of, size, terms = {"a": 0, "b": 0}.get, {0: 1}.__getitem__, {"a": 1, "b": 2}
    assert binned(terms, class_of, size) is reference_bin_classes(terms, class_of, size) is None


@pytest.mark.parametrize(
    "terms",
    [
        {"a": 1, "b": 2, "c": 1, "d": 1, "e": 1},  # the middle member differs
        {"a": 1, "d": Fraction(1), "b": Fraction(1), "c": 1, "e": 1},  # 1 == Fraction(1)
        {"a": 1, "b": 1, "c": 1, "z": 1},  # z has no class, after classed terms
        {"d": 2, "a": 1, "e": 2, "b": 1, "c": 1},
        {"d": 2, "a": 1, "e": 3, "b": 1, "c": 1},  # class 1 has two values
        {"d": 2, "a": 1, "e": 2, "c": 1},  # class 0 misses its member b
        {"z": 1, "d": 2, "a": 1, "e": 2, "b": 1, "c": 1},  # z has no label, first
    ],
)
def test_bin_classes_agrees_with_the_reference_on_a_class_of_three(terms):
    class_of = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1}.get
    size = {0: 3, 1: 2}.__getitem__
    got = binned(terms, class_of, size)
    want = reference_bin_classes(terms, class_of, size)
    assert got == want
    if got is not None:
        assert [(k, type(c)) for k, c in got.items()] == [(k, type(c)) for k, c in want.items()]


@pytest.mark.parametrize(
    "terms",
    [
        {"a": 1, "c": 2},  # not constant on class 0
        {"a": 1},  # covers one of the two members of class 0
        {"a": 1, "c": 1, "z": 1},  # z has no class
        {"a": 1, "c": 1, "b": 2, "d": 2, "e": 2},
        {},
    ],
)
def test_bin_classes_agrees_with_the_reference(terms):
    class_of = {"a": 0, "b": 1, "c": 0, "d": 1, "e": 2}.get
    size = {0: 2, 1: 2, 2: 1}.__getitem__
    got = binned(terms, class_of, size)
    want = reference_bin_classes(terms, class_of, size)
    assert got == want and (got is None or list(got) == list(want))


EXTERNAL_DEGREES = [(p, q) for p in range(5) for q in range(5 - p)]


@pytest.mark.parametrize("p,q", EXTERNAL_DEGREES)
def test_external_product_equals_the_compose_product_on_every_pair(p, q):
    for u in group_elements("B", p):
        for v in group_elements("B", q):
            a, b = AlgElem.monomial("B", p, u), AlgElem.monomial("B", q, v)
            got = external_product(a, b)
            assert (got.group, got.n) == ("B", p + q)
            assert list(got.terms.items()) == list(reference_external_product(a, b).items())


@pytest.mark.parametrize("p,q", [(1, 2), (2, 1), (2, 2), (1, 3)])
def test_external_product_of_sums_keeps_order_and_values(p, q):
    rng = random.Random(p * 10 + q)
    coeffs = [-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2)]

    def sample(n):
        return AlgElem("B", n, {w: rng.choice(coeffs) for w in group_elements("B", n)})

    a, b = sample(p), sample(q)
    for x, y in ((a, b), (b, a)):
        got = external_product(x, y)
        want = reference_external_product(x, y)
        assert list(got.terms.items()) == list(want.items())
        assert [type(c) for c in got.terms.values()] == [type(c) for c in want.values()]
