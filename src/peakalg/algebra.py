"""Sparse exact linear algebra over the group algebras QS_n, QB_n, QD_n.

Elements are stored as dictionaries from one-line signed permutations to
exact rational coefficients (Python ints and fractions.Fraction mix
freely; zero coefficients are never stored).  No floating point is used
anywhere.

Span, rank, membership and determinant questions go through one sparse
elimination on integers, Echelon: fraction-free, content-divided, pivot at
the least key, rows taken in the order given (so pivots and coordinates
are reproducible).  Fraction appears only at the exits, in
SpanSolver.coords and exact_det.

Every algebra of the package is the span of the class sums of a partition
of one group (by descent set, peak set, signed composition, or a count of
one of these).  ClassAlgebra is that construction, once: class binning
for coordinates, the structure cube of the class sums, products on
coordinates, multiplication tables and saturation ranks.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from fractions import Fraction
from functools import cached_property
from itertools import combinations, repeat
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm, prod

from .perms import (
    GROUPS,
    Frozen,
    Perm,
    byte_decoder,
    byte_products,
    byte_tables,
    byte_words,
    group_elements,
    identity,
    in_group,
    inverse_tables,
)
from .reporting import CheckFailure


class NotInSpan:
    """Falsy sentinel returned by express_in_span for non-members."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self):
        return False

    def __repr__(self):
        return "NotInSpan"


NOT_IN_SPAN = NotInSpan()


class AlgElem:
    """A finitely supported rational linear combination of group elements
    of one fixed group and rank."""

    __slots__ = ("group", "n", "terms")

    def __init__(self, group: str, n: int, terms=None):
        if group not in GROUPS:
            raise ValueError(f"unknown group {group!r}")
        self.group = group
        self.n = n
        clean = {}
        for w, c in dict(terms or {}).items():
            if c == 0:
                continue
            w = tuple(w)
            if not (len(w) == n and in_group(w, group)):
                raise ValueError(f"{w} is not in {group}_{n}")
            clean[w] = c
        self.terms = clean

    @classmethod
    def _raw(cls, group: str, n: int, terms: dict) -> "AlgElem":
        """Construct without validation; terms must already be clean."""
        self = object.__new__(cls)
        self.group = group
        self.n = n
        self.terms = terms
        return self

    @classmethod
    def zero(cls, group: str, n: int) -> "AlgElem":
        return cls._raw(group, n, {})

    @classmethod
    def unit(cls, group: str, n: int) -> "AlgElem":
        return cls._raw(group, n, {identity(n): 1})

    @classmethod
    def monomial(cls, group: str, n: int, w: Perm, coeff=1) -> "AlgElem":
        return cls(group, n, {tuple(w): coeff})

    @classmethod
    def class_sum(cls, group: str, n: int, elems) -> "AlgElem":
        return cls._raw(group, n, {tuple(w): 1 for w in elems})

    # -- ring/vector structure ------------------------------------------

    def _same_frame(self, other: "AlgElem"):
        if (self.group, self.n) != (other.group, other.n):
            raise ValueError(
                f"mixed ambient groups: {self.group}_{self.n} vs {other.group}_{other.n}"
            )

    def __add__(self, other: "AlgElem") -> "AlgElem":
        self._same_frame(other)
        out = dict(self.terms)
        add_multiple(out, 1, other.terms)
        return AlgElem._raw(self.group, self.n, out)

    def __sub__(self, other: "AlgElem") -> "AlgElem":
        return self + (-other)

    def __neg__(self) -> "AlgElem":
        return AlgElem._raw(self.group, self.n, {w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "AlgElem":
        if c == 0:
            return AlgElem.zero(self.group, self.n)
        return AlgElem._raw(self.group, self.n, {w: c * x for w, x in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, AlgElem):
            return internal_product(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgElem)
            and (self.group, self.n) == (other.group, other.n)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.group, self.n, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def support(self):
        return self.terms.keys()

    def coeff(self, w: Perm):
        return self.terms.get(tuple(w), 0)

    def __repr__(self):
        if not self.terms:
            return f"AlgElem({self.group}_{self.n}: 0)"
        bits = []
        for w in sorted(self.terms):
            c = self.terms[w]
            word = ",".join(map(str, w)) if w else "()"
            bits.append(f"{c}*({word})")
        return f"AlgElem({self.group}_{self.n}: " + " + ".join(bits) + ")"


def linear_combine(pairs) -> AlgElem:
    """Sum of coeff * elem over (coeff, elem) pairs sharing one group."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("linear_combine of nothing: ambient group unknown")
    first = pairs[0][1]
    out = {}
    for c, elem in pairs:
        first._same_frame(elem)
        if c != 0:
            add_multiple(out, c, elem.terms)
    return AlgElem._raw(first.group, first.n, out)


def internal_product(a: AlgElem, b: AlgElem) -> AlgElem:
    """Bilinear extension of the group product (convolution), keyed by
    byte products and each distinct product decoded once."""
    a._same_frame(b)
    words, tables = byte_words(b.terms, b.n), byte_tables(byte_words(a.terms, a.n), a.n)
    # the inner loop runs over the smaller support
    a_inner = len(a.terms) <= len(b.terms)
    outer, inner = (b.terms, a.terms) if a_inner else (a.terms, b.terms)
    products, out = byte_products(words, tables, tables_outer=not a_inner), {}
    for c_out in outer.values():
        for c_in, key in zip(inner.values(), products):
            s = out.get(key, 0) + c_in * c_out
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return AlgElem._raw(a.group, a.n, dict(zip(map(byte_decoder(a.n), out), out.values())))


def push_forward(f, a: AlgElem, *, group: str | None = None) -> AlgElem:
    """Apply the linear extension of an element map w -> f(w) of the same
    rank; collisions accumulate."""
    out_group = group or a.group
    out = {}
    for w, c in a.terms.items():
        fw = f(w)
        s = out.get(fw, 0) + c
        if s == 0:
            out.pop(fw, None)
        else:
            out[fw] = s
    for fw in out:
        if not (len(fw) == a.n and in_group(fw, out_group)):
            raise ValueError(f"image {fw} is not in {out_group}_{a.n}")
    return AlgElem._raw(out_group, a.n, out)


# ---------------------------------------------------------------------------
# spans


class CoordVector(Frozen):
    """Exact coordinates of a vector against an ordered list of basis
    labels (one Fraction-compatible number per label)."""

    __slots__ = ("labels", "coords")

    def __init__(self, labels: tuple, coords: tuple):
        self._set(labels, coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def nonzero(self):
        return {lab: c for lab, c in zip(self.labels, self.coords) if c != 0}


def add_multiple(vec: dict, c, row: dict):
    """vec += c * row in place, dropping the entries that cancel."""
    for k, x in row.items():
        s = vec.get(k, 0) + c * x
        if s == 0:
            vec.pop(k, None)
        else:
            vec[k] = s


def integer_row(row: dict) -> tuple:
    """(d * row on ints, d), d the lcm of the denominators; zeros dropped."""
    d = lcm(*(v.denominator for v in row.values()))
    return {k: (v * d).numerator for k, v in row.items() if v}, d


class Echelon:
    """Incremental echelon form of sparse rows (dicts), on integers: the
    kept row with pivot entry a clears the entry c of a row (and of the
    combination it carries) by (a/g) * row - (c/g) * kept row, g = gcd(a, c).
    Kept rows are primitive, with a positive entry at the least key."""

    def __init__(self, rows=()):
        self.pivots = []  # (pivot key, primitive row, its combination)
        for row in rows:
            self.add(row)

    def reduce(self, vec: dict, combo: dict):
        """Clear the pivot keys of the integer row vec, and carry combo along, in place."""
        for key, pvec, pcombo in self.pivots:
            c = vec.get(key)
            if not c:
                continue
            if (a := pvec[key]) != 1:
                g = gcd(a, c)
                a, c = a // g, c // g
                for part in (vec, combo):
                    for k in part:
                        part[k] *= a
            add_multiple(vec, -c, pvec)
            add_multiple(combo, -c, pcombo)

    def add(self, row: dict, combo: dict | None = None) -> bool:
        """Reduce row against the span and keep it; True if the rank grew."""
        vec, d = integer_row(row)
        combo = {i: c * d for i, c in (combo or {}).items()}
        self.reduce(vec, combo)
        if not vec:
            return False
        key = min(vec)
        content = gcd(*vec.values(), *combo.values()) * (1 if vec[key] > 0 else -1)
        if content != 1:
            vec = {k: v // content for k, v in vec.items()}
            combo = {i: c // content for i, c in combo.items()}
        self.pivots.append((key, vec, combo))
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


class SpanSolver(Echelon):
    """Echelon form of a list of AlgElems, with bookkeeping to express
    members of the span in the original list."""

    def __init__(self, basis, labels=None):
        super().__init__()
        basis = list(basis)
        self.labels = tuple(range(len(basis)) if labels is None else labels)
        if len({(b.group, b.n) for b in basis}) > 1:
            raise ValueError("mixed ambient groups in span")
        self.size = len(basis)
        for idx, b in enumerate(basis):
            self.add(b.terms, {idx: 1})

    def coords(self, target: AlgElem):
        """CoordVector of target over the original basis, or NOT_IN_SPAN.
        The combination carries the multiple m of target under the key size,
        and the coordinates are divided by m on exit."""
        vec, d = integer_row(target.terms)
        combo = {self.size: d}
        self.reduce(vec, combo)
        if vec:
            return NOT_IN_SPAN
        m, get = combo.pop(self.size), combo.get
        return CoordVector(self.labels, tuple(Fraction(-get(i, 0), m) for i in range(self.size)))


def express_in_span(target: AlgElem, basis, labels=None):
    """Solve target = sum of coords * basis exactly over the rationals.
    Returns a CoordVector, or the NOT_IN_SPAN sentinel."""
    return SpanSolver(basis, labels).coords(target)


def span_rank(elems) -> int:
    return SpanSolver(elems).rank


def exact_det(rows) -> Fraction:
    """Determinant of a square matrix of rationals, off its echelon form:
    with row i entered as {i: 1}, at full rank the kept rows are triangular
    in pivot-column order, and kept row i is combo[i] * row i plus earlier
    rows, so the determinant is the signed product of pivot / combo[i]."""
    rows = [dict(enumerate(row)) for row in rows]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    span = Echelon()
    for i, row in enumerate(rows):
        span.add(row, {i: 1})
    if span.rank < len(rows):
        return Fraction(0)
    sign = Fraction((-1) ** sum(a[0] > b[0] for a, b in combinations(span.pivots, 2)))
    return prod((Fraction(r[k], c[i]) for i, (k, r, c) in enumerate(span.pivots)), start=sign)


# ---------------------------------------------------------------------------
# class-partition algebras


def bin_classes(labels, values, size):
    """Class binning in one pass, given the label (None for a term outside
    the group) and the value of each term in turn: the value per class, as a
    dict in order of first appearance with the first value seen in each
    class, or None unless every term has a class, and the values are
    constant on each class they touch and cover all size(class) members."""
    tally = Counter(zip(labels, values))  # (label, value) -> its terms
    coords = {lab: c for lab, c in tally}
    constant = None not in coords and len(coords) == len(tally)
    return coords if constant and all(k == size(lab) for (lab, _), k in tally.items()) else None


class ClassAlgebra:
    """The span of the class sums of a partition of one group.

    key maps a group element to its class label and labels lists every
    class in table order; classes, when given, is the partition already
    binned (label -> members), and key is then not called.  The group is
    bound on first use, by classes and sizes, as byte words (perms.byte_word)
    that element and basis decode.  Coordinates are {label: coefficient}
    dicts; the class sums have disjoint supports, so binning reads them off
    exactly.  text maps a label to its text in table headers and witnesses
    (a set as {...}, a count as y_j, a composition as a tuple).  A coarsening
    (see coarsen) keeps its parent, its fibres (label -> the parent labels
    merged into it) and its fibre map (parent label -> its own label), reads
    its sizes, members and cube from the parent's, reads the label of a byte
    word through the parent's, and translates coordinates to and from the
    parent's by lift and spread.  fibres_over states the same relation
    against any finer partition of the group."""

    def __init__(self, group: str, n: int, key, labels, classes=None, text=str):
        self.group = group
        self.n = n
        self.labels = tuple(labels)
        self.key = key
        self.text = text
        self.partition = classes
        self.parent = self.fibres = self.fibre_of = None
        self._fibres_over: dict = {}  # finer algebra -> fibres_over(finer)

    @cached_property
    def classes(self) -> dict:
        """Label -> the byte words of its members: the parent's merged, the
        partition, or the group binned by key.  ValueError names an unlisted
        or a missing label, and a member of another rank."""
        if self.parent is not None:
            parent = self.parent.classes
            return {g: tuple(w for lab in ls for w in parent[lab]) for g, ls in self.fibres.items()}
        if (classes := self.partition) is None:
            classes = {lab: [] for lab in self.labels}
            for w in group_elements(self.group, self.n):
                if (lab := self.key(w)) not in classes:
                    raise ValueError(f"the element {w} has the label {lab!r}, which is not listed")
                classes[lab].append(w)
        if missing := [lab for lab in self.labels if lab not in classes]:
            raise ValueError(f"the partition has no class for the label {missing[0]!r}")
        return {lab: tuple(byte_words(classes[lab], self.n)) for lab in self.labels}

    @cached_property
    def sizes(self) -> dict:
        """Label -> the size of its class, summed over the fibres of a coarsening."""
        if self.parent is None:
            return {lab: len(ws) for lab, ws in self.classes.items()}
        return {g: sum(map(self.parent.sizes.__getitem__, ls)) for g, ls in self.fibres.items()}

    @cached_property
    def label_of(self) -> dict:
        """Byte word -> the label of its class, held by an algebra with no
        parent only: its coarsenings read it through labels_of."""
        return {w: lab for lab, ws in self.classes.items() for w in ws}

    def labels_of(self, words):
        """The labels of the classes of byte words, lazily, None for one
        outside the group: the enumerated algebra's label_of, read through
        the fibre map of each coarsening on the way down."""
        if self.parent is None:
            return map(self.label_of.get, words)
        return map(self.fibre_of.get, self.parent.labels_of(words))

    @property
    def basis(self) -> list:
        """(label, class sum) pairs in label order."""
        return [(lab, self.element({lab: 1})) for lab in self.labels]

    def coords(self, a: AlgElem):
        """Coordinates of a over the class sums, or None off the span (a
        term outside the group is off it; one of another rank raises)."""
        if (a.group, a.n) != (self.group, self.n):
            raise ValueError(f"element of {a.group}_{a.n} is not in Q{self.group}_{self.n}")
        labels = self.labels_of(byte_words(a.terms, self.n))
        return bin_classes(labels, a.terms.values(), self.sizes.__getitem__)

    def binned(self, a: AlgElem, witness: str) -> dict:
        """coords(a), raising CheckFailure(witness) off the span."""
        coords = self.coords(a)
        if coords is None:
            raise CheckFailure(witness)
        return coords

    def vector(self, a: AlgElem):
        """coords(a) as a list in label order, or None off the span."""
        coords = self.coords(a)
        return None if coords is None else [coords.get(lab, 0) for lab in self.labels]

    def element(self, coords: dict) -> AlgElem:
        """The element with the given coordinates, its members decoded."""
        decode, terms = byte_decoder(self.n), {}
        for lab, c in coords.items():
            if c != 0:
                terms.update(dict.fromkeys(map(decode, self.classes[lab]), c))
        return AlgElem._raw(self.group, self.n, terms)

    def coarsen(self, f, labels=None, text=None) -> "ClassAlgebra":
        """The span of the unions of the classes with equal f(label), in
        the table order labels (sorted images by default), its labels
        written by text (this algebra's by default).  It keeps only its
        fibres, and reads its cube and members from this algebra's."""
        fibres: dict = {}
        for lab in self.labels:
            fibres.setdefault(f(lab), []).append(lab)
        if labels is None:
            labels = sorted(fibres)
        else:
            labels = tuple(labels)
            seen = set()
            for lab in labels:
                if lab not in fibres:
                    raise ValueError(f"no class maps to the label {lab!r}")
                if lab in seen:
                    raise ValueError(f"the label {lab!r} is listed twice")
                seen.add(lab)
            missing = [lab for lab in fibres if lab not in seen]
            if missing:
                raise ValueError(f"the label {missing[0]!r} is not listed")
        coarse = ClassAlgebra(self.group, self.n, None, labels, text=text or self.text)
        coarse.parent = self
        coarse.fibres = {g: tuple(fibres[g]) for g in coarse.labels}
        coarse.fibre_of = {lab: g for g, ls in fibres.items() for lab in ls}
        return coarse

    def fibres_over(self, finer: "ClassAlgebra") -> dict:
        """Label -> the labels of finer whose classes its class unites, in
        finer's label order: the fibres of a coarsening of finer, or else
        each class of finer binned once through labels_of, kept per finer
        algebra (CheckFailure naming a class of finer that meets several)."""
        if finer is self.parent:
            return self.fibres
        if finer not in self._fibres_over:
            fibres: dict = {g: [] for g in self.labels}
            for lab, ws in finer.classes.items():
                owners = set(self.labels_of(ws))
                if len(owners) != 1:
                    raise CheckFailure(f"the class {finer.text(lab)} meets several classes")
                fibres[owners.pop()].append(lab)
            self._fibres_over[finer] = {g: tuple(ls) for g, ls in fibres.items()}
        return self._fibres_over[finer]

    @cached_property
    def cube(self) -> dict:
        """(label, label) -> coordinates of the product of the two class
        sums.  Building it is the closure check: it raises ArithmeticError
        when a product leaves the span, or a cell miscounts its products."""
        if self.parent is None:
            return self._enumerated_cube()
        return self._coarsened_cube()

    def _closure_error(self, l1, l2) -> ArithmeticError:
        return ArithmeticError(f"class sums {l1} * {l2} leave the span in {self.group}_{self.n}")

    def left_rows(self, coords: dict) -> dict:
        """Label b -> the coordinates of x * Y_b (x given by coordinates), or
        None off the span: each class g of x gives g * Y_b, counted on the byte
        kernel and binned on its own, combined by apply_rows."""
        words, class_of, size = self.classes, self.label_of.get, self.sizes.__getitem__
        tables, out = [byte_tables(words[g], self.n) for g in coords], {}
        for b, ws in words.items():
            tallies = [Counter(byte_products(ws, t)) for t in tables]
            cells = [bin_classes(map(class_of, c), c.values(), size) for c in tallies]
            out[b] = None if None in cells else apply_rows(dict(zip(coords, cells)), coords)
        return out

    def _enumerated_cube(self) -> dict:
        """The cube from the group, on the byte kernel, in two steps.  First
        a closure certificate: classes become generators, by size and then
        label order, until the coordinates {g: 1} saturated under their
        rows g * Y_b (left_rows) span every label.  V, the span of the class
        sums, is then generated by them and stable under left multiplication
        by each, so V * V lies in V; a row off the span re-scans the rows in
        label order to name the first cell off it.  A class whose sum already
        lies in the saturated span gets no row: that span is the algebra the
        earlier generators generate, each of which maps V into V, so the
        class sum does too.  Then the cells, in label
        order: Y_a * Y_b has the coefficient #{u in a : u^-1 * w_c in b} on
        c, for w_c the first member of c, and must count |a| * |b| products."""
        words, class_of = self.classes, self.label_of.get
        size, dim, frame = self.sizes.__getitem__, len(self.labels), f"{self.group}_{self.n}"
        rows, span, basis, pending = {}, Echelon(), [], deque()

        def keep(x):  # a new vector of the span waits for each generator's row
            if span.add(x):
                basis.append(x)
                pending.extend((h, x) for h in rows)

        for g in sorted(self.labels, key=size):
            if span.rank == dim:
                break
            span.reduce(vec := {g: 1}, {})
            if not vec:  # g lies in the saturated span, so g * V lies in V
                continue
            rows[g] = self.left_rows({g: 1})
            if None in rows[g].values():
                rescan = ((a, self.left_rows({a: 1})) for a in self.labels)
                a, b = next((a, b) for a, row in rescan for b, c in row.items() if c is None)
                raise self._closure_error(a, b)
            pending.extend((g, x) for x in basis)
            keep({g: 1})
            while pending and span.rank < dim:
                h, x = pending.popleft()
                keep(apply_rows(rows[h], x))
        if span.rank < dim:
            raise ArithmeticError(f"the generators reach rank {span.rank} of {dim} in {frame}")

        cube = {(a, b): {} for a in self.labels for b in self.labels}
        for a, ws in words.items():
            inverses = inverse_tables(ws, self.n)
            for c, first in words.items():
                for b, k in Counter(map(class_of, byte_products(first[:1], inverses))).items():
                    cube.get((a, b), {})[c] = k  # a product outside the group fails the count
        for (a, b), coords in cube.items():
            if (total := sum(k * size(c) for c, k in coords.items())) != size(a) * size(b):
                raise ArithmeticError(f"class sums {a} * {b} count {total} products in {frame}")
        return cube

    def _coarsened_cube(self) -> dict:
        """The cube at label level: the product of two merged class sums is
        the sum of the parent's cells over the two fibres, and, as every
        parent class is non-empty, it lies in the span exactly when that
        sum is constant on every fibre."""
        pairs = pair_fibres(self.fibres, self.fibres)
        return merged_rows(self.parent.cube, pairs, self.fibres, lambda g: self._closure_error(*g))

    def lift(self, parent_coords: dict):
        """The coordinates of a coarsening read from its parent's
        coordinates, or None unless these are constant on every fibre
        (that is, off the span)."""
        return fibre_lift(self.fibres, parent_coords)

    def spread(self, coords: dict) -> dict:
        """The parent's coordinates of the element with the given
        coordinates of a coarsening: each value spread over its fibre."""
        return {lab: c for g, c in coords.items() if c != 0 for lab in self.fibres[g]}

    def product(self, c1: dict, c2: dict) -> dict:
        """Coordinates of the product of two elements given by coordinates."""
        return bilinear(self.cube, c1, c2)

    def table(self, name: str) -> "StructureTable":
        """Multiplication table on the class sums, read from the cube."""
        cube, labels = self.cube, self.labels
        cells = [[tuple(map(cube[l1, l2].get, labels, repeat(0))) for l2 in labels] for l1 in labels]
        return StructureTable(name=name, labels=list(map(self.text, labels)), cells=cells)

    def saturate(self, seeds) -> int:
        """Rank of the algebra generated by the seed coordinates (pass the
        unit among the seeds for the unital one)."""
        span = Echelon()
        basis = [s for s in seeds if span.add(s)]
        frontier = list(basis)
        while frontier:
            new = []
            for f in frontier:
                for b in list(basis):
                    prod = self.product(f, b)
                    if span.add(prod):
                        basis.append(prod)
                        new.append(prod)
            frontier = new
        return span.rank


def fibre_lift(fibres: dict, fine: dict):
    """Coordinates over unions of classes read from coordinates over the
    classes: fibres maps each union's label to the (non-empty) labels it
    unites.  None unless fine is constant on every fibre, that is, unless
    the element lies in the span of the unions."""
    coords = {}
    for g, ls in fibres.items():
        values = {fine.get(lab, 0) for lab in ls}
        if len(values) > 1:
            return None
        c = values.pop()
        if c != 0:
            coords[g] = c
    return coords


def merged_rows(rows: dict, fibres: dict, target: dict, failure) -> dict:
    """The rows of a linear map on unions of classes, read from its rows
    on the classes: the row of a union is the sum of the rows over its
    fibre (fibres: union label -> the labels it unites), read over the
    target fibres by fibre_lift.  The sum lies in the span of the target
    unions exactly when it lifts; failure(label) is raised for the first
    that does not."""
    out = {}
    for g, ls in fibres.items():
        total: dict = {}
        for lab in ls:
            add_multiple(total, 1, rows[lab])
        coords = fibre_lift(target, total)
        if coords is None:
            raise failure(g)
        out[g] = coords
    return out


def pair_fibres(left: dict, right: dict, *prefix) -> dict:
    """The fibres of the pairs of unions, left outer: (*prefix, g1, g2) ->
    the pairs (*prefix, l1, l2) of the labels that g1 and g2 unite."""
    return {
        (*prefix, g1, g2): [(*prefix, l1, l2) for l1 in ls1 for l2 in ls2]
        for g1, ls1 in left.items()
        for g2, ls2 in right.items()
    }


def two_sided_failure(src: ClassAlgebra, ideal: ClassAlgebra, what: tuple):
    """Check that the span of a coarsening ideal is a two-sided ideal of
    src, the parent of ideal or another coarsening of it: each product of a
    class sum of src with one of ideal, on either side, is read on the
    parent's cube and must lift.  Returns the witness of the first product
    that does not, else None: its side and both labels, each class sum
    named by what (a name for those of src, one for those of ideal) and
    written by its algebra's text."""
    parent, (name, ideal_name) = ideal.parent, what
    for lab in src.labels:
        row = {lab: 1} if src is parent else src.spread({lab: 1})
        for g in ideal.labels:
            member = ideal.spread({g: 1})
            for side, prod in (
                ("left", parent.product(row, member)),
                ("right", parent.product(member, row)),
            ):
                if ideal.lift(prod) is None:
                    return (
                        f"{side} product {name}_{src.text(lab)} with {ideal_name}_"
                        f"{ideal.text(g)} leaves the ideal at n={src.n}"
                    )
    return None


# (map, source, target) -> the rows of the map, for the life of the process
ROW_TABLES: dict = {}


def class_images(f, src: ClassAlgebra, dst: ClassAlgebra, what: str) -> dict:
    """The rows of a linear map f from src to dst: label -> coordinates over
    dst of the image of the class sum of src, tallied or mapped once per (f,
    src, dst) by element_rows and kept in ROW_TABLES.  A map with an image off
    the span raises there, naming this caller's what, and stores nothing.
    The table is shared: no caller may change it."""
    key = (f, src, dst)
    if key not in ROW_TABLES:
        ROW_TABLES[key] = element_rows(f, src, dst, what)
    return ROW_TABLES[key]


def element_rows(f, src: ClassAlgebra, dst: ClassAlgebra, what: str) -> dict:
    """The rows of f, binned, so building them checks that f lands in dst
    (CheckFailure naming the class otherwise; an image outside the group of
    dst has no label).  An element map with a tally (byte words of members,
    rank -> byte word of image -> multiplicity) counts the images of the
    members of each class; any other f is applied to each class sum."""
    tally, rows = getattr(f, "tally", None), {}
    for lab, ws in src.classes.items():
        if tally:
            images = tally(ws, src.n)
            rows[lab] = bin_classes(dst.labels_of(images), images.values(), dst.sizes.get)
        else:
            rows[lab] = dst.coords(f(src.element({lab: 1})))
        if rows[lab] is None:
            raise CheckFailure(leaves_span(what, src.text(lab)))
    return rows


def leaves_span(what: str, text: str) -> str:
    """The witness of a map whose image of the class written text leaves the span."""
    return f"{what} of the class {text} leaves the span"


def apply_rows(rows: dict, coords: dict) -> dict:
    """The linear map given on class sums by rows, applied to coordinates."""
    out: dict = {}
    for lab, c in coords.items():
        add_multiple(out, c, rows[lab])
    return out


def bilinear(cells: dict, x: dict, y: dict) -> dict:
    """The bilinear map with cells (l1, l2) -> coordinates, on coordinates."""
    out: dict = {}
    for l1, a in x.items():
        for l2, b in y.items():
            add_multiple(out, a * b, cells[l1, l2])
    return out


def packed_rows(rows: dict, packed: dict) -> dict:
    """apply_rows on packed ints (perms.packer): label -> the combination
    of the packed vectors that its row weighs."""
    return {lab: sum(c * packed[k] for k, c in row.items()) for lab, row in rows.items()}


def first_unequal(sides):
    """The first key of the (key, left, right) triples whose two sides
    differ, or None; the triples are made one at a time."""
    return next((key for key, left, right in sides if left != right), None)


class StructureTable:
    """Multiplication table of a finite-dimensional algebra on an ordered
    spanning set: cells[i][j] holds the integer coordinates of
    basis_i * basis_j; blocks optionally partitions the labels for display."""

    __slots__ = ("name", "labels", "cells", "blocks")

    def __init__(self, name: str, labels: list, cells: list, blocks: tuple = ()):
        self.name, self.labels, self.cells, self.blocks = name, labels, cells, blocks

    def cell(self, i: int, j: int) -> tuple:
        return self.cells[i][j]

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([self.name] + list(self.labels))
        for lab, row in zip(self.labels, self.cells):
            writer.writerow([lab] + ["(" + ",".join(map(str, c)) + ")" for c in row])
        return buf.getvalue()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "labels": list(self.labels),
            "cells": [[list(map(str, cell)) for cell in row] for row in self.cells],
        }

    def json_text(self) -> str:
        """json.dumps(self.to_json(), indent=2) in one pass: each string
        quoted as json quotes it, each distinct cell written once."""
        written = {}
        rows = []
        for row in self.cells:
            texts = []
            for c in row:
                text = written.get(c)
                if text is None:
                    text = written[c] = _json_array([_quote(str(x)) for x in c], "      ")
                texts.append(text)
            rows.append(_json_array(texts, "    "))
        labels = _json_array([_quote(lab) for lab in self.labels], "  ")
        return (
            f'{{\n  "name": {_quote(self.name)},\n  "labels": {labels},\n'
            f'  "cells": {_json_array(rows, "  ")}\n}}'
        )

    def pretty(self) -> str:
        cols = [self.name] + list(self.labels)
        rows = [cols]
        for lab, row in zip(self.labels, self.cells):
            rows.append([lab] + ["(" + ",".join(map(str, c)) + ")" for c in row])
        widths = [max(len(str(r[i])) for r in rows) for i in range(len(cols))]
        lines = []
        for r in rows:
            lines.append("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# serialization

def _json_array(items: list, pad: str) -> str:
    """A JSON array of written items, laid out as indent=2 lays it out at
    the depth whose indentation is pad."""
    if not items:
        return "[]"
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


def coeff_from_str(s: str):
    """The exact coefficient of an integer or a "p/q" string; ValueError
    names a malformed one and one with a zero denominator."""
    try:
        frac = Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {s!r} has a zero denominator") from None
    return int(frac) if frac.denominator == 1 else frac


def elem_to_json(a: AlgElem) -> dict:
    return {
        "group": a.group,
        "n": a.n,
        "terms": [{"perm": list(w), "coeff": str(Fraction(c))} for w, c in sorted(a.terms.items())],
    }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def elem_from_json(data) -> AlgElem:
    """The element of a JSON object {"group", "n", "terms"}; each term is
    {"perm": [ints], "coeff": an integer or an exact "p/q" string}.
    Raises ValueError naming the first defect."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError(f"a JSON element must be an object, not {type(data).__name__}")
    for key in ("group", "n", "terms"):
        if key not in data:
            raise ValueError(f"JSON element has no {key!r}")
    n, items = data["n"], data["terms"]
    if not (_is_int(n) and n >= 0):
        raise ValueError(f"'n' must be a non-negative integer, not {n!r}")
    if not isinstance(items, list):
        raise ValueError(f"'terms' must be a list, not {type(items).__name__}")
    terms = {}
    for item in items:
        if not (isinstance(item, dict) and "perm" in item and "coeff" in item):
            raise ValueError(f"term {item!r} needs a 'perm' and a 'coeff'")
        perm, coeff = item["perm"], item["coeff"]
        if not (isinstance(perm, list) and all(_is_int(x) for x in perm)):
            raise ValueError(f"perm {perm!r} is not a list of integers")
        if not (_is_int(coeff) or isinstance(coeff, str)):
            raise ValueError(f'coefficient {coeff!r} must be an integer or an exact "p/q" string')
        w = tuple(perm)
        if w in terms:
            raise ValueError(f"duplicate term {w}")
        terms[w] = coeff_from_str(coeff)
    return AlgElem(data["group"], n, terms)
