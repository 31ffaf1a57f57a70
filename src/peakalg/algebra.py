"""Sparse exact linear algebra over the group algebras QS_n, QB_n, QD_n.

Elements are stored as dictionaries from one-line signed permutations to
exact rational coefficients (Python ints and fractions.Fraction mix
freely; zero coefficients are never stored).  No floating point is used
anywhere.

Span and membership questions are answered by exact sparse Gaussian
elimination with a fixed pivot rule: the pivot of a reduced vector is its
lexicographically least support key, and candidate vectors are processed
in the order given.  This makes every coordinate vector reproducible.

Every algebra of the package is the span of the class sums of a partition
of one group (by descent set, peak set, signed composition, or a count of
one of these).  ClassAlgebra is that construction, once: class binning
for coordinates, the structure cube of the class sums, products on
coordinates, multiplication tables and saturation ranks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .perms import GROUPS, Perm, compose, group_elements, identity, in_group
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

    def __init__(self, group: str, n: int, terms=None, *, validate: bool = True):
        if group not in GROUPS:
            raise ValueError(f"unknown group {group!r}")
        self.group = group
        self.n = n
        clean = {}
        for w, c in dict(terms or {}).items():
            if c == 0:
                continue
            w = tuple(w)
            if validate and not (len(w) == n and in_group(w, group)):
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
        for w, c in other.terms.items():
            s = out.get(w, 0) + c
            if s == 0:
                out.pop(w, None)
            else:
                out[w] = s
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

    def map_support(self, f, *, group=None, n=None) -> "AlgElem":
        """Linear pushforward along an element map; collisions accumulate."""
        out_group = group or self.group
        out_n = self.n if n is None else n
        out = {}
        for w, c in self.terms.items():
            fw = f(w)
            s = out.get(fw, 0) + c
            if s == 0:
                out.pop(fw, None)
            else:
                out[fw] = s
        for fw in out:
            if not (len(fw) == out_n and in_group(fw, out_group)):
                raise ValueError(f"image {fw} is not in {out_group}_{out_n}")
        return AlgElem._raw(out_group, out_n, out)

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
    """Bilinear extension of the group product (convolution)."""
    a._same_frame(b)
    out = {}
    # convolve the smaller support against the larger
    if len(a.terms) <= len(b.terms):
        for v, cv in b.terms.items():
            for w, cw in a.terms.items():
                key = compose(w, v)
                s = out.get(key, 0) + cw * cv
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
    else:
        for w, cw in a.terms.items():
            for v, cv in b.terms.items():
                key = compose(w, v)
                s = out.get(key, 0) + cw * cv
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
    return AlgElem._raw(a.group, a.n, out)


def push_forward(f, a: AlgElem, *, group: str | None = None, n: int | None = None) -> AlgElem:
    """Apply the linear extension of an element map w -> f(w)."""
    return a.map_support(f, group=group, n=n)


# ---------------------------------------------------------------------------
# spans


@dataclass(frozen=True)
class CoordVector:
    """Exact coordinates of a vector against an ordered list of basis
    labels (one Fraction-compatible number per label)."""

    labels: tuple
    coords: tuple

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


class Echelon:
    """Incremental echelon form of sparse rational rows (dicts).  The pivot
    of a reduced row is its least key; a row may carry a combination dict
    that is reduced alongside it."""

    def __init__(self, rows=()):
        self.pivots = []  # (pivot key, normalized row, normalized combination)
        for row in rows:
            self.add(row)

    def reduce(self, vec: dict, combo: dict | None = None):
        for key, pvec, pcombo in self.pivots:
            c = vec.get(key)
            if not c:
                continue
            add_multiple(vec, -c, pvec)
            if combo is not None:
                add_multiple(combo, -c, pcombo)

    def add(self, row: dict, combo: dict | None = None) -> bool:
        """Reduce row against the span and keep it; True if the rank grew."""
        vec = {k: v for k, v in row.items() if v != 0}
        self.reduce(vec, combo)
        if not vec:
            return False
        key = min(vec)
        inv = Fraction(1) / Fraction(vec[key])
        scaled = {k: inv * v for k, v in vec.items()}
        self.pivots.append((key, scaled, {i: inv * c for i, c in (combo or {}).items()}))
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
        if labels is None:
            labels = tuple(range(len(basis)))
        self.labels = tuple(labels)
        if basis:
            frame = (basis[0].group, basis[0].n)
            for b in basis:
                if (b.group, b.n) != frame:
                    raise ValueError("mixed ambient groups in span")
        self.size = len(basis)
        for idx, b in enumerate(basis):
            self.add(b.terms, {idx: Fraction(1)})

    def coords(self, target: AlgElem):
        """CoordVector of target over the original basis, or NOT_IN_SPAN."""
        vec = dict(target.terms)
        combo: dict = {}
        self.reduce(vec, combo)
        if vec:
            return NOT_IN_SPAN
        out = [Fraction(0)] * self.size
        for i, c in combo.items():
            out[i] = -c
        return CoordVector(self.labels, tuple(out))


def express_in_span(target: AlgElem, basis, labels=None):
    """Solve target = sum of coords * basis exactly over the rationals.
    Returns a CoordVector, or the NOT_IN_SPAN sentinel."""
    return SpanSolver(basis, labels).coords(target)


def span_rank(elems) -> int:
    elems = list(elems)
    if not elems:
        return 0
    return SpanSolver(elems).rank


def exact_det(rows) -> Fraction:
    """Determinant of a square matrix of rationals, by exact elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("matrix is not square")
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, size):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


# ---------------------------------------------------------------------------
# class-partition algebras


def bin_classes(terms: dict, class_of, size):
    """Class binning: the coefficients of terms per class, as a dict in
    order of first appearance, or None unless every term has a class
    (class_of gives None for a term outside the group), and terms is
    constant on each class it touches and covers all size(class) members
    of it."""
    seen: dict = {}
    for w, c in terms.items():
        k = class_of(w)
        if k is None:
            return None
        prev = seen.get(k)
        if prev is None:
            seen[k] = [c, 1]
        elif prev[0] == c:
            prev[1] += 1
        else:
            return None
    for k, (c, count) in seen.items():
        if count != size(k):
            return None
    return {k: c for k, (c, _) in seen.items()}


class ClassAlgebra:
    """The span of the class sums of a partition of one group.

    key maps a group element to its class label and labels lists every
    class in table order; classes, when given, is the partition already
    binned (label -> members), and key is then not called.  Coordinates
    are {label: coefficient} dicts; the class sums have disjoint supports,
    so binning reads them off exactly.  A coarsening (see coarsen) keeps
    its parent, its fibres (label -> the parent labels merged into it) and
    its fibre map (parent label -> its own label), reads its structure
    cube from the parent's, reads the label of an element through the
    parent's, and translates coordinates to and from the parent's by lift
    and spread."""

    def __init__(self, group: str, n: int, key, labels, classes=None):
        self.group = group
        self.n = n
        self.labels = tuple(labels)
        if classes is None:
            classes = {lab: [] for lab in self.labels}
            for w in group_elements(group, n):
                classes[key(w)].append(w)
        self.classes = {lab: tuple(classes[lab]) for lab in self.labels}
        self.sizes = {lab: len(ws) for lab, ws in self.classes.items()}
        self.parent = None
        self.fibres = None
        self.fibre_of = None

    @cached_property
    def label_of(self) -> dict:
        """Group element -> the label of its class, held by an algebra
        with no parent only: its coarsenings read it through class_of."""
        return {w: lab for lab, ws in self.classes.items() for w in ws}

    @cached_property
    def class_of(self):
        """The label of the class of a group element, or None for a term
        outside the group: the enumerated algebra's label_of, read through
        the fibre map of each coarsening on the way down."""
        if self.parent is None:
            return self.label_of.get
        parent_of, fibre_of = self.parent.class_of, self.fibre_of.get
        return lambda w: fibre_of(parent_of(w))

    @property
    def basis(self) -> list:
        """(label, class sum) pairs in label order."""
        return [
            (lab, AlgElem.class_sum(self.group, self.n, ws)) for lab, ws in self.classes.items()
        ]

    def coords(self, a: AlgElem):
        """Coordinates of a over the class sums, or None off the span (a
        term outside the group is off it)."""
        if (a.group, a.n) != (self.group, self.n):
            raise ValueError(f"element of {a.group}_{a.n} is not in Q{self.group}_{self.n}")
        return bin_classes(a.terms, self.class_of, self.sizes.__getitem__)

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
        """The element with the given coordinates."""
        terms = {}
        for lab, c in coords.items():
            if c != 0:
                for w in self.classes[lab]:
                    terms[w] = c
        return AlgElem._raw(self.group, self.n, terms)

    def coarsen(self, f, labels=None) -> "ClassAlgebra":
        """The span of the unions of the classes with equal f(label), in
        the table order labels (sorted images by default).  Its cube is
        read from this algebra's cube, not from the group."""
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
        merged = {g: [w for lab in ls for w in self.classes[lab]] for g, ls in fibres.items()}
        coarse = ClassAlgebra(self.group, self.n, None, labels, merged)
        coarse.parent = self
        coarse.fibres = {g: tuple(fibres[g]) for g in coarse.labels}
        coarse.fibre_of = {lab: g for g, ls in fibres.items() for lab in ls}
        return coarse

    @cached_property
    def cube(self) -> dict:
        """(label, label) -> coordinates of the product of the two class
        sums.  Building it is the closure check: it raises ArithmeticError
        when a product leaves the span."""
        if self.parent is None:
            return self._enumerated_cube()
        return self._coarsened_cube()

    def _closure_error(self, l1, l2) -> ArithmeticError:
        return ArithmeticError(f"class sums {l1} * {l2} leave the span in {self.group}_{self.n}")

    def _enumerated_cube(self) -> dict:
        """The cube by counting compositions of group elements and binning
        each product."""
        class_of = self.class_of
        cube = {}
        for l1, c1 in self.classes.items():
            for l2, c2 in self.classes.items():
                counts: dict = {}
                for v in c2:
                    for w in c1:
                        key = compose(w, v)
                        counts[key] = counts.get(key, 0) + 1
                coords = bin_classes(counts, class_of, self.sizes.__getitem__)
                if coords is None:
                    raise self._closure_error(l1, l2)
                cube[(l1, l2)] = coords
        return cube

    def _coarsened_cube(self) -> dict:
        """The cube at label level: the product of two merged class sums is
        the sum of the parent's cells over the two fibres, and, as every
        parent class is non-empty, it lies in the span exactly when that
        sum is constant on every fibre."""
        fine, fibres = self.parent.cube, self.fibres
        cube = {}
        for g1, ls1 in fibres.items():
            for g2, ls2 in fibres.items():
                total: dict = {}
                for l1 in ls1:
                    for l2 in ls2:
                        add_multiple(total, 1, fine[(l1, l2)])
                coords = self.lift(total)
                if coords is None:
                    raise self._closure_error(g1, g2)
                cube[(g1, g2)] = coords
        return cube

    def lift(self, parent_coords: dict):
        """The coordinates of a coarsening read from its parent's
        coordinates, or None unless these are constant on every fibre
        (that is, off the span)."""
        coords = {}
        for g, ls in self.fibres.items():
            values = {parent_coords.get(lab, 0) for lab in ls}
            if len(values) > 1:
                return None
            c = values.pop()
            if c != 0:
                coords[g] = c
        return coords

    def spread(self, coords: dict) -> dict:
        """The parent's coordinates of the element with the given
        coordinates of a coarsening: each value spread over its fibre."""
        return {lab: c for g, c in coords.items() if c != 0 for lab in self.fibres[g]}

    def product(self, c1: dict, c2: dict) -> dict:
        """Coordinates of the product of two elements given by coordinates."""
        cube = self.cube
        out: dict = {}
        for l1, a in c1.items():
            for l2, b in c2.items():
                if a != 0 and b != 0:
                    add_multiple(out, a * b, cube[(l1, l2)])
        return out

    def table(self, name: str, label_text) -> "StructureTable":
        """Multiplication table on the class sums, read from the cube."""
        cube, labels = self.cube, self.labels
        cells = [
            [tuple(normalize_coord(cube[(l1, l2)].get(lab, 0)) for lab in labels) for l2 in labels]
            for l1 in labels
        ]
        return StructureTable(name=name, labels=list(label_text), cells=cells)

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

    def saturate_ideal(self, seed: dict, algebra_coords) -> int:
        """Rank of the two-sided ideal that the seed generates inside the
        span of algebra_coords."""
        span = Echelon([seed])
        frontier = [seed]
        while frontier:
            new = []
            for f in frontier:
                for g in algebra_coords:
                    for prod in (self.product(f, g), self.product(g, f)):
                        if span.add(prod):
                            new.append(prod)
            frontier = new
        return span.rank


def two_sided_failure(rows: dict, ideal: ClassAlgebra, witness):
    """Check that the span of a coarsening ideal is a two-sided ideal of
    the span of rows (label -> coordinates in the parent of ideal): each
    product of a row with a class sum of ideal, on either side, is read on
    the parent's cube and must lift.  Returns witness(side, row label,
    ideal label) for the first product that does not, else None."""
    parent = ideal.parent
    for lab, row in rows.items():
        for g in ideal.labels:
            member = ideal.spread({g: 1})
            for side, prod in (
                ("left", parent.product(row, member)),
                ("right", parent.product(member, row)),
            ):
                if ideal.lift(prod) is None:
                    return witness(side, lab, g)
    return None


def pair_coords(component: dict, left: ClassAlgebra, right: ClassAlgebra):
    """Coordinates of a tensor component {(u, v): c} over the tensor
    products of the class sums of left and right, or None."""
    left_of, right_of = left.class_of, right.class_of

    def pair_of(uv):
        l1, l2 = left_of(uv[0]), right_of(uv[1])
        return None if l1 is None or l2 is None else (l1, l2)

    return bin_classes(component, pair_of, lambda k: left.sizes[k[0]] * right.sizes[k[1]])


def label_text(lab) -> str:
    """A class label as witness text: compositions as tuples, masks in binary."""
    return str(lab) if isinstance(lab, tuple) else bin(lab)


# (map, source, target) -> the rows of the map, for the life of the process
ROW_TABLES: dict = {}


def class_images(f, src: ClassAlgebra, dst: ClassAlgebra, what: str) -> dict:
    """The rows of a linear map f from src to dst: label -> coordinates
    over dst of f applied to the class sum of src, built once per (f, src,
    dst) by element_rows and kept in ROW_TABLES.  A map with an image off
    the span raises there, naming this caller's what, and stores nothing.
    The table is shared: no caller may change it."""
    key = (f, src, dst)
    if key not in ROW_TABLES:
        ROW_TABLES[key] = element_rows(f, src, dst, what)
    return ROW_TABLES[key]


def element_rows(f, src: ClassAlgebra, dst: ClassAlgebra, what: str) -> dict:
    """The rows of f, each image computed at element level and binned, so
    building them checks that f lands in dst (CheckFailure naming the
    class otherwise)."""
    return {
        lab: dst.binned(f(c), f"{what} of the class {label_text(lab)} leaves the span")
        for lab, c in src.basis
    }


def apply_rows(rows: dict, coords: dict) -> dict:
    """The linear map given on class sums by rows, applied to coordinates."""
    out: dict = {}
    for lab, c in coords.items():
        add_multiple(out, c, rows[lab])
    return out


def normalize_coord(c):
    frac = Fraction(c)
    return int(frac) if frac.denominator == 1 else frac


@dataclass
class StructureTable:
    """Multiplication table of a finite-dimensional algebra on an ordered
    spanning set: cell (i, j) holds the coordinates of basis_i * basis_j."""

    name: str
    labels: list
    cells: list  # cells[i][j] = tuple of coordinates, same order as labels
    blocks: tuple = field(default=())  # optional display partition of labels

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
            "cells": [[[str(Fraction(x)) for x in cell] for cell in row] for row in self.cells],
        }

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

def coeff_to_str(c) -> str:
    return str(Fraction(c))


def coeff_from_str(s: str):
    frac = Fraction(s)
    return int(frac) if frac.denominator == 1 else frac


def elem_to_json(a: AlgElem) -> dict:
    return {
        "group": a.group,
        "n": a.n,
        "terms": [
            {"perm": list(w), "coeff": coeff_to_str(a.terms[w])}
            for w in sorted(a.terms)
        ],
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


def elem_to_json_str(a: AlgElem) -> str:
    return json.dumps(elem_to_json(a), separators=(",", ":"))
