"""Named verification suites behind the command-line front end.

Each suite declares the executable theorem checks of one area as
reporting.Check records and runs none; run_suite runs them through
reporting.run_checks.  Suites take the rank ceiling n_max and a deep flag;
checks whose spec-level cap is lower than n_max stop at their own cap; the
cheap counting checks (Fibonacci dimensions, peak-set realization) always
run to their stated caps, streaming the group and keeping no listing.

Every check is an id, its cases (cheap labels: ranks, (type, rank)
pairs, degree pairs) and a body of one case, declared by _add; a check
with no rank has the one case it reads.  The checks of a map read
its class rows: closed forms against rows applied to class coordinates,
landing and spans through maps.landed and maps.node_span.
"""

from __future__ import annotations

from functools import partial

from .reporting import Check, CheckFailure, VerifyReport, run_checks

ELEMENT_CAP = 5  # element-level exhaustive closed-form checks


def _cap(n_max: int, hard: int) -> int:
    return min(n_max, hard)


def _ranks(lo: int, n_max: int, hard: int) -> range:
    """The ranks lo..min(n_max, hard) of a check, possibly none."""
    return range(lo, _cap(n_max, hard) + 1)


def _add(checks: list, check_id: str, cases, body):
    """Declare the one check check_id, body(case) for each case in order.
    A check over no case checks nothing, so it gets no entry, just as a
    per-rank check gets none beyond its cap."""
    cases = list(cases)
    if cases:
        checks.append(Check(check_id, cases, body))


def _keyed(ranks: dict) -> list:
    """The cases (key, n) for each key of ranks and each of its ranks n, in order."""
    return [(key, n) for key, ns in ranks.items() for n in ns]


def _add_per_rank(checks: list, suite: str, ranks, *named):
    """For each rank n in order, declare body(n) as the check f"{suite}/{name}/n={n}"
    for each (name, body) of named, in the order given."""
    for n in ranks:
        for name, body in named:
            _add(checks, f"{suite}/{name}/n={n}", [n], body)


def _check_multiplicative(f, src, dst, what: str):
    """The linear map f (named what) from the class algebra src to dst is
    multiplicative, read on class coordinates: its rows (the image of
    every class sum, binned in dst, which checks that f lands there)
    applied to each cell of the structure cube of src equal the product
    in dst of the two rows.  The witness names what, the group of src and
    the texts of the first failing pair."""
    from .algebra import apply_rows, class_images

    rows = class_images(f, src, dst, what)
    cube = src.cube
    for l1 in src.labels:
        for l2 in src.labels:
            if apply_rows(rows, cube[(l1, l2)]) != dst.product(rows[l1], rows[l2]):
                pair = f"({src.text(l1)}, {src.text(l2)})"
                raise CheckFailure(f"{what} is not multiplicative at {src.group}_{src.n}, {pair}")


def _check_closed_forms(f, src, dst, what: str, y_form, x_form):
    """The linear map f (named what) from the descent algebra src to the
    class algebra dst matches its closed forms on class rows: the row of
    each Y_J (its image, binned in dst) is y_form(J) binned in dst, and the
    rows applied to the Y-coordinates of each X_J give x_form(J) binned in
    dst.  The witness names the form (Y or X), what, the group of src and
    the text of the first failing J."""
    from .algebra import apply_rows, class_images
    from .bases import x_to_y_coords

    rows, frame = class_images(f, src, dst, what), f"{src.group}_{src.n}"
    for m, row in rows.items():
        if row != dst.coords(y_form(m)):
            raise CheckFailure(f"the Y closed form of {what} fails at {frame}, {src.text(m)}")
    for m in rows:
        if apply_rows(rows, x_to_y_coords({m: 1})) != dst.coords(x_form(m)):
            raise CheckFailure(f"the X closed form of {what} fails at {frame}, {src.text(m)}")


def _check_onto(rows, src, dst, what: str):
    """The linear map with the given rows sends the rows of the node src
    into the node dst (maps.landed) and spans it."""
    from .maps import landed, node_span

    if landed(rows, src, dst, what).rank != node_span(dst).rank:
        raise CheckFailure(f"{what} does not span the {dst.name}")


def _check_associative(group: str, n: int):
    """(uv)w = u(vw) for every triple of the rank-n group, read on the
    table of its products (as indices into the group); a product outside
    the group fails."""
    from . import perms

    elements = perms.group_elements(group, n)
    index = {w: i for i, w in enumerate(elements)}
    table = []
    for u in elements:
        row = [index.get(perms.compose(u, v)) for v in elements]
        if None in row:
            v = elements[row.index(None)]
            raise CheckFailure(f"the product {u} * {v} leaves {group}_{n}")
        table.append(row)
    for u, by_u in zip(elements, table):
        for j, uv in enumerate(by_u):
            left, right = table[uv], [by_u[vw] for vw in table[j]]  # (uv)w, u(vw) for all w
            if left != right:
                k = next(k for k in range(len(left)) if left[k] != right[k])
                raise CheckFailure(f"associativity fails at {u}, {elements[j]}, {elements[k]}")


# ---------------------------------------------------------------------------


def suite_descents(n_max: int, deep: bool = False) -> list:
    from . import bases, perms
    from . import peak as peakmod

    checks = []

    def counts(n):
        for group in [g for g in perms.GROUPS if n <= perms.enum_cap(g)]:
            got, want = sum(1 for _ in perms.iter_group(group, n)), perms.group_order(group, n)
            if got != want:
                raise CheckFailure(f"{group}_{n} has {got} elements, wanted {want}")

    _add(checks, "descents/enumeration-counts", range(0, _cap(n_max, 7) + 1), counts)

    def fib_counts(n):
        if len(perms.sparse_masks(n)) != perms.fibonacci(n):
            raise CheckFailure(f"sparse-set count wrong at n={n}")
        if n >= 1 and len(perms.interior_sparse_masks(n)) != perms.fibonacci(n - 1):
            raise CheckFailure(f"interior sparse-set count wrong at n={n}")

    _add(checks, "descents/fibonacci-counts", range(0, 21), fib_counts)
    bfs_cases = _keyed(
        {
            ctype: _ranks(2 if ctype == "D" else 1, n_max, perms.DEFAULT_BFS_CAP)
            for ctype in ("A", "B", "D")
        }
    )

    def oracle(case):
        ctype, n = case
        for w in perms.group_elements(perms.GROUP_OF_TYPE[ctype], n):
            if perms.descent_mask(w, ctype) != perms.length_descent_mask(w, ctype):
                raise CheckFailure(f"descents disagree with lengths at {ctype}, {w}")

    _add(checks, "descents/length-oracle", bfs_cases, oracle)
    _add(
        checks, "descents/composition-associative-B3", [("B", 3)], lambda c: _check_associative(*c)
    )

    def involutions(n):
        full = (1 << n) - 1
        for w in perms.group_elements("B", n):
            if perms.descent_mask(perms.sigma(w), "B") != full ^ perms.descent_mask(w, "B"):
                raise CheckFailure(f"sign reversal fails to complement descents at {w}")
            if perms.forget_signs(perms.chi_element(w)) != perms.forget_signs(w):
                raise CheckFailure(f"fold changes the underlying permutation at {w}")
        if n >= 2:
            for w in perms.group_elements("D", n):
                if perms.rho_element(perms.rho_element(w)) != w:
                    raise CheckFailure(f"leading flip is not an involution at {w}")

    _add(checks, "descents/sign-maps", _ranks(1, n_max, 4), involutions)

    def peak_realization(n):
        # on the tally of S_n that peaks/dimensions-to-8 reads too: an unrealized set is
        # reported before a mismatch, whose first u a second scan of the masks names
        pairs = peakmod.descent_peak_pairs(n)
        realized = {peaks for _, peaks in pairs}
        empty = [perms.mask_text(m) for m in perms.sparse_masks(n) if m not in realized]
        if empty:
            raise CheckFailure(f"unrealized peak sets at n={n}: {empty}")
        if any(perms.lambda_mask(descents) != peaks for descents, peaks in pairs):
            ws, lam = list(perms.iter_group("S", n)), perms.lambda_mask
            u = next(u for u, d, p in zip(ws, *perms.descent_peak_masks(ws, n)) if lam(d) != p)
            raise CheckFailure(f"peaks differ from collapsed descents at {u}")

    _add(checks, "descents/peak-sets-realized", range(1, 9), peak_realization)

    def partition_and_inverse(case):
        ctype, n = case
        alg = bases.descent_algebra(ctype, n)
        total = sum(len(ws) for ws in alg.classes.values())
        if total != len(perms.group_elements(perms.GROUP_OF_TYPE[ctype], n)):
            raise CheckFailure(f"descent classes do not partition {ctype}_{n}")
        for m, ws in alg.classes.items():
            if not ws:  # an empty class would degrade the Y-basis
                raise CheckFailure(f"unrealized descent set {alg.text(m)} in {ctype}_{n}")
            if bases.y_to_x_coords(bases.x_to_y_coords({m: 1})) != {m: 1}:
                raise CheckFailure(f"X/Y inversion fails at {ctype}, {alg.text(m)}")

    xy_ranks = {"A": (1, 6), "B": (1, ELEMENT_CAP), "D": (2, ELEMENT_CAP)}
    xy_cases = _keyed({ctype: _ranks(lo, n_max, hi) for ctype, (lo, hi) in xy_ranks.items()})
    _add(checks, "descents/partition-and-xy-inverse", xy_cases, partition_and_inverse)

    def closure_table(case):
        ctype, n = case
        table = bases.structure_constants(ctype, n, deep=deep)
        cells = (c for row in table.cells for cell in row for c in cell)
        if not all(isinstance(c, int) and c >= 0 for c in cells):
            raise CheckFailure(f"non-integer or negative constant in {table.name}")

    closure_cases = _keyed(
        {
            ctype: _ranks(lo, n_max, perms.STRUCTURE_CAPS[ctype][deep])
            for ctype, lo in (("A", 1), ("B", 1), ("D", 2))
        }
    )
    _add(checks, "descents/structure-closure", closure_cases, closure_table)
    return checks


def suite_peaks(n_max: int, deep: bool = False) -> list:
    from . import peak as peakmod
    from .perms import fibonacci

    checks = []
    # the theorems at one rank, rank by rank: basis forms, closure by the
    # structure cube, image of the type-B descent algebra, the two-sided
    # ideal on the type-A cube, and the rank-(n-2) quotient
    theorems = (
        ("forms-agree", peakmod._forms_agree, _ranks(1, n_max, 6)),
        ("closure", peakmod.check_closure, _ranks(1, n_max, 6)),
        ("unitriangular-image", peakmod.check_unitriangular, _ranks(1, n_max, 6)),
        ("two-sided-ideal", peakmod.check_two_sided_ideal, _ranks(1, n_max, 5)),
        ("quotient", peakmod.check_quotient, _ranks(2, n_max, 6)),
    )
    for n in _ranks(1, n_max, 6):
        named = [(name, body) for name, body, ranks in theorems if n in ranks]
        _add_per_rank(checks, "peaks", [n], *named)

    def dims(n):
        peak_rank, interior_rank = peakmod.class_sum_ranks(n)
        if peak_rank != fibonacci(n):
            raise CheckFailure(f"peak span rank != f_{n}")
        if interior_rank != fibonacci(n - 1):
            raise CheckFailure(f"interior span rank != f_{n - 1}")

    _add(checks, "peaks/dimensions-to-8", range(1, 9), dims)
    low_ranks = _ranks(2, n_max, 4)

    def pi_multiplicative(n):
        src, dst = peakmod.peak_algebra(n), peakmod.peak_algebra(n - 2)
        _check_multiplicative(peakmod.pi_map, src, dst, "the projection")

    _add(checks, "peaks/projection-multiplicative", low_ranks, pi_multiplicative)

    def noncommutative(n):
        t = peakmod.peak_table(n)
        if t.cell(1, 3) == t.cell(3, 1):
            raise CheckFailure(f"expected noncommutativity witness missing in rank {n}")

    _add(checks, "peaks/noncommutative-witness", [4], noncommutative)
    _add(checks, "peaks/tables-build", low_ranks, peakmod.peak_table)
    return checks


def suite_chi(n_max: int, deep: bool = False) -> list:
    from . import maps
    from .algebra import class_images
    from .bases import descent_algebra

    checks = []
    element_ranks = _ranks(2, n_max, ELEMENT_CAP)
    low_ranks = _ranks(2, n_max, 4)

    def closed_forms(n):
        _check_closed_forms(
            maps.chi,
            descent_algebra("B", n),
            descent_algebra("D", n),
            "the fold",
            lambda m: maps.chi_on_y(n, m),
            lambda m: maps.chi_on_x(n, m),
        )

    _add(checks, "chi/closed-forms", element_ranks, closed_forms)

    def image(n):
        rows = [((m, i), maps.imchi_row(m, i)) for m in range(0, 1 << n, 4) for i in (1, 2, 3)]
        three = maps.Node("three-class span", descent_algebra("D", n), rows)
        r = maps.node_span(three).rank
        if r != 3 << (n - 2):
            raise CheckFailure(f"three-class span rank wrong at n={n}")
        source = maps.Node("type-B descent algebra", descent_algebra("B", n))
        what = f"the fold at n={n}"
        rows = class_images(maps.chi, source.algebra, three.algebra, what)
        _check_onto(rows, source, three, what)
        if len(three.algebra.labels) - r != 1 << (n - 2):
            raise CheckFailure(f"fold image codimension wrong at n={n}")

    _add(checks, "chi/image-three-classes", element_ranks, image)

    def multiplicative(n):
        src, dst = descent_algebra("B", n), descent_algebra("D", n)
        _check_multiplicative(maps.chi, src, dst, "the fold")

    _add(checks, "chi/multiplicative", low_ranks, multiplicative)

    def support_counts(n):
        from .perms import descent_mask, group_elements

        count = sum(
            1
            for w in group_elements("D", n)
            if abs(w[0]) > abs(w[1]) and descent_mask(w, "D") & ~3 == 0
        )
        if len(maps.imchi_basis(n, 0, 2)) != count:
            raise CheckFailure(f"middle-class support count wrong at n={n}")

    _add(checks, "chi/class-support-counts", low_ranks, support_counts)

    for n in range(3, _cap(n_max, ELEMENT_CAP) + 1):
        checks.extend(maps.diagram_checks(maps.bd_triangles(n)))
    return checks


def suite_phi(n_max: int, deep: bool = False) -> list:
    from . import maps
    from .algebra import apply_rows, class_images
    from .bases import canonical_ideal_algebra, descent_algebra, x_to_y_coords
    from .peak import interior_peak_algebra, peak_algebra

    checks = []
    element_ranks = _ranks(1, n_max, ELEMENT_CAP)

    def closed_forms(n):
        _check_closed_forms(
            maps.phi,
            descent_algebra("B", n),
            peak_algebra(n),
            "sign forgetting",
            lambda m: maps.phi_on_y(n, m),
            lambda m: maps.phi_on_x(n, m),
        )

    _add(checks, "phi/closed-forms", element_ranks, closed_forms)

    def ideal_forms(n):
        # X0_J = X_{{0} u J} and Y0_J = Y_{{0} u J} + Y_J
        target = peak_algebra(n)
        rows = class_images(maps.phi, descent_algebra("B", n), target, "sign forgetting")
        text = canonical_ideal_algebra(n).text
        for m in maps.canonical_ideal_labels(n):
            x0 = apply_rows(rows, x_to_y_coords({m | 1: 1}))
            if x0 != target.coords(maps.phi_on_x0(n, m)):
                raise CheckFailure(f"ideal X form fails at n={n}, {text(m)}")
            if apply_rows(rows, {m | 1: 1, m: 1}) != target.coords(maps.phi_on_y0(n, m)):
                raise CheckFailure(f"ideal Y form fails at n={n}, {text(m)}")

    _add(checks, "phi/ideal-closed-forms", element_ranks, ideal_forms)

    def kernel_symmetry(n):
        full = (1 << n) - 1
        for m in range(1 << n):
            if maps.phi_on_y(n, m) != maps.phi_on_y(n, full ^ m):
                text = descent_algebra("B", n).text(m)
                raise CheckFailure(f"complement symmetry fails at n={n}, {text}")

    _add(checks, "phi/complement-symmetry", element_ranks, kernel_symmetry)

    def generator_image(n):
        # the increasing class sum is X_{{0}}
        target = peak_algebra(n)
        rows = class_images(maps.phi, descent_algebra("B", n), target, "sign forgetting")
        want = target.lift(interior_peak_algebra(n).spread({0: 2}))
        if apply_rows(rows, x_to_y_coords({1: 1})) != want:
            raise CheckFailure(f"increasing-class image wrong at n={n}")

    _add(checks, "phi/increasing-class-image", element_ranks, generator_image)

    def multiplicative(case):
        ctype, n = case
        f, src = {"B": maps.phi, "D": maps.psi}[ctype], descent_algebra(ctype, n)
        _check_multiplicative(f, src, descent_algebra("A", n), "sign forgetting")

    mult_cases = _keyed({"B": _ranks(1, n_max, 4), "D": _ranks(2, n_max, 4)})
    _add(checks, "phi/multiplicative", mult_cases, multiplicative)
    return checks


def suite_psi(n_max: int, deep: bool = False) -> list:
    from . import maps
    from .bases import descent_algebra
    from .peak import peak_algebra

    checks = []
    element_ranks = _ranks(2, n_max, ELEMENT_CAP)

    def closed_forms(n):
        _check_closed_forms(
            maps.psi,
            descent_algebra("D", n),
            peak_algebra(n),
            "sign forgetting",
            lambda m: maps.psi_on_y(n, m & ~3, maps.PSI_CASES[m & 3]),
            lambda m: maps.psi_on_x(n, m & ~3, maps.PSI_CASES[m & 3]),
        )

    _add(checks, "psi/closed-forms", element_ranks, closed_forms)

    def fork_equality(n):
        for m in range(0, 1 << n, 4):
            if maps.psi_on_y(n, m, "one") != maps.psi_on_y(n, m, "oneprime"):
                text = descent_algebra("D", n).text(m)
                raise CheckFailure(f"fork images differ at n={n}, {text}")

    _add(checks, "psi/fork-equality", element_ranks, fork_equality)

    def rho_invariance(n):
        from .perms import group_elements

        for w in group_elements("D", n):
            if maps.psi(maps.rho_map(maps.AlgElem.monomial("D", n, w))) != maps.psi(
                maps.AlgElem.monomial("D", n, w)
            ):
                raise CheckFailure(f"leading flip changes the image at {w}")

    _add(checks, "psi/flip-invariance", _ranks(2, n_max, 4), rho_invariance)
    return checks


def suite_ideals(n_max: int, deep: bool = False) -> list:
    from . import maps
    from .algebra import class_images, two_sided_failure
    from .bases import canonical_ideal_algebra, descent_algebra, y_basis
    from .peak import interior_peak_algebra, interior_peak_basis
    from .perms import STRUCTURE_CAPS, fibonacci

    checks = []
    element_ranks = _ranks(2, n_max, ELEMENT_CAP)
    drops = {  # the drop, its source type, its degree and its name
        "beta": (maps.beta_map, "B", 1, "the drop"),
        "gamma": (maps.gamma_map, "D", 2, "the type-D drop"),
    }

    def drop_multiplicative(case):
        drop, n = case
        f, ctype, by, what = drops[drop]
        _check_multiplicative(f, descent_algebra(ctype, n), descent_algebra("B", n - by), what)

    drop_cases = _keyed({"beta": _ranks(2, n_max, 4), "gamma": _ranks(3, n_max, 4)})
    _add(checks, "ideals/drops-multiplicative", drop_cases, drop_multiplicative)

    def canonical_two_sided(n):
        # the canonical ideal is a coarsening of the type-B descent algebra:
        # products with its class sums (canonical Y_J = Y_J + Y_{{0} u J})
        # are read on the type-B cube
        failure = two_sided_failure(
            descent_algebra("B", n), canonical_ideal_algebra(n), ("Y", "canonical Y")
        )
        if failure:
            raise CheckFailure(failure)

    canonical_ranks = _ranks(1, n_max, STRUCTURE_CAPS["B"][deep])
    _add(checks, "ideals/canonical-two-sided", canonical_ranks, canonical_two_sided)

    def kernel_spans(n):
        # the canonical ideal lands in the zero subspace; the drop is onto
        solb, low = descent_algebra("B", n), descent_algebra("B", n - 1)
        rows, what = class_images(maps.beta_map, solb, low, "the drop"), f"the drop at n={n}"
        maps.landed(rows, maps.canonical_ideal_node(n), maps.Node("0", low, []), what)
        _check_onto(rows, maps.Node("SolB", solb), maps.Node("SolB1", low), what)

    _add(checks, "ideals/kernel-of-drop", element_ranks, kernel_spans)

    def images_onto_interior(n):
        interior = maps.coarse_node("interior ideal", interior_peak_algebra(n))
        ker_beta2 = maps.x_span_node("I01", "B", n, [m for m in range(1 << n) if m & 3])
        what = f"sign forgetting at n={n}"
        rows = class_images(maps.phi, descent_algebra("B", n), interior.algebra, what)
        for ideal in (maps.canonical_ideal_node(n), ker_beta2):
            _check_onto(rows, ideal, interior, what)

    _add(checks, "ideals/images-onto-interior", element_ranks, images_onto_interior)

    def no_intermediate_morphism(n):
        if not fibonacci(n - 1) > fibonacci(n - 2):
            raise CheckFailure(f"dimension obstruction fails at n={n}")

    _add(checks, "ideals/dimension-obstruction", range(3, 21), no_intermediate_morphism)

    def left_ideal_failure(n):
        w = y_basis("A", n, 0b10) * interior_peak_basis(n, 0b100)
        if interior_peak_algebra(n).coords(w) is not None:
            raise CheckFailure("expected left-ideal failure witness is in the span")
        # the canonical ideal is likewise not a left ideal upstairs
        from .mr import t_basis

        w = t_basis(n, (1, 1, 1)) * maps.x0_basis(n, 0)
        if canonical_ideal_algebra(n).coords(w) is not None:
            raise CheckFailure("expected type-B left-ideal failure witness is in the span")

    _add(checks, "ideals/left-ideal-failure-witness", [3], left_ideal_failure)
    return checks


def suite_exactseq(n_max: int, deep: bool = False) -> list:
    from . import maps
    from .commutative import sbexact_diagram

    checks = []
    for n in range(3, _cap(n_max, 5) + 1):
        checks.extend(maps.diagram_checks(maps.bexact_diagram(n)))
        checks.extend(maps.diagram_checks(maps.dexact_diagram(n)))
    for n in range(4, _cap(n_max, 6) + 1):
        checks.extend(maps.diagram_checks(sbexact_diagram(n)))
    return checks


def suite_commutative(n_max: int, deep: bool = False) -> list:
    from . import commutative as comm
    from .perms import STRUCTURE_CAPS

    checks = []
    _add_per_rank(
        checks,
        "commutative",
        _ranks(2, n_max, 6),
        ("builders", comm.check_builder_relations),
        ("phi-forms", comm.check_phi_number_forms),
        ("beta-forms", comm.check_beta_number_forms),
        ("pi-forms", comm.check_pi_number_forms),
        ("ker-beta2", comm.check_ker_beta2_on_sol),
        ("dimensions", comm.check_graded_dimensions),
        ("whp-closure", comm.check_whp_closure),
        ("whp-table", comm.whp_table),
    )
    solhat, type_d = _ranks(2, n_max, STRUCTURE_CAPS["B"][deep]), _ranks(2, n_max, ELEMENT_CAP)
    _add_per_rank(checks, "commutative", solhat, ("solhat-closure", comm.check_solhat_closure))
    _add_per_rank(checks, "commutative", type_d, ("type-d-images", comm.check_type_d_numbers))
    _add(checks, "commutative/peak-side-dimensions-to-8", range(2, 9), comm.check_wp_dimensions)

    def loday(case):
        kind, want, what = case
        if comm.loday_witness(kind) != want:
            raise CheckFailure(f"{what} non-containment witness moved")

    witnesses = [("p", (4, "p_1"), "peak-count"), ("pint", (3, "p0_1"), "interior")]
    _add(checks, "commutative/not-in-descent-count-span", witnesses, loday)
    return checks


def suite_mr(n_max: int, deep: bool = False) -> list:
    from . import mr

    checks = []

    def counts(n):
        if len(mr.signed_compositions(n)) != 2 * 3 ** (n - 1):
            raise CheckFailure(f"signed composition count wrong at n={n}")

    _add(checks, "mr/signed-composition-counts", range(1, 9), counts)

    def operators(cap):
        a = (-2, 1, -1, -2, 2, 2, 3)
        if mr.segments(a) != [(-2,), (1,), (-1, -2), (2, 2, 3)]:
            raise CheckFailure("segment decomposition is wrong")
        if mr.underline(a) != (4, 4, 2, 3) or mr.o_comp(a) != (1, 1, 1, 1, 1, 1, 2, 2, 3):
            raise CheckFailure("alternation/flatten operators are wrong")
        if mr.u_comp(a) != (1, 4, 8):
            raise CheckFailure("complement-merge operator is wrong")
        b = (3, -2, -1, -2, 4, 2, -3, 1)
        if mr.tilde(b) != (3, -1, -3, -1, 4, 2, -1, -1, -1, 1):
            raise CheckFailure("segment complement operator is wrong")
        for n in range(1, cap + 1):
            for alpha in mr.signed_compositions(n):
                if mr.tilde(mr.tilde(alpha)) != alpha:
                    raise CheckFailure(f"segment complement is not an involution at {alpha}")

    _add(checks, "mr/operators", [_cap(n_max, 6)], operators)

    def orders(cap):
        if not mr.leq((-2, 1, -3, 2, 5), (-2, 1, -1, -2, 2, 2, 3)):
            raise CheckFailure("refinement order example fails")
        if not mr.preceq((-2, 1, -1, -2, 2, 2, 3), (-2, 1, -3, 2, 1, 1, 3)):
            raise CheckFailure("flipped order example fails")
        for n in range(1, cap + 1):
            comps = mr.signed_compositions(n)
            for rel in (mr.leq, mr.preceq):
                # each pair decided once, its up-set kept in order (dict keys)
                ups = {a: dict.fromkeys(b for b in comps if rel(a, b)) for a in comps}
                for a in comps:
                    if a not in ups[a]:
                        raise CheckFailure(f"order not reflexive at {a}")
                for a in comps:
                    for b in ups[a]:
                        if a != b and a in ups[b]:
                            raise CheckFailure(f"order not antisymmetric at {a}, {b}")
                        for c in ups[b]:
                            if c not in ups[a]:
                                raise CheckFailure(f"order not transitive at {a}, {b}, {c}")

    _add(checks, "mr/order-axioms", [_cap(n_max, 4)], orders)

    def recovery(w):
        if mr.mr_class_of(w) != (-1, 2, 2, -1, -2):
            raise CheckFailure("class recovery example fails")

    _add(checks, "mr/class-recovery", [(-3, 4, 6, 1, 7, -5, -2, -8)], recovery)

    element_ranks = _ranks(1, n_max, ELEMENT_CAP)
    _add_per_rank(checks, "mr", element_ranks, ("partition", mr.check_t_partition))
    _add_per_rank(checks, "mr", _ranks(1, n_max, 4), ("order-sums", mr.check_order_sums))
    closure_ranks = _ranks(1, n_max, 4 if deep else 3)
    _add_per_rank(checks, "mr", closure_ranks, ("closure", mr.check_omega_closure))
    phi = ("phi-images", mr.check_phi_images), ("phi-onto", mr.check_phi_onto_descent_algebra)
    _add_per_rank(checks, "mr", element_ranks, *phi)

    def key_products(n):
        failure = mr.bstilde_failure(n)
        if failure is not None:
            raise CheckFailure(failure[1])

    _add(checks, "mr/increasing-class-products", element_ranks, key_products)
    return checks


def suite_theta(n_max: int, deep: bool = False) -> list:
    from . import hopf, maps, mr
    from .algebra import apply_rows, class_images, first_unequal, packed_rows
    from .bases import descent_algebra, x_to_y_coords
    from .peak import interior_peak_algebra, peak_algebra
    from .perms import packer

    checks = []
    element_ranks = _ranks(1, n_max, ELEMENT_CAP)
    interior_ranks = _ranks(2, n_max, ELEMENT_CAP)

    def type_b_form(n):
        # the identity of mr/increasing-class-products, read from its result
        failure = mr.bstilde_failure(n)
        if failure is not None:
            raise CheckFailure(f"type-B transform value wrong at {failure[0]}")

    _add(checks, "theta/type-b-values", element_ranks, type_b_form)

    def type_a_form(n):
        # on the cached rows of the transform over the type-A descent
        # classes: theta(X_J) is the closed form of phi(X0_J)
        rows, alg = hopf.transform_coords("SolA", n), descent_algebra("A", n)
        for mask in rows:
            if apply_rows(rows, x_to_y_coords({mask: 1})) != alg.coords(maps.phi_on_x0(n, mask)):
                raise CheckFailure(f"transform value wrong at {alg.text(mask)}")

    _add(checks, "theta/type-a-values", element_ranks, type_a_form)

    def square(n):
        # on the T-coordinates of the S-tilde class sums, with the sign forgetting rows
        # from T-classes to type-A descent classes, the rows of both sides packed
        phi = class_images(maps.phi, mr.t_algebra(n), descent_algebra("A", n), "sign forgetting")
        theta_pm, theta = hopf.transform_coords("OmegaB", n), hopf.transform_coords("SolA", n)
        stilde, labels = mr.t_coords("Stilde", n), descent_algebra("A", n).labels
        pack, _ = packer(labels, *(r.values() for r in (stilde, phi, theta_pm, theta)))
        left = packed_rows(stilde, packed_rows(theta_pm, {t: pack(row) for t, row in phi.items()}))
        right = packed_rows(stilde, packed_rows(phi, {m: pack(row) for m, row in theta.items()}))
        alpha = first_unequal((alpha, left[alpha], right[alpha]) for alpha in stilde)
        if alpha is not None:
            raise CheckFailure(f"transform square fails at {alpha}")

    _add(checks, "theta/square-with-sign-forgetting", element_ranks, square)
    _add(checks, "theta/bijective-on-ideal", element_ranks, maps.check_theta_pm_bijective)

    def interior(n):
        return maps.coarse_node("interior ideal", interior_peak_algebra(n))

    def bijective_downstairs(n):
        rows = hopf.transform_coords("SolA", n)
        _check_onto(rows, interior(n), interior(n), f"the transform at n={n}")

    _add(checks, "theta/bijective-on-interior", interior_ranks, bijective_downstairs)

    def images(n):
        source = maps.Node("SolA", descent_algebra("A", n))
        rows, what = hopf.transform_coords("SolA", n), f"the transform at n={n}"
        _check_onto(rows, source, interior(n), what)

    _add(checks, "theta/image-is-interior-ideal", interior_ranks, images)

    def principal(n):
        # theta and theta_pm multiply by (twice) the generator: the cached rows
        # of the transform span its products with the algebra
        canonical, t_alg = maps.canonical_ideal_node(n), mr.t_algebra(n)
        x0 = [(m, mr._x0_tcoords(n, m)) for m in maps.canonical_ideal_labels(n)]
        for family, source, ideal in (
            ("SolA", maps.Node("descent algebra", descent_algebra("A", n)), interior(n)),
            ("SolA", maps.coarse_node("peak algebra", peak_algebra(n)), interior(n)),
            ("SolB", maps.Node("type-B descent algebra", descent_algebra("B", n)), canonical),
            ("OmegaB", maps.Node("MR algebra", t_alg), maps.Node(canonical.name, t_alg, x0)),
        ):
            what = f"the transform of the {source.name} at n={n}"
            _check_onto(hopf.transform_coords(family, n), source, ideal, what)

    _add(checks, "theta/principal-right-ideals", _ranks(3, n_max, 5 if deep else 4), principal)
    return checks


def suite_hopf(n_max: int, deep: bool = False) -> list:
    from . import hopf
    from .perms import group_elements

    checks = []
    dmax = _cap(n_max, 6)

    def singles(n):
        for w in group_elements("B", n):
            hopf.check_singles(w)

    _add(checks, "hopf/coassociative-counit-singles", range(0, dmax + 1), singles)
    _add(
        checks,
        "hopf/peak-not-closed-witness",
        [None],
        lambda _: hopf.check_peak_not_closed_witness(),
    )
    theta_cap = _cap(n_max, 5)
    # (check, body, ceiling d, lo): body(d) checks the degrees up to d; it
    # visits a degree, and the check gets an entry, only when d > lo
    for name, body, d, lo in (
        ("concat-type-a", hopf.check_sola_star, dmax, 1),
        ("concat-ideal", hopf.check_i0_star, dmax, 1),
        ("concat-type-b-module", hopf.check_solb_module_star, dmax, 0),
        ("concat-mr", hopf.check_omega_star, dmax, 1),
        ("generator-coproducts", hopf.check_coproduct_generators, dmax, 0),
        ("coproduct-closures", hopf.check_delta_closures, theta_cap, 0),
        ("interior-shuffle-closure", hopf.check_pint_star_closure, dmax, 1),
        ("peak-module-closure", hopf.check_peak_module_star, dmax, 1),
        ("shuffle-coefficients-distinct", hopf.check_shuffle_coefficients, dmax, 1),
        ("transform-morphisms", hopf.check_theta_hopf, theta_cap, 0),
        ("drop-via-coproduct", hopf.check_beta_via_coproduct, theta_cap, 0),
        ("module-morphisms", hopf.check_module_morphisms, theta_cap, 0),
        ("internal-coproduct-compat", hopf.check_delta_internal_compat, theta_cap, 0),
        ("free-module", hopf.check_free_module, theta_cap, 0),
        ("ideal-type-a-isomorphism", hopf.check_i0_sola_isomorphism, theta_cap, 0),
    ):
        _add(checks, f"hopf/{name}", [d] if d > lo else [], body)
    return checks


def suite_words(n_max: int, deep: bool = False) -> list:
    from . import words

    nontrivial = words.Alphabet(("a", "b", "c"), {"a": "b", "b": "a", "c": "c"})
    trivial = words.Alphabet(("a", "b", "c"))
    checks = []

    def symmetrizers(n):
        words.check_symmetrizer_identity(n, nontrivial)
        words.check_symmetrizer_identity(n, trivial)

    _add(checks, "words/symmetrizer-identity", _ranks(1, n_max, 4), symmetrizers)
    _add(
        checks,
        "words/bracket-identity",
        range(1, _cap(n_max + 1, 5) + 1),
        lambda n: words.check_bracket_identity(n, trivial),
    )
    _add(
        checks,
        "words/right-action-law",
        [_cap(n_max, 3)],
        lambda n: words.check_right_action(n, nontrivial),
    )
    _add(
        checks,
        "words/algebra-morphism",
        [2],
        lambda n: words.check_action_algebra_morphism(n, nontrivial),
    )
    degrees = [(p, q) for p, q in ((1, 1), (1, 2), (2, 1)) if p + q <= _cap(n_max + 1, 3)]
    _add(checks, "words/convolution", degrees, lambda pq: words.check_convolution(*pq, nontrivial))
    return checks


SUITES = {
    "descents": suite_descents,
    "peaks": suite_peaks,
    "chi": suite_chi,
    "phi": suite_phi,
    "psi": suite_psi,
    "ideals": suite_ideals,
    "exactseq": suite_exactseq,
    "commutative": suite_commutative,
    "mr": suite_mr,
    "theta": suite_theta,
    "hopf": suite_hopf,
    "words": suite_words,
}


def _run_one(name: str, n_max: int, deep: bool) -> list:
    return run_checks(SUITES[name](n_max, deep))


def run_suite(name: str, n_max: int, *, deep: bool = False, jobs: int = 1) -> VerifyReport:
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    names = list(SUITES) if name == "all" else [name]
    run = partial(_run_one, n_max=n_max, deep=deep)
    if len(names) > 1 and jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, names))
    else:
        results = map(run, names)
    checks = [check for result in results for check in result]
    return VerifyReport(name, sorted(checks, key=lambda c: c.check_id))
