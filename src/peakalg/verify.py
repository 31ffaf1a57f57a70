"""Named verification suites behind the command-line front end.

Each suite bundles the executable theorem checks of one area into
CheckResults.  Suites take the rank ceiling n_max and a deep flag; checks
whose spec-level cap is lower than n_max stop at their own cap, and the
handful of cheap counting checks (Fibonacci dimensions, peak-set
realization) always run to their stated caps.  The checks of a map read
its class rows: closed forms against rows applied to class coordinates,
landing and spans through maps.landed and maps.node_span.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from .reporting import CheckFailure, VerifyReport, run_check

ELEMENT_CAP = 5  # element-level exhaustive closed-form checks


def _cap(n_max: int, hard: int) -> int:
    return min(n_max, hard)


def _ranks(lo: int, n_max: int, hard: int) -> range:
    """The ranks lo..min(n_max, hard) of a check, possibly none."""
    return range(lo, _cap(n_max, hard) + 1)


def _add_ranged(checks: list, check_id: str, body, *ranks):
    """Run body as check_id unless every one of its rank ranges is empty:
    a check that runs over no rank checks nothing, so it gets no entry,
    just as a per-rank check gets none beyond its cap."""
    if any(ranks):
        checks.append(run_check(check_id, body))


def _add_per_rank(checks: list, suite: str, ranks, *named):
    """For each rank n in order, run body(n) as the check f"{suite}/{name}/n={n}"
    for each (name, body) of named, in the order given."""
    for n in ranks:
        for name, body in named:
            checks.append(run_check(f"{suite}/{name}/n={n}", lambda body=body, n=n: body(n)))


def _check_multiplicative(f, src, dst, what: str, witness):
    """The linear map f from the class algebra src to dst is
    multiplicative, read on class coordinates: its rows (the image of
    every class sum, binned in dst, which checks that f lands there)
    applied to each cell of the structure cube of src equal the product
    in dst of the two rows.  witness(l1, l2) names the first failing pair."""
    from .algebra import apply_rows, class_images

    rows = class_images(f, src, dst, what)
    cube = src.cube
    for l1 in src.labels:
        for l2 in src.labels:
            if apply_rows(rows, cube[(l1, l2)]) != dst.product(rows[l1], rows[l2]):
                raise CheckFailure(witness(l1, l2))


def _check_closed_forms(f, src, dst, what: str, y_form, x_form, witness):
    """The linear map f from the descent algebra src to the class algebra
    dst matches its closed forms on class rows: the row of each Y_J (its
    image, binned in dst) is y_form(J) binned in dst, and the rows applied
    to the Y-coordinates of each X_J give x_form(J) binned in dst.
    witness(kind, J), kind "Y" or "X", names the first failure."""
    from .algebra import apply_rows, class_images
    from .bases import x_to_y_coords

    rows = class_images(f, src, dst, what)
    for m, row in rows.items():
        if row != dst.coords(y_form(m)):
            raise CheckFailure(witness("Y", m))
    for m in rows:
        if apply_rows(rows, x_to_y_coords({m: 1})) != dst.coords(x_form(m)):
            raise CheckFailure(witness("X", m))


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

    checks = []

    def counts():
        import math

        for n in range(0, _cap(n_max, 7) + 1):
            for group, want in (
                ("S", math.factorial(n)),
                ("B", math.factorial(n) << n if n else 1),
                ("D", math.factorial(n) << (n - 1) if n else 1),
            ):
                if n > perms.enum_cap(group):
                    continue
                got = len(perms.group_elements(group, n))
                if got != want:
                    raise CheckFailure(f"{group}_{n} has {got} elements, wanted {want}")

    checks.append(run_check("descents/enumeration-counts", counts))

    def fib_counts():
        for n in range(0, 21):
            if len(perms.sparse_masks(n)) != perms.fibonacci(n):
                raise CheckFailure(f"sparse-set count wrong at n={n}")
            if n >= 1 and len(perms.interior_sparse_masks(n)) != perms.fibonacci(n - 1):
                raise CheckFailure(f"interior sparse-set count wrong at n={n}")

    checks.append(run_check("descents/fibonacci-counts", fib_counts))

    bfs_ranks = {
        ctype: _ranks(2 if ctype == "D" else 1, n_max, perms.DEFAULT_BFS_CAP)
        for ctype in ("A", "B", "D")
    }

    def oracle():
        for ctype in ("A", "B", "D"):
            group = perms.GROUP_OF_TYPE[ctype]
            for n in bfs_ranks[ctype]:
                for w in perms.group_elements(group, n):
                    if perms.descent_mask(w, ctype) != perms.length_descent_mask(w, ctype):
                        raise CheckFailure(f"descents disagree with lengths at {ctype}, {w}")

    _add_ranged(checks, "descents/length-oracle", oracle, *bfs_ranks.values())

    checks.append(
        run_check("descents/composition-associative-B3", lambda: _check_associative("B", 3))
    )

    sign_ranks = _ranks(1, n_max, 4)

    def involutions():
        for n in sign_ranks:
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

    _add_ranged(checks, "descents/sign-maps", involutions, sign_ranks)

    def peak_realization():
        for n in range(1, 9):
            classes = {
                m: 0 for m in perms.sparse_masks(n)
            }
            for u in perms.group_elements("S", n):
                classes[perms.peak_mask(u)] += 1
            empty = [bin(m) for m, c in classes.items() if c == 0]
            if empty:
                raise CheckFailure(f"unrealized peak sets at n={n}: {empty}")
            for u in perms.group_elements("S", n):
                if perms.lambda_mask(perms.descent_mask(u, "A")) != perms.peak_mask(u):
                    raise CheckFailure(f"peaks differ from collapsed descents at {u}")

    checks.append(run_check("descents/peak-sets-realized", peak_realization))

    def partition_and_inverse():
        for ctype in ("A", "B", "D"):
            for n in bfs_ranks[ctype]:
                if perms.GROUP_OF_TYPE[ctype] in ("B", "D") and n > 5:
                    continue
                classes = bases.descent_classes(ctype, n)
                total = sum(len(ws) for ws in classes.values())
                if total != len(perms.group_elements(perms.GROUP_OF_TYPE[ctype], n)):
                    raise CheckFailure(f"descent classes do not partition {ctype}_{n}")
                for m, ws in classes.items():
                    if not ws:  # an empty class would degrade the Y-basis
                        raise CheckFailure(f"unrealized descent set {bin(m)} in {ctype}_{n}")
                    back = bases.y_to_x_coords(bases.x_to_y_coords({m: 1}))
                    if back != {m: 1}:
                        raise CheckFailure(f"X/Y inversion fails at {ctype}, {bin(m)}")

    _add_ranged(
        checks, "descents/partition-and-xy-inverse", partition_and_inverse, *bfs_ranks.values()
    )

    closure_ranks = {
        ctype: _ranks(lo, n_max, perms.STRUCTURE_CAPS[ctype][deep])
        for ctype, lo in (("A", 1), ("B", 1), ("D", 2))
    }

    def closure_tables():
        for n in closure_ranks["A"]:
            bases.structure_constants("A", n, "Y")
        for ctype in ("B", "D"):
            for n in closure_ranks[ctype]:
                table = bases.structure_constants(ctype, n, "Y", deep=deep)
                for row in table.cells:
                    for cell in row:
                        for c in cell:
                            if not (isinstance(c, int) and c >= 0):
                                raise CheckFailure(
                                    f"non-integer or negative constant in {table.name}"
                                )

    _add_ranged(checks, "descents/structure-closure", closure_tables, *closure_ranks.values())
    return checks


def suite_peaks(n_max: int, deep: bool = False) -> list:
    from . import peak as peakmod
    from .perms import fibonacci

    checks = []
    for n in range(1, _cap(n_max, 6) + 1):
        checks.extend(peakmod.verify_peak_theorems(n))

    def dims():
        for n in range(1, 9):
            if peakmod.peak_solver(n).rank != fibonacci(n):
                raise CheckFailure(f"peak span rank != f_{n}")
            if peakmod.interior_peak_solver(n).rank != fibonacci(n - 1):
                raise CheckFailure(f"interior span rank != f_{n - 1}")

    checks.append(run_check("peaks/dimensions-to-8", dims))

    low_ranks = _ranks(2, n_max, 4)

    def pi_multiplicative():
        for n in low_ranks:
            _check_multiplicative(
                peakmod.pi_map,
                peakmod.peak_algebra(n),
                peakmod.peak_algebra(n - 2),
                "the projection",
                lambda m1, m2: f"projection not multiplicative at n={n}, ({bin(m1)}, {bin(m2)})",
            )

    _add_ranged(checks, "peaks/projection-multiplicative", pi_multiplicative, low_ranks)

    def noncommutative():
        t = peakmod.peak_table(4)
        if t.cell(1, 3) == t.cell(3, 1):
            raise CheckFailure("expected noncommutativity witness missing in rank 4")

    checks.append(run_check("peaks/noncommutative-witness", noncommutative))

    def tables():
        for n in low_ranks:
            peakmod.peak_table(n)

    _add_ranged(checks, "peaks/tables-build", tables, low_ranks)
    return checks


def suite_chi(n_max: int, deep: bool = False) -> list:
    from . import maps
    from .algebra import class_images
    from .bases import descent_algebra

    checks = []
    element_ranks = _ranks(2, n_max, ELEMENT_CAP)
    low_ranks = _ranks(2, n_max, 4)

    def closed_forms():
        for n in element_ranks:
            _check_closed_forms(
                maps.chi,
                descent_algebra("B", n),
                descent_algebra("D", n),
                "the fold",
                lambda m: maps.chi_on_y(n, m),
                lambda m: maps.chi_on_x(n, m),
                lambda kind, m: f"fold {kind} closed form fails at n={n}, {bin(m)}",
            )

    _add_ranged(checks, "chi/closed-forms", closed_forms, element_ranks)

    def image():
        for n in element_ranks:
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

    _add_ranged(checks, "chi/image-three-classes", image, element_ranks)

    def multiplicative():
        for n in low_ranks:
            _check_multiplicative(
                maps.chi,
                descent_algebra("B", n),
                descent_algebra("D", n),
                "the fold",
                lambda m1, m2: f"fold not multiplicative at n={n}, ({bin(m1)}, {bin(m2)})",
            )

    _add_ranged(checks, "chi/multiplicative", multiplicative, low_ranks)

    def support_counts():
        from .perms import descent_mask, group_elements

        for n in low_ranks:
            count = sum(
                1
                for w in group_elements("D", n)
                if abs(w[0]) > abs(w[1]) and descent_mask(w, "D") & ~3 == 0
            )
            if len(maps.imchi_basis(n, 0, 2)) != count:
                raise CheckFailure(f"middle-class support count wrong at n={n}")

    _add_ranged(checks, "chi/class-support-counts", support_counts, low_ranks)

    for n in range(3, _cap(n_max, ELEMENT_CAP) + 1):
        checks.extend(maps.verify_diagram(maps.bd_triangles(n)))
    return checks


def suite_phi(n_max: int, deep: bool = False) -> list:
    from . import maps
    from .algebra import apply_rows, class_images
    from .bases import descent_algebra, x_to_y_coords
    from .peak import peak_algebra

    checks = []
    element_ranks = _ranks(1, n_max, ELEMENT_CAP)

    def closed_forms():
        for n in element_ranks:
            _check_closed_forms(
                maps.phi,
                descent_algebra("B", n),
                peak_algebra(n),
                "sign forgetting",
                lambda m: maps.phi_on_y(n, m),
                lambda m: maps.phi_on_x(n, m),
                lambda kind, m: f"sign-forgetting {kind} form fails at n={n}, {bin(m)}",
            )

    _add_ranged(checks, "phi/closed-forms", closed_forms, element_ranks)

    def ideal_forms():
        # X0_J = X_{{0} u J} and Y0_J = Y_{{0} u J} + Y_J
        for n in element_ranks:
            target = peak_algebra(n)
            rows = class_images(maps.phi, descent_algebra("B", n), target, "sign forgetting")
            for m in maps.canonical_ideal_labels(n):
                x0 = apply_rows(rows, x_to_y_coords({m | 1: 1}))
                if x0 != target.coords(maps.phi_on_x0(n, m)):
                    raise CheckFailure(f"ideal X form fails at n={n}, {bin(m)}")
                if apply_rows(rows, {m | 1: 1, m: 1}) != target.coords(maps.phi_on_y0(n, m)):
                    raise CheckFailure(f"ideal Y form fails at n={n}, {bin(m)}")

    _add_ranged(checks, "phi/ideal-closed-forms", ideal_forms, element_ranks)

    def kernel_symmetry():
        for n in element_ranks:
            full = (1 << n) - 1
            for m in range(1 << n):
                if maps.phi_on_y(n, m) != maps.phi_on_y(n, full ^ m):
                    raise CheckFailure(f"complement symmetry fails at n={n}, {bin(m)}")

    _add_ranged(checks, "phi/complement-symmetry", kernel_symmetry, element_ranks)

    def generator_image():
        # the increasing class sum is X_{{0}}
        for n in element_ranks:
            target = peak_algebra(n)
            rows = class_images(maps.phi, descent_algebra("B", n), target, "sign forgetting")
            want = target.coords(maps.interior_peak_generator(n).scale(2))
            if apply_rows(rows, x_to_y_coords({1: 1})) != want:
                raise CheckFailure(f"increasing-class image wrong at n={n}")

    _add_ranged(checks, "phi/increasing-class-image", generator_image, element_ranks)
    mult_ranks = {"B": _ranks(1, n_max, 4), "D": _ranks(2, n_max, 4)}

    def multiplicative():
        for ctype, mapper in (("B", maps.phi), ("D", maps.psi)):
            for n in mult_ranks[ctype]:
                _check_multiplicative(
                    mapper,
                    descent_algebra(ctype, n),
                    descent_algebra("A", n),
                    "sign forgetting",
                    lambda m1, m2: (
                        f"not multiplicative at {ctype}, n={n}, ({bin(m1)}, {bin(m2)})"
                    ),
                )

    _add_ranged(checks, "phi/multiplicative", multiplicative, *mult_ranks.values())
    return checks


def suite_psi(n_max: int, deep: bool = False) -> list:
    from . import maps
    from .bases import descent_algebra
    from .peak import peak_algebra

    CASE = {0: "plain", 1: "oneprime", 2: "one", 3: "both"}
    checks = []
    element_ranks = _ranks(2, n_max, ELEMENT_CAP)

    def closed_forms():
        for n in element_ranks:
            _check_closed_forms(
                maps.psi,
                descent_algebra("D", n),
                peak_algebra(n),
                "sign forgetting",
                lambda m: maps.psi_on_y(n, m & ~3, CASE[m & 3]),
                lambda m: maps.psi_on_x(n, m & ~3, CASE[m & 3]),
                lambda kind, m: f"type-D {kind} form fails at n={n}, {bin(m)}",
            )

    _add_ranged(checks, "psi/closed-forms", closed_forms, element_ranks)

    def fork_equality():
        for n in element_ranks:
            for m in range(0, 1 << n, 4):
                if maps.psi_on_y(n, m, "one") != maps.psi_on_y(n, m, "oneprime"):
                    raise CheckFailure(f"fork images differ at n={n}, {bin(m)}")

    _add_ranged(checks, "psi/fork-equality", fork_equality, element_ranks)
    flip_ranks = _ranks(2, n_max, 4)

    def rho_invariance():
        from .perms import group_elements

        for n in flip_ranks:
            for w in group_elements("D", n):
                if maps.psi(maps.rho_map(maps.AlgElem.monomial("D", n, w))) != maps.psi(
                    maps.AlgElem.monomial("D", n, w)
                ):
                    raise CheckFailure(f"leading flip changes the image at {w}")

    _add_ranged(checks, "psi/flip-invariance", rho_invariance, flip_ranks)
    return checks


def suite_ideals(n_max: int, deep: bool = False) -> list:
    from . import maps
    from .algebra import class_images, two_sided_failure
    from .bases import canonical_ideal_algebra, descent_algebra, y_basis
    from .peak import interior_peak_algebra, interior_peak_basis
    from .perms import STRUCTURE_CAPS, fibonacci

    checks = []
    drop_ranks = {"beta": _ranks(2, n_max, 4), "gamma": _ranks(3, n_max, 4)}
    element_ranks = _ranks(2, n_max, ELEMENT_CAP)

    def beta_gamma_multiplicative():
        for n in drop_ranks["beta"]:
            _check_multiplicative(
                maps.beta_map,
                descent_algebra("B", n),
                descent_algebra("B", n - 1),
                "the drop",
                lambda m1, m2: f"degree drop not multiplicative at n={n}",
            )
        for n in drop_ranks["gamma"]:
            _check_multiplicative(
                maps.gamma_map,
                descent_algebra("D", n),
                descent_algebra("B", n - 2),
                "the type-D drop",
                lambda m1, m2: f"type-D drop not multiplicative at n={n}",
            )

    _add_ranged(
        checks, "ideals/drops-multiplicative", beta_gamma_multiplicative, *drop_ranks.values()
    )
    canonical_ranks = _ranks(1, n_max, STRUCTURE_CAPS["B"][deep])

    def canonical_two_sided():
        # the canonical ideal is a coarsening of the type-B descent algebra:
        # products with its class sums are read on the type-B cube
        for n in canonical_ranks:
            failure = two_sided_failure(
                {j: {j: 1} for j in descent_algebra("B", n).labels},
                canonical_ideal_algebra(n),
                lambda *_: f"canonical ideal not two-sided at n={n}",
            )
            if failure:
                raise CheckFailure(failure)

    _add_ranged(checks, "ideals/canonical-two-sided", canonical_two_sided, canonical_ranks)

    def kernel_spans():
        # the canonical ideal lands in the zero subspace; the drop is onto
        for n in element_ranks:
            solb, low = descent_algebra("B", n), descent_algebra("B", n - 1)
            rows, what = class_images(maps.beta_map, solb, low, "the drop"), f"the drop at n={n}"
            maps.landed(rows, maps.canonical_ideal_node(n), maps.Node("0", low, []), what)
            _check_onto(rows, maps.Node("SolB", solb), maps.Node("SolB1", low), what)

    _add_ranged(checks, "ideals/kernel-of-drop", kernel_spans, element_ranks)

    def images_onto_interior():
        for n in element_ranks:
            interior = maps.coarse_node("interior ideal", interior_peak_algebra(n))
            ker_beta2 = maps.x_span_node("I01", "B", n, [m for m in range(1 << n) if m & 3])
            what = f"sign forgetting at n={n}"
            rows = class_images(maps.phi, descent_algebra("B", n), interior.algebra, what)
            for ideal in (maps.canonical_ideal_node(n), ker_beta2):
                _check_onto(rows, ideal, interior, what)

    _add_ranged(checks, "ideals/images-onto-interior", images_onto_interior, element_ranks)

    def no_intermediate_morphism():
        for n in range(3, 21):
            if not fibonacci(n - 1) > fibonacci(n - 2):
                raise CheckFailure(f"dimension obstruction fails at n={n}")

    checks.append(run_check("ideals/dimension-obstruction", no_intermediate_morphism))

    def left_ideal_failure():
        w = y_basis("A", 3, 0b10) * interior_peak_basis(3, 0b100)
        if interior_peak_algebra(3).coords(w) is not None:
            raise CheckFailure("expected left-ideal failure witness is in the span")
        # the canonical ideal is likewise not a left ideal upstairs
        from .mr import t_basis

        w = t_basis(3, (1, 1, 1)) * maps.x0_basis(3, 0)
        if canonical_ideal_algebra(3).coords(w) is not None:
            raise CheckFailure("expected type-B left-ideal failure witness is in the span")

    checks.append(run_check("ideals/left-ideal-failure-witness", left_ideal_failure))
    return checks


def suite_exactseq(n_max: int, deep: bool = False) -> list:
    from . import maps
    from .commutative import sbexact_diagram

    checks = []
    for n in range(3, _cap(n_max, 5) + 1):
        checks.extend(maps.verify_diagram(maps.bexact_diagram(n)))
        checks.extend(maps.verify_diagram(maps.dexact_diagram(n)))
    for n in range(4, _cap(n_max, 6) + 1):
        checks.extend(maps.verify_diagram(sbexact_diagram(n)))
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

    def wp_dims_high():
        from .commutative import check_wp_dimensions

        for n in range(2, 9):
            check_wp_dimensions(n)

    checks.append(run_check("commutative/peak-side-dimensions-to-8", wp_dims_high))

    def loday():
        if comm.loday_witness("p") != (4, "p_1"):
            raise CheckFailure("peak-count non-containment witness moved")
        if comm.loday_witness("pint") != (3, "p0_1"):
            raise CheckFailure("interior non-containment witness moved")

    checks.append(run_check("commutative/not-in-descent-count-span", loday))
    return checks


def suite_mr(n_max: int, deep: bool = False) -> list:
    from . import mr

    checks = []

    def counts():
        for n in range(1, 9):
            if len(mr.signed_compositions(n)) != 2 * 3 ** (n - 1):
                raise CheckFailure(f"signed composition count wrong at n={n}")

    checks.append(run_check("mr/signed-composition-counts", counts))

    def operators():
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
        for n in range(1, _cap(n_max, 6) + 1):
            for alpha in mr.signed_compositions(n):
                if mr.tilde(mr.tilde(alpha)) != alpha:
                    raise CheckFailure(f"segment complement is not an involution at {alpha}")

    checks.append(run_check("mr/operators", operators))

    def orders():
        if not mr.leq((-2, 1, -3, 2, 5), (-2, 1, -1, -2, 2, 2, 3)):
            raise CheckFailure("refinement order example fails")
        if not mr.preceq((-2, 1, -1, -2, 2, 2, 3), (-2, 1, -3, 2, 1, 1, 3)):
            raise CheckFailure("flipped order example fails")
        for n in range(1, _cap(n_max, 4) + 1):
            comps = mr.signed_compositions(n)
            for rel in (mr.leq, mr.preceq):
                for a in comps:
                    if not rel(a, a):
                        raise CheckFailure(f"order not reflexive at {a}")
                ups = {a: [b for b in comps if rel(a, b)] for a in comps}
                for a in comps:
                    for b in ups[a]:
                        if a != b and rel(b, a):
                            raise CheckFailure(f"order not antisymmetric at {a}, {b}")
                        for c in ups[b]:
                            if not rel(a, c):
                                raise CheckFailure(f"order not transitive at {a}, {b}, {c}")

    checks.append(run_check("mr/order-axioms", orders))

    def recovery():
        if mr.mr_class_of((-3, 4, 6, 1, 7, -5, -2, -8)) != (-1, 2, 2, -1, -2):
            raise CheckFailure("class recovery example fails")

    checks.append(run_check("mr/class-recovery", recovery))

    element_ranks = _ranks(1, n_max, ELEMENT_CAP)
    _add_per_rank(checks, "mr", element_ranks, ("partition", mr.check_t_partition))
    _add_per_rank(checks, "mr", _ranks(1, n_max, 4), ("order-sums", mr.check_order_sums))
    closure_ranks = _ranks(1, n_max, 4 if deep else 3)
    _add_per_rank(checks, "mr", closure_ranks, ("closure", mr.check_omega_closure))
    phi = ("phi-images", mr.check_phi_images), ("phi-onto", mr.check_phi_onto_descent_algebra)
    _add_per_rank(checks, "mr", element_ranks, *phi)

    def key_products():
        for n in element_ranks:
            for alpha in mr.signed_compositions(n):
                mr.bstilde_product(n, alpha)

    _add_ranged(checks, "mr/increasing-class-products", key_products, element_ranks)
    return checks


def suite_theta(n_max: int, deep: bool = False) -> list:
    from . import hopf, maps, mr
    from .algebra import apply_rows, class_images
    from .bases import descent_algebra, x_to_y_coords
    from .peak import interior_peak_algebra, peak_algebra
    from .perms import popcount

    checks = []
    element_ranks = _ranks(1, n_max, ELEMENT_CAP)
    interior_ranks = _ranks(2, n_max, ELEMENT_CAP)

    def type_b_form():
        # the identity of mr/increasing-class-products, read on T-coordinates
        for n in element_ranks:
            for alpha in mr.signed_compositions(n):
                try:
                    mr.bstilde_product(n, alpha)
                except CheckFailure:
                    raise CheckFailure(f"type-B transform value wrong at {alpha}") from None

    _add_ranged(checks, "theta/type-b-values", type_b_form, element_ranks)

    def type_a_form():
        # on the cached rows of the transform over the type-A descent classes
        for n in element_ranks:
            rows, interior = hopf.transform_coords("SolA", n), interior_peak_algebra(n)
            for mask in rows:
                window = mask | (mask << 1)
                scale = 1 << (1 + popcount(mask))
                want = interior.spread({fm: scale for fm in interior.labels if fm & ~window == 0})
                if apply_rows(rows, x_to_y_coords({mask: 1})) != want:
                    raise CheckFailure(f"transform value wrong at mask {bin(mask)}")

    _add_ranged(checks, "theta/type-a-values", type_a_form, element_ranks)

    def square():
        # on the T-coordinates of the S-tilde class sums, with the sign
        # forgetting rows from T-classes to type-A descent classes
        for n in element_ranks:
            phi_rows = class_images(
                maps.phi, mr.t_algebra(n), descent_algebra("A", n), "sign forgetting"
            )
            theta_pm_rows = hopf.transform_coords("OmegaB", n)
            theta_rows = hopf.transform_coords("SolA", n)
            for alpha, a in mr.t_coords("Stilde", n).items():
                left = apply_rows(phi_rows, apply_rows(theta_pm_rows, a))
                if left != apply_rows(theta_rows, apply_rows(phi_rows, a)):
                    raise CheckFailure(f"transform square fails at {alpha}")

    _add_ranged(checks, "theta/square-with-sign-forgetting", square, element_ranks)

    def bijective():
        for n in element_ranks:
            maps.check_theta_pm_bijective(n)

    _add_ranged(checks, "theta/bijective-on-ideal", bijective, element_ranks)

    def interior(n):
        return maps.coarse_node("interior ideal", interior_peak_algebra(n))

    def bijective_downstairs():
        for n in interior_ranks:
            rows = hopf.transform_coords("SolA", n)
            _check_onto(rows, interior(n), interior(n), f"the transform at n={n}")

    _add_ranged(checks, "theta/bijective-on-interior", bijective_downstairs, interior_ranks)

    def images():
        for n in interior_ranks:
            source = maps.Node("SolA", descent_algebra("A", n))
            rows, what = hopf.transform_coords("SolA", n), f"the transform at n={n}"
            _check_onto(rows, source, interior(n), what)

    _add_ranged(checks, "theta/image-is-interior-ideal", images, interior_ranks)
    principal_ranks = _ranks(3, n_max, 5 if deep else 4)

    def principal():
        # theta and theta_pm multiply by (twice) the generator: the cached rows
        # of the transform span its products with the algebra
        for n in principal_ranks:
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

    _add_ranged(checks, "theta/principal-right-ideals", principal, principal_ranks)
    return checks


def suite_hopf(n_max: int, deep: bool = False) -> list:
    from . import hopf
    from .perms import group_elements

    checks = []
    dmax = _cap(n_max, 6)

    def singles():
        for n in range(0, dmax + 1):
            for w in group_elements("B", n):
                hopf.check_split_reassembly(w)
                hopf.check_coassociative(w)
                hopf.check_counit(w)

    checks.append(run_check("hopf/coassociative-counit-singles", singles))
    checks.append(
        run_check("hopf/peak-not-closed-witness", hopf.check_peak_not_closed_witness)
    )
    theta_cap = _cap(n_max, 5)
    # (check, body, ceiling d, p0): the body loops over the degrees 1..d, or,
    # given p0, over the pairs p + q <= d with p >= p0 and q >= 1; a check
    # that visits no degree gets no entry
    for name, body, d, p0 in (
        ("concat-type-a", hopf.check_sola_star, dmax, 1),
        ("concat-ideal", hopf.check_i0_star, dmax, 1),
        ("concat-type-b-module", hopf.check_solb_module_star, dmax, 0),
        ("concat-mr", hopf.check_omega_star, dmax, 1),
        ("generator-coproducts", hopf.check_coproduct_generators, dmax, None),
        ("coproduct-closures", hopf.check_delta_closures, theta_cap, None),
        ("interior-shuffle-closure", hopf.check_pint_star_closure, dmax, 1),
        ("peak-module-closure", hopf.check_peak_module_star, dmax, 1),
        ("shuffle-coefficients-distinct", hopf.check_shuffle_coefficients, dmax, 1),
        ("transform-morphisms", hopf.check_theta_hopf, theta_cap, None),
        ("drop-via-coproduct", hopf.check_beta_via_coproduct, theta_cap, None),
        ("module-morphisms", hopf.check_module_morphisms, theta_cap, 0),
        ("internal-coproduct-compat", hopf.check_delta_internal_compat, theta_cap, None),
        ("free-module", hopf.check_free_module, theta_cap, None),
        ("ideal-type-a-isomorphism", hopf.check_i0_sola_isomorphism, theta_cap, None),
    ):
        seen = range(1, d + 1) if p0 is None else range(p0, d)
        _add_ranged(checks, f"hopf/{name}", lambda body=body, d=d: body(d), seen)
    return checks


def suite_words(n_max: int, deep: bool = False) -> list:
    from . import words

    nontrivial = words.Alphabet(("a", "b", "c"), {"a": "b", "b": "a", "c": "c"})
    trivial = words.Alphabet(("a", "b", "c"))
    checks = []
    symmetrizer_ranks = _ranks(1, n_max, 4)

    def symmetrizers():
        for n in symmetrizer_ranks:
            words.check_symmetrizer_identity(n, nontrivial)
            words.check_symmetrizer_identity(n, trivial)

    _add_ranged(checks, "words/symmetrizer-identity", symmetrizers, symmetrizer_ranks)

    def brackets():
        for n in range(1, _cap(n_max + 1, 5) + 1):
            words.check_bracket_identity(n, trivial)

    checks.append(run_check("words/bracket-identity", brackets))
    checks.append(
        run_check(
            "words/right-action-law",
            lambda: words.check_right_action(_cap(n_max, 3), nontrivial),
        )
    )
    checks.append(
        run_check(
            "words/algebra-morphism",
            lambda: words.check_action_algebra_morphism(2, nontrivial),
        )
    )

    degrees = [(p, q) for p, q in ((1, 1), (1, 2), (2, 1)) if p + q <= _cap(n_max + 1, 3)]

    def convolution():
        for p, q in degrees:
            words.check_convolution(p, q, nontrivial)

    _add_ranged(checks, "words/convolution", convolution, degrees)
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


def _run_one(args) -> list:
    name, n_max, deep = args
    return SUITES[name](n_max, deep)


def run_suite(name: str, n_max: int, *, deep: bool = False, jobs: int = 1) -> VerifyReport:
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    names = list(SUITES) if name == "all" else [name]
    report = VerifyReport(suite=name)
    if len(names) > 1 and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for result in pool.map(_run_one, [(s, n_max, deep) for s in names]):
                report.checks.extend(result)
    else:
        for s in names:
            report.checks.extend(SUITES[s](n_max, deep))
    report.checks.sort(key=lambda c: c.check_id)
    return report
