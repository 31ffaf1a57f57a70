"""The oracles of the checks that verify reads on class rows and cubes.

Each states one check on one declared case, a rank or a (type, rank)
pair: every X, X0, Y0, count sum and generator product goes through the
map as a group-algebra element, every product is a convolution of group
elements, and spans are eliminated on Fractions.
"""

from fractions import Fraction
from functools import partial

from peakalg import commutative as comm
from peakalg import maps, mr, peak
from peakalg.algebra import NOT_IN_SPAN, AlgElem, express_in_span
from peakalg.bases import comp_to_subset, descent_algebra, descent_coordinates, x_basis
from peakalg.bases import x_label_elements, x_to_y_coords, y_basis, y_label_elements, y_to_x_coords
from peakalg.peak import interior_peak_algebra, interior_peak_basis, interior_peak_coordinates
from peakalg.peak import interior_peak_elements, peak_elements
from peakalg.perms import GeneratorSet, fibonacci, interior_sparse_masks, mask_text
from peakalg.reporting import CheckFailure

from oracles import Echelon, descent_span_rank, reference_det


def _text(ctype, n, mask):
    """A descent-class label as the checks write it."""
    return GeneratorSet(ctype, n, mask).text()


def _pair(ctype, n, m1, m2):
    """A pair of descent-class labels as the checks write it."""
    return f"({_text(ctype, n, m1)}, {_text(ctype, n, m2)})"


# ---------------------------------------------------------------------------
# closed forms, images and kernels of the maps


def ref_chi_closed_forms(n):
    for m, yj in y_label_elements("B", n):
        if maps.chi(yj) != maps.chi_on_y(n, m):
            raise CheckFailure(f"the Y closed form of the fold fails at B_{n}, {_text('B', n, m)}")
    for m, xj in x_label_elements("B", n):
        if maps.chi(xj) != maps.chi_on_x(n, m):
            raise CheckFailure(f"the X closed form of the fold fails at B_{n}, {_text('B', n, m)}")


def ref_chi_image(n):
    fams = [maps.imchi_basis(n, m, i) for m in range(0, 1 << n, 4) for i in (1, 2, 3)]
    r = descent_span_rank(fams, "D")
    if r != 3 << (n - 2):
        raise CheckFailure(f"three-class span rank wrong at n={n}")
    img = [maps.chi(yj) for _, yj in y_label_elements("B", n)]
    if descent_span_rank(img, "D") != r or descent_span_rank(fams + img, "D") != r:
        raise CheckFailure(f"fold image mismatch at n={n}")


def ref_phi_closed_forms(n):
    what = "the {} closed form of sign forgetting fails at B_{}, {}"
    for m, yj in y_label_elements("B", n):
        if maps.phi(yj) != maps.phi_on_y(n, m):
            raise CheckFailure(what.format("Y", n, _text("B", n, m)))
    for m, xj in x_label_elements("B", n):
        if maps.phi(xj) != maps.phi_on_x(n, m):
            raise CheckFailure(what.format("X", n, _text("B", n, m)))


def ref_phi_ideal_forms(n):
    for m in maps.canonical_ideal_labels(n):
        if maps.phi(maps.x0_basis(n, m)) != maps.phi_on_x0(n, m):
            raise CheckFailure(f"ideal X form fails at n={n}, {_text('B', n, m)}")
        if maps.phi(maps.y0_basis(n, m)) != maps.phi_on_y0(n, m):
            raise CheckFailure(f"ideal Y form fails at n={n}, {_text('B', n, m)}")


def ref_phi_generator_image(n):
    if maps.phi(maps.x0_generator(n)) != maps.interior_peak_generator(n).scale(2):
        raise CheckFailure(f"increasing-class image wrong at n={n}")


PSI_CASE = {0: "plain", 1: "oneprime", 2: "one", 3: "both"}


def ref_psi_closed_forms(n):
    what = "the {} closed form of sign forgetting fails at D_{}, {}"
    for m, yj in y_label_elements("D", n):
        if maps.psi(yj) != maps.psi_on_y(n, m & ~3, PSI_CASE[m & 3]):
            raise CheckFailure(what.format("Y", n, _text("D", n, m)))
    for m, xj in x_label_elements("D", n):
        if maps.psi(xj) != maps.psi_on_x(n, m & ~3, PSI_CASE[m & 3]):
            raise CheckFailure(what.format("X", n, _text("D", n, m)))


def ref_kernel_of_drop(n):
    for m in maps.canonical_ideal_labels(n):
        if maps.beta_map(maps.x0_basis(n, m)):
            raise CheckFailure(f"ideal element survives the drop at n={n}")
    imgs = [maps.beta_map(yj) for _, yj in y_label_elements("B", n)]
    if descent_span_rank(imgs, "B") != 1 << (n - 1):
        raise CheckFailure(f"drop is not onto at n={n}")


def ref_images_onto_interior(n):
    ker_beta2 = [(m, x_basis("B", n, m)) for m in range(1 << n) if m & 3]
    for family in (maps.canonical_ideal_basis(n), ker_beta2):
        rows = []
        for _, b in family:
            c = interior_peak_coordinates(maps.phi(b))
            if c is None:
                raise CheckFailure(f"image leaves the interior ideal at n={n}")
            rows.append(c)
        if Echelon(rows).rank != fibonacci(n - 1):
            raise CheckFailure(f"image is not all of the interior ideal at n={n}")


def ref_left_ideal_failure(n):
    w = y_basis("A", n, 0b10) * interior_peak_basis(n, 0b100)
    if express_in_span(w, [e for _, e in interior_peak_elements(n)]) is not NOT_IN_SPAN:
        raise CheckFailure("expected left-ideal failure witness is in the span")
    coordz = maps.x_support_coords(
        "B", frozenset((m | 1) for m in maps.canonical_ideal_labels(n))
    )
    if coordz(mr.t_basis(n, (1, 1, 1)) * maps.x0_basis(n, 0)) is not None:
        raise CheckFailure("expected type-B left-ideal failure witness is in the span")


# ---------------------------------------------------------------------------
# the transforms


def ref_type_a_values(n):
    for mm in range(1 << (n - 1)):
        mask = mm << 1
        window = mask | (mask << 1)
        want = AlgElem.zero("S", n)
        for fm in interior_sparse_masks(n):
            if fm & ~window == 0:
                want += interior_peak_basis(n, fm).scale(1 << (1 + bin(mask).count("1")))
        if maps.theta(x_basis("A", n, mask)) != want:
            raise CheckFailure(f"transform value wrong at {_text('A', n, mask)}")


def _spans_interior(images, n, witness):
    rows = [interior_peak_algebra(n).coords(a) for a in images]
    if None in rows or Echelon(rows).rank != fibonacci(n - 1):
        raise CheckFailure(witness)


def ref_bijective_on_interior(n):
    _spans_interior(
        [maps.theta(p) for _, p in interior_peak_elements(n)],
        n,
        f"restricted transform is not bijective on the interior ideal at n={n}",
    )


def ref_image_is_interior(n):
    _spans_interior(
        [maps.theta(yj) for _, yj in y_label_elements("A", n)],
        n,
        f"transform image is not the interior ideal at n={n}",
    )


def ref_principal(n):
    gen_p = maps.interior_peak_generator(n)
    for family, what in (
        (y_label_elements("A", n), "descent algebra"),
        (peak_elements(n), "peak algebra"),
    ):
        maps.right_ideal_check(
            gen_p, family, interior_peak_elements(n), interior_peak_coordinates, what
        )
    gen_b = maps.x0_generator(n)
    coordz = maps.x_support_coords(
        "B", frozenset((m | 1) for m in maps.canonical_ideal_labels(n))
    )
    t_family = [(a, mr.t_basis(n, a)) for a in mr.signed_compositions(n)]
    for family, what in ((y_label_elements("B", n), "type B"), (t_family, "MR")):
        maps.right_ideal_check(gen_b, family, maps.canonical_ideal_basis(n), coordz, what)


def _mask(n, alpha):
    mask = 0
    for j in comp_to_subset(mr.abs_comp(alpha), n):
        mask |= 1 << j
    return mask


def reference_bstilde_product(n, alpha):
    gen = maps.x0_generator(n)
    if len(gen) != 1 << n:
        raise CheckFailure(f"increasing class has size {len(gen)} != 2^{n}")
    prod = gen * mr.stilde_basis(n, alpha)
    if prod != maps.x0_basis(n, _mask(n, alpha)):
        raise CheckFailure(f"product with the S-tilde class of {alpha} is wrong")
    return prod


def reference_increasing_class_products(n):
    for alpha in mr.signed_compositions(n):
        reference_bstilde_product(n, alpha)


def reference_type_b_values(n):
    for alpha in mr.signed_compositions(n):
        if maps.theta_pm(mr.stilde_basis(n, alpha)) != maps.x0_basis(n, _mask(n, alpha)):
            raise CheckFailure(f"type-B transform value wrong at {alpha}")


def reference_square(n):
    for alpha in mr.signed_compositions(n):
        a = mr.stilde_basis(n, alpha)
        if maps.phi(maps.theta_pm(a)) != maps.theta(maps.phi(a)):
            raise CheckFailure(f"transform square fails at {alpha}")


def reference_ideal_matrix(n):
    labels = maps.canonical_ideal_labels(n)
    index = {m: i for i, m in enumerate(labels)}
    rows = []
    for m in labels:
        ycoords = descent_algebra("B", n).coords(maps.theta_pm(maps.x0_basis(n, m)))
        if ycoords is None:
            raise CheckFailure("transform image left the descent algebra")
        row = [Fraction(0)] * len(labels)
        for xm, c in y_to_x_coords(ycoords).items():
            if not xm & 1:
                raise CheckFailure("transform image left the canonical ideal")
            row[index[xm & ~1]] = Fraction(c)
        rows.append(row)
    return labels, rows


def reference_bijective(n):
    """maps.check_theta_pm_bijective on the element-level matrix."""
    labels, rows = reference_ideal_matrix(n)
    for i, m in enumerate(labels):
        parts = bin(m).count("1") + 1
        if rows[i][i] != (1 << parts):
            label = _text("B", n, m)
            raise CheckFailure(f"diagonal at label {label} is {rows[i][i]}, expected 2^{parts}")
        for j, m2 in enumerate(labels):
            c = rows[i][j]
            if c and (m & ~m2):
                raise CheckFailure(
                    f"entry at {_pair('B', n, m, m2)} is nonzero but not a refinement"
                )
            if c and not (c.denominator == 1 and c >= 0):
                raise CheckFailure(
                    f"entry at {_pair('B', n, m, m2)} is not a nonnegative integer"
                )
    if reference_det(rows) == 0:
        raise CheckFailure("determinant vanishes")


# ---------------------------------------------------------------------------
# multiplicativity: every product a convolution of group elements


def _multiplicative(f, elems, what, frame, text):
    """f(a * b) = f(a) f(b) over the labelled family elems; the witness
    names what, the frame and the texts of the first failing pair."""
    imgs = {m: f(e) for m, e in elems}
    for m1, a in elems:
        for m2, b in elems:
            if f(a * b) != imgs[m1] * imgs[m2]:
                pair = f"({text(m1)}, {text(m2)})"
                raise CheckFailure(f"{what} is not multiplicative at {frame}, {pair}")


def _descent_multiplicative(f, ctype, n, what):
    text = partial(_text, ctype, n)
    _multiplicative(f, y_label_elements(ctype, n), what, f"{ctype}_{n}", text)


def reference_chi_multiplicative(n):
    _descent_multiplicative(maps.chi, "B", n, "the fold")


def reference_phi_multiplicative(case):
    ctype, n = case
    _descent_multiplicative({"B": maps.phi, "D": maps.psi}[ctype], ctype, n, "sign forgetting")


def reference_drops_multiplicative(case):
    drop, n = case
    f, ctype, what = {
        "beta": (maps.beta_map, "B", "the drop"),
        "gamma": (maps.gamma_map, "D", "the type-D drop"),
    }[drop]
    _descent_multiplicative(f, ctype, n, what)


def reference_pi_multiplicative(n):
    _multiplicative(peak.pi_map, peak.peak_elements(n), "the projection", f"S_{n}", mask_text)


# ---------------------------------------------------------------------------
# the count sums and the Mantaci-Reutenauer classes


def _sol_coords(a):
    return comm.sol_algebra(a.n).coords(a)


def ref_phi_forms(n):
    for j in range(n + 1):
        if maps.phi(comm.y_number(n, j)) != comm.phi_y_number_formula(n, j):
            raise CheckFailure(f"phi(y_{j}) closed form fails at n={n}")
    for j in range(1, n + 1):
        if maps.phi(comm.y0_number(n, j)) != comm.phi_y0_number_formula(n, j):
            raise CheckFailure(f"phi(y0_{j}) closed form fails at n={n}")
    for j in range(n + 1):
        if comm.phi_y_number_formula(n, j) != comm.phi_y_number_formula(n, n - j):
            raise CheckFailure(f"phi(y_{j}) != phi(y_{n - j}) at n={n}")
    all_p = sum((comm.peak_number(n, i) for i in range(n // 2 + 1)), AlgElem.zero("S", n))
    total = sum((comm.y_number(n, j) for j in range(n + 1)), AlgElem.zero("B", n))
    weighted = sum((comm.y_number(n, j).scale(j) for j in range(n + 1)), AlgElem.zero("B", n))
    if maps.phi(total) != all_p.scale(1 << n):
        raise CheckFailure(f"phi(sum y_j) != 2^n sum p_i at n={n}")
    if maps.phi(weighted) != all_p.scale(n * (1 << (n - 1))):
        raise CheckFailure(f"phi(sum j y_j) != n 2^(n-1) sum p_i at n={n}")


def ref_beta_forms(n):
    for j in range(n + 1):
        if maps.beta_map(comm.y_number(n, j)) != comm.beta_y_number_formula(n, j):
            raise CheckFailure(f"beta(y_{j}) casework fails at n={n}")
        if maps.beta_map(comm.x_number(n, j)) != comm.beta_x_number_formula(n, j):
            raise CheckFailure(f"beta(x_{j}) casework fails at n={n}")
    rank = Echelon(_sol_coords(maps.beta_map(comm.y_number(n, j))) for j in range(n + 1)).rank
    if rank != n:
        raise CheckFailure(f"restricted beta rank {rank} != {n} at n={n}")
    if maps.beta_map(comm.x_number(n, n)):
        raise CheckFailure(f"beta(x_n) != 0 at n={n}")


def ref_ker_beta2(n):
    for j in (n, n - 1):
        if maps.beta2_map(comm.x_number(n, j)):
            raise CheckFailure(f"beta^2(x_{j}) != 0 at n={n}")
    rows = []
    for j in range(n + 1):
        img = _sol_coords(maps.beta2_map(comm.y_number(n, j)))
        if img is None:
            raise CheckFailure("beta^2 image left the descent-count span")
        rows.append(img)
    if Echelon(rows).rank != n - 1:
        raise CheckFailure(f"beta^2 restricted rank != {n - 1} at n={n}")
    if Echelon(_sol_coords(comm.x_number(n, j)) for j in (n, n - 1)).rank != 2:
        raise CheckFailure("x_n, x_{n-1} are dependent")


def _from_d_x_coords(n, xcoords):
    return descent_algebra("D", n).element(x_to_y_coords(xcoords))


def ref_type_d(n):
    imgs_x, imgs_x0 = [], []
    for j in range(n + 1):
        got = maps.chi(comm.x_number(n, j))
        if got != _from_d_x_coords(n, comm.chi_x_number_coords(n, j)):
            raise CheckFailure(f"fold image of x_{j} closed form fails at n={n}")
        imgs_x.append(descent_coordinates(got, "D"))
    for j in range(1, n + 1):
        got = maps.chi(comm.x0_number(n, j))
        if got != _from_d_x_coords(n, comm.chi_x0_number_coords(n, j)):
            raise CheckFailure(f"fold image of x0_{j} closed form fails at n={n}")
        imgs_x0.append(descent_coordinates(got, "D"))
    if maps.chi(comm.x_number(n, n)) != maps.chi(comm.x0_number(n, n)):
        raise CheckFailure(f"fold images of x_n and x0_n differ at n={n}")
    if Echelon(imgs_x).rank != n + 1:
        raise CheckFailure(f"rank of fold images of x_j != {n + 1}")
    if Echelon(imgs_x0).rank != n:
        raise CheckFailure(f"rank of fold images of x0_j != {n}")
    witness = (
        maps.chi(comm.x_number(n, n - 1))
        - maps.chi(comm.x0_number(n, n - 1))
        - maps.chi(comm.x_number(n, n)).scale(Fraction(1, 2))
    )
    if witness:
        raise CheckFailure(f"second fold relation fails at n={n}")
    if Echelon(imgs_x + imgs_x0).rank != 2 * n - 1:
        raise CheckFailure(f"joint rank of fold images != {2 * n - 1}")


def reference_phi_images(n):
    """mr.check_phi_images at element level: sign forgetting of every S, T
    and S-tilde class sum against its closed form."""
    for alpha in mr.signed_compositions(n):
        if maps.phi(mr.s_basis(n, alpha)) != mr.phi_on_s_formula(n, alpha):
            raise CheckFailure(f"image of the S-class of {alpha} is wrong")
        if maps.phi(mr.t_basis(n, alpha)) != mr.phi_on_t_formula(n, alpha):
            raise CheckFailure(f"image of the T-class of {alpha} is wrong")
        if maps.phi(mr.stilde_basis(n, alpha)) != mr.phi_on_stilde_formula(n, alpha):
            raise CheckFailure(f"image of the S-tilde class of {alpha} is wrong")


def reference_order_axioms(cap: int):
    """mr/order-axioms as first written: each relation asked again for each axiom."""
    for n in range(1, cap + 1):
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
