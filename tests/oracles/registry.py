"""One table: each verify check ID, its /n=k segments dropped, -> its oracle.

An oracle takes one declared case of its check, as the check's body does;
a diagram's takes first the element-level form of the diagram at the rank
its ID names.  An ID with no element-level oracle has a one-line reason in
NO_ORACLE instead (tests/test_oracles.py).
"""

import re
from functools import partial

from peakalg import verify
from peakalg.reporting import run_checks

from oracles import diagrams, hopf, reference_builder_relations, rows
from oracles.diagrams import DIAGRAMS, reference_spec

ORACLES = {
    "chi/closed-forms": rows.ref_chi_closed_forms,
    "chi/image-three-classes": rows.ref_chi_image,
    "chi/multiplicative": rows.reference_chi_multiplicative,
    "commutative/beta-forms": rows.ref_beta_forms,
    "commutative/builders": reference_builder_relations,
    "commutative/ker-beta2": rows.ref_ker_beta2,
    "commutative/phi-forms": rows.ref_phi_forms,
    "commutative/type-d-images": rows.ref_type_d,
    **{f"diagram/{kind}/arrows-land-in-nodes": diagrams.ref_lands for kind in DIAGRAMS},
    "diagram/bd-triangles/path[chi*gamma==beta2]": diagrams.ref_paths,
    "diagram/bd-triangles/path[chi*psi==phi]": diagrams.ref_paths,
    "diagram/bexact/exact-row[inc,beta2]": diagrams.ref_exact,
    "diagram/bexact/exact-row[inc_low,pi]": diagrams.ref_exact,
    "diagram/bexact/onto[phi_bot]": diagrams.ref_onto,
    "diagram/bexact/onto[phi_mid]": diagrams.ref_onto,
    "diagram/bexact/onto[phi_top]": diagrams.ref_onto,
    "diagram/bexact/path[beta2*phi_bot==phi_mid*pi]": diagrams.ref_paths,
    "diagram/bexact/path[inc*phi_mid==phi_top*inc_low]": diagrams.ref_paths,
    "diagram/dexact/exact-row[inc,gamma]": diagrams.ref_exact,
    "diagram/dexact/exact-row[inc_low,pi]": diagrams.ref_exact,
    "diagram/dexact/onto[phi_bot]": diagrams.ref_onto,
    "diagram/dexact/onto[psi_mid]": diagrams.ref_onto,
    "diagram/dexact/onto[psi_top]": diagrams.ref_onto,
    "diagram/dexact/path[gamma*phi_bot==psi_mid*pi]": diagrams.ref_paths,
    "diagram/dexact/path[inc*psi_mid==psi_top*inc_low]": diagrams.ref_paths,
    "diagram/sbexact/exact-row[inc,beta2]": diagrams.ref_exact,
    "diagram/sbexact/exact-row[inc_low,pi]": diagrams.ref_exact,
    "diagram/sbexact/onto[phi_bot]": diagrams.ref_onto,
    "diagram/sbexact/onto[phi_mid]": diagrams.ref_onto,
    "diagram/sbexact/onto[phi_top]": diagrams.ref_onto,
    "diagram/sbexact/path[beta2*phi_bot==phi_mid*pi]": diagrams.ref_paths,
    "diagram/sbexact/path[inc*phi_mid==phi_top*inc_low]": diagrams.ref_paths,
    "hopf/coassociative-counit-singles": hopf.reference_singles,
    "hopf/concat-ideal": hopf.reference_i0_star,
    "hopf/concat-mr": hopf.reference_omega_star,
    "hopf/concat-type-a": hopf.reference_sola_star,
    "hopf/concat-type-b-module": hopf.reference_solb_module_star,
    "hopf/coproduct-closures": hopf.reference_delta_closures,
    "hopf/drop-via-coproduct": hopf.reference_beta_via_coproduct,
    "hopf/free-module": hopf.reference_free_module,
    "hopf/ideal-type-a-isomorphism": hopf.reference_i0_sola_isomorphism,
    "hopf/interior-shuffle-closure": hopf.reference_pint_star_closure,
    "hopf/internal-coproduct-compat": hopf.reference_delta_internal_compat,
    "hopf/module-morphisms": hopf.reference_module_morphisms,
    "hopf/peak-module-closure": hopf.reference_peak_module_star,
    "hopf/transform-morphisms": hopf.reference_theta_hopf,
    "ideals/drops-multiplicative": rows.reference_drops_multiplicative,
    "ideals/images-onto-interior": rows.ref_images_onto_interior,
    "ideals/kernel-of-drop": rows.ref_kernel_of_drop,
    "ideals/left-ideal-failure-witness": rows.ref_left_ideal_failure,
    "mr/increasing-class-products": rows.reference_increasing_class_products,
    "mr/order-axioms": rows.reference_order_axioms,
    "mr/phi-images": rows.reference_phi_images,
    "peaks/projection-multiplicative": rows.reference_pi_multiplicative,
    "phi/closed-forms": rows.ref_phi_closed_forms,
    "phi/ideal-closed-forms": rows.ref_phi_ideal_forms,
    "phi/increasing-class-image": rows.ref_phi_generator_image,
    "phi/multiplicative": rows.reference_phi_multiplicative,
    "psi/closed-forms": rows.ref_psi_closed_forms,
    "theta/bijective-on-ideal": rows.reference_bijective,
    "theta/bijective-on-interior": rows.ref_bijective_on_interior,
    "theta/image-is-interior-ideal": rows.ref_image_is_interior,
    "theta/principal-right-ideals": rows.ref_principal,
    "theta/square-with-sign-forgetting": rows.reference_square,
    "theta/type-a-values": rows.ref_type_a_values,
    "theta/type-b-values": rows.reference_type_b_values,
}

# each ID with no element-level oracle, and why; "no oracle yet" marks a gap
NO_ORACLE = {
    "chi/class-support-counts": "itself element-level: counts members of D_n against imchi_basis",
    "commutative/dimensions": "span dimensions against closed formulas",
    "commutative/not-in-descent-count-span": "a pinned witness: the rank and label of the escape",
    "commutative/peak-side-dimensions-to-8": "span dimensions against closed formulas, to rank 8",
    "commutative/pi-forms": "no oracle yet: the projection of the peak-count sums on class rows",
    "commutative/solhat-closure": "no oracle yet: closure and the ideal on the count cube",
    "commutative/whp-closure": "no oracle yet: closure and the ideal on the count cube",
    "commutative/whp-table": "a table build, pinned by the frozen tables of test_acceptance",
    "descents/composition-associative-B3": "itself element-level: composes every triple of B_3",
    "descents/enumeration-counts": "a count against a closed formula",
    "descents/fibonacci-counts": "a count against a closed formula",
    "descents/length-oracle": "itself element-level: descents against Cayley-graph lengths",
    "descents/partition-and-xy-inverse": "itself element-level: the classes partition the group",
    "descents/peak-sets-realized": "itself element-level: the peak set of every permutation",
    "descents/sign-maps": "itself element-level: the sign maps on every element",
    "descents/structure-closure": "integrality of cubes that test_compose_kernel builds by |G|^2",
    "hopf/generator-coproducts": "itself element-level: each generator's coproduct term by term",
    "hopf/peak-not-closed-witness": "a pinned witness",
    "hopf/shuffle-coefficients-distinct": "itself element-level: shuffles of single permutations",
    "ideals/canonical-two-sided": "no oracle yet: products read on the type-B cube",
    "ideals/dimension-obstruction": "a count against a closed formula",
    "mr/class-recovery": "a pinned witness",
    "mr/closure": "a cube build, against the |G|^2 cube in test_compose_kernel",
    "mr/operators": "pinned examples of the composition operators: a codec",
    "mr/order-sums": "no oracle yet: order sums read on cached T-coordinates",
    "mr/partition": "itself element-level: the T-classes partition B_n",
    "mr/phi-onto": "no oracle yet: a span read on class rows",
    "mr/signed-composition-counts": "a count against a closed formula",
    "peaks/closure": "a cube build, against the |G|^2 cube in test_coarse_cube",
    "peaks/dimensions-to-8": "span ranks against Fibonacci numbers, to rank 8",
    "peaks/forms-agree": "itself element-level: the classes binned element by element",
    "peaks/noncommutative-witness": "a pinned witness",
    "peaks/quotient": "no oracle yet: the projection's kernel read on labels",
    "peaks/tables-build": "a table build",
    "peaks/two-sided-ideal": "no oracle yet: products read on the type-A cube",
    "peaks/unitriangular-image": "no oracle yet: the closed form of phi read on peak labels",
    "phi/complement-symmetry": "a symmetry of a closed form, stated apart in oracles.forms",
    "psi/flip-invariance": "itself element-level: psi of every monomial",
    "psi/fork-equality": "an equality of two closed forms",
    "words/algebra-morphism": "itself element-level: the action on words",
    "words/bracket-identity": "itself element-level: the action on words",
    "words/convolution": "itself element-level: the action on words",
    "words/right-action-law": "itself element-level: the action on words",
    "words/symmetrizer-identity": "itself element-level: the action on words",
}


def normalized(check_id: str) -> str:
    """The check ID with every /n=k segment dropped."""
    return re.sub(r"/n=\d+", "", check_id)


def declared(n_max: int, deep: bool = False) -> list:
    """Every Check record that verify declares at the ceiling n_max; none is run."""
    return [check for suite in verify.SUITES.values() for check in suite(n_max, deep)]


def declared_check(check_id: str, n_max: int, deep: bool = False):
    """The one Check record of ID check_id that verify declares at the ceiling n_max."""
    (check,) = [c for c in declared(n_max, deep) if c.check_id == check_id]
    return check


def oracle_of(check_id: str):
    """The oracle of a declared check, a function of one of its cases: a
    diagram's reads the diagram and its rank from the ID."""
    oracle = ORACLES[normalized(check_id)]
    if check_id.startswith("diagram/"):
        _, kind, rank, _ = check_id.split("/", 3)
        n = int(rank.removeprefix("n="))
        return partial(oracle, reference_spec(DIAGRAMS[kind](n), n))
    return oracle


def both(check, oracle=None) -> list:
    """The results of a declared check and of its oracle (oracle_of its ID
    unless given) on the check's cases, each run through run_checks."""
    return run_checks([check, check._replace(body=oracle or oracle_of(check.check_id))])


def both_fail(check_id: str, n_max: int) -> tuple:
    """The results of the check check_id that verify declares at the ceiling
    n_max and of its oracle, asserted to be failures."""
    check, oracle = both(declared_check(check_id, n_max))
    assert (check.status, oracle.status) == ("fail", "fail"), (check, oracle)
    return check, oracle
