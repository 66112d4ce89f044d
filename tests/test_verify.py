"""Every failure message of the verify checks that a break can reach, one
VERIFY_BREAKS row each: a row breaks names in verify's namespace, or an
attribute verify reads off another owner, and asserts the first failure
the check reports and that its case count is unchanged.  A new message
gets a new row.

One message has no row: integrality's second ("%s, i=%d", a local minimum
of the D-scaled profile off the multiples of D).  The scaled profile is
the oracle the first message compares the exact profile with, so the
second fires only if the exact profile and its oracle break alike."""

import pytest

from kkcrystals import verify
from kkcrystals.kk import MultiplicityTable
from kkcrystals.partitions import (ChargedPartition, e_op, epsilon, phi,
                                   weight_of)
from kkcrystals.paths import LSPath, direction_weight
from kkcrystals.tensor import concat_path_op, is_highest_weight
from kkcrystals.verify import (
    check_bruhat_subword, check_dominance, check_double_coset_index,
    check_ideal_min, check_iso_commutation, check_kk_decomposition,
    check_kk_invariance, check_kk_membership_routes, check_kk_monotone,
    check_kk_stabilization, check_left_multiply_involution,
    check_operator_inverses, check_path_bijectivity, check_path_integrality,
    check_reduction_oracle, check_signature_closed_form, check_string_lengths,
    check_tensor_convention, check_tensor_structure)
from kkcrystals.weights import DELTA
from kkcrystals.weyl import IDENTITY


def never(*args):
    return None


def other_shape(shape, k):
    return direction_weight(1 - shape, k)


def minus_then_plus(entries):
    return (("-", 0), ("+", 0))


def factors_swapped(i, left, right, op):
    images = concat_path_op(i, left, right, op)
    return images and images[::-1]


# one failure message per row: the check and its sizes, the names it
# breaks in verify, or as (owner, name) elsewhere (two where one alone
# meets an earlier branch first), and the first failure it must report
VERIFY_BREAKS = {
    "bruhat order": (
        check_bruhat_subword, (2,), {"bruhat_leq": never},
        "disagree on (e, e)"),
    "left multiplication": (
        check_left_multiply_involution, (2,),
        {"left_multiply": lambda g, w: IDENTITY}, "s0 twice moved s0"),
    "ideal minimum": (
        check_ideal_min, (2,), {"bruhat_ideal_min": never},
        "min I(e)e gave None"),
    "double-coset minimum": (
        check_double_coset_index, (2,), {"double_coset_min": never},
        "type 0, n=0, m=0: None != e"),
    "closed-form signature": (
        check_signature_closed_form, (4,),
        {"closed_form_signature": lambda cp, i: "?"}, "(1 | c=0), i=0"),
    "stack reduction": (
        check_reduction_oracle, (4,), {"formal_reduction": lambda sig: ()},
        "(∅ | c=0), i=0"),
    "phi/epsilon off the scan": (
        check_reduction_oracle, (4,), {"phi": lambda cp, i: phi(cp, i) + 1},
        "phi/epsilon differ from the scan at (∅ | c=0), i=0"),
    "f off the scan's column": (
        check_reduction_oracle, (4,), {"f_op": never},
        "f moved a box off the scan's column at (∅ | c=0), i=0"),
    "e off the scan's column": (
        check_reduction_oracle, (4,), {"e_op": never},
        "e moved a box off the scan's column at (1 | c=0), i=0"),
    "reduced signature not plus-then-minus": (
        check_reduction_oracle, (4,),
        {"reduce_signature": minus_then_plus,
         "formal_reduction": minus_then_plus},
        "reduced signature '-+' is not plus-then-minus"),
    "e f on partitions": (
        check_operator_inverses, (4,), {"e_op": never},
        "e f != id at (∅ | c=0), i=0"),
    "f e on partitions": (
        check_operator_inverses, (4,), {"f_op": never},
        "f e != id at (1 | c=0), i=0"),
    "partition weight step": (
        check_operator_inverses, (4,), {"weight_of": lambda cp: DELTA},
        "weight step wrong at (1 | c=0), i=0"),
    "epsilon string": (
        check_string_lengths, (4,),
        {"epsilon": lambda cp, i: epsilon(cp, i) + 1},
        "epsilon mismatch at (∅ | c=0), i=0"),
    "phi string": (
        check_string_lengths, (4,), {"phi": lambda cp, i: phi(cp, i) + 1},
        "phi mismatch at (∅ | c=0), i=0"),
    "iso round trip": (
        check_iso_commutation, (4,),
        {"path_to_partition": lambda path: ChargedPartition((), 0)},
        "round trip failed at (1 | c=0)"),
    "iso weights": (
        check_iso_commutation, (4,),
        {"weight_of": lambda cp: weight_of(cp) + DELTA},
        "weights differ at (∅ | c=0)"),
    "bounding rectangle": (
        check_iso_commutation, (4,),
        {(ChargedPartition, "bounding_rect"): property(lambda cp: (-1, -1))},
        "directions miss the bounding rectangle at (∅ | c=0)"),
    "path round trip": (
        check_path_bijectivity, (4,),
        {"partition_to_path": lambda cp: LSPath(0, 0)},
        "round trip failed at LSPath(L0, n=1, steps=[])"),
    "path kill": (
        check_iso_commutation, (4,), {"f_path": never},
        "f kill mismatch at (∅ | c=0), i=0"),
    "path images": (
        check_iso_commutation, (4,), {"f_path": lambda path, i: path},
        "f images differ at (∅ | c=0), i=0"),
    "path e kill": (
        check_iso_commutation, (4,), {"e_op": lambda cp, i: e_op(cp, 0)},
        "e kill mismatch at (1 | c=0), i=1"),
    "e f on paths": (
        check_iso_commutation, (4,), {"e_path": never},
        "e f != id on paths at (∅ | c=0), i=0"),
    "direction weight": (
        check_iso_commutation, (4,), {"direction_weight": other_shape},
        "direction weight 0 is off at (∅ | c=0)"),
    "dominance": (
        check_dominance, (4,), {"is_lambda_dominant": never},
        "(∅ | c=0), fundamental 0"),
    "scaled profile": (
        check_path_integrality, (4,), {"direction_weight": other_shape},
        "scaled profile differs at LSPath(L0, n=0, steps=[]), i=0"),
    "tensor rule kill": (
        check_tensor_convention, (2,), {"concat_path_op": never},
        "f kill mismatch at (∅ | c=0) ⊗ (∅ | c=0), i=0"),
    "tensor rule images": (
        check_tensor_convention, (2,), {"concat_path_op": factors_swapped},
        "f images differ at (∅ | c=0) ⊗ (∅ | c=0), i=0"),
    "highest-weight law": (
        check_tensor_structure, (4,),
        {"is_highest_weight": lambda t: not is_highest_weight(t)},
        "highest-weight law fails at (∅ | c=0) ⊗ (∅ | c=0)"),
    "highest weight of the summand": (
        check_tensor_structure, (4,),
        {"weight_of_dominant": lambda charge, right: DELTA},
        "highest weight differs from its summand's at "
        "(∅ | c=0) ⊗ (∅ | c=0)"),
    "tensor f weight step": (
        check_tensor_structure, (4,), {"simple_root": lambda i: DELTA},
        "f weight step wrong at (∅ | c=0) ⊗ (∅ | c=0), i=0"),
    "tensor e f": (
        check_tensor_structure, (4,), {"tensor_e": never},
        "e f != id at (∅ | c=0) ⊗ (∅ | c=0), i=0"),
    "raising increases the associated element": (
        check_tensor_structure, (4,), {"bruhat_leq": never},
        "raising increased the associated element at (∅ | c=0) ⊗ (2 | c=0)"),
    "tensor e weight step": (
        check_tensor_structure, (4,),
        {"tensor_f": never, "simple_root": lambda i: DELTA},
        "e weight step wrong at (∅ | c=0) ⊗ (2 | c=0), i=1"),
    "tensor f e": (
        check_tensor_structure, (4,), {"tensor_f": never},
        "f e != id at (∅ | c=0) ⊗ (2 | c=0), i=1"),
    "operator image escapes the submodule crystal": (
        check_kk_invariance, (1, 4), {"in_kk_crystal": lambda spec, t: False},
        "escaped K(0, 0) at (∅ | c=0) ⊗ (∅ | c=0), i=0"),
    "submodule arrows not undone by e_i": (
        check_kk_invariance, (1, 4), {"tensor_e": never},
        "arrows differ from f_i in K(0, 0) at (1 | c=0) ⊗ (∅ | c=0), i=0"),
    "membership routes": (
        check_kk_membership_routes, (1, 4), {"in_kk_crystal_by_weyl": never},
        "routes disagree for K(0, 0) at (∅ | c=0) ⊗ (∅ | c=0)"),
    "decomposition tables": (
        check_kk_decomposition, (2, 3), {"decomposition_via_crystal": never},
        "tables differ for K(0, 0)"),
    "stabilization": (
        check_kk_stabilization, (3,), {"decomposition": never},
        "stabilization fails for lambda_type 0"),
    "a-entries drop": (
        check_kk_monotone, (4, 3),
        {"decomposition": lambda spec, cutoff:
         MultiplicityTable((-spec.p,), None)},
        "a-entries drop from p=0 to p=1"),
    "b-entries drop": (
        check_kk_monotone, (4, 3),
        {"decomposition": lambda spec, cutoff:
         MultiplicityTable((0,), (-spec.p,))},
        "b-entries drop from p=0 to p=1"),
}


@pytest.mark.parametrize("name", sorted(VERIFY_BREAKS))
def test_a_broken_check_reports_its_first_failure(name, monkeypatch):
    run, sizes, broken, message = VERIFY_BREAKS[name]
    cases = run(*sizes).cases
    for key, value in broken.items():
        owner, attribute = key if type(key) is tuple else (verify, key)
        monkeypatch.setattr(owner, attribute, value)
    result = run(*sizes)
    assert (result.cases, result.failures[0]) == (cases, message)
