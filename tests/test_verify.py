"""Each failure message of the verify checks that no other test reaches,
reached by breaking names in verify's namespace."""

import pytest

from kkcrystals import verify
from kkcrystals.kk import MultiplicityTable
from kkcrystals.partitions import epsilon, phi
from kkcrystals.paths import direction_weight
from kkcrystals.verify import (check_iso_commutation, check_kk_invariance,
                               check_kk_monotone, check_operator_inverses,
                               check_path_integrality, check_reduction_oracle,
                               check_string_lengths, check_tensor_structure)
from kkcrystals.weights import DELTA


def never(*args):
    return None


def other_shape(shape, k):
    return direction_weight(1 - shape, k)


def minus_then_plus(entries):
    return (("-", 0), ("+", 0))


# one failure message per row: the check and its sizes, the names it
# breaks in verify (two where one alone meets an earlier branch first)
# and the first failure it must report
VERIFY_BREAKS = {
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
    "path kill": (
        check_iso_commutation, (4,), {"f_path": never},
        "f kill mismatch at (∅ | c=0), i=0"),
    "direction weight": (
        check_iso_commutation, (4,), {"direction_weight": other_shape},
        "direction weight 0 is off at (∅ | c=0)"),
    "scaled profile": (
        check_path_integrality, (4,), {"direction_weight": other_shape},
        "scaled profile differs at LSPath(L0, n=0, steps=[]), i=0"),
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
    for attribute, value in broken.items():
        monkeypatch.setattr(verify, attribute, value)
    result = run(*sizes)
    assert (result.cases, result.failures[0]) == (cases, message)
