"""Acceptance suite: each test runs one headline guarantee at full desk
scale with exact (zero-tolerance) comparisons and prints a pass line."""

from kkcrystals.partitions import (ChargedPartition, e_op, f_op,
                                   reduce_signature, signature, weight_of)
from kkcrystals.verify import (check_bruhat_subword, check_double_coset_index,
                               check_iso_commutation, check_kk_decomposition,
                               check_kk_invariance, check_kk_membership_routes,
                               check_kk_stabilization,
                               check_signature_closed_form,
                               check_tensor_convention)
from kkcrystals.weights import ALPHA0, ALPHA1, LAMBDA0


def _report(number, text):
    print("ACCEPTANCE %d PASS: %s" % (number, text))


def test_criterion_1_crystal_isomorphism():
    result = check_iso_commutation(max_boxes=18)
    assert result.ok, result.failures
    _report(1, "bijection commutes with e and f on %d checks (<= 18 boxes)"
            % result.cases)


def test_criterion_2_running_example_fidelity():
    b = ChargedPartition((8, 6, 3, 1), 0)
    assert weight_of(b) == LAMBDA0 - 9 * ALPHA0 - 9 * ALPHA1
    sig0 = signature(b, 0)
    assert sig0 == (("+", 1), ("+", 2), ("-", 3), ("-", 6), ("+", 9))
    sig1 = signature(b, 1)
    assert sig1 == (("-", 1), ("+", 4), ("+", 7), ("-", 8))
    assert reduce_signature(sig0) == (("+", 1), ("+", 2), ("-", 3))
    assert reduce_signature(sig1) == (("+", 7), ("-", 8))
    assert e_op(b, 0) == ChargedPartition((8, 6, 2, 1), 0)   # third column
    assert e_op(b, 1) == ChargedPartition((7, 6, 3, 1), 0)   # eighth column
    assert f_op(b, 0) == ChargedPartition((8, 6, 3, 2), 0)   # second column
    # the surviving plus of the reduced 1-signature is in column seven
    assert f_op(b, 1) == ChargedPartition((8, 7, 3, 1), 0)
    _report(2, "(8,6,3,1 | c=0) signatures, weight and operator actions")


def test_criterion_3_closed_form_signatures():
    result = check_signature_closed_form(max_boxes=18)
    assert result.ok, result.failures
    _report(3, "closed-form signatures match scanning on %d checks"
            % result.cases)


def test_criterion_4_double_coset_minima():
    result = check_double_coset_index(index_max=12)
    assert result.ok, result.failures
    _report(4, "closed-form double-coset minima match the wedge route "
               "on %d index pairs" % result.cases)


def test_criterion_5_kk_decomposition():
    result = check_kk_decomposition(p_max=7, cutoff=8)
    assert result.ok, result.failures
    _report(5, "generating functions equal crystal counts for %d crystals "
               "at cutoff 8" % result.cases)


def test_criterion_6_tensor_stabilization():
    result = check_kk_stabilization(cutoff=8)
    assert result.ok, result.failures
    _report(6, "large-p truncations match the subset counts of the full "
               "tensor product up to x^17 for both families")


def test_criterion_7_kk_crystal_invariance():
    invariance = check_kk_invariance(p_max=7, max_boxes=14)
    assert invariance.ok, invariance.failures
    routes = check_kk_membership_routes(p_max=7, max_boxes=14)
    assert routes.ok, routes.failures
    _report(7, "operators stay inside each crystal (%d checks) and both "
               "membership routes agree on %d pairs (<= 14 boxes)"
            % (invariance.cases, routes.cases))


def test_criterion_8_tensor_convention_oracle():
    result = check_tensor_convention(side_boxes=10)
    assert result.ok, result.failures
    _report(8, "tensor rule equals concatenated-path operators on %d checks "
               "(<= 10 boxes per side)" % result.cases)


def test_criterion_9_bruhat_closed_form():
    result = check_bruhat_subword(len_max=8)
    assert result.ok, result.failures
    _report(9, "length comparison equals the subword oracle on %d pairs"
            % result.cases)
