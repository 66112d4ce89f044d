from decimal import Decimal
from fractions import Fraction

import pytest

from kkcrystals.weights import (ALPHA0, ALPHA1, DELTA, LAMBDA0, LAMBDA1,
                                Weight, fundamental, pair_coroot, reflect)
from kkcrystals.weyl import IDENTITY, act, coset_element, left_multiply
from kkcrystals.verify import all_elements


def test_constants():
    assert DELTA == ALPHA0 + ALPHA1
    assert DELTA == Weight(0, 0, 1)
    for i in (0, 1):
        for j in (0, 1):
            assert pair_coroot(fundamental(i), j) == (1 if i == j else 0)


def test_cartan_entries():
    assert pair_coroot(ALPHA0, 0) == 2
    assert pair_coroot(ALPHA0, 1) == -2
    assert pair_coroot(ALPHA1, 0) == -2
    assert pair_coroot(ALPHA1, 1) == 2
    assert pair_coroot(DELTA, 0) == 0 and pair_coroot(DELTA, 1) == 0


def test_reflect():
    assert reflect(0, LAMBDA0) == LAMBDA0 - ALPHA0
    assert reflect(1, LAMBDA0) == LAMBDA0
    for lam in (LAMBDA0, LAMBDA1, ALPHA0, Weight(3, -5, -2)):
        for i in (0, 1):
            assert reflect(i, reflect(i, lam)) == lam


def test_act_identity_and_group_law():
    lam = Weight(2, -1, 3)
    assert act(IDENTITY, lam) == lam
    for u in all_elements(5):
        for g in (0, 1):
            assert act(left_multiply(g, u), lam) == reflect(g, act(u, lam))


def test_act_on_coset_orbit_of_the_level_one_weight():
    # images of the 0th fundamental weight under the plus representatives
    for k in range(7):
        even = act(coset_element(0, 2 * k), LAMBDA0)
        assert pair_coroot(even, 0) == 2 * k + 1
        assert pair_coroot(even, 1) == -2 * k
        if k >= 1:
            odd = act(coset_element(0, 2 * k - 1), LAMBDA0)
            assert pair_coroot(odd, 0) == -(2 * k - 1)
            assert pair_coroot(odd, 1) == 2 * k


def test_display():
    assert (LAMBDA0 - 9 * ALPHA0 - 9 * ALPHA1).display() == "Λ0 - 9α0 - 9α1"
    assert LAMBDA1.display() == "Λ1"
    assert (LAMBDA0 + ALPHA1).display() == "Λ0 + 1α1"
    assert (LAMBDA0 - ALPHA0).display() == "Λ0 - 1α0"
    assert Weight(-1, 0, 0).display() == "(-1, 0, 0)"
    # level 0 with c0 odd has no nonnegative a of the right parity
    assert Weight(1, -1, 0).display() == "(1, -1, 0)"
    assert (2 * LAMBDA0 - ALPHA0).display() == "2Λ0 - 1α0"
    # a leading negative coefficient keeps its sign
    assert (-ALPHA0).display() == "-1α0"
    assert (-DELTA).display() == "-1α0 - 1α1"
    assert Weight(0, 0, 0).display() == "0"


def test_json_round_trip():
    lam = Weight(3, -2, -5)
    data = lam.to_json()
    assert data == {"c0": "3", "c1": "-2", "d": "-5"}


@pytest.mark.parametrize("inexact",
                         [0.1, 1.0, True, False, "1/2", Decimal("0.1"),
                          Fraction(1, 2), Fraction(2), LAMBDA0])
def test_floats_and_bools_are_refused(inexact):
    with pytest.raises(TypeError):
        Weight(inexact, 0, 0)
    with pytest.raises(TypeError):
        LAMBDA0 * inexact
    with pytest.raises(TypeError):
        inexact * LAMBDA0

