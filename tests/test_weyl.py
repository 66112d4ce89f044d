from kkcrystals.weyl import (IDENTITY, WeylElement, bruhat_ideal_min,
                             bruhat_leq, coset_element, double_coset_min,
                             double_coset_min_index, generator,
                             left_multiply, right_multiply, wedge)
from kkcrystals.verify import all_elements, check_ideal_min

import pytest

S0 = generator(0)
S1 = generator(1)


def w(text):
    return WeylElement.from_string(text)


def test_left_multiply_examples():
    assert left_multiply(0, IDENTITY) == w("s0")
    assert left_multiply(0, w("s0 s1 s0")) == w("s1 s0")
    assert left_multiply(1, w("s0 s1")) == w("s1 s0 s1")


def test_left_multiply_changes_length_by_one():
    for u in all_elements(8):
        for g in (0, 1):
            assert abs(left_multiply(g, u).length - u.length) == 1


def test_right_multiply_cancels_on_the_right():
    assert right_multiply(w("s0 s1"), 1) == w("s0")
    assert right_multiply(w("s0 s1"), 0) == w("s0 s1 s0")
    assert right_multiply(IDENTITY, 1) == S1


def test_inverse_reverses_the_word():
    for u in all_elements(8):
        assert u.inverse().word() == tuple(reversed(u.word()))
        assert u.inverse().inverse() == u


def test_bruhat_examples():
    assert bruhat_leq(IDENTITY, w("s0 s1 s0"))
    assert bruhat_leq(IDENTITY, IDENTITY)
    assert bruhat_leq(w("s0"), w("s1 s0"))
    assert not bruhat_leq(w("s0 s1 s0"), w("s1 s0 s1"))



def test_coset_representatives():
    assert coset_element("+", 0) == IDENTITY
    assert coset_element("+", 1) == w("s0")
    assert coset_element("+", 2) == w("s1 s0")
    assert coset_element("-", 3) == w("s1 s0 s1")
    assert coset_element("-", 1) == w("s1")
    for sign in "+-":
        for n in range(1, 10):
            elem = coset_element(sign, n)
            assert elem.last == (0 if sign == "+" else 1)
            assert bruhat_leq(coset_element(sign, n - 1), elem)


def test_wedge():
    assert wedge(IDENTITY, 0) == IDENTITY
    assert wedge(w("s1 s0"), 1) == w("s0")
    assert wedge(w("s1 s0"), 0) == w("s1 s0")


def test_ideal_min_examples():
    assert bruhat_ideal_min(IDENTITY, w("s0 s1")) == w("s0 s1")
    assert bruhat_ideal_min(w("s0"), w("s0 s1 s0")) == w("s1 s0")
    assert bruhat_ideal_min(w("s1 s0"), w("s0 s1")) == IDENTITY


def test_ideal_min_is_the_orbit_minimum():
    result = check_ideal_min(6)
    assert result.ok, result.failures


def test_double_coset_min_examples():
    assert double_coset_min(0, IDENTITY, 0) == IDENTITY
    assert double_coset_min(0, coset_element("+", 2), 0) == w("s0")
    assert double_coset_min(1, w("s0"), 0) == IDENTITY


def test_double_coset_min_index_examples():
    for n in range(6):
        assert double_coset_min_index(0, n, n) == 0
    assert double_coset_min_index(0, 2, 5) == 3
    assert double_coset_min_index(1, 2, 6) == 4



def test_serialization_round_trip():
    for u in all_elements(6):
        assert WeylElement.from_string(u.to_string()) == u
    assert IDENTITY.to_string() == "e"
    assert w("s1 s0").to_string() == "s1 s0"


def test_invalid_words_rejected():
    with pytest.raises(ValueError):
        WeylElement.from_string("s0 s0")
    with pytest.raises(ValueError):
        WeylElement.from_string("s2")
    with pytest.raises(ValueError):
        WeylElement(2, None)
