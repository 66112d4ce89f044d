from kkcrystals.weyl import (IDENTITY, WeylElement, bruhat_ideal_min,
                             bruhat_leq, coset_element, double_coset_min,
                             double_coset_min_index, left_multiply,
                             right_multiply, wedge)
from kkcrystals.verify import all_elements

import pytest

# elements as WeylElement(length, first letter of the reduced word)
S0 = WeylElement(1, 0)
S1 = WeylElement(1, 1)


def test_left_multiply_examples():
    assert left_multiply(0, IDENTITY) == S0
    assert left_multiply(0, WeylElement(3, 0)) == WeylElement(2, 1)
    assert left_multiply(1, WeylElement(2, 0)) == WeylElement(3, 1)


def test_left_multiply_changes_length_by_one():
    for u in all_elements(8):
        for g in (0, 1):
            assert abs(left_multiply(g, u).length - u.length) == 1


def test_right_multiply_cancels_on_the_right():
    assert right_multiply(WeylElement(2, 0), 1) == S0
    assert right_multiply(WeylElement(2, 0), 0) == WeylElement(3, 0)
    assert right_multiply(IDENTITY, 1) == S1


def test_inverse_reverses_the_word():
    for u in all_elements(8):
        assert u.inverse().word() == tuple(reversed(u.word()))
        assert u.inverse().inverse() == u


def test_bruhat_examples():
    assert bruhat_leq(IDENTITY, WeylElement(3, 0))
    assert bruhat_leq(IDENTITY, IDENTITY)
    assert bruhat_leq(S0, WeylElement(2, 1))
    assert not bruhat_leq(WeylElement(3, 0), WeylElement(3, 1))


def test_coset_representatives():
    assert coset_element(0, 0) == IDENTITY
    assert coset_element(0, 1) == S0
    assert coset_element(0, 2) == WeylElement(2, 1)
    assert coset_element(1, 3) == WeylElement(3, 1)
    assert coset_element(1, 1) == S1
    for shape in (0, 1):
        for n in range(1, 10):
            elem = coset_element(shape, n)
            assert elem.last == shape
            assert bruhat_leq(coset_element(shape, n - 1), elem)


def test_wedge():
    assert wedge(IDENTITY, 0) == IDENTITY
    assert wedge(WeylElement(2, 1), 1) == S0
    assert wedge(WeylElement(2, 1), 0) == WeylElement(2, 1)


def test_ideal_min_examples():
    assert bruhat_ideal_min(IDENTITY, WeylElement(2, 0)) == WeylElement(2, 0)
    assert bruhat_ideal_min(S0, WeylElement(3, 0)) == WeylElement(2, 1)
    assert bruhat_ideal_min(WeylElement(2, 1), WeylElement(2, 0)) == IDENTITY


def test_double_coset_min_examples():
    assert double_coset_min(0, IDENTITY) == IDENTITY
    assert double_coset_min(0, coset_element(0, 2)) == S0
    assert double_coset_min(1, S0) == IDENTITY


def test_double_coset_min_index_examples():
    for n in range(6):
        assert double_coset_min_index(0, n, n) == 0
    assert double_coset_min_index(0, 2, 5) == 3
    assert double_coset_min_index(1, 2, 6) == 4


def test_serialization_round_trip():
    elems = all_elements(6)
    assert len({u.to_string() for u in elems}) == len(elems)
    assert IDENTITY.to_string() == "e"
    assert WeylElement(2, 1).to_string() == "s1 s0"
    assert WeylElement(3, 0).to_string() == "s0 s1 s0"
    assert str(WeylElement(3, 0)) == "s0 s1 s0"
    assert IDENTITY.last is None


def test_invalid_words_rejected():
    with pytest.raises(ValueError):
        WeylElement(2, None)
    with pytest.raises(ValueError):
        WeylElement(-1, None)
    with pytest.raises(ValueError):
        WeylElement(1, 2)
