import re
from itertools import combinations

import pytest

from kkcrystals import partitions
from kkcrystals.kk import dominant_set
from kkcrystals.partitions import (ChargedPartition, _distinct_parts,
                                   _one_enumeration, closed_form_signature,
                                   e_op, enumerate_regular, epsilon, f_op,
                                   gap_conjugate, phi, reduce_signature,
                                   signature, signs, weight_of)
from kkcrystals.verify import (check_operator_inverses, check_reduction_oracle,
                               check_signature_closed_form)
from kkcrystals.weights import ALPHA0, ALPHA1, LAMBDA0, LAMBDA1

RUNNING = ChargedPartition((8, 6, 3, 1), 0)
EMPTY0 = ChargedPartition((), 0)
EMPTY1 = ChargedPartition((), 1)


def test_signatures_of_the_empty_diagram():
    assert signature(EMPTY0, 0) == (("+", 1),)
    assert signature(EMPTY0, 1) == ()
    assert signature(EMPTY1, 1) == (("+", 1),)
    assert signature(EMPTY1, 0) == ()


def test_reduced_signatures():
    red0 = reduce_signature(signature(RUNNING, 0))
    assert signs(red0) == "++-" and red0 == (("+", 1), ("+", 2), ("-", 3))
    red1 = reduce_signature(signature(RUNNING, 1))
    assert signs(red1) == "+-" and red1 == (("+", 7), ("-", 8))
    assert reduce_signature(()) == ()


def test_epsilon_phi():
    assert epsilon(RUNNING, 0) == 1 and phi(RUNNING, 0) == 2
    assert epsilon(RUNNING, 1) == 1 and phi(RUNNING, 1) == 1
    assert epsilon(EMPTY0, 0) == 0 and epsilon(EMPTY0, 1) == 0
    assert phi(EMPTY0, 0) == 1 and phi(EMPTY0, 1) == 0


def test_operators_kill_at_the_ends():
    assert e_op(EMPTY0, 0) is None and e_op(EMPTY0, 1) is None
    assert f_op(EMPTY0, 1) is None
    assert f_op(EMPTY0, 0) == ChargedPartition((1,), 0)


def test_weights():
    assert weight_of(RUNNING) == LAMBDA0 - 9 * ALPHA0 - 9 * ALPHA1
    assert weight_of(EMPTY1) == LAMBDA1
    assert weight_of(ChargedPartition((1,), 0)) == LAMBDA0 - ALPHA0


def test_gap_conjugate():
    assert gap_conjugate(RUNNING) == (3, 2, 2, 1)
    assert gap_conjugate(EMPTY0) == ()
    assert gap_conjugate(ChargedPartition((2, 1), 0)) == ()
    assert gap_conjugate(ChargedPartition((2,), 0)) == (1,)


def test_closed_form_signature_examples():
    assert closed_form_signature(RUNNING, 0) == "++--+"
    assert closed_form_signature(RUNNING, 1) == "-++-"
    assert closed_form_signature(ChargedPartition((2, 1), 0), 1) == "--"
    assert closed_form_signature(ChargedPartition((1,), 0), 0) == "-"
    assert closed_form_signature(ChargedPartition((1,), 0), 1) == "++"
    with pytest.raises(ValueError):
        closed_form_signature(EMPTY0, 0)


def test_reduction_matches_the_substring_definition():
    # also checks that every reduced signature is plus signs then minus signs
    result = check_reduction_oracle(18)
    assert result.ok, result.failures


def test_operators_are_partial_inverses():
    # the e-side weight step at 19 boxes covers every f image of 18 boxes
    result = check_operator_inverses(19)
    assert result.ok, result.failures


def test_bounding_rect():
    assert RUNNING.bounding_rect == (8, 4)
    assert EMPTY0.bounding_rect == (0, 0)
    assert ChargedPartition((5,), 0).bounding_rect == (5, 1)


def test_enumerate_regular():
    assert [cp.parts for cp in enumerate_regular(0, 0)] == [()]
    assert [cp.parts for cp in enumerate_regular(0, 3)] == \
        [(), (1,), (2,), (3,), (2, 1)]
    assert len(enumerate_regular(0, 10)) == 43


def test_each_enumeration_is_a_prefix_of_a_longer_one():
    # a shared enumeration hands out the prefix of its one list per charge
    for charge in (0, 1):
        lists = [enumerate_regular(charge, n) for n in range(17)]
        for n, short in enumerate(lists):
            for longer in lists[n + 1:]:
                assert longer[:len(short)] == short


def test_a_shared_enumeration_hands_out_copies_of_one_list():
    sizes = (5, 2, 9, 0, 9, 12, 3)  # shorter, longer and equal requests
    with _one_enumeration():
        for charge in (0, 1):
            seen = {}
            for n in sizes:
                listed = enumerate_regular(charge, n)
                assert listed == [ChargedPartition(parts, charge) for parts
                                  in _distinct_parts(range(1, n + 1), n)]
                assert all(seen.setdefault(cp, cp) is cp for cp in listed)
                listed.clear()
        # a bool or bad charge still raises, and nothing is stored for it
        with pytest.raises(TypeError):
            enumerate_regular(True, 3)
        with pytest.raises(ValueError):
            enumerate_regular(2, 3)
        assert set(partitions._runs[-1]) == {0, 1}
    assert partitions._runs == []
    assert enumerate_regular(0, 3)[1] is not enumerate_regular(0, 3)[1]


def brute_force_parts(allowed, n):
    """Every subset of the allowed parts of at most n boxes, as a decreasing
    tuple, by size and then by decreasing parts."""
    sets = [c[::-1] for k in range(len(allowed) + 1)
            for c in combinations(allowed, k) if sum(c) <= n]
    return sorted(sets, key=lambda parts: (-sum(parts), parts), reverse=True)


def test_distinct_parts_match_a_brute_force():
    for n in range(15):
        for allowed in (range(1, n + 1), range(1, n + 1, 2),
                        range(2, n + 1, 2), (2, 3, 7, 8, 13)):
            assert _distinct_parts(allowed, n) == brute_force_parts(allowed, n)


def test_dominant_sets_are_the_filtered_partitions():
    for n in range(17):
        regular = enumerate_regular(0, n)
        for lambda_type in (0, 1):
            for m in range(13):
                assert dominant_set(lambda_type, m, n) == [
                    cp for cp in regular
                    if (not cp.parts or cp.parts[0] <= m)
                    and all(p % 2 != lambda_type for p in cp.parts)]
    # parts above max_size never fit, so a huge m costs nothing
    assert dominant_set(0, 10**9, 12) == dominant_set(0, 12, 12)


def test_non_regular_inputs_are_rejected():
    with pytest.raises(ValueError, match="regular"):
        ChargedPartition((2, 2), 0)


def test_validation():
    with pytest.raises(ValueError):
        ChargedPartition((1, 2), 0)
    with pytest.raises(ValueError):
        ChargedPartition((0,), 0)
    with pytest.raises(ValueError):
        ChargedPartition((3, 1), 2)


def test_display_and_json():
    assert RUNNING.display() == "(8,6,3,1 | c=0)"
    assert EMPTY1.display() == "(∅ | c=1)"
    data = RUNNING.to_json()
    assert data == {"parts": [8, 6, 3, 1], "charge": 0}
    assert ChargedPartition.from_json(data) == RUNNING


def test_closed_form_model_check_names_the_partition(monkeypatch):
    # gap data of the wrong length: (1) still passes, (2) raises, and the
    # check counts the two cases of (1) and the raising one
    message = "gap data of (2 | c=0) has the wrong length"
    monkeypatch.setattr(partitions, "gap_conjugate", lambda c: ())
    with pytest.raises(AssertionError, match=re.escape(message)):
        closed_form_signature(ChargedPartition((2,), 0), 0)
    result = check_signature_closed_form(4)
    assert (result.cases, result.failures) == (3, ["AssertionError: " + message])
