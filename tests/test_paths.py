from fractions import Fraction

import pytest

from kkcrystals.iso import partition_to_path
from kkcrystals.kk import dominant_set, weight_of_dominant
from kkcrystals.partitions import (ChargedPartition, closed_form_signature,
                                   e_op, enumerate_regular, epsilon, f_op,
                                   phi, signature)
from kkcrystals.paths import (LSPath, _int_chain, direction_weight, e_path,
                              f_path, h_function, is_lambda_dominant,
                              path_epsilon, path_phi, shape_sign)
from kkcrystals.verify import string_length
from kkcrystals.weights import (ALPHA0, ALPHA1, LAMBDA0, Weight,
                                fundamental, pair_coroot, reflect,
                                simple_root)
from kkcrystals.weyl import (IDENTITY, WeylElement, coset_element,
                             double_coset_min_index, left_multiply,
                             stabilizer_letter)

STRAIGHT0 = LSPath(0, 0, ())
STRAIGHT1 = LSPath(1, 0, ())
RUNNING = ChargedPartition((8, 6, 3, 1), 0)
RUNNING_PATH = LSPath(0, 4, (3, 2, 2, 1))


def test_validation():
    LSPath(0, 3, (3, 1, 1))
    with pytest.raises(ValueError):
        LSPath(0, 2, (3,))          # leading step above the final index
    with pytest.raises(ValueError):
        LSPath(0, 3, (1, 2))        # steps must weakly decrease
    with pytest.raises(ValueError):
        LSPath(0, 3, (1, 0))        # steps must be positive
    with pytest.raises(ValueError):
        LSPath(2, 0, ())


def test_times_and_directions():
    assert RUNNING_PATH.times == (0, Fraction(1, 8), Fraction(2, 7),
                                  Fraction(1, 3), Fraction(3, 5), 1)
    assert RUNNING_PATH.direction_indices == (8, 7, 6, 5, 4)
    assert RUNNING_PATH.m == 8
    assert STRAIGHT0.direction_indices == (0,)


def test_evaluate():
    assert STRAIGHT0.evaluate(1) == LAMBDA0
    assert STRAIGHT0.evaluate(Fraction(1, 2)) == Fraction(1, 2) * LAMBDA0
    assert LSPath(0, 1, ()).evaluate(1) == LAMBDA0 - ALPHA0
    with pytest.raises(ValueError):
        STRAIGHT0.evaluate(2)
    for inexact in (0.1, 1.0, True, "1/2"):
        with pytest.raises(TypeError):
            STRAIGHT0.evaluate(inexact)


def test_turning_points():
    assert STRAIGHT0.turning_points() == [Weight(0, 0, 0), LAMBDA0]
    assert LSPath(0, 1, ()).turning_points() == [Weight(0, 0, 0), LAMBDA0 - ALPHA0]
    points = RUNNING_PATH.turning_points()
    assert len(points) == 6
    assert points[-1] == LAMBDA0 - 9 * ALPHA0 - 9 * ALPHA1


def test_h_function():
    assert h_function(STRAIGHT0, 0) == ((0, 0), (1, 1))
    assert h_function(LSPath(0, 1, ()), 0)[-1] == (1, -1)
    assert h_function(STRAIGHT1, 0) == ((0, 0), (1, 0))
    running = h_function(RUNNING_PATH, 0)
    assert min(v for _, v in running) == -1
    # breakpoints are the pairings of the path at its turning times
    for t, v in running:
        assert v == pair_coroot(RUNNING_PATH.evaluate(t), 0)
    assert (Fraction(3, 5), -1) in running
    assert pair_coroot(RUNNING_PATH.evaluate(Fraction(4, 5)), 0) == 0


def test_f_path_base_cases():
    assert f_path(STRAIGHT0, 0) == LSPath(0, 1, ())
    assert f_path(STRAIGHT0, 1) is None
    assert f_path(STRAIGHT1, 1) == LSPath(1, 1, ())
    assert f_path(STRAIGHT1, 0) is None


def test_e_path_base_cases():
    assert e_path(STRAIGHT0, 0) is None and e_path(STRAIGHT0, 1) is None
    assert e_path(LSPath(0, 1, ()), 0) == STRAIGHT0
    assert e_path(LSPath(1, 1, ()), 1) == STRAIGHT1


def test_operators_on_the_running_path():
    assert f_path(RUNNING_PATH, 0) == LSPath(0, 4, (4, 2, 2, 1))
    assert e_path(RUNNING_PATH, 0) == LSPath(0, 4, (2, 2, 2, 1))
    assert f_path(RUNNING_PATH, 1) == LSPath(0, 4, (3, 2, 2, 2))
    assert e_path(RUNNING_PATH, 1) == LSPath(0, 4, (3, 2, 2))


def label_first(f, *rest):
    """f(label, *rest), called as op(x, label) with x ignored."""
    def call(_, label):
        return f(label, *rest)
    call.__name__ = f.__name__
    return call


# the operators on both models, each with its running-example element,
# then the weight and Weyl functions that take a 0/1 index
LABELLED = ([(op, RUNNING) for op in (f_op, e_op, phi, epsilon, signature,
                                     closed_form_signature)]
            + [(op, RUNNING_PATH)
               for op in (f_path, e_path, path_phi, path_epsilon)]
            + [(label_first(f, *rest), None) for f, *rest in (
                (fundamental,), (simple_root,), (shape_sign,),
                (stabilizer_letter,), (left_multiply, IDENTITY),
                (double_coset_min_index, 3, 5), (dominant_set, 3, 5),
                (weight_of_dominant, ChargedPartition((), 0)))]
            + [(pair_coroot, LAMBDA0), (WeylElement, 1)])


@pytest.mark.parametrize("label", [2, -1, True, 1.0])
@pytest.mark.parametrize("op, x", LABELLED,
                         ids=[op.__name__ for op, _ in LABELLED])
def test_labels_are_the_ints_0_and_1(op, x, label):
    with pytest.raises(ValueError, match="label must be 0 or 1, got"):
        op(x, label)


def test_string_lengths_match_profile_extrema():
    for cp in enumerate_regular(0, 10):
        path = partition_to_path(cp)
        for i in (0, 1):
            eps, ph = path_epsilon(path, i), path_phi(path, i)
            assert string_length(path, e_path, i, eps) == eps
            assert string_length(path, f_path, i, ph) == ph


def test_direction_weight_closed_form():
    # w_{k+1} = s_first w_k, so one reflection steps the orbit point along
    for shape in (0, 1):
        sign, point = "+-"[shape], fundamental(shape)
        for k in range(600):
            assert direction_weight(shape, k) == point
            point = reflect(coset_element(sign, k + 1).first, point)


def test_dominance():
    assert is_lambda_dominant(STRAIGHT0, 0)
    assert is_lambda_dominant(LSPath(0, 1, ()), 0)
    two = partition_to_path(ChargedPartition((2,), 0))
    assert is_lambda_dominant(two, 1)
    assert not is_lambda_dominant(two, 0)


def test_from_chain_rejects_junk():
    # the chain checks f_path and e_path rely on, times scaled by D = 6
    with pytest.raises(ValueError):
        _int_chain(0, [3, 1], [0, 3, 6], 6)     # 1/2 is not canonical for 3
    with pytest.raises(ValueError):
        _int_chain(0, [2, 1], [0, 2, 6], 6)     # 1/3 is not canonical for 2
    assert _int_chain(0, [2, 1], [0, 3, 6], 6) == LSPath(0, 1, (1,))


def test_json_and_describe():
    data = RUNNING_PATH.to_json()
    assert data == {"shape": "L0", "n": 4, "steps": [3, 2, 2, 1]}
    assert LSPath.from_json(data) == RUNNING_PATH
