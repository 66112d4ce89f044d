from fractions import Fraction

import pytest

from kkcrystals import paths
from kkcrystals.iso import partition_to_path
from kkcrystals.kk import dominant_set, weight_of_dominant
from kkcrystals.partitions import (ChargedPartition, closed_form_signature,
                                   e_op, enumerate_regular, epsilon, f_op,
                                   phi, signature)
from kkcrystals.paths import (LSPath, _int_profile, _rebuild, direction_weight,
                              e_path, f_path, is_lambda_dominant, path_epsilon,
                              path_phi)
from kkcrystals.tensor import concat_path_op
from kkcrystals.verify import integrality_disagreement, string_length
from kkcrystals.weights import (ALPHA0, ALPHA1, LAMBDA0, fundamental,
                                pair_coroot, reflect, simple_root)
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
    with pytest.raises(ValueError, match="final index must be nonnegative"):
        LSPath(0, -1)
    with pytest.raises(ValueError, match="shape must be"):
        LSPath.from_json({"shape": "L2", "n": 0, "steps": []})


def test_times_and_directions():
    # turning times 0 < 1/8 < 2/7 < 1/3 < 3/5 < 1 as pairs (a, q), q the
    # index of the direction that ends there; directions w_8, ..., w_4 of
    # shape 0 as their alpha_1-slopes -8, 8, -6, 6, -4
    dirs, times, _ = _int_profile((RUNNING_PATH,), 0)
    assert times == [(0, 1), (1, 8), (2, 7), (2, 6), (3, 5), (1, 1)]
    assert dirs == [-8, 8, -6, 6, -4]
    assert (RUNNING_PATH.m, RUNNING_PATH.n) == (8, 4)
    assert (STRAIGHT0.m, STRAIGHT0.n) == (0, 0)


def endpoint_by_parts(path):
    """path(1) summed piece by piece, each direction weight times the time
    it runs, in fractions: the sum that LSPath.weight() has in closed form."""
    _, times, _ = _int_profile((path,), 0)
    total = [0, 0, 0]
    for k, (b, p), (a, q) in zip(range(path.m, path.n - 1, -1), times,
                                 times[1:]):
        run = Fraction(a, q) - Fraction(b, p)
        total = [x + run * y
                 for x, y in zip(total, direction_weight(path.shape, k))]
    return total


def test_evaluate():
    # weight() is the endpoint path(1)
    assert STRAIGHT0.weight() == LAMBDA0
    assert LSPath(0, 1, ()).weight() == LAMBDA0 - ALPHA0
    for path in [RUNNING_PATH, LSPath(1, 3, (2,)), LSPath(1, 2, (2, 1, 1))]:
        assert list(path.weight()) == endpoint_by_parts(path), path


def test_each_jump_is_minus_k_times_one_simple_root():
    # the closed form LSPath.weight() sums: w_k Lambda - w_{k-1} Lambda is
    # -k alpha_j with j = (k + shape + 1) mod 2
    for shape in (0, 1):
        for k in range(1, 2001):
            assert (direction_weight(shape, k) - direction_weight(shape, k - 1)
                    == -k * simple_root((k + shape + 1) % 2)), (shape, k)


def test_turning_points():
    # six turning times 0 < 1/8 < 2/7 < 1/3 < 3/5 < 1; the last is path(1)
    assert len(_int_profile((RUNNING_PATH,), 0)[1]) == 6
    assert RUNNING_PATH.weight() == LAMBDA0 - 9 * ALPHA0 - 9 * ALPHA1


def test_pairing_profile():
    assert _int_profile((STRAIGHT0,), 0) == ([0], [(0, 1), (1, 1)],
                                             [(0, 0), (1, 0)])
    assert _int_profile((LSPath(0, 1, ()),), 0)[2] == [(0, 0), (-1, 0)]
    assert _int_profile((STRAIGHT1,), 0) == ([1], [(0, 1), (1, 1)],
                                             [(0, 0), (0, 0)])
    # h at the turning times 0, 1/8, 2/7, 2/6, 3/5, 1 as its floor and its
    # remainder mod the time's q: 0, 9/8, 0, 1/3, -1, 1 for i = 0 and
    # 0, -1, 2/7, 0, 8/5, 0 for i = 1
    assert _int_profile((RUNNING_PATH,), 0)[2] == \
        [(0, 0), (1, 1), (0, 0), (0, 2), (-1, 0), (1, 0)]
    assert _int_profile((RUNNING_PATH,), 1)[2] == \
        [(0, 0), (-1, 0), (0, 2), (0, 0), (1, 3), (0, 0)]
    # the oracle scales the same profile by D = lcm(1, ..., 9) = 2520:
    # 0, 2835, 0, 840, -2520, 2520 for i = 0
    assert integrality_disagreement(RUNNING_PATH, 0) is None
    assert integrality_disagreement(RUNNING_PATH, 1) is None


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
                (fundamental,), (simple_root,), (coset_element, 3),
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
    # w_{k+1} = s_first w_k, so one reflection steps the orbit point along;
    # a direction's alpha_1-slope x is k + 1 when k + shape is odd and -k
    # otherwise, and s_i sends it to the direction of slope 2 - 2i - x
    for shape in (0, 1):
        point = fundamental(shape)
        for k in range(600):
            assert direction_weight(shape, k) == point
            x = pair_coroot(point, 1)
            assert x == (k + 1 if (k + shape) % 2 else -k)
            assert pair_coroot(point, 0) == 1 - x
            for i in (0, 1):
                y = 2 - 2 * i - x
                assert reflect(i, point) == direction_weight(
                    y % 2, y - 1 if y > 0 else -y)
            point = reflect(coset_element(shape, k + 1).first, point)


def test_dominance():
    assert is_lambda_dominant(STRAIGHT0, 0)
    assert is_lambda_dominant(LSPath(0, 1, ()), 0)
    two = partition_to_path(ChargedPartition((2,), 0))
    assert is_lambda_dominant(two, 1)
    assert not is_lambda_dominant(two, 0)


def test_rebuild_rejects_junk():
    # the chain checks f_path and e_path rely on, times as pairs (a, q);
    # slopes 4, -2, 2 are w_3, w_2, w_1 of shape 0
    with pytest.raises(ValueError):
        _rebuild([4, 2], [(0, 1), (1, 2), (1, 1)])   # 1/2: not for 3
    with pytest.raises(ValueError):
        _rebuild([-2, 2], [(0, 1), (1, 3), (1, 1)])  # 1/3: not for 2
    with pytest.raises(ValueError, match="strictly increase"):
        _rebuild([-2, 2], [(0, 1), (2, 2), (1, 1)])  # a repeated time
    assert _rebuild([-2, 2], [(0, 1), (1, 2), (1, 1)]) == [LSPath(0, 1, (1,))]


# each row is a chain that only its own check refuses: without that
# check, _rebuild returns [LSPath(0, 1, (1,))] for the first, second and
# fourth, fails on an index past the chain for the third, and returns no
# path for the fifth
REBUILD_JUNK = [
    ([-2, 2], [(0, 1), (1, 2), (1, 1), (1, 1)],
     "one more time than directions"),
    ([-2, 2], [(1, 6), (1, 2), (1, 1)], "from 0 to 1"),
    ([-2, 2], [(0, 1), (1, 2), (2, 3)], "from 0 to 1"),
    ([4, 2], [(0, 1), (1, 3), (1, 1)], "descend contiguously"),  # w_3, w_1
    ([-2, 2], [(0, 1), (1, 2), (2, 1)], "runs past the end"),  # across 1
]


@pytest.mark.parametrize("dirs, times, message", REBUILD_JUNK)
def test_rebuild_refuses_a_malformed_chain(dirs, times, message):
    with pytest.raises(ValueError, match=message):
        _rebuild(dirs, times)


def test_a_refused_chain_is_a_broken_model(monkeypatch):
    # an f_i whose chain the cut refuses (the directions reversed) breaks
    # the model the same way on one path and on a concatenation
    monkeypatch.setattr(paths, "_lower",
                        lambda i, dirs, times, *rest: (dirs[::-1], times))
    with pytest.raises(AssertionError, match="root operator left"):
        f_path(RUNNING_PATH, 0)
    with pytest.raises(AssertionError, match="root operator left"):
        e_path(RUNNING_PATH, 0)
    with pytest.raises(AssertionError, match="root operator left"):
        concat_path_op(0, RUNNING_PATH, STRAIGHT0, "f")


def test_a_return_to_the_minimum_plus_one_past_the_rising_piece_is_refused(
        monkeypatch):
    # a broken profile for i = 1 with slopes -2, 2, 2 and times 0, 1/2,
    # 3/4, 1, where h runs 0, -1, -1/2, 0: from its last minimum h stays
    # below Q + 1 = 0 until the next piece, so f_1 cuts the rising piece
    # at 1, past its end 3/4, and the cut refuses the chain
    dirs, times, H = [-2, 2, 2], [(0, 1), (1, 2), (3, 4), (1, 1)], \
        [(0, 0), (-1, 0), (-1, 2), (0, 0)]
    chain = paths._lower(1, dirs, times, H, -1)
    assert chain == ([-2, -2, 2, 2], [(0, 1), (1, 2), (2, 2), (3, 4), (1, 1)])
    with pytest.raises(ValueError, match="strictly increase"):
        _rebuild(*chain)
    monkeypatch.setattr(paths, "_int_profile",
                        lambda run, i: (dirs, times, H))
    with pytest.raises(AssertionError, match="root operator left"):
        f_path(STRAIGHT0, 1)


def test_a_minimum_between_integers_is_a_broken_model():
    # LSPath's checks keep every minimum of h an integer, so only a
    # profile built past them, here with h least at -1 + 1/q, reaches it
    with pytest.raises(AssertionError,
                       match="^pairing minimum above -1 is not an integer$"):
        paths._minimum([(0, 0), (-1, 1)])


# paths with m = 2,000: straight, one step, and a full staircase
LONG_PATHS = [LSPath(0, 2000), LSPath(1, 1999, (1999,)),
              LSPath(0, 1000, tuple(range(1000, 0, -1)))]


@pytest.mark.parametrize("path", LONG_PATHS, ids=["straight", "one", "stairs"])
def test_chain_ints_do_not_grow_with_a_common_denominator(path, record_calls):
    # every int in the profile of the path and of its f_i, e_i images, and
    # in the chains the operators hand to the cut, has about as many bits
    # as m; lcm(1, ..., 2001) would carry about 2,900
    bound = 2 * path.m.bit_length()
    chains = record_calls(paths, "_rebuild")
    parts = []
    for i in (0, 1):
        images = [image for image in (path, f_path(path, i), e_path(path, i))
                  if image is not None]
        assert len(images) > 1
        for image in images:
            parts += _int_profile((image,), i)
            f_path(image, i), e_path(image, i)
    parts += [part for chain in chains for part in chain]
    assert max(abs(x).bit_length() for part in parts for entry in part
               for x in (entry if type(entry) is tuple else (entry,))
               ) <= bound


def test_json_round_trip():
    data = RUNNING_PATH.to_json()
    assert data == {"shape": "L0", "n": 4, "steps": [3, 2, 2, 1]}
    assert LSPath.from_json(data) == RUNNING_PATH
