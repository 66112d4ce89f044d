"""The tuple-backed value types (ChargedPartition, TensorElement, LSPath,
Weight, WeylElement) and records (KKSpec, MultiplicityTable), and the memo
that a charged partition keeps: one (phi, epsilon, f_i, e_i) record per
label, its size, weight and display string."""

import copy
import inspect
import operator
import pickle
from fractions import Fraction

import pytest

from kkcrystals import partitions
from kkcrystals.kk import KKSpec, decomposition, kk_crystal_graph
from kkcrystals.partitions import (ChargedPartition, e_op, epsilon, f_op, phi,
                                   weight_of)
from kkcrystals.paths import LSPath
from kkcrystals.tensor import TensorElement, tensor_e, tensor_f
from kkcrystals.weights import ALPHA0, DELTA, LAMBDA0, Weight
from kkcrystals.weyl import WeylElement


def running():
    return ChargedPartition((8, 6, 3, 1), 0)


def running_pair():
    return TensorElement(running(), ChargedPartition((2,), 0))


def running_path():
    return LSPath(0, 4, (3, 2, 2, 1))


def running_weight():
    return 2 * LAMBDA0 - ALPHA0 - 3 * DELTA


def running_weyl():
    return WeylElement(3, 0)


def running_spec():
    return KKSpec(0, 5)


def running_table():
    return decomposition(KKSpec(0, 3), 4)


def test_repr_str_and_json_are_pinned():
    assert repr(running()) == "ChargedPartition(parts=(8, 6, 3, 1), charge=0)"
    assert str(running()) == "(8,6,3,1 | c=0)"
    assert running().to_json() == {"parts": [8, 6, 3, 1], "charge": 0}
    assert repr(running_pair()) == (
        "TensorElement(left=ChargedPartition(parts=(8, 6, 3, 1), charge=0), "
        "right=ChargedPartition(parts=(2,), charge=0))")
    assert str(running_pair()) == "(8,6,3,1 | c=0) ⊗ (2 | c=0)"
    assert repr(running_path()) == "LSPath(shape=0, n=4, steps=(3, 2, 2, 1))"
    assert str(running_path()) == "LSPath(L0, n=4, steps=[3, 2, 2, 1])"
    assert running_path().to_json() == {"shape": "L0", "n": 4,
                                        "steps": [3, 2, 2, 1]}
    assert repr(running_weight()) == "Weight(c0=0, c1=2, dd=-4)"
    assert str(running_weight()) == "2Λ0 - 4α0 - 3α1"
    assert running_weight().to_json() == {"c0": "0", "c1": "2", "d": "-4"}
    assert repr(running_weyl()) == "WeylElement(length=3, first=0)"
    assert str(running_weyl()) == "s0 s1 s0"
    assert repr(running_spec()) == "KKSpec(lambda_type=0, p=5)"
    assert repr(decomposition(KKSpec(1, 2), 1)) == (
        "MultiplicityTable(a=(1, 1), b=None)")


def test_hash_is_the_hash_of_the_fields():
    # the hash of the plain tuple, so set and dict order follow the fields
    cp, t, path = running(), running_pair(), running_path()
    assert hash(cp) == hash(((8, 6, 3, 1), 0))
    assert hash(t) == hash((t.left, t.right))
    assert hash(path) == hash((0, 4, (3, 2, 2, 1)))
    assert hash(running_weight()) == hash((0, 2, -4))
    assert hash(running_weyl()) == hash((3, 0))
    assert hash(running_spec()) == hash((0, 5))
    # a filled memo changes neither equality nor hash
    phi(cp, 0), weight_of(cp), cp.display()
    assert cp == running() and hash(cp) == hash(running())


def test_equality_between_library_types():
    empty = ChargedPartition((), 0)
    assert empty != ChargedPartition((), 1)
    assert empty != TensorElement(empty, empty)
    assert ChargedPartition((1,), 0) != LSPath(0, 1)
    assert LSPath(0, 1) != LSPath(1, 1)
    assert running_pair() != TensorElement(ChargedPartition((2,), 0), running())


def test_an_instance_is_a_plain_tuple_of_its_fields():
    assert running() == ((8, 6, 3, 1), 0) and len(running()) == 2
    parts, charge = running()
    assert (parts, charge) == ((8, 6, 3, 1), 0)
    assert running_pair() == (running(), ((2,), 0))
    assert running_path() == (0, 4, (3, 2, 2, 1)) and len(running_path()) == 3
    # (a Weight also orders like a tuple; that order is inherited, and no
    # part of the type's contract)
    assert Weight(1, 0, 0) == (1, 0, 0) and len(LAMBDA0) == 3
    assert WeylElement(1, 0) == (1, 0)
    assert KKSpec(0, 5) == (0, 5)


BUILDS = [
    lambda: ChargedPartition._make(((1, 1), 0)),
    lambda: ChargedPartition._make(((3, 1),)),
    lambda: running()._replace(charge=2),
    lambda: running()._replace(parts=(1, 2)),
    lambda: TensorElement._make((running(), ChargedPartition((), 1))),
    lambda: running_pair()._replace(right=ChargedPartition((), 1)),
    lambda: running_pair()._replace(left=((3, 1), 0)),
    lambda: LSPath._make((0, 1, (5,))),
    lambda: running_path()._replace(steps=(1, 2)),
    lambda: Weight._make((1, 0, True)),
    lambda: running_weight()._replace(dd=1.0),
    lambda: WeylElement._make((2, None)),
    lambda: running_weyl()._replace(first=2),
    lambda: running_weyl()._replace(length=True),
    lambda: KKSpec._make((0, 2)),
    lambda: running_spec()._replace(p=2),
    lambda: running_spec()._replace(lambda_type=True),
]


@pytest.mark.parametrize("build", BUILDS, ids=range(len(BUILDS)))
def test_every_constructor_is_checked(build):
    with pytest.raises((TypeError, ValueError)):
        build()


def test_make_and_replace_build_the_type():
    cp = ChargedPartition._make(((3, 1), 1))
    assert type(cp) is ChargedPartition and cp == ChargedPartition((3, 1), 1)
    assert running()._replace(parts=[4, 1]) == ChargedPartition((4, 1), 0)
    assert type(running()._replace(parts=[4, 1]).parts) is tuple
    t = running_pair()._replace(right=ChargedPartition((), 0))
    assert type(t) is TensorElement and t.right == ChargedPartition((), 0)
    path = LSPath._make((1, 2, [1]))
    assert type(path) is LSPath and path == LSPath(1, 2, (1,))
    w = running_weight()._replace(c0=5)
    assert type(w) is Weight and w == Weight(5, 2, -4)


VALUES = [running, running_pair, running_path, running_weight, running_weyl,
          running_spec, running_table]


@pytest.mark.parametrize("make", VALUES)
def test_pickle_and_copy_round_trips(make):
    value = make()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value
    for back in (copy.copy(value), copy.deepcopy(value)):
        assert type(back) is type(value) and back == value


def test_weight_arithmetic_builds_weights():
    w = running_weight()
    for result in (w + ALPHA0, w - ALPHA0, -w, 3 * w, w * -2, 0 * w):
        assert type(result) is Weight and result == Weight(*result)
    assert (w + ALPHA0, w - ALPHA0, -w, 3 * w) == (
        (2, 0, -3), (-2, 4, -5), (0, -2, 4), (0, 6, -12))


@pytest.mark.parametrize("op", [operator.add, operator.sub])
def test_weight_arithmetic_refuses_a_plain_tuple(op):
    # a tuple subclass would otherwise add coordinates of any tuple on the
    # right, and concatenate with a tuple on the left
    with pytest.raises(TypeError):
        op(LAMBDA0, (1, 2, 3))
    with pytest.raises(TypeError):
        op((1, 2, 3), LAMBDA0)


@pytest.mark.parametrize("build", [lambda: True * LAMBDA0,
                                   lambda: LAMBDA0 * True,
                                   lambda: LAMBDA0 * 0.5,
                                   lambda: LAMBDA0 * LAMBDA0,
                                   lambda: Weight(Fraction(2), 0, 0)],
                         ids=["bool-left", "bool-right", "float", "weight",
                              "fraction"])
def test_weights_stay_int_only(build):
    with pytest.raises(TypeError):
        build()


def read_memo(cp):
    return (phi(cp, 0), f_op(cp, 0), e_op(cp, 0), f_op(cp, 1), e_op(cp, 1),
            cp.size, weight_of(cp), cp.display())


def test_copies_work_after_the_memo_is_filled():
    cp = running()
    kept = read_memo(cp)
    assert kept[1:6] == (ChargedPartition((8, 6, 3, 2), 0),
                         ChargedPartition((8, 6, 2, 1), 0),
                         ChargedPartition((8, 7, 3, 1), 0),
                         ChargedPartition((7, 6, 3, 1), 0), 18)
    for back in (pickle.loads(pickle.dumps(cp)), copy.copy(cp)):
        assert read_memo(back) == kept


def test_copies_and_pickles_leave_the_stored_records_behind():
    # each stored move keeps its image, whose records keep the next move,
    # so carrying them would serialize, and recurse down, the whole walk
    start = cp = ChargedPartition((), 0)
    for _ in range(3000):
        moves = [f_op(cp, i) for i in (0, 1)]
        cp = moves[0] or moves[1]
    fresh = ChargedPartition((), 0)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(start, protocol) == pickle.dumps(fresh, protocol)
    for back in (pickle.loads(pickle.dumps(start)), copy.copy(start),
                 copy.deepcopy(start)):
        assert type(back) is ChargedPartition and back == start
        assert back.__dict__ == {}


def test_a_partition_stores_one_record_per_label():
    cp = running()
    read = [(phi(cp, i), epsilon(cp, i), f_op(cp, i), e_op(cp, i))
            for i in (0, 1)]
    cp.size, weight_of(cp), cp.display()
    assert set(cp.__dict__) == {0, 1, "size", "_weight", "_display"}
    for i in (0, 1):
        record = cp.__dict__[i]
        assert record == read[i] and None not in record
        assert record[2] is f_op(cp, i) and record[3] is e_op(cp, i)


def test_dir_lists_the_names_after_an_operator_read():
    # the int keys of the records must not reach dir(), which sorts names
    cp = running()
    phi(cp, 0), f_op(cp, 1)
    names = dir(cp)
    assert all(type(name) is str for name in names)
    assert {"parts", "charge", "size", "display"} <= set(names)
    assert dict(inspect.getmembers(cp))["parts"] == cp.parts


@pytest.mark.parametrize("make", VALUES)
def test_instances_are_immutable(make):
    value = make()
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, field)


# each operator with its argument order: the label is always checked,
# also after the same element has a stored kernel for label 1
LABELLED = [(op, False) for op in (phi, epsilon, e_op, f_op)] + \
    [(op, True) for op in (tensor_f, tensor_e)]


@pytest.mark.parametrize("label", [True, 1.0, 2, -1])
@pytest.mark.parametrize("op, on_pairs", LABELLED,
                         ids=[op.__name__ for op, _ in LABELLED])
def test_labels_are_checked_before_the_memo(op, on_pairs, label):
    if on_pairs:
        t = running_pair()
        op(1, t)
        with pytest.raises(ValueError, match="label must be 0 or 1, got"):
            op(label, t)
    else:
        cp = running()
        op(cp, 1)
        with pytest.raises(ValueError, match="label must be 0 or 1, got"):
            op(cp, label)


def count_calls(monkeypatch, *names):
    """A list that gains the partition argument of each call of the named
    two-argument partition kernels."""
    calls = []
    for name in names:
        original = getattr(partitions, name)

        def counted(cp, arg, original=original):
            calls.append(cp)
            return original(cp, arg)

        monkeypatch.setattr(partitions, name, counted)
    return calls


def test_each_factor_is_scanned_at_most_once_per_label(monkeypatch):
    scans = count_calls(monkeypatch, "_reduced")
    graph = kk_crystal_graph(KKSpec(0, 5), 12)
    factors = {id(f) for t in graph.vertices for f in t}
    assert graph.edges and 0 < len(scans) <= 2 * len(factors)


@pytest.mark.parametrize("op, inverse", [(f_op, e_op), (e_op, f_op)],
                         ids=["f", "e"])
@pytest.mark.parametrize("i", [0, 1])
def test_each_move_is_built_once(op, inverse, i):
    cp = running()
    image = op(cp, i)
    assert image is op(cp, i)
    # the move back is built anew, not read off a memo that holds cp
    back = inverse(image, i)
    assert back == cp and back is not cp


def test_each_factor_makes_at_most_four_box_moves(monkeypatch):
    scans = count_calls(monkeypatch, "_reduced")
    moves = count_calls(monkeypatch, "_add_box", "_remove_box")
    graph = kk_crystal_graph(KKSpec(0, 5), 12)
    factors = {id(f) for t in graph.vertices for f in t}
    assert graph.edges and 0 < len(moves) <= 4 * len(factors)
    # each scan builds at most its two moves, and none is built apart
    assert len(moves) <= 2 * len(scans)
