from fractions import Fraction

import pytest

from kkcrystals.kk import KKSpec, kk_crystal_members
from kkcrystals.partitions import ChargedPartition, enumerate_regular
from kkcrystals.paths import LSPath, direction_weight
from kkcrystals.tensor import (TensorElement, _lspath_from_pieces,
                               associated_weyl_element, concat_path_op,
                               crystal_graph, is_highest_weight, tensor_e,
                               tensor_f, tensor_pairs)
from kkcrystals.weights import Weight
from kkcrystals.weyl import IDENTITY, coset_element


def cp(parts, charge=0):
    return ChargedPartition(tuple(parts), charge)


def pair(left, right, charge=0):
    return TensorElement(cp(left, charge), cp(right))


VACUUM = pair((), ())


def test_validation():
    with pytest.raises(ValueError):
        TensorElement(cp(()), cp((), 1))
    with pytest.raises(ValueError):
        TensorElement(cp((2, 2)), cp(()))


def test_tensor_rule_examples():
    assert tensor_f(0, VACUUM) == pair((1,), ())
    assert tensor_f(1, VACUUM) is None
    assert tensor_e(0, VACUUM) is None and tensor_e(1, VACUUM) is None
    assert tensor_e(0, pair((), (1,))) is None
    assert tensor_f(0, pair((1,), ())) == pair((1,), (1,))


def test_tensor_tie_breaking():
    # phi(left) == epsilon(right): e acts on the left, f on the right
    t = pair((2,), (2,))
    assert tensor_e(1, t) == pair((1,), (2,))
    assert tensor_f(1, t) == pair((2,), (2, 1))


def test_concat_examples():
    straight = LSPath(0, 0, ())
    assert concat_path_op(0, straight, straight, "f") == \
        (LSPath(0, 1, ()), straight)
    assert concat_path_op(1, straight, straight, "f") is None
    assert concat_path_op(0, straight, straight, "e") is None
    assert concat_path_op(1, LSPath(1, 0, ()), straight, "e") is None



def test_direction_index_is_read_off_the_weight():
    # no search over the directions before it, however far out it lies
    # (a single piece of duration 1, scaled by D = 1)
    far = [(direction_weight(0, 5000), 1)]
    assert _lspath_from_pieces(0, far, 1) == LSPath(0, 5000, ())
    for off_orbit in (direction_weight(1, 3), Weight(Fraction(1, 2), 0, 0)):
        with pytest.raises(ValueError):
            _lspath_from_pieces(0, [(off_orbit, 1)], 1)


def test_highest_weight_examples():
    assert is_highest_weight(VACUUM)
    assert is_highest_weight(pair((), (3,)))
    assert not is_highest_weight(pair((), (2,)))
    assert is_highest_weight(pair((), (2,), charge=1))
    assert not is_highest_weight(pair((1,), ()))


def test_highest_weight_classification():
    for charge in (0, 1):
        wanted = 1 if charge == 0 else 0
        for b2 in enumerate_regular(0, 16):
            t = TensorElement(cp((), charge), b2)
            expected = all(p % 2 == wanted for p in b2.parts)
            assert is_highest_weight(t) == expected, t


def test_associated_weyl_element_examples():
    assert associated_weyl_element(VACUUM) == IDENTITY
    assert associated_weyl_element(pair((1,), (4,))) == coset_element("+", 3)
    assert associated_weyl_element(pair((), (2,), charge=1)) == \
        coset_element("+", 2)


def test_tensor_pairs_keep_the_nested_order():
    for charge in (0, 1):
        for n in range(13):
            nested = [TensorElement(b1, b2)
                      for b1 in enumerate_regular(charge, n)
                      for b2 in enumerate_regular(0, n - b1.size)]
            assert list(tensor_pairs(charge, n)) == nested


def vacuum_crystal_graph(n):
    return crystal_graph(kk_crystal_members(KKSpec(0, 0), n), n)


def test_crystal_graph_from_the_vacuum():
    graph = vacuum_crystal_graph(1)
    assert [v.display() for v in graph.vertices] == \
        ["(∅ | c=0) ⊗ (∅ | c=0)", "(1 | c=0) ⊗ (∅ | c=0)"]
    assert graph.edges == [(0, 0, 1)]
    assert crystal_graph([], 5).vertices == []
    with pytest.raises(AssertionError,
                       match="lowering operators escaped the crystal"):
        crystal_graph([VACUUM], 1)


def test_crystal_graph_outputs():
    graph = vacuum_crystal_graph(2)
    dot = graph.to_dot()
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    assert dot.count("->") == len(graph.edges)
    obj = graph.to_json_obj()
    assert len(obj["vertices"]) == len(graph.vertices)
    assert all(set(e) == {"from", "i", "to"} for e in obj["edges"])
