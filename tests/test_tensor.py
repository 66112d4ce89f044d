import pytest

from kkcrystals import partitions, tensor
from kkcrystals.kk import (KKSpec, associated_weyl_element, kk_crystal_graph,
                           kk_crystal_members)
from kkcrystals.partitions import ChargedPartition, enumerate_regular
from kkcrystals.paths import LSPath, _rebuild
from kkcrystals.tensor import (TensorElement, concat_path_op, crystal_graph,
                               is_highest_weight, tensor_e, tensor_f,
                               tensor_pairs)
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
    # a factor that is not a ChargedPartition, a plain tuple included
    for junk in ("junk", None, ((3, 1), 0), LSPath(0, 0)):
        with pytest.raises(TypeError, match="must be ChargedPartitions"):
            TensorElement(junk, cp(()))
        with pytest.raises(TypeError, match="must be ChargedPartitions"):
            TensorElement(cp(()), junk)


def test_library_built_pairs_pass_the_public_checks():
    # pairs from the enumeration and the operators skip the constructor's
    # checks, which test_validation keeps on the public constructor
    for charge in (0, 1):
        for t in tensor_pairs(charge, 10):
            assert type(t) is TensorElement and t == TensorElement(*t)
            for i in (0, 1):
                for image in (tensor_f(i, t), tensor_e(i, t)):
                    if image is not None:
                        assert type(image) is TensorElement
                        assert image == TensorElement(*image)


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
    with pytest.raises(ValueError, match="op must be"):
        concat_path_op(0, straight, straight, "g")


def test_rebuild_reads_the_index_off_the_piece():
    # no search over the directions before it, however far out it lies
    # (a single piece of slope -5000, w_5000 of shape 0, and duration 1)
    assert _rebuild([-5000], [(0, 1), (1, 1)]) == [LSPath(0, 5000, ())]
    # equal neighbours merge; a gap in the chain or a mixed shape does not
    # (slopes -2, 2, 4 are w_2, w_1, w_3 of shape 0; 3 is w_2 of shape 1)
    assert _rebuild([-2, -2, 2], [(0, 1), (1, 6), (1, 2), (1, 1)]) == \
        [LSPath(0, 1, (1,))]
    for dirs in ([4, 2], [3, 2], []):
        with pytest.raises(ValueError):
            _rebuild(dirs, [(0, 1), (1, 3), (1, 1)][:len(dirs) + 1])


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
    assert associated_weyl_element(pair((1,), (4,))) == coset_element(0, 3)
    assert associated_weyl_element(pair((), (2,), charge=1)) == \
        coset_element(0, 2)


def test_tensor_pairs_keep_the_nested_order():
    for charge in (0, 1):
        for n in range(13):
            nested = [TensorElement(b1, b2)
                      for b1 in enumerate_regular(charge, n)
                      for b2 in enumerate_regular(0, n - b1.size)]
            assert list(tensor_pairs(charge, n)) == nested


def test_a_pair_walk_lists_each_factor_list_once(record_calls):
    # outside a verify run each enumerate_regular call builds new factors,
    # so a charge-0 right factor that is a left factor shows the sharing
    calls = record_calls(partitions, "enumerate_regular")
    pairs = list(tensor_pairs(0, 12))
    assert calls == [(0, 12)]
    lefts = {id(t.left) for t in pairs}
    assert all(id(t.right) in lefts for t in pairs)
    calls.clear()
    assert len(list(tensor_pairs(1, 12))) == len(pairs)
    assert calls == [(1, 12), (0, 12)]
    calls.clear()
    assert kk_crystal_members(KKSpec(1, 2), 12)
    assert calls == [(1, 12), (0, 12)]


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


@pytest.mark.parametrize("max_boxes, error",
                         [(True, TypeError), (4.0, TypeError), (-1, ValueError)])
def test_crystal_graph_refuses_a_bad_box_bound(max_boxes, error):
    # the 21 members of K(0, 3) at 4 boxes have 17 arrows at the int bound
    members = kk_crystal_members(KKSpec(0, 3), 4)
    assert len(crystal_graph(members, 4).edges) == 17
    with pytest.raises(error, match="max_boxes must be"):
        crystal_graph(members, max_boxes)


def test_crystal_graph_outputs():
    graph = vacuum_crystal_graph(2)
    dot = graph.to_dot()
    assert dot.startswith("digraph kk_crystal {\n") and dot.endswith("}\n")
    assert dot.count("->") == len(graph.edges)
    obj = graph.to_json_obj()
    assert len(obj["vertices"]) == len(graph.vertices)
    assert all(set(e) == {"from", "i", "to"} for e in obj["edges"])


def test_crystal_graph_skips_vertices_at_the_bound(record_calls):
    # f_i adds a box, so a member at the bound is not asked for an arrow
    calls = record_calls(tensor, "tensor_f")
    graph = kk_crystal_graph(KKSpec(0, 5), 12)
    assert len(calls) == 2 * sum(v.total_boxes < 12 for v in graph.vertices)
