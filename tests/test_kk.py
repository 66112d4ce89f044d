import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from kkcrystals.kk import (KKSpec, decomposition, decomposition_via_crystal,
                           dominant_set, in_kk_crystal, kk_crystal_graph,
                           kk_crystal_members, weight_of_dominant)
from kkcrystals.partitions import ChargedPartition
from kkcrystals.tensor import TensorElement
from kkcrystals.verify import (check_kk_decomposition, check_kk_monotone,
                               check_kk_stabilization)
from kkcrystals.weights import ALPHA0, DELTA, LAMBDA0, LAMBDA1


def cp(parts, charge=0):
    return ChargedPartition(tuple(parts), charge)


def pair(left, right, charge=0):
    return TensorElement(cp(left, charge), cp(right))


def test_spec_validation():
    KKSpec(0, 0)
    KKSpec(0, 5)
    KKSpec(1, 0)
    KKSpec(1, 4)
    with pytest.raises(ValueError):
        KKSpec(0, 2)
    with pytest.raises(ValueError):
        KKSpec(1, 3)
    with pytest.raises(ValueError):
        KKSpec(0, -1)


@pytest.mark.parametrize("route", [decomposition, decomposition_via_crystal])
@pytest.mark.parametrize("cutoff", [True, 3.0, 2.5])
def test_cutoff_must_be_an_int(route, cutoff):
    with pytest.raises(TypeError):
        route(KKSpec(0, 3), cutoff)


def test_membership_examples():
    base = KKSpec(0, 0)
    assert in_kk_crystal(base, pair((), ()))
    assert not in_kk_crystal(base, pair((), (1,)))
    three = KKSpec(0, 3)
    assert in_kk_crystal(three, pair((1,), (5,)))
    assert not in_kk_crystal(three, pair((1,), (6,)))
    with pytest.raises(ValueError):
        in_kk_crystal(KKSpec(1, 2), pair((), ()))


def test_dominant_sets():
    assert {c.parts for c in dominant_set(0, 3, 10)} == \
        {(), (1,), (3,), (3, 1)}
    assert [c.parts for c in dominant_set(1, 1, 20)] == [()]
    assert {c.parts for c in dominant_set(0, 5, 9)} == \
        {(), (1,), (3,), (5,), (3, 1), (5, 1), (5, 3), (5, 3, 1)}
    assert all(c.charge == 0 for c in dominant_set(1, 6, 12))


def test_weight_of_dominant():
    assert weight_of_dominant(0, cp(())) == 2 * LAMBDA0
    assert weight_of_dominant(0, cp((3, 1))) == 2 * LAMBDA0 - 2 * DELTA
    assert weight_of_dominant(0, cp((3,))) == 2 * LAMBDA0 - DELTA - ALPHA0
    assert weight_of_dominant(1, cp((2,))) == LAMBDA0 + LAMBDA1 - DELTA
    with pytest.raises(ValueError):
        weight_of_dominant(1, cp((1,)))


def test_decomposition_tables():
    table = decomposition(KKSpec(0, 0), 4)
    assert table.a == (1, 0, 0, 0, 0) and table.b == (0, 0, 0, 0, 0)
    table = decomposition(KKSpec(0, 3), 4)
    assert table.a == (1, 0, 1, 0, 0)
    assert table.b == (1, 1, 0, 0, 0)
    table = decomposition(KKSpec(1, 2), 3)
    assert table.a == (1, 1, 0, 0) and table.b is None
    table = decomposition(KKSpec(1, 0), 5)
    assert table.a == (1, 0, 0, 0, 0, 0)


def test_decomposition_matches_crystal_counts():
    for cutoff in (0, 3, 8):
        result = check_kk_decomposition(9, cutoff)
        assert result.ok, result.failures


def test_full_tensor_decomposition():
    # factors past 2 * cutoff + 1 are skipped, so p = 10**18 costs nothing
    table = decomposition(KKSpec(0, 10**18 + 1), 3)
    assert table == decomposition(KKSpec(0, 7), 3)
    assert table.a == (1, 0, 1, 1)
    assert table.b == (1, 1, 1, 1)
    table = decomposition(KKSpec(1, 10**18), 3)
    assert table == decomposition(KKSpec(1, 8), 3)
    assert table.a == (1, 1, 1, 2) and table.b is None
    assert decomposition(KKSpec(0, 10**18 + 1), 0).a == (1,)


def test_stabilization():
    result = check_kk_stabilization(3)
    assert result.ok, result.failures


def test_monotone_in_p():
    result = check_kk_monotone(7, 6)
    assert result.ok, result.failures


def test_members_and_graph_counts():
    assert len(kk_crystal_members(KKSpec(0, 0), 0)) == 1
    graph = kk_crystal_graph(KKSpec(0, 0), 0)
    assert len(graph.vertices) == 1 and len(graph.edges) == 0
    graph = kk_crystal_graph(KKSpec(0, 3), 4)
    assert (len(graph.vertices), len(graph.edges)) == (21, 17)
    graph = kk_crystal_graph(KKSpec(1, 2), 4)
    assert (len(graph.vertices), len(graph.edges)) == (20, 18)


def test_table_formats():
    table = decomposition(KKSpec(0, 3), 4)
    assert table.to_tsv() == (
        "n\ta_n\tb_n\n"
        "0\t1\t1\n"
        "1\t0\t1\n"
        "2\t1\t0\n"
        "3\t0\t0\n"
        "4\t0\t0\n")
    assert table.to_json_obj() == {"cutoff": 4, "a": [1, 0, 1, 0, 0],
                                   "b": [1, 1, 0, 0, 0]}
    assert decomposition(KKSpec(1, 2), 1).to_tsv() == "n\ta_n\n0\t1\n1\t1\n"


BROKEN_GRAPHS = textwrap.dedent("""
    from unittest import mock

    import kkcrystals.kk as kk
    import kkcrystals.tensor as tensor

    members = kk.kk_crystal_members

    def drop_one(spec, max_boxes):
        # f_0 of the vacuum is inside the bound but no longer a member
        found = members(spec, max_boxes)
        found.remove(tensor.tensor_f(0, found[0]))
        return found

    for patch in (mock.patch.object(tensor, "tensor_e", lambda i, t: None),
                  mock.patch.object(kk, "kk_crystal_members", drop_one)):
        with patch:
            try:
                kk.kk_crystal_graph(kk.KKSpec(0, 3), 4)
            except AssertionError as exc:
                print(exc)
""")


def test_invariant_checks_fire_under_python_O():
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-O", "-c", BROKEN_GRAPHS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["edge fails the raising check",
                                        "lowering operators escaped the crystal"]
