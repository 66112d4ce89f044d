import os
import subprocess
import sys
import textwrap
from functools import partial
from pathlib import Path

import pytest

from kkcrystals.kk import (KKSpec, decomposition, decomposition_via_crystal,
                           dominant_set, in_kk_crystal, kk_crystal_graph,
                           kk_crystal_members, weight_of_dominant)
from kkcrystals.partitions import ChargedPartition, enumerate_regular
from kkcrystals.paths import direction_weight
from kkcrystals.tensor import TensorElement, tensor_pairs
from kkcrystals.verify import (check_kk_decomposition, check_kk_monotone,
                               check_kk_stabilization, kk_specs)
from kkcrystals.weights import ALPHA0, DELTA, LAMBDA0, LAMBDA1
from kkcrystals.weyl import WeylElement, coset_element, double_coset_min_index


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
    with pytest.raises(TypeError, match="lambda_type must be an integer"):
        KKSpec(True, 0)
    with pytest.raises(TypeError, match="lambda_type must be an integer"):
        KKSpec(0.0, 1)
    # the parity rule, stated here apart from the library's own statement
    allowed = []
    for lam in (0, 1):
        for p in range(41):
            if p == 0 or p % 2 == 1 - lam:
                KKSpec(lam, p)
                allowed.append((lam, p))
            else:
                with pytest.raises(ValueError) as refused:
                    KKSpec(lam, p)
                assert str(refused.value) == (
                    "for lambda_type 0, p must be 0 or odd" if lam == 0
                    else "for lambda_type 1, p must be 0 or even")
    assert [(s.lambda_type, s.p) for s in kk_specs(9)] == \
        [(lam, p) for lam, p in allowed if p <= 9]


# (name, call, size or index): the cutoff of both routes, then every other
# size and index, each refused as a bool or a float
COUNTS = ([(route.__name__, partial(route, KKSpec(0, 3)), cutoff)
           for cutoff in (True, 3.0, 2.5)
           for route in (decomposition, decomposition_via_crystal)]
          + [("WeylElement", lambda n: WeylElement(n, 0), True),
             ("WeylElement", lambda n: WeylElement(n, 0), 2.5),
             ("coset_element", partial(coset_element, 0), True),
             ("double_coset_min_index-n",
              lambda n: double_coset_min_index(0, n, 3), 1.5),
             ("double_coset_min_index-m",
              partial(double_coset_min_index, 0, 3), True),
             ("enumerate_regular", partial(enumerate_regular, 0), True),
             ("direction_weight", partial(direction_weight, 0), True),
             ("dominant_set", lambda m: dominant_set(0, m, 3), 2.5),
             ("dominant_set-max_size", partial(dominant_set, 0, 3), True),
             ("dominant_set-max_size", partial(dominant_set, 0, 3), 4.0)])


@pytest.mark.parametrize("call, n", [row[1:] for row in COUNTS],
                         ids=["%r-%s" % (row[2], row[0]) for row in COUNTS])
def test_cutoff_must_be_an_int(call, n):
    with pytest.raises(TypeError):
        call(n)


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


@pytest.mark.parametrize("lambda_type, b", [
    (1, cp((3, 1))), (0, cp((2,))), (0, cp((3,), 1))],
    ids=["odd parts for type 1", "an even part for type 0", "charge 1"])
def test_weight_of_dominant_refuses_non_dominant_input(lambda_type, b):
    with pytest.raises(ValueError, match="is not dominant for lambda_type"):
        weight_of_dominant(lambda_type, b)


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


@pytest.mark.parametrize("spec", list(kk_specs(7)), ids=str)
def test_members_are_the_pairs_that_pass_the_membership_test(spec):
    # the listing within the rectangle bound against the filtered route
    members = kk_crystal_members(spec, 14)
    pairs = tensor_pairs(spec.lambda_type, 14)
    assert members == sorted((t for t in pairs if in_kk_crystal(spec, t)),
                             key=lambda t: (t.total_boxes, t))
    assert all(type(t) is TensorElement for t in members)


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

    with mock.patch.object(kk, "kk_crystal_members", drop_one):
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
    assert done.stdout.splitlines() == ["lowering operators escaped the crystal"]
