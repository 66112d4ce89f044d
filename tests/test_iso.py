import pytest

from kkcrystals import verify
from kkcrystals.iso import partition_to_path, path_to_partition
from kkcrystals.partitions import ChargedPartition, weight_of
from kkcrystals.paths import LSPath
from kkcrystals.verify import (check_dominance, check_iso_commutation,
                               check_path_bijectivity)
from kkcrystals.weights import DELTA


def cp(parts, charge=0):
    return ChargedPartition(tuple(parts), charge)


def test_charge_zero_examples():
    assert partition_to_path(cp(())) == LSPath(0, 0, ())
    assert partition_to_path(cp((8, 6, 3, 1))) == LSPath(0, 4, (3, 2, 2, 1))
    assert partition_to_path(cp((1,))) == LSPath(0, 1, ())


def test_charge_one_examples():
    assert partition_to_path(cp((), 1)) == LSPath(1, 0, ())
    assert partition_to_path(cp((1,), 1)) == LSPath(1, 1, ())
    assert partition_to_path(cp((2,), 1)) == LSPath(1, 1, (1,))


def test_inverse_examples():
    assert path_to_partition(LSPath(0, 0, ())) == cp(())
    assert path_to_partition(LSPath(0, 4, (3, 2, 2, 1))) == cp((8, 6, 3, 1))
    assert path_to_partition(LSPath(1, 1, (1,))) == cp((2,), 1)


def test_dominance_equivalence_at_desk_scale():
    result = check_dominance(max_boxes=18)
    assert result.ok, result.failures


def test_every_canonical_path_has_a_unique_preimage():
    # all canonical paths with initial index at most 18, both shapes
    result = check_path_bijectivity(m_max=18)
    assert result.ok, result.failures



# one broken step per failure message of check_iso_commutation, and the
# first partition it names
ISO_BREAKS = {
    "round trip": (verify, "path_to_partition", lambda path: cp(()),
                   "round trip failed at (1 | c=0)"),
    "weights": (verify, "weight_of", lambda c: weight_of(c) + DELTA,
                "weights differ at (∅ | c=0)"),
    "bounding rectangle": (
        ChargedPartition, "bounding_rect", property(lambda c: (-1, -1)),
        "directions miss the bounding rectangle at (∅ | c=0)"),
}


@pytest.mark.parametrize("name", sorted(ISO_BREAKS))
def test_iso_commutation_names_the_partition_it_fails_at(name, monkeypatch):
    owner, attribute, broken, message = ISO_BREAKS[name]
    cases = check_iso_commutation(6).cases
    monkeypatch.setattr(owner, attribute, broken)
    result = check_iso_commutation(6)
    assert (result.cases, result.failures[0]) == (cases, message)


def test_path_bijectivity_names_the_path_it_fails_at(monkeypatch):
    cases = check_path_bijectivity(4).cases
    monkeypatch.setattr(verify, "partition_to_path", lambda c: LSPath(0, 0))
    result = check_path_bijectivity(4)
    assert (result.cases, result.failures[0]) == (
        cases, "round trip failed at LSPath(L0, n=1, steps=[])")
