import pytest

from kkcrystals.iso import partition_to_path, path_to_partition
from kkcrystals.partitions import ChargedPartition
from kkcrystals.paths import LSPath
from kkcrystals.verify import check_dominance, check_path_bijectivity


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


def test_rejects_non_regular():
    with pytest.raises(ValueError):
        partition_to_path(cp((2, 2)))


def test_dominance_equivalence_at_desk_scale():
    result = check_dominance(max_boxes=18)
    assert result.ok, result.failures


def test_every_canonical_path_has_a_unique_preimage():
    # all canonical paths with initial index at most 18, both shapes
    result = check_path_bijectivity(m_max=18)
    assert result.ok, result.failures

