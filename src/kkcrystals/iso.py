"""The bijection between 2-regular charged partitions and LS paths.

A charged partition with bounding rectangle (m, n) maps to the
path with direction chain w_m > ... > w_n whose step data is the gap
conjugate of the partition; the charge picks the shape (and with it the
sign of the coset representatives).  The map intertwines the partition
and path root operators, which the test suite checks exhaustively.
"""

from __future__ import annotations

from .partitions import ChargedPartition, conjugate, gap_conjugate
from .paths import LSPath


def partition_to_path(cp: ChargedPartition) -> LSPath:
    return LSPath(cp.charge, len(cp.parts), gap_conjugate(cp))


def path_to_partition(path: LSPath) -> ChargedPartition:
    cols = conjugate(path.steps)
    gaps = tuple(cols) + (0,) * (path.n - len(cols))
    parts = tuple(gaps[k] + (path.n - k) for k in range(path.n))
    return ChargedPartition(parts, path.shape)
