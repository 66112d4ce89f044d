"""The bijection between 2-regular charged partitions and LS paths.

A charged partition with bounding rectangle (m, n) maps to the
path with direction chain w_m > ... > w_n whose step data is the gap
conjugate of the partition; the charge is the shape, which picks the
coset representatives w^+ (0) or w^- (1).  The map intertwines the
partition and path root operators, as the verify suites check.
"""

from __future__ import annotations

from .partitions import ChargedPartition, gap_conjugate
from .paths import LSPath


def partition_to_path(cp: ChargedPartition) -> LSPath:
    return LSPath(cp.charge, len(cp.parts), gap_conjugate(cp))


def path_to_partition(path: LSPath) -> ChargedPartition:
    """Row k is n - k plus column k + 1 of the steps' diagram, run by run."""
    steps, n = path.steps, path.n
    parts = []
    r, low = len(steps), 0
    for step in reversed(steps):
        if step != low:
            parts += range(r + n - low, r + n - step, -1)
            low = step
        r -= 1
    parts += range(n - low, 0, -1)
    return ChargedPartition(tuple(parts), path.shape)
