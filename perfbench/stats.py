"""Order statistics for the end-to-end metrics.

The host these numbers come from is shared, and contention from other
tenants slows identical work by 20-60% for seconds at a time.  Contention
only ever adds time, so a request's latency is summarised by its fastest
run over the repetitions of a run, and a repetition's time by the sum of
those: each short request needs only one calm moment in the whole run,
where a whole repetition would need several seconds of calm.
"""

from __future__ import annotations

import statistics

# candidate tail percentiles, in per mille
TAIL_LADDER = (999, 990, 950, 900, 500)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values, per_mille: int):
    """The value at the nearest rank for the given per-mille percentile."""
    rank = -(-per_mille * len(sorted_values) // 1000)
    return sorted_values[max(rank, 1) - 1]


def tail_per_mille(n: int) -> int:
    """The highest ladder percentile with at least TAIL_MIN_BEYOND of n
    samples beyond its nearest rank; the median when no percentile has."""
    for per_mille in TAIL_LADDER:
        if n - -(-per_mille * n // 1000) >= TAIL_MIN_BEYOND:
            return per_mille
    return 500


def fastest_latencies(reps) -> list[float]:
    """Each request's fastest latency over the repetitions; reps is a list
    of per-repetition latency lists in request order."""
    return [min(request) for request in zip(*reps)]


def latency_summary(latencies) -> dict:
    """Median and tail of request latencies, with the sample count."""
    ordered = sorted(latencies)
    per_mille = tail_per_mille(len(ordered))
    return {"n": len(ordered), "p50": statistics.median(ordered),
            "tail_percentile": per_mille / 10,
            "tail": nearest_rank(ordered, per_mille)}
