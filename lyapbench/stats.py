"""Order statistics for the benchmark: medians, interpolated percentiles,
the tail percentile rule, the pass time of op medians and the quartile
spread."""

from __future__ import annotations

import math
import statistics

# Percentiles the tail metric may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    rank = (len(data) - 1) * p / 100.0
    lo = math.floor(rank)
    if rank == lo or data[lo] == data[lo + 1]:
        return data[lo]
    return data[lo] + (data[lo + 1] - data[lo]) * (rank - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile that leaves at least ten of n samples
    beyond it, counting n * (100 - p) / 100 samples beyond percentile p."""
    best = None
    for p in TAIL_LADDER:
        if round(n * (100.0 - p) / 100.0, 9) >= MIN_BEYOND:  # 100 - 99.9 is inexact
            best = p
    if best is None:
        raise ValueError(f"{n} samples leave fewer than {MIN_BEYOND} beyond the median")
    return best


def pass_of_op_medians(op_seconds) -> float:
    """Sum over ops of each op's median time, given one list of op times
    per pass (ops in the same order in every pass).

    On a shared host a slow spell of a few seconds lands on different ops
    in different passes; taking each op's median before summing keeps it
    out of the pass time better than the median of whole passes does.
    """
    return sum(median(times) for times in zip(*op_seconds))


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with the quartiles of statistics.quantiles(n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
