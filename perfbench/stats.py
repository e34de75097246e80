"""Small statistics shared by the benchmark and its spread check."""

from __future__ import annotations

import statistics


def mean_with_count(values: list[float]) -> tuple[float, int]:
    """Mean of the samples and how many there were; raises on no samples.

    The mean, not the median: on a shared host one run's detection times
    fall into a fast and a slow cluster whose shares change from run to run,
    and the median jumps from one cluster to the other where the mean moves
    with the shares.
    """
    if not values:
        raise ValueError("no samples")
    return statistics.fmean(values), len(values)


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median.

    Quartiles are ``statistics.quantiles(values, n=4)`` (exclusive method).
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
