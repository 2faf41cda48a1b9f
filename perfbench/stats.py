"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import statistics

MIN_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ``MIN_BEYOND`` samples beyond it.

    Returns ``(value, percentile, sample_count)``.  The i-th smallest of n
    samples (0-based) sits at percentile 100*(i+1)/n with n-1-i samples
    beyond it, so the highest qualifying i is n-1-MIN_BEYOND.  With fewer
    than 2 * MIN_BEYOND samples that would fall below the median, and the
    median is reported instead: a tail needs more samples than the run has.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    i = max(n - 1 - MIN_BEYOND, (n - 1) // 2)
    return ordered[i], 100.0 * (i + 1) / n, n


def spread(values) -> float:
    """Interquartile distance as a share of the median (``statistics.quantiles``, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
