"""Percentiles and the tail rule the benchmark reports latencies with."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple

#: Tail percentiles tried, highest first.
TAIL_PERCENTILES = (0.99, 0.90)

#: A tail percentile is reported only when at least this many samples
#: lie above it; fewer would make it the reading of a handful of calls.
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q * n)``-th smallest sample."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_above(n: int, q: float) -> int:
    """How many of ``n`` samples rank above the nearest-rank ``q``-th."""
    return n - max(1, math.ceil(q * n))


def tail(samples: Sequence[float]) -> Tuple[float, str, int]:
    """The highest of p99/p90 that leaves at least
    :data:`MIN_TAIL_SAMPLES` samples above it.

    Returns ``(value, label, samples above)``.  With too few samples for
    either, the median is returned labelled ``p50``.
    """
    n = len(samples)
    if not n:
        return 0.0, "none", 0
    for q in TAIL_PERCENTILES:
        above = samples_above(n, q)
        if above >= MIN_TAIL_SAMPLES:
            return percentile(samples, q), f"p{round(q * 100)}", above
    return percentile(samples, 0.5), "p50", samples_above(n, 0.5)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 0.5) if samples else 0.0


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and quartile spread as a share of the median,
    as ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    if len(values) < 2:
        value = float(values[0]) if values else 0.0
        return {"median": value, "q1": value, "q3": value, "spread": 0.0}
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(mid) if mid else math.inf,
    }
