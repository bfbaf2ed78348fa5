"""Summary statistics shared by the runner, the gate and the tests."""

from __future__ import annotations

import math
import statistics

__all__ = ["TAIL_SAMPLES", "percentile", "high_percentile", "summarize", "spread"]

#: A percentile is reported only while at least this many samples lie
#: beyond it; with fewer, the "tail" is a handful of outliers.
TAIL_SAMPLES = 10


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (``pct`` in [0, 100]) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def high_percentile(n: int) -> float | None:
    """The highest whole percentile with >= TAIL_SAMPLES samples beyond it.

    ``None`` when even the median is not that well supported (n < 20):
    then only the median is reported.
    """
    pct = math.floor(100.0 * (n - TAIL_SAMPLES) / n) if n else 0
    return float(pct) if pct > 50 else None


def summarize(values) -> dict:
    """Count, median and best-supported high percentile of a sample."""
    values = list(values)
    out = {"n": len(values)}
    if not values:
        return out
    out["p50"] = statistics.median(values)
    out["mean"] = statistics.fmean(values)
    hi = high_percentile(len(values))
    if hi is not None:
        out["hi_pct"] = hi
        out["hi"] = percentile(values, hi)
    return out


def spread(values) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
