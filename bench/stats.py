"""Arithmetic the benchmark reports with: timing summaries and the elbow pick."""

from __future__ import annotations

import math
import statistics

# Percentiles a timing summary may report beyond the median, in tenths of a
# percent (integers keep the rank arithmetic exact), highest first.
PERMILLES = (999, 990, 900)
# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def summarize(values) -> dict:
    """Median, sample count and the highest percentile with ten samples beyond it.

    The percentile is nearest-rank. ``pct`` and ``pct_value`` are None when no
    percentile in ``PERMILLES`` has at least ``MIN_BEYOND`` samples above it.
    """
    values = sorted(float(v) for v in values)
    if not values:
        raise ValueError("no samples to summarize")
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "pct": None, "pct_value": None}
    for permille in PERMILLES:
        rank = -(-permille * n // 1000)
        if n - rank >= MIN_BEYOND:
            out["pct"], out["pct_value"] = permille / 10, values[rank - 1]
            break
    return out


def elbow_pick(ms, objectives):
    """Group count the elbow rule picks, or None when no drop is finite.

    The rule of the package's elbow acceptance test: over consecutive
    candidates whose objectives are both finite, take the largest drop; the
    pick is the candidate the drop enters. Equal drops resolve to the larger m.
    """
    drops = [
        (objectives[i] - objectives[i + 1], ms[i + 1])
        for i in range(len(ms) - 1)
        if math.isfinite(objectives[i]) and math.isfinite(objectives[i + 1])
    ]
    return max(drops)[1] if drops else None
