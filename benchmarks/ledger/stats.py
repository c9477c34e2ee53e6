"""Estimators: exact nearest-rank percentiles and segment medians.

Every gated timing is the median of per-segment values, so one host stall
(100-300 ms on this class of box) moves at most one segment.  A percentile
is only taken from a sample that has enough values *beyond* it; otherwise
the pooled sample is tried, and when that is too small as well the metric
is not emitted at all (``None``) -- a tail read off three samples is noise
with a name.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: samples that must lie beyond a percentile for one segment to report it
MIN_BEYOND_SEGMENT = 10
#: the pooled fallback's floor (32-tx envelopes give ~90 ops in a 24 s run)
MIN_BEYOND_POOLED = 5


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with >= q% at or below it.

    The ruler's own, on purpose: ``repro.pipeline.openloop.percentile`` does
    the same today, but a change under ``src/`` must not be able to move it.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank strictly above the q-th percentile."""
    return count - max(math.ceil(q / 100.0 * count), 1) if count else 0


def segment_median(values: Sequence[float]) -> float:
    """Median of per-segment values (the gated estimator)."""
    if not values:
        raise ValueError("no segments")
    return statistics.median(values)


def segmented_percentile(
    segments: Sequence[Sequence[float]],
    q: float,
    *,
    min_beyond: int = MIN_BEYOND_SEGMENT,
    min_beyond_pooled: int = MIN_BEYOND_POOLED,
) -> "float | None":
    """Median of per-segment q-th percentiles, or the pooled fallback.

    Per-segment when every segment has ``min_beyond`` samples beyond the
    percentile; else one pooled percentile when the pooled sample has
    ``min_beyond_pooled`` beyond it; else ``None`` (not emitted).
    """
    populated = [segment for segment in segments if segment]
    if not populated:
        return None
    if all(samples_beyond(len(segment), q) >= min_beyond for segment in populated):
        return segment_median([percentile(segment, q) for segment in populated])
    pooled = [value for segment in populated for value in segment]
    if samples_beyond(len(pooled), q) >= min_beyond_pooled:
        return percentile(pooled, q)
    return None
