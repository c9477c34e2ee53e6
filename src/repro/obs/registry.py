"""Zero-dependency metrics: counters, gauges and a log-scale histogram.

The registry is deliberately tiny -- three metric kinds, a dict of names,
a lock per metric -- because it sits inside per-transaction hot paths
(mempool admission records one histogram sample per tx).  Design points:

- **One fixed log-scale geometry.**  Every :class:`Histogram` covers
  ``[LOWER, LOWER * 10**DECADES)`` with ``BUCKETS_PER_DECADE`` buckets per
  factor of ten, so bucket ``i`` spans
  ``[LOWER * 10**(i/bpd), LOWER * 10**((i+1)/bpd))``: 1 microsecond ..
  1000 s at 10 buckets/decade.  Any quantile estimate is within one bucket
  boundary -- a factor of ``10**0.1 ~ 1.26`` -- of the exact nearest-rank
  percentile, which is plenty for stage profiling.
- **JSON-safe snapshots.**  ``snapshot()`` emits plain dicts (sparse
  non-empty buckets only), which the ``metrics`` gateway route and the dump
  CLI carry as they are.
- **Injectable clock.**  The registry carries the monotonic ``now`` used by
  every stage timer built on top of it.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from typing import Any, Callable, Dict, List
from time import monotonic as _monotonic

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: The histogram geometry: the lowest in-range sample (seconds), the buckets
#: per factor of ten and the factors of ten covered.
LOWER = 1e-6
BUCKETS_PER_DECADE = 10
DECADES = 9
_EDGES = tuple(
    LOWER * 10.0 ** (i / BUCKETS_PER_DECADE)
    for i in range(BUCKETS_PER_DECADE * DECADES + 1)
)


class Counter:
    """A monotonically increasing integer (requests served, txs admitted)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for levels")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> int:
        return self._value


class Gauge:
    """A level that can move both ways (pool depth, largest batch seen)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def set_max(self, value: float) -> None:
        """Keep the high-water mark (``largest_batch`` style gauges)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket log-scale histogram with nearest-rank quantile estimates.

    Samples below ``LOWER`` land in a dedicated underflow bucket (estimated
    as ``LOWER``); samples at or above the top edge land in overflow
    (estimated as the observed max).  Everything else is bisected into the
    shared edge table, so ``observe`` costs one lock, one bisect over ~90
    floats and two adds -- cheap enough for per-transaction call sites.
    """

    __slots__ = (
        "name", "_counts", "_underflow", "_overflow", "_count", "_sum",
        "_min", "_max", "_lock",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self._counts: List[int] = [0] * (len(_EDGES) - 1)
        self._underflow = 0
        self._overflow = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if value < LOWER:
                self._underflow += 1
            elif value >= _EDGES[-1]:
                self._overflow += 1
            else:
                self._counts[bisect_right(_EDGES, value) - 1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> "float | None":
        """Upper-edge estimate of the nearest-rank ``q``-quantile.

        Returns ``None`` on an empty histogram (the same documented sentinel
        as :func:`repro.pipeline.openloop.percentile`) rather than raising
        or inventing a zero.  The estimate is clamped to the observed max,
        so single-sample histograms report the sample's bucket edge or the
        sample itself, whichever is tighter.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be within [0, 1], got {q}")
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> "float | None":
        if self._count == 0:
            return None
        rank = max(1, math.ceil(q * self._count))
        seen = self._underflow
        if rank <= seen:
            return min(LOWER, self._max)
        for i, bucket in enumerate(self._counts):
            seen += bucket
            if rank <= seen:
                return min(_EDGES[i + 1], self._max)
        return self._max  # overflow bucket

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe state dump (sparse non-empty buckets only)."""
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "min": None if self._count == 0 else self._min,
                "max": None if self._count == 0 else self._max,
                "underflow": self._underflow,
                "overflow": self._overflow,
                "buckets": {
                    str(i): c for i, c in enumerate(self._counts) if c
                },
                "p50": self._quantile_locked(0.50),
                "p99": self._quantile_locked(0.99),
                "p999": self._quantile_locked(0.999),
            }


class MetricsRegistry:
    """A named family of metrics sharing one injectable monotonic clock.

    ``counter(name)`` / ``gauge(name)`` / ``histogram(name)`` are
    get-or-create: repeated calls return the same object, and asking for an
    existing name with a different metric kind is an error (one name, one
    meaning).  ``snapshot()`` emits the whole registry as a JSON-safe dict.
    """

    def __init__(self, *, now: Callable[[], float] = _monotonic) -> None:
        self.now = now
        self._metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind: type) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = kind(name)
            elif not isinstance(metric, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            metrics = dict(self._metrics)
        out: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(metrics):
            metric = metrics[name]
            if isinstance(metric, Counter):
                out["counters"][name] = metric.snapshot()
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.snapshot()
            else:
                out["histograms"][name] = metric.snapshot()
        return out
