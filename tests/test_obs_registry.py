"""Unit tests for the repro.obs metrics registry (counters, gauges, histograms)."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.registry import BUCKETS_PER_DECADE, DECADES, LOWER


# --- counters / gauges --------------------------------------------------------------


def test_counter_only_goes_up():
    counter = Counter("requests")
    counter.inc()
    counter.inc(41)
    assert counter.value == 42
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_levels_and_high_water_mark():
    gauge = Gauge("largest_batch")
    gauge.set(3.0)
    gauge.set(5.0)
    assert gauge.value == 5.0
    gauge.set_max(4.0)  # below the current level: no change
    assert gauge.value == 5.0
    gauge.set_max(9.0)
    assert gauge.value == 9.0


# --- histogram ----------------------------------------------------------------------


def test_histogram_quantiles_land_within_one_bucket():
    hist = Histogram("latency")
    for ms in (1.0, 2.0, 3.0, 4.0, 100.0):
        hist.observe(ms / 1000.0)
    growth = 10.0 ** (1.0 / BUCKETS_PER_DECADE)
    p50 = hist.quantile(0.5)
    assert 0.003 <= p50 <= 0.003 * growth * (1 + 1e-9)
    # p999 of five samples is the max; the estimate clamps to it exactly.
    assert hist.quantile(0.999) == pytest.approx(0.1)


def test_histogram_empty_and_single_sample_edges():
    hist = Histogram("empty")
    assert hist.quantile(0.5) is None  # no data is None, not 0
    assert hist.snapshot()["p99"] is None
    hist.observe(0.004)
    # Single sample: every quantile reports the sample (clamped to max).
    for q in (0.0, 0.5, 0.99, 1.0):
        assert hist.quantile(q) == pytest.approx(0.004)
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_histogram_underflow_and_overflow():
    hist = Histogram("edges")  # covers [1 us, 1000 s)
    top = LOWER * 10.0 ** DECADES
    hist.observe(0.0)       # underflow
    hist.observe(5 * top)   # overflow
    snap = hist.snapshot()
    assert snap["underflow"] == 1
    assert snap["overflow"] == 1
    assert hist.quantile(0.0) <= LOWER                   # underflow estimates the floor
    assert hist.quantile(1.0) == pytest.approx(5 * top)  # overflow estimates the max


def test_histogram_snapshot_is_json_safe_and_sparse():
    hist = Histogram("sparse")
    hist.observe(0.001)
    hist.observe(0.001)
    snap = hist.snapshot()
    json.dumps(snap)  # must serialise without custom encoders
    assert snap["count"] == 2
    assert sum(snap["buckets"].values()) == 2
    assert len(snap["buckets"]) == 1  # only the touched bucket is emitted


# --- registry -----------------------------------------------------------------------


def test_registry_get_or_create_and_kind_conflicts():
    registry = MetricsRegistry()
    counter = registry.counter("x")
    assert registry.counter("x") is counter
    with pytest.raises(ValueError):
        registry.gauge("x")  # one name, one meaning
    assert registry.snapshot()["counters"] == {"x": 0}


def test_registry_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("c").inc(3)
    registry.gauge("g").set(1.5)
    registry.histogram("h").observe(0.002)
    snap = registry.snapshot()
    json.dumps(snap)
    assert snap["counters"] == {"c": 3}
    assert snap["gauges"] == {"g": 1.5}
    assert snap["histograms"]["h"]["count"] == 1


def test_registry_injectable_clock_is_exposed():
    ticks = iter(range(100))
    registry = MetricsRegistry(now=lambda: float(next(ticks)))
    assert registry.now() == 0.0
    assert registry.now() == 1.0


def test_histogram_observe_is_thread_safe():
    hist = Histogram("contended")

    def pound() -> None:
        for _ in range(2000):
            hist.observe(0.001)

    threads = [threading.Thread(target=pound) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert hist.count == 8000
    assert sum(hist.snapshot()["buckets"].values()) == 8000
