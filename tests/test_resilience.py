"""Unit tests for the resilience primitives (repro.resilience + netem).

Each primitive is exercised in isolation with injected clocks and sleepers
-- no sockets, no wall-clock waits.  The wire-level behaviour (gateways
shedding, clients retrying, breakers ejecting real endpoints) lives in
``test_api_resilience.py``; the hypothesis property suites live in
``test_property_resilience.py``.
"""

from __future__ import annotations

import pytest

from repro.core.errors import RETRYABLE_CODES, ErrorCode, SmacsError
from repro.faults import NetemTransport
from repro.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    AdmissionController,
    CircuitBreaker,
)
from repro.resilience.deadline import (
    check_deadline,
    deadline_in,
    decode_deadline,
    remaining,
)


# --- error-code classification (the S2 contract) ------------------------------------


def test_new_error_codes_classify_deliberately():
    # OVERLOADED is the server saying "try later" -- retryable by design.
    assert ErrorCode.OVERLOADED in RETRYABLE_CODES
    # DEADLINE_EXCEEDED means the *caller's* budget is gone; a retry would
    # start over with the same dead deadline.  Never retryable.
    assert ErrorCode.DEADLINE_EXCEEDED not in RETRYABLE_CODES


# --- deadline arithmetic ------------------------------------------------------------


def test_deadline_in_is_absolute_and_requires_a_positive_budget():
    assert deadline_in(5.0, now=lambda: 100.0) == 105.0
    with pytest.raises(ValueError):
        deadline_in(0.0, now=lambda: 100.0)
    with pytest.raises(ValueError):
        deadline_in(-1.0, now=lambda: 100.0)


def test_remaining_clamps_at_zero():
    assert remaining(105.0, now=lambda: 100.0) == 5.0
    assert remaining(105.0, now=lambda: 200.0) == 0.0  # a valid socket timeout


def test_check_deadline_names_the_stage_and_tolerates_none():
    check_deadline(None, stage="gateway", now=lambda: 1e12)  # legacy peer: no-op
    check_deadline(105.0, stage="gateway", now=lambda: 104.9)
    with pytest.raises(SmacsError) as failure:
        check_deadline(105.0, stage="mempool", now=lambda: 105.0)
    assert failure.value.code is ErrorCode.DEADLINE_EXCEEDED
    assert "mempool" in str(failure.value)


@pytest.mark.parametrize(
    "wire_value",
    [None, "soon", True, False, 0, -3.5, float("nan"), float("inf"), [], {}],
)
def test_decode_deadline_degrades_garbage_to_no_deadline(wire_value):
    assert decode_deadline(wire_value) is None


def test_decode_deadline_accepts_positive_numbers():
    assert decode_deadline(1234.5) == 1234.5
    assert decode_deadline(7) == 7.0


# --- circuit breaker ----------------------------------------------------------------


def _breaker(clock, **kwargs):
    defaults = dict(failure_threshold=3, reset_timeout=1.0, half_open_probes=1)
    defaults.update(kwargs)
    return CircuitBreaker(now=lambda: clock["t"], **defaults)


def test_breaker_trips_only_on_consecutive_failures():
    clock = {"t": 0.0}
    breaker = _breaker(clock)
    for _ in range(2):
        breaker.record_failure()
    breaker.record_success()  # resets the streak
    for _ in range(2):
        breaker.record_failure()
    assert breaker.state == BREAKER_CLOSED
    breaker.record_failure()  # third consecutive: trips
    assert breaker.state == BREAKER_OPEN
    assert breaker.trips == 1
    assert not breaker.allow()
    assert breaker.rejections == 1


def test_open_breaker_reports_its_retry_horizon():
    clock = {"t": 0.0}
    breaker = _breaker(clock)
    assert breaker.retry_after() == 0.0  # closed: admit now
    for _ in range(3):
        breaker.record_failure()
    assert breaker.retry_after() == pytest.approx(1.0)
    clock["t"] = 0.6
    assert breaker.retry_after() == pytest.approx(0.4)
    clock["t"] = 2.0
    assert breaker.retry_after() == 0.0  # probe-able now


def test_half_open_probe_success_closes_and_failure_reopens():
    clock = {"t": 0.0}
    breaker = _breaker(clock)
    for _ in range(3):
        breaker.record_failure()
    clock["t"] = 1.0  # reset timeout elapses
    assert breaker.state == BREAKER_HALF_OPEN
    assert breaker.allow()  # the probe
    assert not breaker.allow()  # quota of 1 is in flight
    breaker.record_failure()  # probe failed: re-open, timer restarts
    assert breaker.state == BREAKER_OPEN
    assert not breaker.allow()
    clock["t"] = 2.0
    assert breaker.allow()
    breaker.record_success()  # probe succeeded: close
    assert breaker.state == BREAKER_CLOSED
    assert breaker.allow()


def test_breaker_rejects_bad_configuration():
    for kwargs in (
        {"failure_threshold": 0},
        {"reset_timeout": 0.0},
        {"half_open_probes": 0},
    ):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)


# --- admission controller -----------------------------------------------------------


def test_admission_sheds_once_inflight_work_exceeds_the_delay_budget():
    admission = AdmissionController(target_delay_s=0.5, initial_service_s=1.0)
    assert admission.admit() is None  # empty dispatcher: 0s estimated delay
    hint = admission.admit()  # 1 in flight x 1.0s EWMA = 1.0s > 0.5s budget
    assert hint == pytest.approx(0.5)  # the excess over the budget
    stats = admission.stats()
    assert stats["admitted"] == 1
    assert stats["shed"] == 1
    assert stats["inflight"] == 1
    assert admission.estimated_delay_s() == pytest.approx(1.0)


def test_observe_releases_the_slot_and_only_served_requests_teach_the_ewma():
    admission = AdmissionController(
        target_delay_s=0.5, initial_service_s=1.0, ewma_alpha=0.1
    )
    assert admission.admit() is None
    admission.observe(None)  # failed before service: release, learn nothing
    assert admission.stats()["inflight"] == 0
    assert admission.stats()["service_ewma_s"] == 1.0
    assert admission.admit() is None  # the released slot is admittable again
    admission.observe(2.0)  # served in 2s: EWMA moves toward it
    assert admission.stats()["service_ewma_s"] == pytest.approx(1.1)
    admission.observe(None)  # spurious extra release: inflight never negative
    assert admission.stats()["inflight"] == 0


def test_admission_rejects_bad_configuration():
    for kwargs in (
        {"target_delay_s": 0.0},
        {"ewma_alpha": 0.0},
        {"ewma_alpha": 1.5},
        {"initial_service_s": 0.0},
    ):
        with pytest.raises(ValueError):
            AdmissionController(**kwargs)


# --- netem transport ----------------------------------------------------------------


class _EchoTransport:
    """Counts sends; answers with a per-send distinct payload."""

    def __init__(self):
        self.sent: list[bytes] = []
        self.closed = False

    def send(self, raw: bytes) -> bytes:
        self.sent.append(raw)
        return b"answer-%d" % len(self.sent)

    def close(self) -> None:
        self.closed = True

    def describe(self):
        return {"kind": "echo"}


def test_netem_drops_on_a_deterministic_schedule():
    inner = _EchoTransport()
    netem = NetemTransport(inner, drop_every=3)
    assert netem.send(b"a") == b"answer-1"
    assert netem.send(b"b") == b"answer-2"
    with pytest.raises(SmacsError) as failure:
        netem.send(b"c")  # the 3rd request: dropped before the inner send
    assert failure.value.code is ErrorCode.UNAVAILABLE
    assert len(inner.sent) == 2
    assert netem.dropped == 1
    assert netem.send(b"d") == b"answer-3"


def test_netem_duplicates_and_returns_the_first_response():
    inner = _EchoTransport()
    netem = NetemTransport(inner, duplicate_every=2)
    assert netem.send(b"a") == b"answer-1"
    assert netem.send(b"b") == b"answer-2"  # duplicated: inner sees it twice
    assert inner.sent == [b"a", b"b", b"b"]
    assert netem.duplicated == 1


def test_netem_latency_and_jitter_are_deterministic_with_injected_sleep():
    slept: list[float] = []
    netem = NetemTransport(
        _EchoTransport(), latency_s=0.01, jitter_s=0.005, seed=7, sleep=slept.append
    )
    netem.send(b"a")
    netem.send(b"b")
    assert len(slept) == 2
    assert all(0.01 <= delay <= 0.015 for delay in slept)
    assert netem.delay_total_s == pytest.approx(sum(slept))
    # Same seed, same draws: a second run is byte-reproducible.
    replay: list[float] = []
    again = NetemTransport(
        _EchoTransport(), latency_s=0.01, jitter_s=0.005, seed=7, sleep=replay.append
    )
    again.send(b"a")
    again.send(b"b")
    assert replay == slept


def test_netem_close_and_describe_pass_through():
    inner = _EchoTransport()
    netem = NetemTransport(inner, drop_every=4)
    netem.send(b"a")
    netem.close()
    assert inner.closed
    description = netem.describe()
    assert description["kind"] == "netem"
    assert description["requests"] == 1
    assert description["inner"] == {"kind": "echo"}
    with pytest.raises(ValueError):
        NetemTransport(inner, latency_s=-0.1)
    with pytest.raises(ValueError):
        NetemTransport(inner, drop_every=-1)
