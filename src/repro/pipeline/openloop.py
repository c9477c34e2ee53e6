"""Open-loop load generation with latency accounting.

Every benchmark before this one was *closed-loop*: the next request is only
sent once the previous one completes, so a slow service quietly slows the
load down and the measured "throughput" hides the queueing the paper's
clients would actually feel.  A million independent wallets do not
coordinate like that -- arrivals happen at their own rate regardless of how
the Token Service is doing.  This module models that honestly:

* a dispatcher emits arrivals on a fixed schedule
  (:func:`arrival_offsets`: arrival *i* is due at ``i / rate`` seconds,
  whether or not earlier requests have finished);
* a pool of workers drains the arrival queue, one blocking issuance
  round-trip per arrival (each worker is pinned to one
  :class:`~repro.api.protocol.TokenIssuer` -- typically a
  :func:`~repro.api.transport.connect`-ed gateway client, so the wire is
  real);
* two latencies are recorded per arrival: **service** latency (submit
  round-trip, what the server took) and **end-to-end** latency (completion
  minus *scheduled* arrival -- queueing included, the number a wallet
  experiences when the service falls behind).

When the offered rate exceeds capacity, the queue grows and end-to-end
tail latency explodes while service latency stays flat -- exactly the
signal closed-loop tx/s cannot show.  :class:`LatencySummary` reports the
p50/p99/p999 tails the SLO gates pin.

Failures never abort a run: error-carrying results and raised transport
errors (``UNAVAILABLE`` on a dead endpoint, ...) are counted per
:class:`~repro.core.errors.ErrorCode` and folded into ``error_rate``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from queue import Queue
from typing import Any, Callable, Sequence

from repro.api.protocol import TokenIssuer
from repro.core.errors import ErrorCode, SmacsError
from repro.core.token_request import TokenRequest


def percentile(values: Sequence[float], q: float) -> "float | None":
    """Nearest-rank percentile (``q`` in [0, 1]) of an unsorted sample.

    An empty sample has no percentile: the documented sentinel is ``None``
    (never ``0.0``, which would read as "zero latency" in a report, and
    never an exception, which would abort a run that merely recorded no
    arrivals).  A single-sample train returns that sample for every ``q``.
    A ``q`` outside [0, 1] is a caller bug and still raises.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not values:
        return None
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def arrival_offsets(rate_per_second: float, arrivals: int) -> list[float]:
    """Scheduled offsets (seconds from start) of an open-loop arrival train."""
    if rate_per_second <= 0:
        raise ValueError("rate_per_second must be positive")
    if arrivals < 0:
        raise ValueError("arrivals must be non-negative")
    return [index / rate_per_second for index in range(arrivals)]


@dataclass(frozen=True)
class LatencySummary:
    """The tail-first view of one latency sample, in milliseconds.

    An empty sample (``count == 0``) carries ``None`` for every latency
    field -- "no data" and "0 ms" are different answers, and a summary
    that silently reported zeros made an idle run look infinitely fast.
    """

    count: int
    p50_ms: "float | None"
    p99_ms: "float | None"
    p999_ms: "float | None"
    mean_ms: "float | None"
    max_ms: "float | None"

    @classmethod
    def from_seconds(cls, samples: Sequence[float]) -> "LatencySummary":
        if not samples:
            return cls(0, None, None, None, None, None)
        in_ms = [value * 1000.0 for value in samples]
        return cls(
            count=len(in_ms),
            p50_ms=percentile(in_ms, 0.50),
            p99_ms=percentile(in_ms, 0.99),
            p999_ms=percentile(in_ms, 0.999),
            mean_ms=sum(in_ms) / len(in_ms),
            max_ms=max(in_ms),
        )

    def to_data(self, prefix: str) -> "dict[str, float | None]":
        def rounded(value: "float | None") -> "float | None":
            return None if value is None else round(value, 3)

        return {
            f"{prefix}_p50_ms": rounded(self.p50_ms),
            f"{prefix}_p99_ms": rounded(self.p99_ms),
            f"{prefix}_p999_ms": rounded(self.p999_ms),
            f"{prefix}_mean_ms": rounded(self.mean_ms),
            f"{prefix}_max_ms": rounded(self.max_ms),
        }


def _empty_summary() -> LatencySummary:
    return LatencySummary.from_seconds([])


@dataclass
class OpenLoopReport:
    """What one open-loop run measured.

    ``service`` / ``end_to_end`` summarise *every* arrival; the
    ``accepted_*`` twins summarise only successful issuances and ``shed``
    only the failures.  The split matters under overload: an admission
    controller answers shed requests in microseconds, and folding those
    fast failures into one sample would make a drowning service's p99 look
    *better* as it sheds more -- the accepted-only tail is the honest SLO.
    """

    offered_rate_per_s: float
    arrivals: int
    completed: int
    failed: int
    duration_s: float
    service: LatencySummary
    end_to_end: LatencySummary
    errors_by_code: dict[str, int] = field(default_factory=dict)
    accepted_service: LatencySummary = field(default_factory=_empty_summary)
    accepted_e2e: LatencySummary = field(default_factory=_empty_summary)
    shed: LatencySummary = field(default_factory=_empty_summary)

    @property
    def error_rate(self) -> float:
        return self.failed / self.arrivals if self.arrivals else 0.0

    @property
    def success_rate(self) -> float:
        return 1.0 - self.error_rate

    @property
    def achieved_rate_per_s(self) -> float:
        """Successful completions per second (the goodput overload gates pin)."""
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    def to_data(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "offered_rate_per_s": round(self.offered_rate_per_s, 3),
            "arrivals": self.arrivals,
            "completed": self.completed,
            "failed": self.failed,
            "duration_s": round(self.duration_s, 4),
            "error_rate": round(self.error_rate, 6),
            "success_rate": round(self.success_rate, 6),
            "achieved_rate_per_s": round(self.achieved_rate_per_s, 3),
            "errors_by_code": dict(self.errors_by_code),
        }
        data.update(self.service.to_data("issuance"))
        data.update(self.end_to_end.to_data("e2e"))
        data.update(self.accepted_service.to_data("accepted"))
        data.update(self.accepted_e2e.to_data("accepted_e2e"))
        data.update(self.shed.to_data("shed"))
        return data


class _Recorder:
    """Thread-safe sample sink shared by the worker pool."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.service: list[float] = []
        self.end_to_end: list[float] = []
        self.accepted_service: list[float] = []
        self.accepted_e2e: list[float] = []
        self.shed_service: list[float] = []
        self.completed = 0
        self.failed = 0
        self.errors_by_code: dict[str, int] = {}

    def record(
        self, service_s: float, end_to_end_s: float, code: "ErrorCode | None"
    ) -> None:
        with self.lock:
            self.service.append(service_s)
            self.end_to_end.append(end_to_end_s)
            if code is None:
                self.completed += 1
                self.accepted_service.append(service_s)
                self.accepted_e2e.append(end_to_end_s)
            else:
                self.failed += 1
                self.shed_service.append(service_s)
                self.errors_by_code[code.value] = (
                    self.errors_by_code.get(code.value, 0) + 1
                )


def run_open_loop(
    issuers: "Sequence[TokenIssuer] | TokenIssuer",
    make_request: Callable[[int], TokenRequest],
    *,
    rate_per_second: float,
    arrivals: int,
    workers: int = 8,
    now: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> OpenLoopReport:
    """Drive ``arrivals`` issuance requests at a fixed open-loop rate.

    ``issuers`` supplies the front ends the workers submit through, assigned
    round-robin (pass one gateway client per worker to give each its own
    wire connection).  ``make_request`` builds arrival *i*'s
    :class:`~repro.core.token_request.TokenRequest`.  The dispatcher never
    waits for completions: if the service falls behind, the arrival queue
    grows and end-to-end latency shows it.
    """
    issuer_list = [issuers] if isinstance(issuers, TokenIssuer) else list(issuers)
    if not issuer_list:
        raise ValueError("need at least one issuer")
    if workers < 1:
        raise ValueError("need at least one worker")
    offsets = arrival_offsets(rate_per_second, arrivals)
    queue: "Queue[tuple[int, float] | None]" = Queue()
    recorder = _Recorder()

    def worker(issuer: TokenIssuer) -> None:
        while True:
            item = queue.get()
            if item is None:
                return
            index, scheduled = item
            started = now()
            code: "ErrorCode | None" = None
            try:
                result = issuer.submit([make_request(index)])[0]
                if not result.issued:
                    code = result.code if result.code is not None else ErrorCode.DENIED
            except SmacsError as error:  # transport-level failure
                code = error.code
            finished = now()
            recorder.record(finished - started, finished - scheduled, code)

    threads = [
        threading.Thread(
            target=worker,
            args=(issuer_list[position % len(issuer_list)],),
            name=f"openloop-worker-{position}",
            daemon=True,
        )
        for position in range(workers)
    ]
    for thread in threads:
        thread.start()

    start = now()
    for index, offset in enumerate(offsets):
        due = start + offset
        delay = due - now()
        if delay > 0:
            sleep(delay)
        queue.put((index, due))
    for _ in threads:
        queue.put(None)
    for thread in threads:
        thread.join()
    duration = now() - start

    return OpenLoopReport(
        offered_rate_per_s=rate_per_second,
        arrivals=arrivals,
        completed=recorder.completed,
        failed=recorder.failed,
        duration_s=duration,
        service=LatencySummary.from_seconds(recorder.service),
        end_to_end=LatencySummary.from_seconds(recorder.end_to_end),
        errors_by_code=recorder.errors_by_code,
        accepted_service=LatencySummary.from_seconds(recorder.accepted_service),
        accepted_e2e=LatencySummary.from_seconds(recorder.accepted_e2e),
        shed=LatencySummary.from_seconds(recorder.shed_service),
    )


__all__ = [
    "LatencySummary",
    "OpenLoopReport",
    "arrival_offsets",
    "percentile",
    "run_open_loop",
]
