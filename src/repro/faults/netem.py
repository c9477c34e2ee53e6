"""Deterministic network emulation at the Transport seam.

Linux's ``tc netem`` shapes traffic on a real interface; this module does
the same four impairments -- added latency, jitter, frame drop, frame
duplication -- inside the process, wrapped around any
:class:`~repro.api.protocol.Transport`.  That keeps the scenario matrix
hermetic (no root, no namespaces, byte-for-byte reproducible baselines)
while still exercising exactly the code paths a lossy network exercises:

* **latency + jitter** delay the round-trip before the inner send.  The
  jitter draw comes from a seeded RNG and the sleep is injectable, so a
  test can pin time without waiting.
* **drop** swallows every ``drop_every``-th request and raises
  ``UNAVAILABLE`` -- the same error a dialed-but-dead endpoint produces,
  so the client's retry loop and circuit breakers see the signal they
  were built for.  Count-based (not probabilistic) so runs
  are deterministic.
* **duplicate** sends every ``duplicate_every``-th frame twice and
  returns the first response.  Gateways must be idempotent per envelope
  (the paper's one-time counter makes the *tokens* single-use; the wire
  layer must not double-issue on a duplicated frame).

``NetemTransport`` composes with the other fault wrappers -- a corrupting
transport over a netem transport over TCP is a valid (and nasty) stack.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable

from repro.core.errors import ErrorCode, SmacsError


class NetemTransport:
    """Transport wrapper emulating an impaired network path.

    Implements the :class:`~repro.api.protocol.Transport` protocol around
    any inner transport (in-process or TCP).  All impairments default to
    off; enable only what a cell needs.

    ``drop_every=N`` drops the Nth, 2Nth, ... request (``0`` disables);
    ``duplicate_every=N`` duplicates on the same schedule, offset so a
    frame is never both dropped and duplicated in the same position when
    the periods differ.  Latency is ``latency_s`` plus a uniform jitter in
    ``[0, jitter_s]`` drawn from a seeded RNG.
    """

    def __init__(
        self,
        inner: Any,
        *,
        latency_s: float = 0.0,
        jitter_s: float = 0.0,
        drop_every: int = 0,
        duplicate_every: int = 0,
        seed: int = 0,
        sleep: "Callable[[float], None] | None" = None,
    ):
        if latency_s < 0 or jitter_s < 0:
            raise ValueError("latency_s and jitter_s must be non-negative")
        if drop_every < 0 or duplicate_every < 0:
            raise ValueError("drop_every and duplicate_every must be >= 0")
        self.inner = inner
        self.latency_s = latency_s
        self.jitter_s = jitter_s
        self.drop_every = drop_every
        self.duplicate_every = duplicate_every
        self.random = random.Random(seed)
        self.sleep = time.sleep if sleep is None else sleep
        self.requests = 0
        self.dropped = 0
        self.duplicated = 0
        self.delay_total_s = 0.0

    def _delay(self) -> None:
        delay = self.latency_s
        if self.jitter_s > 0:
            delay += self.random.uniform(0.0, self.jitter_s)
        if delay > 0:
            self.delay_total_s += delay
            self.sleep(delay)

    def send(self, raw: bytes) -> bytes:
        self.requests += 1
        self._delay()
        if self.drop_every and self.requests % self.drop_every == 0:
            self.dropped += 1
            raise SmacsError(
                f"netem dropped frame #{self.requests} "
                f"(every {self.drop_every})",
                ErrorCode.UNAVAILABLE,
            )
        if self.duplicate_every and self.requests % self.duplicate_every == 0:
            self.duplicated += 1
            first = self.inner.send(raw)
            # The duplicate races the original on a real network; here it
            # lands second.  Its response is discarded -- the caller only
            # ever sees one answer per logical request.
            self.inner.send(raw)
            return first
        return self.inner.send(raw)

    def close(self) -> None:
        self.inner.close()

    def describe(self) -> dict[str, Any]:
        return {
            "kind": "netem",
            "latency_s": self.latency_s,
            "jitter_s": self.jitter_s,
            "drop_every": self.drop_every,
            "duplicate_every": self.duplicate_every,
            "requests": self.requests,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delay_total_s": round(self.delay_total_s, 6),
            "inner": self.inner.describe(),
        }


__all__ = ["NetemTransport"]
