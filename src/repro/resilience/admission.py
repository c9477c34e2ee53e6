"""Adaptive admission control for the gateway edge: an in-flight shedder.

A :class:`~repro.api.transport.GatewayServer` whose gateway carries a
controller hands every admitted request to its one dispatch thread; by the
time a request is *being* handled it has already waited its queueing delay
somewhere the server cannot measure (socket buffers, the dispatch queue).
The controller therefore estimates the delay a new arrival would experience
from what it *can* measure exactly:

    ``estimated_delay = in_flight_admitted x EWMA(service time)``

Every admitted request is in flight until its completion is reported back
through :meth:`observe`; once the estimate exceeds ``target_delay_s`` the
arrival is shed with ``OVERLOADED`` and a ``retry_after_s`` hint sized to
the excess backlog -- before any request-body decode, signature recovery
or issuance work happens.

This is the concurrency-limit construction (as in gRPC / adaptive-limit
load shedders) rather than a pure wall-clock virtual queue, for one
reason: it is **self-correcting**.  A virtual queue drains at wall-clock
rate whether or not the server actually finished anything, so an early
service-time underestimate builds real backlog the controller never sees
again.  In-flight accounting drains only on completions -- the estimate
cannot drift away from the dispatcher it models.

Properties that matter at the gateway edge:

* **self-clocking** -- in overload, a completion must happen before the
  next admission, so the admitted rate equals the service capacity
  independent of the offered rate (goodput stays flat instead of
  collapsing);
* **adaptive** -- the EWMA tracks measured dispatch durations, so a slow
  issuer shrinks the admitted concurrency automatically;
* **deterministic under test** -- no clock is even consulted on the
  admission path; the state is one counter and one float.

The caller contract: every successful :meth:`admit` MUST be balanced by
exactly one :meth:`observe` call once the request leaves the dispatcher
(with the measured duration when it was served, ``None`` when it failed
before service) -- a leaked in-flight slot is a permanently shed slot.
"""

from __future__ import annotations

import threading
from typing import Any


class AdmissionController:
    """In-flight-bounded load shedding with an EWMA service-time estimate."""

    def __init__(
        self,
        *,
        target_delay_s: float = 0.05,
        ewma_alpha: float = 0.1,
        initial_service_s: float = 0.001,
    ) -> None:
        if target_delay_s <= 0:
            raise ValueError("target_delay_s must be positive")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if initial_service_s <= 0:
            raise ValueError("initial_service_s must be positive")
        self.target_delay_s = float(target_delay_s)
        self.ewma_alpha = float(ewma_alpha)
        self._lock = threading.Lock()
        self._service_ewma_s = float(initial_service_s)
        self._inflight = 0
        self.admitted = 0
        self.shed = 0

    # -- the admission decision ------------------------------------------------

    def admit(self) -> "float | None":
        """Admit one arrival or shed it.

        Returns ``None`` on admission (the caller proceeds to dispatch and
        owes one :meth:`observe`) or the ``retry_after_s`` hint on shed:
        the estimated time until the backlog drains back under the delay
        budget, which is when a retry would be admitted.
        """
        with self._lock:
            estimated_delay = self._inflight * self._service_ewma_s
            if estimated_delay > self.target_delay_s:
                self.shed += 1
                return estimated_delay - self.target_delay_s
            self._inflight += 1
            self.admitted += 1
            return None

    def observe(self, service_s: "float | None" = None) -> None:
        """Report one admitted request's completion.

        Releases the in-flight slot unconditionally; folds ``service_s``
        into the EWMA when the request was actually served (pass ``None``
        for requests that failed before service -- a malformed body or an
        expired deadline says nothing about how fast the issuer is).
        """
        with self._lock:
            if self._inflight > 0:
                self._inflight -= 1
            if service_s is not None and service_s >= 0:
                self._service_ewma_s += self.ewma_alpha * (
                    service_s - self._service_ewma_s
                )

    # -- introspection ---------------------------------------------------------

    def estimated_delay_s(self) -> float:
        """The queueing delay the next arrival would be charged (>= 0)."""
        with self._lock:
            return self._inflight * self._service_ewma_s

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "admitted": self.admitted,
                "shed": self.shed,
                "inflight": self._inflight,
                "target_delay_s": self.target_delay_s,
                "service_ewma_s": self._service_ewma_s,
                "estimated_delay_s": self._inflight * self._service_ewma_s,
            }


__all__ = ["AdmissionController"]
