"""Overload-resilience primitives for the wire fleet.

The paper's Token Service fronts heavy client traffic; this package is what
keeps the stack *degrading* instead of *collapsing* when the offered rate
exceeds capacity.  Three small, dependency-light primitives, each wired
through an existing seam rather than a new framework:

* :mod:`repro.resilience.deadline` -- absolute-deadline arithmetic for the
  optional ``deadline`` envelope field (client stamps, every hop sheds
  already-dead work before doing anything expensive);
* :mod:`repro.resilience.admission` -- :class:`AdmissionController`, an
  in-flight concurrency-limit shedder for the gateway edge (answers
  ``OVERLOADED`` with a ``retry_after_s`` hint before dispatch once
  ``in_flight x EWMA(service time)`` exceeds the delay budget);
* :mod:`repro.resilience.breaker` -- :class:`CircuitBreaker`, the
  closed -> open -> half-open state machine ``TcpTransport`` runs per
  endpoint so the pool stops dialing dead or drowning servers.

Retrying is not a primitive here: the client's
:class:`~repro.api.gateway.Backoff` is its whole policy, and a frame is
re-sent by one loop (``GatewayClient._call``), never by the transport too.

Everything is deterministic under test: every clock is injectable and no
primitive sleeps on its own.  Layering: this package imports only the
standard library and :mod:`repro.core.errors` (it sits beside ``repro.obs``,
below ``repro.api`` and ``repro.pipeline``).
"""

from repro.resilience.admission import AdmissionController
from repro.resilience.breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.resilience.deadline import (
    check_deadline,
    deadline_in,
    decode_deadline,
    remaining,
)

__all__ = [
    "AdmissionController",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "check_deadline",
    "deadline_in",
    "decode_deadline",
    "remaining",
]
