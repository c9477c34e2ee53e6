"""Public home of the SMACS error taxonomy.

The implementation lives in :mod:`repro.core.errors` (the layering rule is
that ``repro.core`` never imports ``repro.api``); this module re-exports it
together with the legacy exception names, so API consumers import everything
error-shaped from one place::

    from repro.api.errors import ErrorCode, SmacsError, TokenDenied

Stable codes: ``DENIED``, ``COUNTER_TIMEOUT``, ``NO_REPLICA``,
``EXPIRED_RULESET``, ``MALFORMED_REQUEST``, ``UNKNOWN_ROUTE``,
``RATE_LIMITED``, ``UNAVAILABLE``, ``UNSUPPORTED``, ``DEADLINE_EXCEEDED``,
``OVERLOADED``, ``INTERNAL``.

Retry classification of the two overload codes is deliberate:
``OVERLOADED`` is in :data:`RETRYABLE_CODES` (a transient queueing
condition carrying a ``retry_after_s`` hint; a
:class:`~repro.api.gateway.Backoff` whose ``codes`` include it honours the
hint), ``DEADLINE_EXCEEDED`` is not
(the deadline that killed the first attempt is just as dead on the
second).
"""

from __future__ import annotations

from repro.consensus.counter import CounterTimeout
from repro.core.errors import RETRYABLE_CODES, ErrorCode, SmacsError, classify
from repro.core.replication import NoReplicaAvailable
from repro.core.token_service import TokenDenied

__all__ = [
    "CounterTimeout",
    "ErrorCode",
    "NoReplicaAvailable",
    "RETRYABLE_CODES",
    "SmacsError",
    "TokenDenied",
    "classify",
]
