"""The structured SMACS error taxonomy.

Every failure a Token Service front end can report is identified by a stable
:class:`ErrorCode`, carried by a :class:`SmacsError`.  The taxonomy replaces
the ad-hoc exception zoo that grew around the issuance paths
(``TokenDenied`` raised by the serial service, ``CounterTimeout`` leaking out
of the Raft counter, ``NoReplicaAvailable`` from the replicated front end):
those names survive as subclasses -- catching them keeps working -- but every
one of them now exposes ``.code``, serialises over the
:mod:`repro.api.gateway` wire, and can be *carried* inside an
:class:`~repro.core.token_service.IssuanceResult` instead of being raised, so
batch submissions through the :class:`~repro.api.protocol.TokenIssuer`
protocol never abort mid-batch.

The module lives in :mod:`repro.core` (the layering rule is that ``core``
never imports ``api``); :mod:`repro.api.errors` re-exports it as the public
surface.
"""

from __future__ import annotations

import enum
from typing import Any, Mapping

from repro.core.token import MalformedToken
from repro.core.token_request import InvalidTokenRequest


class ErrorCode(str, enum.Enum):
    """Stable, wire-safe identifiers for every SMACS failure class."""

    #: The Access Control Rules denied the request.
    DENIED = "DENIED"
    #: The replicated one-time counter could not commit in time (transient:
    #: a leader election or partition heal is in progress -- retry elsewhere).
    COUNTER_TIMEOUT = "COUNTER_TIMEOUT"
    #: Every Token Service replica is marked down.
    NO_REPLICA = "NO_REPLICA"
    #: A read-modify-write rule update raced a concurrent update; the caller
    #: holds a stale ruleset epoch and must re-read before retrying.
    EXPIRED_RULESET = "EXPIRED_RULESET"
    #: The request (or its wire envelope) violates the Tab. I / Fig. 2 rules.
    MALFORMED_REQUEST = "MALFORMED_REQUEST"
    #: The gateway has no issuer registered under the requested route.
    UNKNOWN_ROUTE = "UNKNOWN_ROUTE"
    #: The caller exceeded a front-end rate limit (transient: back off).
    RATE_LIMITED = "RATE_LIMITED"
    #: The wire endpoint could not be reached or answered too slowly
    #: (connection refused/reset, request timeout -- transient: retry, ideally
    #: on another endpoint).
    UNAVAILABLE = "UNAVAILABLE"
    #: The operation or wire version is not supported by this endpoint.
    UNSUPPORTED = "UNSUPPORTED"
    #: The request's propagated deadline expired before the work was done.
    #: *Not* retryable: the caller already gave up, re-sending the same dead
    #: deadline can only waste a second trip.
    DEADLINE_EXCEEDED = "DEADLINE_EXCEEDED"
    #: The endpoint shed the request before dispatch because measured
    #: queueing exceeded its budget (transient: back off for the carried
    #: ``retry_after_s`` hint, then retry).
    OVERLOADED = "OVERLOADED"
    #: Anything that is a bug rather than a request/infrastructure condition.
    INTERNAL = "INTERNAL"


#: Codes a front end may transparently retry (possibly on another replica).
#: ``OVERLOADED`` belongs here -- it is a *transient* queueing condition with
#: an explicit retry hint -- but ``DEADLINE_EXCEEDED`` does not: the deadline
#: that killed the first attempt is just as dead on the second.
RETRYABLE_CODES = frozenset(
    {
        ErrorCode.COUNTER_TIMEOUT,
        ErrorCode.RATE_LIMITED,
        ErrorCode.UNAVAILABLE,
        ErrorCode.OVERLOADED,
    }
)


class SmacsError(Exception):
    """Base class of the taxonomy: an error with a stable code.

    Instances double as exception (for the single-request convenience paths,
    which still raise) and as value (carried in
    ``IssuanceResult.error`` by the batch path, serialised by the gateway
    codec).
    """

    code: ErrorCode = ErrorCode.INTERNAL

    def __init__(
        self,
        message: str = "",
        code: "ErrorCode | None" = None,
        *,
        retry_after_s: "float | None" = None,
    ):
        super().__init__(message)
        if code is not None:
            self.code = ErrorCode(code)
        self.message = message
        #: optional server-computed backoff hint in seconds (``RATE_LIMITED``
        #: carries the bucket's refill horizon, ``OVERLOADED`` the admission
        #: controller's estimated queue drain).  ``None`` means the server
        #: offered no hint; clients fall back to exponential backoff.
        self.retry_after_s = retry_after_s

    @property
    def retryable(self) -> bool:
        """True when a front end may transparently retry the operation."""
        return self.code in RETRYABLE_CODES

    # -- wire format ---------------------------------------------------------

    def to_dict(self) -> "dict[str, Any]":
        payload: "dict[str, Any]" = {"code": self.code.value, "message": self.message}
        if self.retry_after_s is not None:
            # Serialised only when set, so hint-free envelopes stay
            # byte-identical to what pre-resilience peers emitted.
            payload["retry_after_s"] = self.retry_after_s
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SmacsError":
        try:
            code = ErrorCode(payload["code"])
            message = str(payload.get("message", ""))
        except (KeyError, ValueError, TypeError) as exc:
            raise SmacsError(
                f"undecodable error payload {payload!r}", ErrorCode.MALFORMED_REQUEST
            ) from exc
        raw_hint = payload.get("retry_after_s")
        hint = float(raw_hint) if isinstance(raw_hint, (int, float)) else None
        return cls(message, code, retry_after_s=hint)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.code.value}: {self.message!r})"


def classify(exc: BaseException) -> SmacsError:
    """Map an exception from the legacy issuance paths onto the taxonomy.

    Already-classified errors pass through; the known transient/infra
    exceptions get their stable code; everything else is ``INTERNAL`` (which
    batch front ends re-raise rather than swallow -- a programming error must
    not hide inside a result list).
    """
    if isinstance(exc, SmacsError):
        # TokenDenied, CounterTimeout, NoReplicaAvailable, ... already carry
        # their code -- the original object passes through, so re-raising it
        # later preserves legacy ``except`` clauses exactly.
        return exc
    if isinstance(exc, (InvalidTokenRequest, MalformedToken)):
        error = SmacsError(str(exc), ErrorCode.MALFORMED_REQUEST)
        error.__cause__ = exc
        return error
    error = SmacsError(f"{type(exc).__name__}: {exc}", ErrorCode.INTERNAL)
    error.__cause__ = exc
    return error


__all__ = ["ErrorCode", "RETRYABLE_CODES", "SmacsError", "classify"]
