"""Composable issuance middleware.

The two policies a deployment stacks on an issuer -- a per-issuer rate limit
(:class:`RateLimiter`) and the §VII-B fail-over retry (:class:`RetryFailover`
is the only one; no service retries on its own) -- are wrappers that satisfy
the same :class:`~repro.api.protocol.TokenIssuer` protocol they wrap (the
layered approach py-evm takes with its VM/chain variants).  A stack is built
innermost-first::

    issuer = RateLimiter(RetryFailover(ReplicatedTokenService()), 50, 64)

or, more conveniently, through :func:`repro.api.factory.build_service`.
The audit trail is the base service's ``audit_log``; metrics live in the
gateway's :class:`~repro.obs.Observability` registry.

Every wrapper folds its own counters into :meth:`stats` under a layer key,
so one ``stats()`` call describes the whole stack.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from repro.chain.address import Address
from repro.core.acr import RuleSet
from repro.core.errors import ErrorCode, SmacsError, classify
from repro.core.token_request import TokenRequest
from repro.core.token_service import IssuanceResult

from repro.api.protocol import TokenIssuer


class IssuerMiddleware:
    """Base wrapper: delegates the whole protocol to ``inner``.

    Subclasses override :meth:`submit` (and usually :meth:`layer_stats`);
    identity and rule management pass through untouched, so any stack depth
    still presents one issuer.
    """

    #: the key this layer's counters appear under in :meth:`stats`
    layer: str = "middleware"

    def __init__(self, inner: TokenIssuer) -> None:
        self.inner = inner

    @property
    def address(self) -> Address:
        return self.inner.address

    def submit(
        self, requests: "TokenRequest | Sequence[TokenRequest]"
    ) -> list[IssuanceResult]:
        return self.inner.submit(requests)

    def update_rules(self, mutate: Callable[[RuleSet], None]) -> None:
        self.inner.update_rules(mutate)

    def stats(self) -> dict[str, Any]:
        stats = dict(self.inner.stats())
        layer_stats = self.layer_stats()
        if layer_stats:
            stats[self.layer] = layer_stats
        return stats

    def layer_stats(self) -> dict[str, Any]:
        return {}


def unwrap(issuer: TokenIssuer) -> TokenIssuer:
    """The concrete service at the bottom of a middleware stack."""
    current = issuer
    while isinstance(current, IssuerMiddleware):
        current = current.inner
    return current


def _as_list(
    requests: "TokenRequest | Sequence[TokenRequest]",
) -> list[TokenRequest]:
    if isinstance(requests, TokenRequest):
        return [requests]
    return list(requests)


class RateLimiter(IssuerMiddleware):
    """Token-bucket admission control in front of an issuer.

    ``rate_per_second`` tokens refill continuously up to ``burst``; each
    request consumes one.  Requests beyond the bucket are *not* dropped
    silently and do not abort the batch: they come back as results carrying
    ``ErrorCode.RATE_LIMITED`` (retryable -- clients back off and resubmit).
    ``now`` is the time source the bucket refills on: ``time.monotonic``
    (real wall time, what a deployed issuer runs on) unless the caller hands
    it the simulated clock the services run on (``clock.now``), which makes
    tests and benchmarks deterministic.
    """

    layer = "rate_limiter"

    def __init__(
        self,
        inner: TokenIssuer,
        rate_per_second: float,
        burst: int,
        now: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(inner)
        if rate_per_second <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate_per_second = float(rate_per_second)
        self.burst = int(burst)
        self._now = now
        self._tokens = float(burst)
        self._last_refill = now()
        self.admitted = 0
        self.limited = 0

    def _refill(self) -> None:
        now = self._now()
        elapsed = max(0.0, now - self._last_refill)
        self._last_refill = now
        self._tokens = min(float(self.burst), self._tokens + elapsed * self.rate_per_second)

    def submit(
        self, requests: "TokenRequest | Sequence[TokenRequest]"
    ) -> list[IssuanceResult]:
        request_list = _as_list(requests)
        self._refill()
        allowed = min(len(request_list), int(self._tokens))
        self._tokens -= allowed
        self.admitted += allowed
        self.limited += len(request_list) - allowed
        results = self.inner.submit(request_list[:allowed]) if allowed else []
        if allowed < len(request_list):
            # One hint for the whole refused suffix: when the *first* refused
            # token will have refilled (clients resubmit the suffix as one
            # batch, so the earliest-usable moment is the honest answer; an
            # estimate, not a reservation).
            self._refill()
            error = SmacsError(
                f"rate limit exceeded ({self.rate_per_second}/s, burst {self.burst})",
                ErrorCode.RATE_LIMITED,
                retry_after_s=round(
                    max(0.0, 1.0 - self._tokens) / self.rate_per_second, 6
                ),
            )
            results.extend(
                IssuanceResult.failure(request, error)
                for request in request_list[allowed:]
            )
        return results

    def layer_stats(self) -> dict[str, Any]:
        return {"admitted": self.admitted, "limited": self.limited}


class RetryFailover(IssuerMiddleware):
    """Re-submit requests whose results carry a retryable error.

    This is the replication fail-over of §VII-B as a composable layer: the
    wrapped issuer makes one attempt per submission (a
    ``ReplicatedTokenService``'s round-robin picks a *different* replica on
    every call), and this wrapper re-submits the failed subset up to
    ``attempts`` extra times -- ``len(replicas) - 1`` is one try per replica.
    A submission that dies whole with a transient exception is converted to
    error results first, so the never-raise-mid-batch contract holds through
    the stack.

    It has the shape of :class:`~repro.api.gateway.Backoff` on the wire
    (one attempt on the next target, one wrapper re-sending) but not its
    object: this re-submits the failed *subset* of a batch at once, in
    simulated time; a backoff re-sends a whole frame, in wall time.
    """

    layer = "retry_failover"

    def __init__(self, inner: TokenIssuer, attempts: int = 3) -> None:
        super().__init__(inner)
        if attempts < 0:
            raise ValueError("attempts must be non-negative")
        self.attempts = attempts
        self.failovers = 0
        self.recovered = 0

    def _attempt(self, request_list: list[TokenRequest]) -> list[IssuanceResult]:
        try:
            return self.inner.submit(request_list)
        except Exception as exc:  # a whole-submission transient failure
            error = classify(exc)
            if not error.retryable:
                raise
            return [IssuanceResult.failure(request, error) for request in request_list]

    def submit(
        self, requests: "TokenRequest | Sequence[TokenRequest]"
    ) -> list[IssuanceResult]:
        request_list = _as_list(requests)
        results = self._attempt(request_list)
        for _ in range(self.attempts):
            pending = [
                position
                for position, result in enumerate(results)
                if result.error is not None and result.error.retryable
            ]
            if not pending:
                break
            self.failovers += 1
            retried = self._attempt([request_list[position] for position in pending])
            for position, result in zip(pending, retried):
                if result.issued:
                    self.recovered += 1
                results[position] = result
        return results

    def layer_stats(self) -> dict[str, Any]:
        return {"failovers": self.failovers, "recovered": self.recovered}


__all__ = [
    "IssuerMiddleware",
    "RateLimiter",
    "RetryFailover",
    "unwrap",
]
