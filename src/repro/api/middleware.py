"""Composable issuance middleware.

Cross-cutting concerns -- rate limits, audit trails, metrics, the §VII-B
fail-over retry (:class:`RetryFailover` is the only one; no service retries
on its own) -- are stackable wrappers that satisfy the same
:class:`~repro.api.protocol.TokenIssuer` protocol they wrap (the layered
approach py-evm takes with its VM/chain variants).  A stack is built
innermost-first::

    issuer = Metrics(RetryFailover(ReplicatedTokenService()))

or, more conveniently, through :func:`repro.api.factory.build_service`.

Every wrapper folds its own counters into :meth:`stats` under a layer key,
so one ``stats()`` call describes the whole stack.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from repro.chain.address import Address
from repro.chain.clock import SimulatedClock
from repro.core.acr import RuleSet
from repro.core.errors import ErrorCode, SmacsError, classify
from repro.core.token_request import TokenRequest
from repro.core.token_service import IssuanceResult
from repro.obs import MetricsRegistry

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


class TokenBucket:
    """The refillable bucket behind every rate-limited edge.

    ``rate_per_second`` tokens refill continuously up to ``burst``;
    :meth:`take` grants as many of the requested tokens as the bucket holds.
    The time source is injectable -- a shared ``SimulatedClock``'s ``now`` or
    any ``Callable[[], float]`` -- so admission-control tests are
    deterministic instead of sleeping; the default is ``time.monotonic``
    (real wall time, what a deployed edge runs on).  Both the
    :class:`RateLimiter` issuer middleware and the
    :class:`~repro.api.transport.GatewayServer` frame edge consume this one
    implementation.
    """

    def __init__(
        self,
        rate_per_second: float,
        burst: int,
        now: "Callable[[], float] | None" = None,
    ) -> None:
        if rate_per_second <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate_per_second = float(rate_per_second)
        self.burst = int(burst)
        self._now: Callable[[], float] = now if now is not None else time.monotonic
        self._tokens = float(burst)
        self._last_refill = self._now()

    def _refill(self) -> None:
        now = self._now()
        elapsed = max(0.0, now - self._last_refill)
        self._last_refill = now
        self._tokens = min(float(self.burst), self._tokens + elapsed * self.rate_per_second)

    def take(self, wanted: int) -> int:
        """Consume up to ``wanted`` tokens; returns how many were granted."""
        self._refill()
        granted = min(wanted, int(self._tokens))
        self._tokens -= granted
        return granted

    def retry_after(self, wanted: int = 1) -> float:
        """Seconds until ``wanted`` tokens will have refilled (>= 0.0).

        The server-computed backoff hint a ``RATE_LIMITED`` answer carries:
        the bucket refills at ``rate_per_second``, so a caller retrying
        after this long meets a bucket that can grant the request (absent
        competing traffic -- the hint is an estimate, not a reservation).
        """
        self._refill()
        deficit = float(wanted) - self._tokens
        return max(0.0, deficit / self.rate_per_second)


class RateLimiter(IssuerMiddleware):
    """Token-bucket admission control in front of an issuer.

    ``rate_per_second`` tokens refill continuously up to ``burst``; each
    request consumes one.  Requests beyond the bucket are *not* dropped
    silently and do not abort the batch: they come back as results carrying
    ``ErrorCode.RATE_LIMITED`` (retryable -- clients back off and resubmit).
    Pass the simulated clock the services run on for deterministic tests and
    benchmarks; without one the limiter refills on the injectable ``now``
    time source (``time.monotonic`` by default -- a fresh private
    ``SimulatedClock`` would never advance and the bucket would never
    refill).
    """

    layer = "rate_limiter"

    def __init__(
        self,
        inner: TokenIssuer,
        rate_per_second: float,
        burst: int,
        clock: "SimulatedClock | None" = None,
        now: "Callable[[], float] | None" = None,
    ) -> None:
        super().__init__(inner)
        self._bucket = TokenBucket(
            rate_per_second, burst, now=clock.now if clock is not None else now
        )
        self.rate_per_second = self._bucket.rate_per_second
        self.burst = self._bucket.burst
        self.admitted = 0
        self.limited = 0

    def submit(
        self, requests: "TokenRequest | Sequence[TokenRequest]"
    ) -> list[IssuanceResult]:
        request_list = _as_list(requests)
        allowed = self._bucket.take(len(request_list))
        self.admitted += allowed
        self.limited += len(request_list) - allowed
        results = self.inner.submit(request_list[:allowed]) if allowed else []
        if allowed < len(request_list):
            # One hint for the whole refused suffix: when the *first* refused
            # token will have refilled (clients resubmit the suffix as one
            # batch, so the earliest-usable moment is the honest answer).
            error = SmacsError(
                f"rate limit exceeded ({self.rate_per_second}/s, burst {self.burst})",
                ErrorCode.RATE_LIMITED,
                retry_after_s=round(self._bucket.retry_after(1), 6),
            )
            results.extend(
                IssuanceResult.failure(request, error)
                for request in request_list[allowed:]
            )
        return results

    def layer_stats(self) -> dict[str, Any]:
        return {"admitted": self.admitted, "limited": self.limited}


class Metrics(IssuerMiddleware):
    """Uniform issuance metrics for any stack (what Fig. 9 harnesses read).

    A thin facade over a :class:`~repro.obs.MetricsRegistry` -- the repo has
    exactly one metrics implementation -- whose ``issuance.*`` counters
    ``layer_stats()`` reads back as ``submissions``, ``requests``,
    ``issued``, ``failed``, ``errors_by_code`` and ``largest_batch``.
    """

    layer = "metrics"

    def __init__(self, inner: TokenIssuer) -> None:
        super().__init__(inner)
        self.registry = MetricsRegistry()
        self._submissions = self.registry.counter("issuance.submissions")
        self._requests = self.registry.counter("issuance.requests")
        self._issued = self.registry.counter("issuance.issued")
        self._failed = self.registry.counter("issuance.failed")
        self._largest_batch = self.registry.gauge("issuance.largest_batch")

    def submit(
        self, requests: "TokenRequest | Sequence[TokenRequest]"
    ) -> list[IssuanceResult]:
        request_list = _as_list(requests)
        results = self.inner.submit(request_list)
        self._submissions.inc()
        self._requests.inc(len(request_list))
        self._largest_batch.set_max(len(request_list))
        for result in results:
            if result.issued:
                self._issued.inc()
            else:
                self._failed.inc()
                code = result.code
                name = code.value if code is not None else ErrorCode.DENIED.value
                self.registry.counter(f"issuance.errors.{name}").inc()
        return results

    def layer_stats(self) -> dict[str, Any]:
        prefix = "issuance.errors."
        counters = self.registry.snapshot()["counters"]
        return {
            "submissions": self._submissions.value,
            "requests": self._requests.value,
            "issued": self._issued.value,
            "failed": self._failed.value,
            "errors_by_code": {
                name[len(prefix):]: count
                for name, count in counters.items()
                if name.startswith(prefix)
            },
            "largest_batch": int(self._largest_batch.value),
        }


class Audit(IssuerMiddleware):
    """Append-only issuance audit trail, stack-level.

    Mirrors the per-service ``TokenService.audit_log`` but sits at the top of
    a composed stack, so replicated deployments get one merged trail.
    Entries are ``(request description, outcome)`` where outcome is
    ``"issued"`` or the stable error-code value.
    """

    layer = "audit"

    def __init__(
        self,
        inner: TokenIssuer,
        sink: "Callable[[str, str], None] | None" = None,
        max_entries: int = 10_000,
    ) -> None:
        super().__init__(inner)
        self.sink = sink
        self.max_entries = max_entries
        self.entries: list[tuple[str, str]] = []

    def submit(
        self, requests: "TokenRequest | Sequence[TokenRequest]"
    ) -> list[IssuanceResult]:
        results = self.inner.submit(_as_list(requests))
        for result in results:
            code = result.code
            outcome = "issued" if code is None else code.value
            self.entries.append((result.request.describe(), outcome))
            if self.sink is not None:
                self.sink(result.request.describe(), outcome)
        if len(self.entries) > self.max_entries:
            del self.entries[: len(self.entries) - self.max_entries]
        return results

    def layer_stats(self) -> dict[str, Any]:
        return {"entries": len(self.entries)}


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
    "Audit",
    "IssuerMiddleware",
    "Metrics",
    "RateLimiter",
    "RetryFailover",
    "TokenBucket",
    "unwrap",
]
