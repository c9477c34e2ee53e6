"""The unified token-issuance protocol.

SMACS presents the Token Service as *one* service interface (§IV): clients
submit token requests, the TS checks its Access Control Rules and signs.
:class:`TokenIssuer` is that interface as a structural protocol -- the serial
:class:`~repro.core.token_service.TokenService`, the Raft-backed
:class:`~repro.core.replication.ReplicatedTokenService`, every middleware
wrapper in :mod:`repro.api.middleware` and the wire-level
:class:`~repro.api.gateway.GatewayClient` all satisfy it, so consumers
(wallets, the execution pipeline's load generators, the benchmarks) are
written once against the protocol and composed freely.

The protocol is **batch-first**: :meth:`TokenIssuer.submit` takes a batch and
returns one :class:`~repro.core.token_service.IssuanceResult` per request, in
order, and never raises mid-batch -- failures travel inside the results as
:class:`~repro.core.errors.SmacsError` values.  Single-request issuance is
the one-element batch, packaged by :func:`issue_one`.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from repro.chain.address import Address
from repro.core.acr import RuleSet
from repro.core.token import Token
from repro.core.token_request import TokenRequest
from repro.core.token_service import IssuanceResult


@runtime_checkable
class Transport(Protocol):
    """How request envelopes reach a :class:`~repro.api.gateway.ServiceGateway`.

    The whole wire contract in three methods: :meth:`send` carries one opaque
    request envelope and returns the response envelope (blocking, exactly one
    response per request), :meth:`close` releases any underlying connections,
    and :meth:`describe` reports transport-level counters (at minimum
    ``requests`` / ``bytes_sent`` / ``bytes_received``) for ``stats()``
    folding.  :class:`~repro.api.gateway.InProcessTransport` moves the bytes
    with a function call; :class:`~repro.api.transport.TcpTransport` moves the
    same bytes over length-prefixed frames on real sockets -- a
    :class:`~repro.api.gateway.GatewayClient` cannot tell the difference,
    which is the point.

    Transport-level failures are raised as
    :class:`~repro.core.errors.SmacsError` with stable codes
    (``UNAVAILABLE`` for unreachable/slow endpoints, ``MALFORMED_REQUEST``
    for framing violations); they never hang and never leak raw socket
    exceptions.
    """

    def send(self, raw: bytes) -> bytes:
        """Deliver one request envelope; block for the response envelope."""
        ...

    def close(self) -> None:
        """Release underlying resources (idempotent)."""
        ...

    def describe(self) -> dict[str, Any]:
        """Transport counters and endpoint description (wire hygiene)."""
        ...


@runtime_checkable
class TokenIssuer(Protocol):
    """What every token-issuance stack exposes, from serial TS to gateway."""

    @property
    def address(self) -> Address:
        """The 20-byte ``pkTS`` address contracts are preloaded with."""
        ...

    def submit(
        self, requests: "TokenRequest | Sequence[TokenRequest]"
    ) -> list[IssuanceResult]:
        """Process one batch; one in-order result per request, never raising
        mid-batch (failures are carried as ``result.error``)."""
        ...

    def stats(self) -> dict[str, Any]:
        """Introspection counters (shape varies by stack, always a dict)."""
        ...

    def update_rules(self, mutate: Callable[[RuleSet], None]) -> None:
        """Apply an owner-supplied mutation to the Access Control Rules."""
        ...


def issue_one(issuer: TokenIssuer, request: TokenRequest) -> Token:
    """Single-request issuance expressed as the batch path.

    Submits a one-element batch and unwraps it: the token on success, the
    carried :class:`~repro.core.errors.SmacsError` (``TokenDenied``,
    ``COUNTER_TIMEOUT``, ``NO_REPLICA``, ...) raised on failure.
    """
    results = issuer.submit([request])
    if len(results) != 1:
        raise AssertionError(
            f"protocol violation: 1 request produced {len(results)} results"
        )
    return results[0].raise_if_failed()


def try_issue_one(issuer: TokenIssuer, request: TokenRequest) -> IssuanceResult:
    """Single-request issuance that reports failure instead of raising."""
    results = issuer.submit([request])
    if len(results) != 1:
        raise AssertionError(
            f"protocol violation: 1 request produced {len(results)} results"
        )
    return results[0]


def conforms(candidate: object) -> bool:
    """Structural check: does ``candidate`` satisfy :class:`TokenIssuer`?"""
    return isinstance(candidate, TokenIssuer)


__all__ = ["TokenIssuer", "Transport", "conforms", "issue_one", "try_issue_one"]
