"""``repro.api`` -- the unified issuance surface.

One protocol, one error taxonomy, composable middleware, one factory and a
wire-level gateway:

* :mod:`repro.api.protocol` -- the batch-first
  :class:`~repro.api.protocol.TokenIssuer` protocol every issuance stack
  satisfies (serial, replicated, middleware-wrapped, gateway clients), plus
  the single-request helpers built on the batch path;
* :mod:`repro.api.errors` -- the :class:`~repro.core.errors.SmacsError`
  taxonomy with stable :class:`~repro.core.errors.ErrorCode` values, carried
  inside results so batch submissions never raise mid-batch;
* :mod:`repro.api.middleware` -- the ``RateLimiter`` and ``RetryFailover``
  wrappers, the two policies a deployment stacks on an issuer;
* :mod:`repro.api.factory` -- ``build_service(profile=...)`` assembling the
  serial/replicated stacks from one place;
* :mod:`repro.api.gateway` -- ``ServiceGateway`` with versioned wire
  envelopes (:mod:`repro.api.codec`: JSON plus a binary lane with
  per-envelope negotiation) and a protocol-speaking ``GatewayClient`` that
  depends only on the small ``Transport`` protocol; its ``Backoff`` is the
  one loop that re-sends a frame;
* :mod:`repro.api.transport` -- the real wire: an asyncio TCP
  ``GatewayServer`` (length-prefixed frames, idle/write timeouts,
  backpressure) and the pooled, load-balancing
  ``TcpTransport`` that sends each frame once, behind
  ``serve(gateway, addr)`` / ``connect(url)`` factories and the ``dial``
  hook for ``ServiceDiscovery``.

Overload resilience (:mod:`repro.resilience`) is re-exported here because
it is part of the wire contract: ``AdmissionController`` (gateway-edge
load shedding answering ``OVERLOADED`` + ``retry_after_s``, the wire's one
shedding policy) and ``CircuitBreaker`` (per-endpoint closed/open/half-open
ejection inside ``TcpTransport``), plus the optional absolute-deadline
envelope field (``DEADLINE_EXCEEDED``), checked where an envelope arrives:
at the client before each send and at the gateway.

The public names below are covered by an API-stability snapshot test; grow
the surface deliberately.
"""

from repro.api.codec import CODEC_BINARY, CODEC_JSON, CODECS, WIRE_VERSION
from repro.api.errors import (
    CounterTimeout,
    ErrorCode,
    NoReplicaAvailable,
    RETRYABLE_CODES,
    SmacsError,
    TokenDenied,
    classify,
)
from repro.api.factory import PROFILES, build_service
from repro.api.gateway import (
    Backoff,
    DEFAULT_RETRY_CODES,
    GatewayClient,
    InProcessTransport,
    ServiceGateway,
)
from repro.api.middleware import IssuerMiddleware, RateLimiter, RetryFailover, unwrap
from repro.api.protocol import TokenIssuer, Transport, conforms, issue_one, try_issue_one
from repro.api.transport import GatewayServer, TcpTransport, connect, dial, serve
from repro.resilience import AdmissionController, CircuitBreaker

__all__ = [
    "AdmissionController",
    "Backoff",
    "CircuitBreaker",
    "CODECS",
    "CODEC_BINARY",
    "CODEC_JSON",
    "CounterTimeout",
    "DEFAULT_RETRY_CODES",
    "ErrorCode",
    "GatewayClient",
    "GatewayServer",
    "InProcessTransport",
    "IssuerMiddleware",
    "NoReplicaAvailable",
    "PROFILES",
    "RETRYABLE_CODES",
    "RateLimiter",
    "RetryFailover",
    "ServiceGateway",
    "SmacsError",
    "TcpTransport",
    "TokenDenied",
    "TokenIssuer",
    "Transport",
    "WIRE_VERSION",
    "build_service",
    "classify",
    "conforms",
    "connect",
    "dial",
    "issue_one",
    "serve",
    "try_issue_one",
    "unwrap",
]
