"""The service gateway: issuers behind versioned wire envelopes.

The paper's deployment story (§IV-B) has clients talk to the Token Service
over HTTPS.  :class:`ServiceGateway` is that boundary with the transport
abstracted away: issuers register under string routes (the TS URLs that
service discovery publishes), every operation crosses the boundary as the
JSON envelopes of :mod:`repro.api.codec`, and :class:`GatewayClient` speaks
the :class:`~repro.api.protocol.TokenIssuer` protocol back to consumers --
the wallet, the pipeline load generators and the benchmarks cannot tell a
gateway client from an in-process service, which is the point.

The bundled :class:`InProcessTransport` moves the bytes with a function
call; an HTTP transport would move the same bytes.  Gateway-side failures
never surface as raw exceptions on the wire -- they come back as error
envelopes carrying stable :class:`~repro.core.errors.ErrorCode` values
(``UNKNOWN_ROUTE``, ``MALFORMED_REQUEST``, ``UNSUPPORTED``,
``EXPIRED_RULESET``, ...).

Rule management over the wire is read-modify-write: clients fetch the
Fig. 6-style rule config with its *epoch*, mutate locally, and replace,
quoting the epoch they started from; a concurrent update invalidates the
epoch and the replace fails with ``EXPIRED_RULESET`` (the client re-reads
and retries).  Only config-expressible rules (whitelists, blacklists,
argument rules) survive the wire -- owner-side predicate or
runtime-verification rules stay an in-process feature.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, TypeVar

from repro.chain.address import Address, address_hex, to_address
from repro.core.acr import RuleSet
from repro.core.errors import ErrorCode, SmacsError, classify
from repro.core.token_request import TokenRequest
from repro.core.token_service import IssuanceResult

from repro.api import codec
from repro.api.protocol import TokenIssuer, Transport
from repro.obs import DORMANT, Observability
from repro.obs.trace import TraceContext
from repro.resilience import AdmissionController
from repro.resilience.deadline import check_deadline, deadline_in, remaining


def _jsonable(value: Any) -> Any:
    """Best-effort JSON projection of a stats tree (wire hygiene)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, bytes):
        return "0x" + value.hex()
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(item) for item in value]
    return str(value)


class ServiceGateway:
    """Routes wire envelopes to registered issuer stacks."""

    def __init__(
        self,
        *,
        observability: Observability = DORMANT,
        admission: "AdmissionController | None" = None,
        now: "Callable[[], float] | None" = None,
    ) -> None:
        self._routes: dict[str, TokenIssuer] = {}
        self._rule_epochs: dict[str, int] = {}
        #: the :class:`repro.obs.Observability` handle; a live one times the
        #: ``gateway_decode``/``issuance`` stages, adopts incoming trace
        #: contexts and fills the ``metrics`` route's snapshot.
        self.observability = observability
        #: optional :class:`repro.resilience.AdmissionController`; when
        #: attached, ``submit`` envelopes are shed with ``OVERLOADED`` (plus
        #: a ``retry_after_s`` hint) before dispatch once the estimated
        #: queueing delay exceeds the controller's budget.  Control-plane
        #: ops (``describe``, ``health``, ``metrics``, rule management) are
        #: never shed -- an operator must be able to see an overloaded
        #: gateway.
        self.admission = admission
        #: wall clock for deadline checks (``time.time`` -- deadlines are
        #: absolute wall-clock instants so they survive the wire); injectable
        #: for deterministic tests.
        self._now: Callable[[], float] = now if now is not None else time.time
        #: requests shed at this edge, by reason (also mirrored into the
        #: observability registry as ``gateway.shed.*`` counters when
        #: instrumented).
        self.shed: dict[str, int] = {"deadline": 0, "overloaded": 0}
        self._shed_lock = threading.Lock()

    # -- registry -------------------------------------------------------------

    def register(self, route: str, issuer: TokenIssuer) -> None:
        """Expose an issuer stack under a route (conventionally its TS URL)."""
        if not route:
            raise ValueError("route must be a non-empty string")
        self._routes[route] = issuer
        self._rule_epochs.setdefault(route, 0)

    def routes(self) -> list[str]:
        return sorted(self._routes)

    def issuer_for(self, route: str) -> TokenIssuer:
        try:
            return self._routes[route]
        except KeyError:
            raise SmacsError(
                f"no issuer registered under route {route!r}", ErrorCode.UNKNOWN_ROUTE
            ) from None

    def client_for(self, route: str, *, wire_codec: str = codec.CODEC_JSON) -> "GatewayClient":
        """A protocol-speaking client bound to one route (in-process wire)."""
        return GatewayClient(InProcessTransport(self), route, wire_codec=wire_codec)

    # -- the wire entry point -------------------------------------------------

    def arrive(self, raw: bytes) -> codec.Request:
        """The arrival edge: decode the frame once, then shed dead work and overload.

        Every transport calls this the moment a frame arrives and passes the
        returned request to :meth:`handle`.  A frame that stops here raises
        the :class:`SmacsError` it is answered with (``MALFORMED_REQUEST`` /
        ``UNSUPPORTED`` from the one decoder, ``DEADLINE_EXCEEDED`` /
        ``OVERLOADED`` from the shedding checks) -- before any request-body
        decode, route lookup or issuance: shedding here costs microseconds,
        the work it avoids costs an ecrecover.  Servers run this on their
        event loop the moment a frame is whole, *at arrival pace*: an admission check that ran behind the
        dispatch queue would only ever see its own drain pace, never a queue
        building in front of it.
        """
        obs = self.observability
        started = obs.clock()
        request = codec.decode_request_full(raw)
        obs.record_stage("gateway_decode", obs.clock() - started)
        try:
            check_deadline(request.deadline, stage="gateway", now=self._now)
        except SmacsError:
            self._count_shed("deadline")
            raise
        if self.admission is not None and request.op == "submit":
            hint = self.admission.admit()
            if hint is not None:
                self._count_shed("overloaded")
                raise SmacsError(
                    f"gateway overloaded (estimated queueing exceeds the "
                    f"{self.admission.target_delay_s * 1000:.0f} ms budget); "
                    f"retry after {hint:.3f}s",
                    ErrorCode.OVERLOADED,
                    retry_after_s=round(hint, 6),
                )
        return request

    def handle(self, request: codec.Request) -> bytes:
        """Dispatch one request :meth:`arrive` let through; always answers
        with an envelope, in the codec lane the request arrived in."""
        try:
            # Adopt the caller's trace (if any) so the server-side spans
            # nest under the client's -- one trace id across the wire.
            with self.observability.tracer.span(
                "gateway.handle",
                context=TraceContext.from_wire(request.trace),
                op=request.op,
                route=request.route,
            ):
                payload = self._dispatch(request)
            return codec.encode_response_envelope(payload, codec=request.codec)
        except SmacsError as error:
            return codec.encode_error_envelope(error, codec=request.codec)
        except Exception as exc:  # never leak a raw traceback across the wire
            return codec.encode_error_envelope(classify(exc), codec=request.codec)

    def _count_shed(self, reason: str) -> None:
        with self._shed_lock:  # arrive() and handle() may run on different threads
            self.shed[reason] += 1
        self.observability.count(f"gateway.shed.{reason}")

    def _dispatch(self, request: codec.Request) -> dict[str, Any]:
        op, route, body = request.op, request.route, request.body
        if op == "describe":
            return {"version": codec.WIRE_VERSION, "routes": self.routes()}
        if op == "health":
            # The liveness probe circuit breakers drive: served before the
            # route lookup, never shed by admission control (a drowning
            # gateway must still say it is alive -- "alive but overloaded"
            # and "dead" are different answers to a balancer).
            payload: dict[str, Any] = {"status": "ok", "routes": self.routes()}
            if self.admission is not None:
                payload["admission"] = _jsonable(self.admission.stats())
            return payload
        if op == "metrics":
            # Served before the route lookup: the registry snapshot is a
            # gateway-wide view, not a per-issuer one.
            return {"metrics": self.observability.snapshot()}
        if op == "submit":
            return self._submit(request)
        issuer = self.issuer_for(route)
        if op == "address":
            return {"address": address_hex(issuer.address)}
        if op == "stats":
            return {"stats": _jsonable(issuer.stats())}
        if op == "get_rules":
            captured: list[dict[str, Any]] = []
            issuer.update_rules(lambda rules: captured.append(rules.to_config()))
            return {"config": captured[0], "epoch": self._rule_epochs[route]}
        if op == "replace_rules":
            expected = self._rule_epochs[route]
            if body.get("epoch") != expected:
                raise SmacsError(
                    f"ruleset epoch {body.get('epoch')!r} is stale (current {expected}); "
                    "re-read the rules and retry",
                    ErrorCode.EXPIRED_RULESET,
                )
            config = body.get("config")
            if not isinstance(config, dict):
                raise SmacsError(
                    "replace_rules body requires a 'config' object",
                    ErrorCode.MALFORMED_REQUEST,
                )
            try:
                RuleSet.from_config(config)  # validate before touching shared rules
            except (ValueError, TypeError, KeyError) as exc:
                raise SmacsError(
                    f"undecodable rule config: {exc}", ErrorCode.MALFORMED_REQUEST
                ) from exc
            issuer.update_rules(lambda rules: rules.load_config(config))
            self._rule_epochs[route] = expected + 1
            return {"epoch": self._rule_epochs[route]}
        raise SmacsError(f"unknown operation {op!r}", ErrorCode.UNSUPPORTED)

    def _submit(self, request: codec.Request) -> dict[str, Any]:
        # Every admitted submit owes the controller exactly one completion
        # report -- including the ones that die on an unknown route, a
        # malformed body or an expired deadline (a leaked in-flight slot
        # would shed traffic forever).  ``served`` stays None unless the
        # issuer actually ran: the admission EWMA must not learn from
        # requests that failed before service.
        served: "float | None" = None
        try:
            issuer = self.issuer_for(request.route)
            raw_requests = request.body.get("requests")
            if not isinstance(raw_requests, list):
                raise SmacsError(
                    "submit body requires a 'requests' array", ErrorCode.MALFORMED_REQUEST
                )
            try:
                requests = [codec.decode_token_request(item) for item in raw_requests]
            except SmacsError:
                raise
            except (ValueError, TypeError, KeyError) as exc:
                # Structurally valid JSON carrying undecodable content (a
                # corrupted address, a bad enum value) is the *caller's*
                # malformed request, not a gateway fault.
                raise SmacsError(
                    f"undecodable token request: {exc}", ErrorCode.MALFORMED_REQUEST
                ) from exc
            # Re-check right before the expensive work: the dispatch queue
            # and request-body decode may have eaten the remaining budget,
            # and issuing tokens the caller already abandoned wastes counter
            # indexes.
            try:
                check_deadline(request.deadline, stage="issuance", now=self._now)
            except SmacsError:
                self._count_shed("deadline")
                raise
            started = time.monotonic()
            with self.observability.stage("issuance"):
                results = issuer.submit(requests)
            served = time.monotonic() - started
            return {"results": [codec.encode_issuance_result(result) for result in results]}
        finally:
            if self.admission is not None:
                self.admission.observe(served)


class InProcessTransport:
    """Moves envelopes to a gateway with a function call, counting traffic.

    The zero-socket :class:`~repro.api.protocol.Transport`: same bytes as
    :class:`~repro.api.transport.TcpTransport`, no network.  The byte
    counters let benchmarks report wire overhead honestly.
    """

    def __init__(self, gateway: ServiceGateway) -> None:
        self.gateway = gateway
        self.requests = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, raw: bytes) -> bytes:
        self.requests += 1
        self.bytes_sent += len(raw)
        try:
            response = self.gateway.handle(self.gateway.arrive(raw))
        except SmacsError as error:  # the frame was answered at the arrival edge
            response = codec.encode_error_envelope(error, codec=codec.reply_codec(raw))
        self.bytes_received += len(response)
        return response

    def close(self) -> None:
        """Nothing to release: the gateway lives in this process."""

    def describe(self) -> dict[str, Any]:
        return {
            "kind": "in-process",
            "requests": self.requests,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }


#: codes a :class:`Backoff` re-sends by default.  Deliberately narrower than
#: :data:`~repro.core.errors.RETRYABLE_CODES`: ``RATE_LIMITED`` is a
#: *policy* answer, not an outage -- blind re-sends would fight the limiter
#: for the tenant's own budget (and double-count denials in the fairness
#: cells).  Callers that want the full set pass ``codes=RETRYABLE_CODES``.
DEFAULT_RETRY_CODES = frozenset({ErrorCode.COUNTER_TIMEOUT, ErrorCode.UNAVAILABLE})

#: read-modify-write rounds :meth:`GatewayClient.update_rules` makes before
#: an ``EXPIRED_RULESET`` conflict reaches the caller
RULE_UPDATE_ATTEMPTS = 3


@dataclass
class Backoff:
    """A gateway client's whole retry policy: which codes, how often, how long.

    A frame whose error code is in ``codes`` is re-sent up to ``retries``
    times.  ``delay(attempt)`` draws uniformly from
    ``[0, min(cap, base * 2**attempt)]`` (the AWS "full jitter" scheme:
    staggers a thundering herd of retrying clients instead of
    re-synchronising them on the failing service); ``cap=0.0`` re-sends at
    once.  Both the sleeper and the RNG are injectable so tests drive
    retries with zero wall-clock and deterministic delays.
    """

    retries: int = 3
    base: float = 0.05
    cap: float = 1.0
    codes: "frozenset[ErrorCode]" = DEFAULT_RETRY_CODES
    sleep: Callable[[float], None] = time.sleep
    rng: random.Random = field(default_factory=random.Random)

    def delay(self, attempt: int) -> float:
        bound = min(self.cap, self.base * (2 ** max(0, attempt)))
        return self.rng.uniform(0.0, bound)

    def pause(self, attempt: int) -> float:
        delay = self.delay(attempt)
        self.sleep(delay)
        return delay


_T = TypeVar("_T")
_WIRE_KINDS = {dict: "object", list: "array", str: "string"}


def _field(payload: dict[str, Any], op: str, key: str, kind: type[_T]) -> _T:
    """An answer's ``key`` field, or ``MALFORMED_REQUEST`` when it is not a ``kind``."""
    value = payload.get(key)
    if not isinstance(value, kind):
        raise SmacsError(
            f"{op} response requires a {key!r} {_WIRE_KINDS[kind]}", ErrorCode.MALFORMED_REQUEST
        )
    return value


class GatewayClient:
    """A :class:`~repro.api.protocol.TokenIssuer` that lives across the wire.

    The client depends only on the small
    :class:`~repro.api.protocol.Transport` protocol -- an
    :class:`InProcessTransport`, a pooled multi-endpoint
    :class:`~repro.api.transport.TcpTransport`, or anything else that moves
    envelope bytes -- and on a codec lane (JSON by default, ``"binary"`` for
    the same text behind a binary header; the gateway answers in kind).

    Every protocol operation round-trips through the transport as envelopes.
    ``update_rules`` is read-modify-write with epoch-based conflict
    detection: on ``EXPIRED_RULESET`` the client re-reads and re-applies the
    mutation (up to :data:`RULE_UPDATE_ATTEMPTS` rounds), so lost updates
    are impossible.

    :meth:`_call` is the only loop on the wire that re-sends a frame (a
    transport sends each frame once).  Passing a :class:`Backoff` turns it
    on: a :class:`~repro.core.errors.SmacsError` whose code is in
    ``backoff.codes`` is re-sent after a jittered pause, up to
    ``backoff.retries`` extra attempts.  Without a backoff the client fails
    fast.  Two more things shape the loop:

    * ``deadline_s`` -- a per-call budget; every envelope is stamped with
      the absolute deadline and retries stop (locally, with
      ``DEADLINE_EXCEEDED``) once it passes, so a retrying client never
      outlives its caller's patience;
    * server ``retry_after_s`` hints (``RATE_LIMITED`` / ``OVERLOADED``)
      are honored in place of blind exponential backoff: the client sleeps
      the server-computed horizon (capped at ``backoff.cap``) instead of
      guessing.
    """

    def __init__(
        self,
        transport: Transport,
        route: str,
        *,
        wire_codec: str = codec.CODEC_JSON,
        backoff: "Backoff | None" = None,
        observability: Observability = DORMANT,
        deadline_s: "float | None" = None,
        now: "Callable[[], float] | None" = None,
    ) -> None:
        if wire_codec not in codec.CODECS:
            raise ValueError(
                f"unknown wire codec {wire_codec!r}; pick one of {codec.CODECS}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        self.transport = transport
        self.route = route
        self.wire_codec = wire_codec
        self.backoff = backoff
        self.retries_performed = 0
        self.retry_hints_honored = 0
        self.deadline_s = deadline_s
        self._now: Callable[[], float] = now if now is not None else time.time
        #: the :class:`repro.obs.Observability` handle: when its tracer is
        #: enabled, every call opens a ``client.<op>`` span and sends its
        #: context on the envelope so server spans join the same trace.
        self.observability = observability
        self._address: "Address | None" = None

    def _call(self, op: str, body: dict[str, Any]) -> dict[str, Any]:
        deadline = (
            deadline_in(self.deadline_s, now=self._now)
            if self.deadline_s is not None
            else None
        )
        with self.observability.tracer.span(f"client.{op}", route=self.route) as span:
            trace = None if span is None else span.context().to_wire()
            raw = codec.encode_request_envelope(
                op, self.route, body, codec=self.wire_codec, trace=trace, deadline=deadline
            )
            attempt = 0
            while True:
                # Pre-send shed: a retry loop that slept past the deadline
                # must not burn a round-trip announcing it.
                check_deadline(deadline, stage="client", now=self._now)
                try:
                    return codec.decode_response_envelope(self.transport.send(raw))
                except SmacsError as error:
                    if (
                        self.backoff is None
                        or error.code not in self.backoff.codes
                        or attempt >= self.backoff.retries
                    ):
                        raise
                    self._pause_before_retry(error, attempt, deadline)
                    attempt += 1
                    self.retries_performed += 1

    def _pause_before_retry(
        self, error: SmacsError, attempt: int, deadline: "float | None"
    ) -> None:
        """Sleep before a retry: the server's hint when offered, jitter else.

        Never sleeps past the call deadline -- the pre-send check would only
        convert the overrun into ``DEADLINE_EXCEEDED`` after the fact -- and
        never for zero seconds: a ``cap=0.0`` hop to the next endpoint does
        not sleep at all.
        """
        assert self.backoff is not None
        if error.retry_after_s is not None:
            delay = min(max(0.0, error.retry_after_s), self.backoff.cap)
            self.retry_hints_honored += 1
        else:
            delay = self.backoff.delay(attempt)
        if deadline is not None:
            delay = min(delay, remaining(deadline, now=self._now))
        if delay > 0:
            self.backoff.sleep(delay)

    # -- TokenIssuer ----------------------------------------------------------

    @property
    def address(self) -> Address:
        if self._address is None:
            text = _field(self._call("address", {}), "address", "address", str)
            try:
                self._address = to_address(text)
            except ValueError as exc:
                raise SmacsError(
                    f"undecodable address {text!r}: {exc}", ErrorCode.MALFORMED_REQUEST
                ) from exc
        return self._address

    def submit(
        self, requests: "TokenRequest | Sequence[TokenRequest]"
    ) -> list[IssuanceResult]:
        if isinstance(requests, TokenRequest):
            requests = [requests]
        body = {"requests": [codec.encode_token_request(request) for request in requests]}
        raw_results = _field(self._call("submit", body), "submit", "results", list)
        return [codec.decode_issuance_result(item) for item in raw_results]

    def stats(self) -> dict[str, Any]:
        stats = _field(self._call("stats", {}), "stats", "stats", dict)
        stats["transport"] = self.transport.describe()
        return stats

    def update_rules(self, mutate: Callable[[RuleSet], None]) -> None:
        for attempt in range(RULE_UPDATE_ATTEMPTS):
            current = self._call("get_rules", {})
            rules = RuleSet.from_config(_field(current, "get_rules", "config", dict))
            mutate(rules)
            try:
                self._call(
                    "replace_rules",
                    {"config": rules.to_config(), "epoch": current.get("epoch")},
                )
                return
            except SmacsError as error:
                if (
                    error.code is not ErrorCode.EXPIRED_RULESET
                    or attempt == RULE_UPDATE_ATTEMPTS - 1
                ):
                    raise
                if self.backoff is not None:
                    # stagger contending rule writers the same way wire
                    # retries stagger: full jitter, bounded by the cap
                    self.backoff.pause(attempt)

    # -- conveniences ---------------------------------------------------------

    @property
    def address_hex(self) -> str:
        return address_hex(self.address)

    def describe(self) -> dict[str, Any]:
        return self._call("describe", {})

    def health(self) -> dict[str, Any]:
        """The gateway's liveness answer (the ``health`` wire op)."""
        payload = self._call("health", {})
        _field(payload, "health", "status", str)
        return payload

    def metrics(self) -> dict[str, Any]:
        """Fetch the server's observability snapshot over the wire."""
        return _field(self._call("metrics", {}), "metrics", "metrics", dict)

    def close(self) -> None:
        """Release the underlying transport (idempotent)."""
        self.transport.close()


__all__ = [
    "Backoff",
    "DEFAULT_RETRY_CODES",
    "GatewayClient",
    "InProcessTransport",
    "ServiceGateway",
]
