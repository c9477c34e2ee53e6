"""Real wire transport for the service gateway: asyncio TCP, framed.

The paper's deployment story (§IV-B) has many independent wallets talk to
the Token Service over the network.  This module is that wire, in two
halves behind the :class:`~repro.api.protocol.Transport` protocol:

* :class:`GatewayServer` -- an asyncio TCP server (run on a background
  thread so the synchronous world can drive it) that serves
  :meth:`~repro.api.gateway.ServiceGateway.handle` behind length-prefixed
  frames.  Every accepted socket is one ``asyncio.Protocol`` object that
  owns the connection's bytes, deadline and flow control: an idle timeout
  per frame (not per byte), a maximum frame size, a bound on how many
  unanswered bytes it reads ahead, and write-side backpressure -- a reader
  too slow to take its answers first pauses the connection and, past
  ``write_timeout``, is disconnected instead of ballooning server memory.
  The server refuses load one way only: what the gateway's ``arrive``
  sheds (an expired deadline, or its
  :class:`~repro.resilience.AdmissionController` answering ``OVERLOADED``);
  per-issuer rate policy is the ``RateLimiter`` in the issuer stack.
* :class:`TcpTransport` -- the client half: a thread-safe, connection-
  pooling blocking-socket transport that sends each frame once, to the
  next endpoint round-robin; the client's
  :class:`~repro.api.gateway.Backoff` re-sends, so each re-send lands on
  the next endpoint.  Transport failures map onto stable
  :class:`~repro.core.errors.ErrorCode` values (``UNAVAILABLE`` for
  unreachable or slow endpoints, ``MALFORMED_REQUEST`` for framing
  violations) and every receive is bounded by ``request_timeout`` -- the
  client never hangs on a dead server.

Framing is a 4-byte big-endian payload length followed by one codec
envelope (:mod:`repro.api.codec`; JSON or the compact binary lane --
negotiation is per-envelope, the server answers in the lane the request
arrived in).  ``TCP_NODELAY`` is set on both sides: request/response
envelopes are small and Nagle/delayed-ACK interaction would otherwise put
tens of milliseconds on every issuance.

The server has one request path.  Its event loop frames, decodes and
sheds: the moment a frame is whole, ``data_received`` hands it to the
gateway's :meth:`~repro.api.gateway.ServiceGateway.arrive`, on the loop
thread.  There is no task per connection and none per read: a frame is
served by plain calls from the socket callback to the response write, and
the deadlines are one lazily re-armed timer per connection (awaiting each
read and each drain under its own timeout cost three tasks, three timer
handles and four extra loop turns a frame: 0.14 ms of a 1.8 ms token fetch).
What ``arrive`` lets through is dispatched by exactly one thread, which owns
every call into the gateway's issuers -- issuance is serialised exactly like
the in-process path, so replica counters and bitmap words never see
concurrent mutation from the wire, by construction rather than by option.
Which thread that is follows from the gateway, not from a knob: when the
gateway has an :class:`~repro.resilience.AdmissionController` as the server
starts, one dispatch thread runs ``handle`` (the connection is *busy*
meanwhile: its later frames wait in its buffer, in order) so the loop keeps
seeing arrivals *at arrival pace* (an admission check serialised behind
dispatch could only ever observe its own drain pace, never a queue building
in front of it); a gateway with nothing to shed with is served on the loop
thread itself, which saves two thread wake-ups per frame (measured: the hop
costs ~0.1-0.2 ms of issuance latency on a one-CPU host and widens its
run-to-run spread).

Factories: :func:`serve` starts a server for a gateway, :func:`connect`
returns a protocol-speaking :class:`~repro.api.gateway.GatewayClient` for
one or many ``tcp://`` endpoints, and :func:`dial` adapts :func:`connect`
to the :class:`~repro.core.discovery.ServiceDiscovery` dialer hook so a
contract's published TS URL resolves to a live wire client.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence, Union

from repro.core.errors import ErrorCode, SmacsError

from repro.api import codec
from repro.api.gateway import Backoff, GatewayClient, ServiceGateway
from repro.api.protocol import TokenIssuer
from repro.resilience import CircuitBreaker

#: bytes in the big-endian length prefix of every frame
FRAME_HEADER_BYTES = 4

#: default ceiling for one frame's payload (requests and responses alike)
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024

#: unanswered bytes a connection may hold while it cannot serve them (its frame
#: is with the dispatcher, or its peer is not taking answers) before it stops
#: reading its socket; one socket read (asyncio's are up to 256 KiB) can land
#: on top of it
READ_AHEAD_BYTES = 64 * 1024

#: arrival-edge refusals that count as shed load (the rest are undecodable frames)
_SHED_CODES = frozenset({ErrorCode.DEADLINE_EXCEEDED, ErrorCode.OVERLOADED})

#: an endpoint is a URL string, a ``(host, port)`` pair, or a mix of both
EndpointLike = Union[str, "tuple[str, int]"]


def _check_port(port: int) -> int:
    """``port`` if it is a TCP port number (0-65535), else ``ValueError``.

    The socket layer would otherwise dial ``port % 65536`` or die in the
    server thread with an ``OverflowError``.
    """
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} outside 0-65535")
    return port


def parse_endpoint(value: EndpointLike) -> tuple[str, int]:
    """Normalise ``tcp://host:port`` / ``host:port`` / ``(host, port)``."""
    if isinstance(value, tuple):
        host, port = value
        return str(host), _check_port(int(port))
    url = str(value)
    if url.startswith("tcp://"):
        url = url[len("tcp://"):]
    url = url.rstrip("/")
    host, separator, port_text = url.rpartition(":")
    if not separator or not host or not port_text.isdigit():
        raise ValueError(
            f"unsupported endpoint {value!r} (expected tcp://host:port)"
        )
    if host.startswith("[") and host.endswith("]"):  # bracketed IPv6 literal
        host = host[1:-1]
    return host, _check_port(int(port_text))


def endpoint_url(host: str, port: int) -> str:
    return f"tcp://[{host}]:{port}" if ":" in host else f"tcp://{host}:{port}"


def _set_nodelay(sock: "socket.socket | None") -> None:
    if sock is None:
        return
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - non-TCP sockets in exotic setups
        pass


class GatewayServer:
    """Serves one :class:`~repro.api.gateway.ServiceGateway` over asyncio TCP.

    The event loop runs on a dedicated daemon thread; :meth:`start` blocks
    until the listening socket is bound (``port=0`` picks a free port, read
    the bound one back from :attr:`port` / :attr:`url`).  :meth:`close` is
    idempotent and tears down the loop, the listener and every open
    connection.

    The server owns the listener, the gateway, the one dispatch thread and
    the counters; everything about a single socket -- its buffer, where it
    is in a frame, its deadline, whether it is busy or paused -- lives on
    that socket's :class:`_Connection`.  The gateway's ``arrive`` and
    ``handle`` are looked up on :attr:`gateway` for every frame, so a tracer
    may wrap them on the instance while the server runs.
    """

    def __init__(
        self,
        gateway: ServiceGateway,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        idle_timeout: float = 30.0,
        write_timeout: float = 10.0,
    ) -> None:
        if max_frame_bytes <= 0:
            raise ValueError("max_frame_bytes must be positive")
        if idle_timeout <= 0 or write_timeout <= 0:
            raise ValueError("timeouts must be positive")
        self.gateway = gateway
        self.host = host
        self.port = _check_port(port)
        self.max_frame_bytes = int(max_frame_bytes)
        self.idle_timeout = float(idle_timeout)
        self.write_timeout = float(write_timeout)
        #: the one thread that runs ``gateway.handle`` while the loop sheds;
        #: made by start() iff the gateway has an admission controller
        self._dispatcher: "ThreadPoolExecutor | None" = None
        self.frames_shed = 0
        # Counters are only mutated on the loop thread; cross-thread reads
        # are monotonic-counter reads, safe under the GIL.
        self.connections_accepted = 0
        self.connections_open = 0
        self.frames_served = 0
        self.malformed_frames = 0
        self.idle_closes = 0
        self.backpressure_closes = 0
        self.read_pauses = 0
        self.bytes_received = 0
        self.bytes_sent = 0
        self._thread: "threading.Thread | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._stop: "asyncio.Event | None" = None
        self._connections: "set[_Connection]" = set()
        self._ready = threading.Event()
        self._startup_error: "BaseException | None" = None

    # -- lifecycle ------------------------------------------------------------

    @property
    def url(self) -> str:
        """The ``tcp://`` endpoint clients dial (valid after :meth:`start`)."""
        return endpoint_url(self.host, self.port)

    def start(self) -> "GatewayServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        if self.gateway.admission is not None:
            self._dispatcher = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="gw-dispatch"
            )
        self._thread = threading.Thread(
            target=self._run, name=f"smacs-gateway-{self.host}", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            raise self._startup_error
        if not self._ready.is_set():  # pragma: no cover - defensive
            raise RuntimeError("gateway server failed to start in time")
        return self

    def close(self) -> None:
        """Stop serving and release every connection (idempotent)."""
        thread, loop, stop = self._thread, self._loop, self._stop
        if thread is None or loop is None:
            return
        if thread.is_alive() and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:  # loop already closed under us
                pass
        thread.join(timeout=10.0)

    def __enter__(self) -> "GatewayServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            loop.close()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        try:
            await self._serve_until_stopped()
        finally:
            if self._dispatcher is not None:
                self._dispatcher.shutdown(wait=True)

    async def _serve_until_stopped(self) -> None:
        assert self._stop is not None
        try:
            server = await asyncio.get_running_loop().create_server(
                lambda: _Connection(self), self.host, self.port
            )
        except Exception as exc:  # bind refused, bad address, ...: start() raises it
            self._startup_error = exc
            self._ready.set()
            return
        sockets = server.sockets or ()
        if sockets:
            self.port = int(sockets[0].getsockname()[1])
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            while self._connections:  # each leaves in its connection_lost()
                for connection in list(self._connections):
                    connection.transport.abort()
                await asyncio.sleep(0)
            await server.wait_closed()

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "url": self.url,
            "connections_accepted": self.connections_accepted,
            "connections_open": self.connections_open,
            "frames_served": self.frames_served,
            "frames_shed": self.frames_shed,
            "malformed_frames": self.malformed_frames,
            "idle_closes": self.idle_closes,
            "backpressure_closes": self.backpressure_closes,
            "read_pauses": self.read_pauses,
            "bytes_received": self.bytes_received,
            "bytes_sent": self.bytes_sent,
        }


class _Connection(asyncio.Protocol):
    """One accepted socket of a :class:`GatewayServer`, served from its callbacks.

    ``data_received`` appends to :attr:`buffer` and serves every complete
    frame in it, in order; nothing is awaited, so a frame costs no task.  The
    connection *holds* -- serves nothing, keeps what arrives -- while its
    frame is with the dispatcher (:attr:`busy`) or its peer is not taking
    answers (:attr:`write_paused`), and past :data:`READ_AHEAD_BYTES` of held
    bytes it stops reading the socket until it can serve again.

    Deadlines are per frame, never per byte: a header has ``idle_timeout``
    from the previous answer (or the accept) to become whole, a body
    ``idle_timeout`` from its header, and no read is owed while the connection
    holds.  One timer keeps them: it is armed at the accept, and when it fires
    early -- every served frame moves :attr:`deadline` on without touching it
    -- it re-arms itself for what is left.
    """

    transport: asyncio.Transport

    def __init__(self, server: GatewayServer) -> None:
        self.server = server
        self.loop = asyncio.get_running_loop()
        self.buffer = bytearray()
        #: payload length of the frame whose header is in; ``None`` between frames
        self.length: "int | None" = None
        self.busy = False
        self.write_paused = False
        self.read_paused = False
        self.eof = False
        self.deadline = 0.0
        self.idle_timer: "asyncio.TimerHandle | None" = None
        self.write_timer: "asyncio.TimerHandle | None" = None

    @property
    def holding(self) -> bool:
        return self.busy or self.write_paused

    # -- transport callbacks ---------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport
        server = self.server
        server.connections_accepted += 1
        server.connections_open += 1
        server._connections.add(self)
        _set_nodelay(transport.get_extra_info("socket"))
        self.deadline = self.loop.time() + server.idle_timeout
        self.idle_timer = self.loop.call_at(self.deadline, self._on_deadline)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self._serve()
        self._flow()

    def eof_received(self) -> bool:
        # A half-closed peer still gets every answer it is owed: the transport
        # stays open for writing until the held frames are served.
        self.eof = True
        self._serve()
        return self.holding

    def pause_writing(self) -> None:
        self.write_paused = True
        self.write_timer = self.loop.call_later(
            self.server.write_timeout, self._on_write_timeout
        )

    def resume_writing(self) -> None:
        self.write_paused = False
        if self.write_timer is not None:
            self.write_timer.cancel()
        self._resume()

    def connection_lost(self, exc: "Exception | None") -> None:
        self.server.connections_open -= 1
        self.server._connections.discard(self)
        for timer in (self.idle_timer, self.write_timer):
            if timer is not None:
                timer.cancel()
        self.buffer.clear()  # a dispatch that outlives the socket finds nothing to serve

    # -- the frame loop --------------------------------------------------------

    def _serve(self) -> None:
        """Answer every complete frame in the buffer, oldest first, until the
        connection holds, closes or runs out of whole frames."""
        server, transport, buffer = self.server, self.transport, self.buffer
        while not (self.holding or transport.is_closing()):
            length = self.length
            if length is None:
                if len(buffer) < FRAME_HEADER_BYTES:
                    break
                length = int.from_bytes(buffer[:FRAME_HEADER_BYTES], "big")
                if not 0 < length <= server.max_frame_bytes:
                    server.malformed_frames += 1
                    error = SmacsError(
                        f"frame length {length} outside (0, {server.max_frame_bytes}]",
                        ErrorCode.MALFORMED_REQUEST,
                    )
                    self._write(codec.encode_error_envelope(error))
                    transport.close()  # framing is unrecoverable on this connection
                    return
                self.length = length
                self.deadline = self.loop.time() + server.idle_timeout
            end = FRAME_HEADER_BYTES + length
            if len(buffer) < end:
                break
            payload = bytes(buffer[FRAME_HEADER_BYTES:end])
            del buffer[:end]
            self.length = None
            server.bytes_received += end
            try:
                request = server.gateway.arrive(payload)
            except SmacsError as error:  # answered on the loop, at arrival pace
                server.frames_shed += error.code in _SHED_CODES
                # Well framed, so the connection stays usable.
                server.malformed_frames += error.code is ErrorCode.MALFORMED_REQUEST
                response = codec.encode_error_envelope(
                    error, codec=codec.reply_codec(payload)
                )
            else:
                # The gateway never raises from handle(): unknown routes and
                # issuer failures come back as envelopes.  Either way exactly
                # one thread calls into the issuers and responses stay
                # ordered per connection.
                if server._dispatcher is not None:
                    self.busy = True
                    self.loop.run_in_executor(
                        server._dispatcher, server.gateway.handle, request
                    ).add_done_callback(self._dispatched)
                    return
                response = server.gateway.handle(request)
            server.frames_served += 1
            self._write(response)
            self.deadline = self.loop.time() + server.idle_timeout
        if self.eof and not (self.holding or transport.is_closing()):
            # The peer has said everything; a body cut short is never answered.
            server.malformed_frames += self.length is not None
            transport.close()

    def _dispatched(self, future: "asyncio.Future[bytes]") -> None:
        self.busy = False
        response = future.result()
        self.server.frames_served += 1
        if not self.transport.is_closing():
            self._write(response)
        self._resume()

    def _write(self, payload: bytes) -> None:
        # May call pause_writing() before it returns: the loop in _serve()
        # checks after every answer.
        self.transport.write(len(payload).to_bytes(FRAME_HEADER_BYTES, "big") + payload)
        self.server.bytes_sent += FRAME_HEADER_BYTES + len(payload)

    def _resume(self) -> None:
        """The hold is over: the next header's clock starts now."""
        self.deadline = self.loop.time() + self.server.idle_timeout
        self._serve()
        self._flow()

    def _flow(self) -> None:
        """Read the socket unless more than the bound is held unserved."""
        hold = self.holding and len(self.buffer) > READ_AHEAD_BYTES
        if hold is not self.read_paused:
            self.read_paused = hold
            if hold:
                self.server.read_pauses += 1
                self.transport.pause_reading()
            else:
                self.transport.resume_reading()

    # -- deadlines -------------------------------------------------------------

    def _on_deadline(self) -> None:
        if self.transport.is_closing():
            return
        server, now = self.server, self.loop.time()
        if self.holding:
            # No read is owed; whatever ends the hold sets a later deadline.
            when = now + server.idle_timeout
        elif now < self.deadline:
            when = self.deadline
        else:
            if self.length is None:
                server.idle_closes += 1
            else:
                server.malformed_frames += 1
            self.transport.close()
            return
        self.idle_timer = self.loop.call_at(when, self._on_deadline)

    def _on_write_timeout(self) -> None:
        # Backpressure escalation: the reader paused us past the write
        # timeout, so it is disconnected rather than buffered forever.
        self.server.backpressure_closes += 1
        self.transport.abort()


class _StaleConnection(Exception):
    """A pooled connection died before any response bytes arrived."""


class TcpTransport:
    """Blocking-socket client side of the framed wire.

    Satisfies :class:`~repro.api.protocol.Transport`.  Connections are
    pooled per endpoint (``pool_size`` idle sockets each) and reused across
    requests; a pooled socket that turns out to be stale -- the server
    closed it while idle, so no response byte arrived -- is replaced with
    one fresh dial before the request counts as failed.  Otherwise
    :meth:`send` sends a frame at most once, to the next endpoint
    round-robin.  Re-sending is the caller's one loop (the §VII-B shape: a
    base makes one attempt on its next target, one wrapper re-sends);
    :func:`connect` gives a multi-endpoint client the
    :class:`~repro.api.gateway.Backoff` that does it.

    Balancing is *health-aware*: each endpoint carries a
    :class:`~repro.resilience.CircuitBreaker` (closed -> open -> half-open,
    at its own defaults), so round-robin skips endpoints that are down or
    drowning instead of paying a dial timeout per request.  Any answer,
    even a malformed one, counts as alive; only ``UNAVAILABLE`` counts as
    dead.  When *every* breaker is open the transport fails fast with
    ``UNAVAILABLE`` carrying a ``retry_after_s`` hint -- the soonest
    half-open probe time.  :meth:`probe_endpoints` drives the ``health``
    wire op through each endpoint to re-close breakers without waiting for
    user traffic.

    Thread-safe: workers of an open-loop load generator can share one
    transport, each request checking out its own socket.
    """

    def __init__(
        self,
        endpoints: "Sequence[EndpointLike] | EndpointLike",
        *,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
        pool_size: int = 2,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        now: "Callable[[], float] | None" = None,
    ) -> None:
        if isinstance(endpoints, (str, tuple)):
            endpoints = [endpoints]
        self.endpoints = [parse_endpoint(endpoint) for endpoint in endpoints]
        if not self.endpoints:
            raise ValueError("need at least one endpoint")
        if pool_size < 0:
            raise ValueError("pool_size must be non-negative")
        self.connect_timeout = float(connect_timeout)
        self.request_timeout = float(request_timeout)
        self.pool_size = int(pool_size)
        self.max_frame_bytes = int(max_frame_bytes)
        self.breakers = [CircuitBreaker(now=now) for _ in self.endpoints]
        self._pools: "list[list[socket.socket]]" = [[] for _ in self.endpoints]
        self._lock = threading.Lock()
        self._cursor = 0
        self._closed = False
        self.requests = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.dials = 0
        self.reconnects = 0
        self.breaker_skips = 0

    # -- Transport -------------------------------------------------------------

    def send(self, raw: bytes) -> bytes:
        """Send ``raw`` once, to the next endpoint whose breaker admits it."""
        if self._closed:
            raise SmacsError("transport is closed", ErrorCode.UNAVAILABLE)
        if len(raw) > self.max_frame_bytes:
            raise SmacsError(
                f"request of {len(raw)} bytes exceeds the "
                f"{self.max_frame_bytes}-byte frame ceiling",
                ErrorCode.MALFORMED_REQUEST,
            )
        with self._lock:
            start = self._cursor
            self._cursor += 1
        count = len(self.endpoints)
        for offset in range(count):
            index = (start + offset) % count
            if self.breakers[index].allow():
                return self._attempt(index, raw)
            with self._lock:
                self.breaker_skips += 1
        # Every endpoint was skipped by its breaker: fail fast (no dial, no
        # timeout wait) and tell the caller when the next probe can go.
        hint = min(breaker.retry_after() for breaker in self.breakers)
        raise SmacsError(
            f"all {count} endpoints are circuit-broken; "
            f"next half-open probe in {hint:.3f}s",
            ErrorCode.UNAVAILABLE,
            retry_after_s=round(hint, 6),
        )

    def probe_endpoints(self) -> "dict[str, bool]":
        """Probe every endpoint with the ``health`` wire op.

        Outcomes feed the breakers exactly as user traffic does (an error
        envelope from a pre-health gateway is alive), so a probe sweep
        re-closes breakers around recovered endpoints without waiting for
        user traffic to half-open them.
        """
        raw = codec.encode_request_envelope("health", "", {})
        results: "dict[str, bool]" = {}
        for index, (host, port) in enumerate(self.endpoints):
            try:
                self._attempt(index, raw)
                alive = True
            except SmacsError as error:
                alive = error.code is not ErrorCode.UNAVAILABLE
            results[endpoint_url(host, port)] = alive
        return results

    def close(self) -> None:
        with self._lock:
            self._closed = True
            sockets = [sock for pool in self._pools for sock in pool]
            for pool in self._pools:
                pool.clear()
        for sock in sockets:
            sock.close()

    def describe(self) -> dict[str, Any]:
        with self._lock:
            return {
                "kind": "tcp",
                "endpoints": [endpoint_url(host, port) for host, port in self.endpoints],
                "requests": self.requests,
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
                "dials": self.dials,
                "reconnects": self.reconnects,
                "breaker_skips": self.breaker_skips,
                "breakers": [breaker.stats() for breaker in self.breakers],
                "pooled": sum(len(pool) for pool in self._pools),
            }

    # -- internals -------------------------------------------------------------

    def _attempt(self, index: int, raw: bytes) -> bytes:
        """One exchange with endpoint ``index``, its outcome fed to the breaker.

        Any answer is alive -- a malformed frame too, or a half-open probe
        slot would never be released; only ``UNAVAILABLE`` (unreachable,
        timed out, cut off) is dead.
        """
        breaker = self.breakers[index]
        try:
            payload = self._exchange(index, raw)
        except SmacsError as error:
            if error.code is ErrorCode.UNAVAILABLE:
                breaker.record_failure()
            else:
                breaker.record_success()
            raise
        breaker.record_success()
        return payload

    def _exchange(self, index: int, raw: bytes) -> bytes:
        pooled = self._checkout(index)
        if pooled is not None:
            try:
                return self._roundtrip(index, pooled, raw, pooled_socket=True)
            except _StaleConnection:
                with self._lock:
                    self.reconnects += 1
        fresh = self._dial(index)
        try:
            return self._roundtrip(index, fresh, raw, pooled_socket=False)
        except _StaleConnection as exc:  # fresh socket: a real failure
            host, port = self.endpoints[index]
            raise SmacsError(
                f"{endpoint_url(host, port)} closed the connection mid-request: {exc}",
                ErrorCode.UNAVAILABLE,
            ) from exc

    def _roundtrip(
        self, index: int, sock: socket.socket, raw: bytes, *, pooled_socket: bool
    ) -> bytes:
        host, port = self.endpoints[index]
        received_any = False
        try:
            sock.sendall(len(raw).to_bytes(FRAME_HEADER_BYTES, "big") + raw)
            header = self._recv_exactly(sock, FRAME_HEADER_BYTES)
            received_any = True
            length = int.from_bytes(header, "big")
            if not 0 < length <= self.max_frame_bytes:
                sock.close()
                raise SmacsError(
                    f"response frame length {length} from {endpoint_url(host, port)} "
                    f"outside (0, {self.max_frame_bytes}]",
                    ErrorCode.MALFORMED_REQUEST,
                )
            payload = self._recv_exactly(sock, length)
        except socket.timeout as exc:
            sock.close()
            raise SmacsError(
                f"{endpoint_url(host, port)} did not answer within "
                f"{self.request_timeout}s",
                ErrorCode.UNAVAILABLE,
            ) from exc
        except (ConnectionError, OSError) as exc:
            sock.close()
            if pooled_socket and not received_any:
                # The server dropped the idle connection; the request was
                # never processed -- safe to replay on a fresh dial.
                raise _StaleConnection(str(exc)) from exc
            raise SmacsError(
                f"connection to {endpoint_url(host, port)} failed: {exc}",
                ErrorCode.UNAVAILABLE,
            ) from exc
        with self._lock:
            self.requests += 1
            self.bytes_sent += FRAME_HEADER_BYTES + len(raw)
            self.bytes_received += FRAME_HEADER_BYTES + length
        self._checkin(index, sock)
        return payload

    @staticmethod
    def _recv_exactly(sock: socket.socket, count: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < count:
            chunk = sock.recv(count - len(chunks))
            if not chunk:
                raise ConnectionError("peer closed the connection")
            chunks.extend(chunk)
        return bytes(chunks)

    def _checkout(self, index: int) -> "socket.socket | None":
        with self._lock:
            pool = self._pools[index]
            return pool.pop() if pool else None

    def _checkin(self, index: int, sock: socket.socket) -> None:
        with self._lock:
            pool = self._pools[index]
            if not self._closed and len(pool) < self.pool_size:
                pool.append(sock)
                return
        sock.close()

    def _dial(self, index: int) -> socket.socket:
        host, port = self.endpoints[index]
        try:
            sock = socket.create_connection((host, port), timeout=self.connect_timeout)
        except OSError as exc:
            raise SmacsError(
                f"cannot reach {endpoint_url(host, port)}: {exc}",
                ErrorCode.UNAVAILABLE,
            ) from exc
        sock.settimeout(self.request_timeout)
        _set_nodelay(sock)
        with self._lock:
            self.dials += 1
        return sock


# -- factories -----------------------------------------------------------------


def serve(
    gateway: ServiceGateway,
    addr: EndpointLike = ("127.0.0.1", 0),
    **options: Any,
) -> GatewayServer:
    """Start a :class:`GatewayServer` for ``gateway`` and return it running.

    ``addr`` is ``(host, port)`` or ``tcp://host:port``; port 0 binds a free
    port (read it back from ``server.url``).  Keyword options are forwarded
    to :class:`GatewayServer` (``max_frame_bytes``, ``idle_timeout``,
    ``write_timeout``).
    """
    host, port = parse_endpoint(addr)
    return GatewayServer(gateway, host, port, **options).start()


def connect(
    urls: "Sequence[EndpointLike] | EndpointLike",
    route: "str | None" = None,
    *,
    wire_codec: str = codec.CODEC_JSON,
    **transport_options: Any,
) -> GatewayClient:
    """Dial one or many ``tcp://`` endpoints; return a protocol client.

    With several URLs the client load-balances round-robin across them
    (they should serve the same routes -- e.g. the replicated TS profiles
    behind separate gateways), and its :class:`Backoff` re-sends an
    ``UNAVAILABLE`` frame, without sleeping, up to once per other endpoint.
    The retry count follows from the URLs; it is not an option.  When
    ``route`` is omitted it is discovered over the wire: a route equal to
    one of the dialled URLs wins (the §VII-B convention that a contract's
    published TS URL doubles as its gateway route), otherwise the server
    must serve exactly one route.  Keyword options are forwarded to
    :class:`TcpTransport`.
    """
    url_list = [urls] if isinstance(urls, (str, tuple)) else list(urls)
    transport = TcpTransport(url_list, **transport_options)
    backoff = (
        Backoff(retries=len(url_list) - 1, cap=0.0, codes=frozenset({ErrorCode.UNAVAILABLE}))
        if len(url_list) > 1
        else None
    )
    try:
        if route is None:
            probe = GatewayClient(transport, "", wire_codec=wire_codec, backoff=backoff)
            routes = [str(item) for item in probe.describe().get("routes", [])]
            dialled = {str(url) for url in url_list}
            matching = [item for item in routes if item in dialled]
            if matching:
                route = matching[0]
            elif len(routes) == 1:
                route = routes[0]
            else:
                raise ValueError(
                    f"cannot infer a route: server at {url_list[0]!r} serves "
                    f"{routes!r}; pass route= explicitly"
                )
    except BaseException:
        transport.close()
        raise
    return GatewayClient(transport, route, wire_codec=wire_codec, backoff=backoff)


def dial(url: str) -> "TokenIssuer | None":
    """:class:`~repro.core.discovery.ServiceDiscovery` dialer hook.

    ``tcp://`` URLs become live :class:`~repro.api.gateway.GatewayClient`\\ s
    (``None`` when the endpoint is down or serves no matching route); other
    schemes are not ours to resolve.
    """
    if not str(url).startswith("tcp://"):
        return None
    try:
        return connect(url)
    except (SmacsError, ValueError, OSError):
        return None


__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "FRAME_HEADER_BYTES",
    "GatewayServer",
    "TcpTransport",
    "connect",
    "dial",
    "endpoint_url",
    "parse_endpoint",
    "serve",
]
