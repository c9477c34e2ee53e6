"""The real wire: framing, fault injection and backpressure on the TCP path.

The conformance suite proves a ``tcp-*`` stack is indistinguishable from the
in-process stacks when everything goes right; this file is about everything
going wrong.  Dead endpoints, servers vanishing mid-batch, malformed and
oversized frames, slow readers and idle connections must all map onto stable
:class:`~repro.core.errors.ErrorCode` values -- and the client must never
hang (every receive is bounded by ``request_timeout``).
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import (
    Backoff,
    ErrorCode,
    GatewayClient,
    GatewayServer,
    RETRYABLE_CODES,
    ServiceGateway,
    SmacsError,
    build_service,
    codec,
    connect,
    dial,
    serve,
)
from repro.api.gateway import InProcessTransport
from repro.api.transport import (
    DEFAULT_MAX_FRAME_BYTES,
    FRAME_HEADER_BYTES,
    READ_AHEAD_BYTES,
    TcpTransport,
    endpoint_url,
    parse_endpoint,
)
from repro.core.acr import RuleSet, WhitelistRule
from repro.core.discovery import ServiceDiscovery
from repro.core.token_request import TokenRequest
from repro.crypto.keys import KeyPair
from repro.resilience import AdmissionController

ROUTE = "tcp-test-route"


def _gateway(
    *, rules: "RuleSet | None" = None, profile: str = "serial", dispatched: bool = False
):
    """``dispatched``: behind an admission controller, so the server started
    for it runs ``handle`` on its dispatch thread instead of its loop."""
    service = build_service(
        profile,
        keypair=KeyPair.from_seed("transport-ts"),
        rules=rules if rules is not None else RuleSet(),
    )
    gateway = ServiceGateway()
    gateway.register(ROUTE, service)
    if dispatched:
        gateway.admission = AdmissionController(target_delay_s=30.0)
    return gateway


def _request(one_time: bool = False) -> TokenRequest:
    return TokenRequest.method_token(
        b"\xaa" * 20, b"\xbb" * 20, "submit", one_time=one_time
    )


def _submit_envelope(batch: int = 1, *, lane: str = codec.CODEC_JSON) -> bytes:
    body = {"requests": [codec.encode_token_request(_request())] * batch}
    return codec.encode_request_envelope("submit", ROUTE, body, codec=lane)


def _framed(payload: bytes) -> bytes:
    return len(payload).to_bytes(FRAME_HEADER_BYTES, "big") + payload


def _read_frame(sock: socket.socket) -> bytes:
    header = b""
    while len(header) < FRAME_HEADER_BYTES:
        chunk = sock.recv(FRAME_HEADER_BYTES - len(header))
        assert chunk, "server closed before a full frame header"
        header += chunk
    length = int.from_bytes(header, "big")
    payload = b""
    while len(payload) < length:
        chunk = sock.recv(length - len(payload))
        assert chunk, "server closed mid-frame"
        payload += chunk
    return payload


# --- endpoint parsing ---------------------------------------------------------------


def test_parse_endpoint_accepts_urls_pairs_and_ipv6():
    assert parse_endpoint("tcp://10.0.0.7:8821") == ("10.0.0.7", 8821)
    assert parse_endpoint("10.0.0.7:8821") == ("10.0.0.7", 8821)
    assert parse_endpoint(("ts.example", 8821)) == ("ts.example", 8821)
    assert parse_endpoint("tcp://[::1]:9000") == ("::1", 9000)
    assert endpoint_url("::1", 9000) == "tcp://[::1]:9000"
    assert parse_endpoint(endpoint_url("127.0.0.1", 80)) == ("127.0.0.1", 80)


@pytest.mark.parametrize("bad", ["tcp://no-port", "https://x:1x", "", "host:"])
def test_parse_endpoint_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_endpoint(bad)


def test_parse_endpoint_refuses_ports_outside_the_tcp_range():
    # The socket layer would dial 70000 % 65536 = 4464, someone else's port.
    assert parse_endpoint("tcp://127.0.0.1:65535") == ("127.0.0.1", 65535)
    for bad in ("tcp://127.0.0.1:70000", ("127.0.0.1", 65536), ("127.0.0.1", -1)):
        with pytest.raises(ValueError, match="outside 0-65535"):
            parse_endpoint(bad)
    with pytest.raises(ValueError, match="outside 0-65535"):
        connect("tcp://127.0.0.1:70000")


def test_serve_refuses_an_out_of_range_port_at_once():
    started = time.monotonic()
    with pytest.raises(ValueError, match="outside 0-65535"):
        serve(_gateway(), ("127.0.0.1", 70001))
    with pytest.raises(ValueError, match="outside 0-65535"):
        GatewayServer(_gateway(), port=70001)
    # Whatever the listener refuses reaches start()'s caller, not just OSError:
    # a port bent past the constructor's check dies in the loop thread with an
    # OverflowError, and start() raises it instead of waiting out its 30 s.
    server = GatewayServer(_gateway())
    server.port = 70001
    with pytest.raises(OverflowError):
        server.start()
    assert time.monotonic() - started < 5.0


# --- happy path over real sockets ---------------------------------------------------


@pytest.mark.parametrize("lane", codec.CODECS)
def test_round_trip_in_both_codec_lanes(lane):
    with serve(_gateway()) as server:
        client = connect(server.url, wire_codec=lane)
        try:
            results = client.submit([_request(), _request(one_time=True)])
            assert [result.issued for result in results] == [True, True]
            stats = client.stats()
            assert stats["transport"]["kind"] == "tcp"
            assert stats["transport"]["requests"] >= 2
        finally:
            client.close()


def test_connect_prefers_the_dialled_url_as_route():
    gateway = _gateway()
    with serve(gateway) as server:
        # The §VII-B convention: the published TS URL doubles as the route.
        gateway.register(server.url, gateway.issuer_for(ROUTE))
        client = connect(server.url)
        try:
            assert client.route == server.url
        finally:
            client.close()


def test_connect_without_route_needs_an_unambiguous_server():
    gateway = _gateway()
    gateway.register("second-route", gateway.issuer_for(ROUTE))
    with serve(gateway) as server:
        with pytest.raises(ValueError, match="cannot infer a route"):
            connect(server.url)
        client = connect(server.url, route=ROUTE)
        try:
            assert client.submit(_request())[0].issued
        finally:
            client.close()


# --- fault: endpoint never reachable ------------------------------------------------


def test_dead_endpoint_is_unavailable_and_retryable():
    transport = TcpTransport("tcp://127.0.0.1:9", connect_timeout=0.5)
    with pytest.raises(SmacsError) as failure:
        transport.send(_submit_envelope())
    assert failure.value.code is ErrorCode.UNAVAILABLE
    assert failure.value.retryable
    assert ErrorCode.UNAVAILABLE in RETRYABLE_CODES


def test_failover_skips_the_dead_endpoint():
    """A two-URL client re-sends what the dead endpoint refused to the live
    one: every call issues, one hop a call, and a hop never sleeps."""
    with serve(_gateway()) as server:
        client = connect(
            ["tcp://127.0.0.1:9", server.url], route=ROUTE, connect_timeout=0.5
        )
        slept: "list[float]" = []
        client.backoff.sleep = slept.append
        try:
            for _ in range(3):  # round-robin keeps landing on the dead one first
                assert client.submit(_request())[0].issued
            assert client.retries_performed == 3
            assert slept == []
        finally:
            client.close()


# --- count guard: one frame, one send -----------------------------------------------


@contextlib.contextmanager
def _dead_endpoints(count: int):
    """URLs of ports bound but not listening: every dial is refused at once."""
    sockets = [socket.socket() for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
        yield [endpoint_url(*sock.getsockname()) for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def _count_sends(transport: TcpTransport) -> "list[int]":
    """The endpoint index of every exchange ``transport`` attempts from now on."""
    sent: "list[int]" = []
    exchange = transport._exchange

    def counted(index: int, raw: bytes) -> bytes:
        sent.append(index)
        return exchange(index, raw)

    transport._exchange = counted
    return sent


def test_a_frame_is_sent_once_per_client_attempt():
    """The client's backoff is the only loop that re-sends: ``retries=3`` over
    three dead endpoints is four sends, each to the next endpoint (when the
    transport failed over too, the same call made twelve)."""
    with _dead_endpoints(3) as urls:
        transport = TcpTransport(urls, connect_timeout=0.5)
        sent = _count_sends(transport)
        slept: "list[float]" = []
        client = GatewayClient(transport, ROUTE, backoff=Backoff(retries=3, sleep=slept.append))
        with pytest.raises(SmacsError) as failure:
            client.describe()
        assert failure.value.code is ErrorCode.UNAVAILABLE
        assert sent == [0, 1, 2, 0]
        assert client.retries_performed == len(slept) == 3
        # connect() derives its retries from the URLs: one send per endpoint.
        client = connect(urls, route=ROUTE, connect_timeout=0.5)
        sent = _count_sends(client.transport)
        with pytest.raises(SmacsError):
            client.describe()
        assert sent == [0, 1, 2]


# --- fault: server vanishes mid-conversation ----------------------------------------


def test_server_gone_mid_batch_is_unavailable_not_a_hang():
    server = serve(_gateway())
    client = connect(server.url, request_timeout=2.0)
    try:
        assert client.submit(_request())[0].issued
        server.close()
        started = time.monotonic()
        with pytest.raises(SmacsError) as failure:
            client.submit([_request()] * 4)
        assert failure.value.code is ErrorCode.UNAVAILABLE
        assert failure.value.retryable
        assert time.monotonic() - started < 10.0  # bounded, never a hang
    finally:
        client.close()


def test_stale_pooled_connection_is_redialled_transparently():
    with serve(_gateway(), idle_timeout=0.2) as server:
        client = connect(server.url, connect_timeout=2.0)
        try:
            assert client.submit(_request())[0].issued
            deadline = time.monotonic() + 5.0
            while server.stats()["idle_closes"] < 1:
                assert time.monotonic() < deadline, "server never idled the connection"
                time.sleep(0.02)
            # The pooled socket is now dead; the request was never sent on a
            # live connection, so one fresh dial replays it safely.
            assert client.submit(_request())[0].issued
            assert client.stats()["transport"]["reconnects"] == 1
        finally:
            client.close()


# --- fault: framing violations ------------------------------------------------------


def test_malformed_frame_gets_an_error_envelope_then_a_close():
    with serve(_gateway(), max_frame_bytes=1024) as server:
        with socket.create_connection(parse_endpoint(server.url), timeout=2.0) as sock:
            sock.settimeout(2.0)
            sock.sendall((1 << 31).to_bytes(FRAME_HEADER_BYTES, "big") + b"junk")
            with pytest.raises(SmacsError) as failure:
                codec.decode_response_envelope(_read_frame(sock))
            assert failure.value.code is ErrorCode.MALFORMED_REQUEST
            assert sock.recv(1) == b""  # framing is unrecoverable: closed
        assert server.stats()["malformed_frames"] == 1


def test_zero_length_frame_is_malformed():
    with serve(_gateway()) as server:
        with socket.create_connection(parse_endpoint(server.url), timeout=2.0) as sock:
            sock.settimeout(2.0)
            sock.sendall((0).to_bytes(FRAME_HEADER_BYTES, "big"))
            with pytest.raises(SmacsError) as failure:
                codec.decode_response_envelope(_read_frame(sock))
            assert failure.value.code is ErrorCode.MALFORMED_REQUEST


def test_garbage_payload_is_answered_not_fatal():
    # A well-framed but undecodable payload is the gateway's problem, not the
    # transport's: the connection survives and the next request works.
    with serve(_gateway()) as server:
        with socket.create_connection(parse_endpoint(server.url), timeout=2.0) as sock:
            sock.settimeout(2.0)
            sock.sendall(_framed(b"\x00\xff\x00\xff"))
            with pytest.raises(SmacsError) as failure:
                codec.decode_response_envelope(_read_frame(sock))
            assert failure.value.code is ErrorCode.MALFORMED_REQUEST
            sock.sendall(_framed(_submit_envelope()))
            answer = codec.decode_response_envelope(_read_frame(sock))
            assert codec.decode_issuance_result(answer["results"][0]).issued


#: well-formed frames that are nothing but container openers: 10 KB of nested
#: one-element lists in the binary lane, 100,000 ``[`` in the JSON lane
NESTED_FRAMES = {
    codec.CODEC_BINARY: codec.BINARY_MAGIC
    + bytes([codec.BINARY_VERSION])
    + b"[" * 5000
    + b"0"
    + b"]" * 5000,
    codec.CODEC_JSON: b'{"smacs": 1, "op": "submit", "route": "r", "body": ' + b"[" * 100_000,
}

#: a ``health`` request in the retired tag-length-value binary lane (version
#: byte 1), as its encoder wrote it
TLV_HEALTH_FRAME = b"\xc5SB\x01\x08\x03\x02op\x05\x06health\x05route\x05\x00\x04body\x08\x00"

#: a JSON request whose integer literal is past the interpreter's 4,300-digit
#: limit for converting text to ``int``
HUGE_INT_FRAME = (
    b'{"smacs": 1, "op": "submit", "route": "r", "body": {"n": ' + b"7" * 5000 + b"}}"
)


@pytest.mark.parametrize("lane", codec.CODECS)
def test_a_nested_envelope_is_refused_and_the_connection_lives(lane):
    # Used to raise RecursionError out of the decoder: the handler task died,
    # the socket closed unanswered and the frame was never counted.
    with serve(_gateway()) as server:
        with socket.create_connection(parse_endpoint(server.url), timeout=2.0) as sock:
            sock.settimeout(5.0)
            sock.sendall(_framed(NESTED_FRAMES[lane]))
            answer = _read_frame(sock)
            assert codec.sniff_codec(answer) == lane  # answered in its own lane
            with pytest.raises(SmacsError) as failure:
                codec.decode_response_envelope(answer)
            assert failure.value.code is ErrorCode.MALFORMED_REQUEST
            assert "nested too deeply" in str(failure.value)
            sock.sendall(_framed(_submit_envelope(lane=lane)))
            answer = codec.decode_response_envelope(_read_frame(sock))
            assert codec.decode_issuance_result(answer["results"][0]).issued
        stats = server.stats()
        assert (stats["malformed_frames"], stats["frames_served"]) == (1, 2)
        assert stats["connections_accepted"] == 1


@pytest.mark.parametrize("lane", codec.CODECS)
def test_a_nested_envelope_is_answered_in_process_too(lane):
    transport = InProcessTransport(_gateway())
    with pytest.raises(SmacsError) as failure:
        codec.decode_response_envelope(transport.send(NESTED_FRAMES[lane]))
    assert failure.value.code is ErrorCode.MALFORMED_REQUEST
    answer = codec.decode_response_envelope(transport.send(_submit_envelope(lane=lane)))
    assert codec.decode_issuance_result(answer["results"][0]).issued


def test_a_tag_length_value_frame_is_unsupported_in_process_and_over_tcp():
    def assert_unsupported(answer: bytes) -> None:
        assert codec.sniff_codec(answer) == codec.CODEC_BINARY
        with pytest.raises(SmacsError) as failure:
            codec.decode_response_envelope(answer)
        assert failure.value.code is ErrorCode.UNSUPPORTED

    gateway = _gateway()
    assert_unsupported(InProcessTransport(gateway).send(TLV_HEALTH_FRAME))
    with serve(gateway) as server:
        with socket.create_connection(parse_endpoint(server.url), timeout=2.0) as sock:
            sock.settimeout(2.0)
            sock.sendall(_framed(TLV_HEALTH_FRAME))
            assert_unsupported(_read_frame(sock))
        # The JSON lane's version, which describe reports, is unchanged.
        client = connect(server.url, ROUTE)
        try:
            assert client.describe()["version"] == 1 == codec.WIRE_VERSION
        finally:
            client.close()


def test_an_integer_past_the_digit_limit_is_malformed_and_the_connection_lives():
    # Used to raise a bare ValueError out of the decoder: the protocol
    # callback died and the socket closed unanswered.
    with serve(_gateway()) as server:
        with socket.create_connection(parse_endpoint(server.url), timeout=2.0) as sock:
            sock.settimeout(5.0)
            sock.sendall(_framed(HUGE_INT_FRAME))
            with pytest.raises(SmacsError) as failure:
                codec.decode_response_envelope(_read_frame(sock))
            assert failure.value.code is ErrorCode.MALFORMED_REQUEST
            sock.sendall(_framed(_submit_envelope()))
            answer = codec.decode_response_envelope(_read_frame(sock))
            assert codec.decode_issuance_result(answer["results"][0]).issued
        stats = server.stats()
        assert (stats["malformed_frames"], stats["frames_served"]) == (1, 2)


def test_oversized_request_is_rejected_client_side():
    transport = TcpTransport("tcp://127.0.0.1:9", max_frame_bytes=64)
    with pytest.raises(SmacsError) as failure:
        transport.send(b"x" * 65)
    assert failure.value.code is ErrorCode.MALFORMED_REQUEST
    assert DEFAULT_MAX_FRAME_BYTES == 8 * 1024 * 1024


# --- fuzz: byte streams against a live server ---------------------------------------

_FUZZ_MAX_FRAME = 2048
_FUZZ_IDLE = 0.25


def _describe_envelope(lane: str) -> bytes:
    return codec.encode_request_envelope("describe", ROUTE, {}, codec=lane)


#: what a stream is made of: frames the server must serve, frames it must
#: refuse, and bytes that are no frame at all
_PIECES = st.one_of(
    st.sampled_from(codec.CODECS).map(lambda lane: _framed(_submit_envelope(lane=lane))),
    st.sampled_from(codec.CODECS).map(lambda lane: _framed(_describe_envelope(lane))),
    st.binary(min_size=1, max_size=24).map(_framed),  # well framed, undecodable
    st.just((0).to_bytes(FRAME_HEADER_BYTES, "big")),  # zero length
    st.integers(_FUZZ_MAX_FRAME + 1, 2**32 - 1).map(
        lambda length: length.to_bytes(FRAME_HEADER_BYTES, "big")  # oversize
    ),
    st.binary(min_size=1, max_size=12),  # garbage where a header should be
)


def _modelled_answers(stream: bytes) -> "tuple[list[bytes], bool]":
    """The payload of every complete frame in ``stream`` up to (and with) the
    first unframeable header, and whether that header ends the connection."""
    payloads, offset = [], 0
    while len(stream) - offset >= FRAME_HEADER_BYTES:
        length = int.from_bytes(stream[offset:offset + FRAME_HEADER_BYTES], "big")
        if not 0 < length <= _FUZZ_MAX_FRAME:
            return payloads, True
        offset += FRAME_HEADER_BYTES
        if len(stream) - offset < length:
            break  # a body cut short is never answered
        payloads.append(stream[offset:offset + length])
        offset += length
    return payloads, False


def _expect_eof(sock: socket.socket) -> None:
    try:
        assert sock.recv(1) == b"", "bytes after the last answer"
    except ConnectionResetError:
        pass  # closed with our unread garbage still queued: a close all the same


def test_framing_fuzz_every_frame_is_answered_and_the_server_returns_to_rest():
    """Header cut at 1-3 bytes, body cut short, then the socket closed or left
    idle; oversize and zero lengths; a valid frame followed by garbage; a
    stream dripped one byte per write; several frames in one segment.  Every
    complete frame is answered in order and in its lane (refusals as
    ``MALFORMED_REQUEST``), a fresh connection is served while the fuzzed one
    is still open, and afterwards no connection and no admission slot is
    left held.  A peer that half-closes right after its last byte still reads
    every answer before the close.  Run once behind the dispatcher thread and
    once on the loop thread."""
    _framing_fuzz(dispatched=True)
    _framing_fuzz(dispatched=False)


def _framing_fuzz(*, dispatched: bool) -> None:
    gateway = _gateway(dispatched=dispatched)
    admission = gateway.admission
    served = {
        envelope
        for lane in codec.CODECS
        for envelope in (_submit_envelope(lane=lane), _describe_envelope(lane))
    }

    with serve(gateway, max_frame_bytes=_FUZZ_MAX_FRAME, idle_timeout=_FUZZ_IDLE) as server:
        address = parse_endpoint(server.url)

        @given(
            pieces=st.lists(_PIECES, min_size=1, max_size=4),
            cut=st.integers(0, 3),
            drip=st.booleans(),
            leave_idle=st.booleans(),
            half_close=st.booleans(),
        )
        @example(
            pieces=[_framed(_submit_envelope())], cut=0, drip=True, leave_idle=False,
            half_close=False,
        )
        @example(
            pieces=[_framed(_submit_envelope())] * 2, cut=1, drip=False, leave_idle=True,
            half_close=False,
        )
        @example(
            pieces=[_framed(_submit_envelope())[:3]], cut=0, drip=False, leave_idle=True,
            half_close=False,
        )
        @example(
            pieces=[_framed(_submit_envelope())] * 4, cut=0, drip=False, leave_idle=False,
            half_close=True,
        )
        @example(
            pieces=[_framed(_describe_envelope("binary"))] * 3 + [_framed(_submit_envelope())],
            cut=2, drip=False, leave_idle=True, half_close=True,
        )
        @example(
            pieces=[_framed(codec.BINARY_MAGIC)], cut=0, drip=False, leave_idle=False,
            half_close=False,
        )
        @settings(max_examples=25, deadline=None)
        def run(pieces, cut, drip, leave_idle, half_close):
            stream = b"".join(pieces)
            stream = stream[:len(stream) - cut] or stream[:1]
            payloads, unframeable = _modelled_answers(stream)
            with socket.create_connection(address, timeout=5.0) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                write = 1 if drip else len(stream)
                try:
                    for start in range(0, len(stream), write):
                        sock.sendall(stream[start:start + write])
                except (BrokenPipeError, ConnectionResetError):
                    # Only a header that cannot be framed lets the server hang
                    # up on a sender; its answers are still there to be read.
                    assert unframeable
                half_close = half_close and not unframeable
                if half_close:
                    sock.shutdown(socket.SHUT_WR)  # every answer is still owed
                for payload in payloads:
                    answer = _read_frame(sock)
                    assert codec.sniff_codec(answer) == codec.reply_codec(payload)
                    if payload in served:
                        codec.decode_response_envelope(answer)
                    else:
                        with pytest.raises(SmacsError) as refusal:
                            codec.decode_response_envelope(answer)
                        # The magic followed by another version's byte is a
                        # protocol this server does not speak, not garbage (the
                        # magic with nothing after it is a truncated envelope).
                        other_version = (
                            payload[:3] == codec.BINARY_MAGIC
                            and payload[3:4] not in (b"", bytes([codec.BINARY_VERSION]))
                        )
                        assert refusal.value.code is (
                            ErrorCode.UNSUPPORTED if other_version else ErrorCode.MALFORMED_REQUEST
                        )
                if unframeable:
                    with pytest.raises(SmacsError) as refusal:
                        codec.decode_response_envelope(_read_frame(sock))
                    assert refusal.value.code is ErrorCode.MALFORMED_REQUEST
                # Whatever this connection is waiting for, the server is not.
                with socket.create_connection(address, timeout=5.0) as fresh:
                    fresh.sendall(_framed(_describe_envelope("json")))
                    assert ROUTE in codec.decode_response_envelope(_read_frame(fresh))["routes"]
                if not (unframeable or leave_idle or half_close):
                    sock.shutdown(socket.SHUT_WR)
                _expect_eof(sock)  # closed by the server: on EOF, or past idle_timeout

        run()
        deadline = time.monotonic() + 5.0
        while server.stats()["connections_open"]:
            assert time.monotonic() < deadline, server.stats()
            time.sleep(0.01)
        assert admission is None or admission.stats()["inflight"] == 0
        stats = server.stats()
        assert stats["frames_served"] > 0 and stats["malformed_frames"] > 0
        assert stats["idle_closes"] > 0


def test_a_service_with_mismatched_key_halves_answers_internal_over_tcp():
    """The session check fails closed on the wire too: ``INTERNAL``, the
    connection stays usable, and the reserved range is burned."""
    from repro.core.token_service import TokenService

    service = TokenService(
        keypair=KeyPair(
            KeyPair.from_seed("transport-ts").private, KeyPair.from_seed("not-it").public
        )
    )
    gateway = ServiceGateway()
    gateway.register(ROUTE, service)
    with serve(gateway) as server:
        client = connect(server.url)
        try:
            for burned in (2, 4):
                with pytest.raises(SmacsError) as failure:
                    client.submit([_request(one_time=True), _request(), _request(one_time=True)])
                assert failure.value.code is ErrorCode.INTERNAL
                assert service.counter.value == burned
            assert service.issued_count == 0
        finally:
            client.close()
    assert list(service.counter.take(1)) == [4]


# --- fault: slow reader (backpressure) ----------------------------------------------


def test_slow_reader_is_disconnected_and_others_stay_served():
    # Deny-everything rules make each submit cheap (no signing), so one frame
    # can fan out to a large response without crypto cost dominating.
    nobody = RuleSet()
    nobody.add_rule(WhitelistRule([], name="nobody"))
    gateway = _gateway(rules=nobody)
    with serve(gateway, write_timeout=0.3) as server:
        slow = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            slow.connect(parse_endpoint(server.url))
            slow.settimeout(5.0)
            frame = _framed(_submit_envelope(batch=400))
            # Pipeline many large-response requests and never read a byte:
            # the kernel buffers fill, drain() stalls past write_timeout and
            # the server cuts the connection instead of buffering forever.
            deadline = time.monotonic() + 15.0
            while server.stats()["backpressure_closes"] < 1:
                assert time.monotonic() < deadline, "backpressure never triggered"
                try:
                    slow.sendall(frame)
                except (socket.timeout, OSError):
                    time.sleep(0.05)  # our send side jammed; wait for the cut
            assert server.stats()["backpressure_closes"] == 1
        finally:
            slow.close()
        # The event loop was never blocked: a well-behaved client is served.
        client = connect(server.url)
        try:
            assert client.submit(_request())[0].code is ErrorCode.DENIED
        finally:
            client.close()


def test_a_pipelining_client_that_never_reads_is_held_to_the_read_ahead_bound():
    """The slow reader again, watched from inside: once its answers stop
    draining the server stops reading its socket, so what it holds unserved
    stays under the bound plus one socket read (or one frame, if larger), and
    the write timeout still cuts it."""
    nobody = RuleSet()
    nobody.add_rule(WhitelistRule([], name="nobody"))
    frame = _framed(_submit_envelope(batch=400))
    ceiling = READ_AHEAD_BYTES + max(len(frame), 256 * 1024)
    with serve(_gateway(rules=nobody), write_timeout=0.3) as server:
        slow = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            slow.connect(parse_endpoint(server.url))
            slow.settimeout(0.05)
            held = 0
            deadline = time.monotonic() + 15.0
            while server.stats()["backpressure_closes"] < 1:
                assert time.monotonic() < deadline, "backpressure never triggered"
                try:
                    slow.sendall(frame)
                except (socket.timeout, OSError):
                    pass  # our send side jammed: the server has stopped reading
                held = max([held] + [len(c.buffer) for c in list(server._connections)])
            assert READ_AHEAD_BYTES < held <= ceiling
            stats = server.stats()
            assert (stats["backpressure_closes"], stats["read_pauses"]) == (1, 1)
        finally:
            slow.close()


@pytest.mark.parametrize("dispatched", [False, True], ids=["loop-thread", "dispatcher"])
def test_a_one_mebibyte_frame_round_trips_without_a_read_pause(dispatched):
    # Far past the read-ahead bound, but nothing holds the connection while
    # the frame is still arriving: the bound is on bytes that *cannot* be served.
    gateway = _gateway(dispatched=dispatched)
    big = codec.encode_request_envelope("describe", ROUTE, {"pad": "x" * (1 << 20)})
    with serve(gateway) as server:
        with socket.create_connection(parse_endpoint(server.url), timeout=5.0) as sock:
            for _ in range(2):
                sock.sendall(_framed(big))
                assert ROUTE in codec.decode_response_envelope(_read_frame(sock))["routes"]
        stats = server.stats()
        assert (stats["frames_served"], stats["read_pauses"]) == (2, 0)
        assert stats["bytes_received"] == 2 * (FRAME_HEADER_BYTES + len(big))


def test_a_busy_connection_stops_reading_past_the_bound_and_resumes_as_it_drains():
    gateway = _gateway(dispatched=True)
    release, handle = threading.Event(), gateway.handle

    def parked(request):
        assert release.wait(10.0)
        return handle(request)

    # On the instance, as the ledger's tracer does: looked up frame by frame.
    gateway.handle = parked
    padded = _framed(codec.encode_request_envelope("describe", ROUTE, {"pad": "x" * 4000}))
    pipelined = 3 * READ_AHEAD_BYTES // len(padded)
    with serve(gateway) as server:
        with socket.create_connection(parse_endpoint(server.url), timeout=5.0) as sock:
            sock.sendall(_framed(_describe_envelope("json")))  # parks the dispatcher
            sock.sendall(padded * pipelined)
            deadline = time.monotonic() + 5.0
            while server.stats()["read_pauses"] < 1:
                assert time.monotonic() < deadline, server.stats()
                time.sleep(0.01)
            (connection,) = server._connections
            assert READ_AHEAD_BYTES < len(connection.buffer) <= READ_AHEAD_BYTES + 256 * 1024
            assert server.stats()["frames_served"] == 0
            release.set()
            for _ in range(1 + pipelined):
                assert ROUTE in codec.decode_response_envelope(_read_frame(sock))["routes"]
            # Drained: the socket is read again.
            sock.sendall(_framed(_describe_envelope("binary")))
            assert ROUTE in codec.decode_response_envelope(_read_frame(sock))["routes"]
            assert not connection.read_paused and not connection.buffer
        assert server.stats()["frames_served"] == 2 + pipelined


# --- deadlines: per frame, not per byte ---------------------------------------------


def _drip_until_closed(sock: socket.socket, data: bytes, interval: float) -> float:
    """Write ``data`` one byte per ``interval`` until the server hangs up;
    seconds from the first byte to the close."""
    sock.settimeout(interval)
    started = time.monotonic()
    for byte in data:
        try:
            sock.sendall(bytes([byte]))
            if sock.recv(1) == b"":
                return time.monotonic() - started
            raise AssertionError("a dripped, incomplete frame was answered")
        except socket.timeout:
            continue  # the wait between two bytes
        except OSError:
            return time.monotonic() - started
    raise AssertionError(f"still open after {len(data)} dripped bytes")


def test_a_dripped_header_is_an_idle_close_and_a_dripped_body_a_malformed_frame():
    """A clock reset by every byte would let one byte per 0.4 x idle_timeout
    hold a connection for ever.  The header's deadline runs from the accept
    (or the previous answer), the body's from its header."""
    idle = 0.5
    with serve(_gateway(), idle_timeout=idle) as server:
        address = parse_endpoint(server.url)
        with socket.create_connection(address, timeout=2.0) as sock:
            header = (64).to_bytes(FRAME_HEADER_BYTES, "big")
            assert _drip_until_closed(sock, header + b"x" * 8, 0.4 * idle) < 2 * idle
        stats = server.stats()
        assert (stats["idle_closes"], stats["malformed_frames"]) == (1, 0)
        with socket.create_connection(address, timeout=2.0) as sock:
            sock.sendall((64).to_bytes(FRAME_HEADER_BYTES, "big"))
            assert _drip_until_closed(sock, b"x" * 16, 0.4 * idle) < 2 * idle
        stats = server.stats()
        assert (stats["idle_closes"], stats["malformed_frames"]) == (1, 1)
        assert stats["frames_served"] == 0


@pytest.mark.parametrize("dispatched", [False, True], ids=["loop-thread", "dispatcher"])
def test_a_frame_inside_handle_longer_than_the_idle_timeout_is_not_an_idle_close(dispatched):
    idle = 0.2
    gateway = _gateway(dispatched=dispatched)
    handle = gateway.handle

    def slow(request):
        time.sleep(2.5 * idle)
        return handle(request)

    gateway.handle = slow
    with serve(gateway, idle_timeout=idle) as server:
        with socket.create_connection(parse_endpoint(server.url), timeout=5.0) as sock:
            for lane in codec.CODECS:  # the second proves the connection outlived the first
                sock.sendall(_framed(_describe_envelope(lane)))
                assert ROUTE in codec.decode_response_envelope(_read_frame(sock))["routes"]
            assert server.stats()["idle_closes"] == 0
            sock.settimeout(5.0)
            assert sock.recv(1) == b""  # and idles out once nothing is owed
        stats = server.stats()
        assert (stats["idle_closes"], stats["frames_served"]) == (1, 2)


# --- count guard: the frame path ----------------------------------------------------


@pytest.mark.parametrize("dispatched", [False, True], ids=["loop-thread", "dispatcher"])
def test_serving_a_frame_creates_no_task_no_wait_for_and_no_timer(dispatched, monkeypatch):
    """After a connection's first frame, a frame is plain calls from the
    socket callback to the response write: with a dispatcher exactly one
    ``run_in_executor``, without one nothing the loop could be asked for."""
    gateway = _gateway(dispatched=dispatched)
    asked: "Counter[str]" = Counter()

    def counting(name, function):
        def counted(*args, **kwargs):
            asked[name] += 1
            return function(*args, **kwargs)

        return counted

    def task_factory(loop, coro, **kwargs):
        asked["tasks"] += 1
        return asyncio.Task(coro, loop=loop, **kwargs)

    with serve(gateway) as server:
        with socket.create_connection(parse_endpoint(server.url), timeout=5.0) as sock:
            sock.sendall(_framed(_submit_envelope()))
            codec.decode_response_envelope(_read_frame(sock))
            loop = server._loop
            loop.set_task_factory(task_factory)
            monkeypatch.setattr(asyncio, "wait_for", counting("wait_for", asyncio.wait_for))
            for name in ("call_at", "run_in_executor"):  # call_later is a call_at
                monkeypatch.setattr(loop, name, counting(name, getattr(loop, name)))
            for lane in codec.CODECS * 50:
                sock.sendall(_framed(_submit_envelope(lane=lane)))
                codec.decode_response_envelope(_read_frame(sock))
            assert asked == ({"run_in_executor": 100} if dispatched else {})
        assert server.stats()["frames_served"] == 101


# --- discovery integration ----------------------------------------------------------


def test_dial_resolves_contract_metadata_to_a_live_wire_client(chain, owner):
    from repro.contracts.protected_target import ProtectedRecorder
    from repro.core import OwnerWallet

    service = build_service(
        "serial", keypair=KeyPair.from_seed("transport-ts"), clock=chain.clock
    )
    gateway = ServiceGateway()
    with serve(gateway) as server:
        gateway.register(server.url, service)
        contract = OwnerWallet(owner, service).deploy_protected(
            ProtectedRecorder, one_time_bitmap_bits=1024, ts_url=server.url
        ).return_value

        discovery = ServiceDiscovery(chain, dialer=dial)
        issuer = discovery.resolve(contract.this)
        assert issuer is not None
        assert issuer.submit(_request())[0].issued
        # Cached: resolving twice dials once.
        assert discovery.resolve(contract.this) is issuer
        issuer.close()


def test_dial_returns_none_for_foreign_schemes_and_dead_hosts():
    assert dial("https://ts.example.org") is None
    assert dial("tcp://127.0.0.1:9") is None
