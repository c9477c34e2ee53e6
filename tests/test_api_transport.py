"""The real wire: framing, fault injection and backpressure on the TCP path.

The conformance suite proves a ``tcp-*`` stack is indistinguishable from the
in-process stacks when everything goes right; this file is about everything
going wrong.  Dead endpoints, servers vanishing mid-batch, malformed and
oversized frames, slow readers and idle connections must all map onto stable
:class:`~repro.core.errors.ErrorCode` values -- and the client must never
hang (every receive is bounded by ``request_timeout``).
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.api import (
    ErrorCode,
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
    TcpTransport,
    endpoint_url,
    parse_endpoint,
)
from repro.core.acr import RuleSet, WhitelistRule
from repro.core.discovery import ServiceDiscovery
from repro.core.token_request import TokenRequest
from repro.crypto.keys import KeyPair

ROUTE = "tcp-test-route"


def _gateway(*, rules: "RuleSet | None" = None, profile: str = "serial"):
    service = build_service(
        profile,
        keypair=KeyPair.from_seed("transport-ts"),
        rules=rules if rules is not None else RuleSet(),
    )
    gateway = ServiceGateway()
    gateway.register(ROUTE, service)
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
    with serve(_gateway()) as server:
        client = connect(
            ["tcp://127.0.0.1:9", server.url], route=ROUTE, connect_timeout=0.5
        )
        try:
            for _ in range(3):  # round-robin keeps landing on the dead one first
                assert client.submit(_request())[0].issued
            assert client.stats()["transport"]["failovers"] >= 1
        finally:
            client.close()


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
    + bytes([codec.WIRE_VERSION])
    + b"\x07\x01" * 5000
    + b"\x00",
    codec.CODEC_JSON: b'{"smacs": 1, "op": "submit", "route": "r", "body": ' + b"[" * 100_000,
}


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


def test_oversized_request_is_rejected_client_side():
    transport = TcpTransport("tcp://127.0.0.1:9", max_frame_bytes=64)
    with pytest.raises(SmacsError) as failure:
        transport.send(b"x" * 65)
    assert failure.value.code is ErrorCode.MALFORMED_REQUEST
    assert DEFAULT_MAX_FRAME_BYTES == 8 * 1024 * 1024


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


# --- edge rate limiting -------------------------------------------------------------


def test_edge_rate_limit_answers_rate_limited_envelopes():
    fake = {"t": 0.0}
    with serve(
        _gateway(), rate_limit=(10, 3), now=lambda: fake["t"]
    ) as server:
        client = connect(server.url)  # the route-discovery probe spends 1 token
        try:
            assert client.submit(_request())[0].issued
            assert client.submit(_request())[0].issued
            with pytest.raises(SmacsError) as failure:
                client.submit(_request())
            assert failure.value.code is ErrorCode.RATE_LIMITED
            assert failure.value.retryable
            assert server.stats()["frames_limited"] == 1
            fake["t"] += 1.0  # refill the edge bucket
            assert client.submit(_request())[0].issued
        finally:
            client.close()


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
