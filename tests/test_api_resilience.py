"""Resilience behaviour at the wire: deadlines, overload, breakers, retries.

``test_resilience.py`` proves the primitives in isolation; this file proves
them *wired through the seams*: the gateway sheds expired deadlines before
issuance and overload before dispatch (with ``retry_after_s`` hints the
client honors), the mempool sheds dead work before signature recovery, the
TCP transport's per-endpoint breakers eject dead servers and re-close after
probing, and a server restart on the same port is invisible to pooled
clients (stale sockets redial; only requests that received zero response
bytes are replayed).
"""

from __future__ import annotations

import socket
import sys
import threading

import pytest

from repro.api import (
    AdmissionController,
    Backoff,
    ErrorCode,
    GatewayClient,
    InProcessTransport,
    IssuerMiddleware,
    ServiceGateway,
    SmacsError,
    build_service,
    codec,
    connect,
    serve,
)
from repro.api.transport import FRAME_HEADER_BYTES, TcpTransport, endpoint_url
from repro.chain import Blockchain
from repro.chain.transaction import Transaction
from repro.core.acr import RuleSet
from repro.core.token_request import TokenRequest
from repro.crypto.keys import KeyPair
from repro.pipeline.mempool import Mempool
from repro.resilience import BREAKER_CLOSED, BREAKER_OPEN

ROUTE = "https://ts.resilience.example"


def _gateway(**gateway_kwargs) -> ServiceGateway:
    service = build_service(
        "serial", keypair=KeyPair.from_seed("resilience-ts"), rules=RuleSet()
    )
    gateway = ServiceGateway(**gateway_kwargs)
    gateway.register(ROUTE, service)
    return gateway


def _request() -> TokenRequest:
    return TokenRequest.method_token(
        b"\xaa" * 20, b"\xbb" * 20, "submit", one_time=True
    )


def _submit_body() -> dict:
    return {"requests": [codec.encode_token_request(_request())]}


class _ScriptedTransport:
    """Answers ``send`` from a fixed script of envelopes and exceptions."""

    def __init__(self, script):
        self.script = list(script)
        self.sent: list[bytes] = []

    def send(self, raw: bytes) -> bytes:
        self.sent.append(raw)
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    def close(self) -> None:
        pass

    def describe(self):
        return {"kind": "scripted"}


# --- the deadline envelope field ----------------------------------------------------


@pytest.mark.parametrize("lane", sorted(codec.CODECS))
def test_deadline_field_round_trips_in_both_codec_lanes(lane):
    stamped = codec.encode_request_envelope(
        "submit", ROUTE, _submit_body(), codec=lane, deadline=1234.5
    )
    request = codec.decode_request_full(stamped)
    assert (request.op, request.route, request.deadline) == ("submit", ROUTE, 1234.5)
    # A deadline-less envelope carries no trace of the field at all: legacy
    # peers and deadline-bearing peers produce interchangeable bytes.
    bare = codec.encode_request_envelope("submit", ROUTE, _submit_body(), codec=lane)
    assert codec.decode_request_full(bare).deadline is None
    assert b"deadline" not in bare


def test_gateway_sheds_expired_deadlines_before_any_dispatch():
    gateway = _gateway(now=lambda: 1000.0)
    raw = codec.encode_request_envelope(
        "submit", ROUTE, _submit_body(), deadline=999.0
    )
    with pytest.raises(SmacsError) as failure:
        codec.decode_response_envelope(InProcessTransport(gateway).send(raw))
    assert failure.value.code is ErrorCode.DEADLINE_EXCEEDED
    assert not failure.value.retryable  # the budget is gone; a retry stays dead
    assert "gateway" in str(failure.value)
    assert gateway.shed["deadline"] == 1
    # An unexpired deadline is invisible.
    live = codec.encode_request_envelope(
        "submit", ROUTE, _submit_body(), deadline=1001.0
    )
    payload = codec.decode_response_envelope(InProcessTransport(gateway).send(live))
    results = [codec.decode_issuance_result(item) for item in payload["results"]]
    assert results[0].issued


def test_gateway_rechecks_the_deadline_at_the_issuance_stage():
    # The clock advances between the envelope-decode check and the
    # pre-issuance check: request-body decode ate the remaining budget.
    clock = {"t": 1000.0}

    def ticking_now():
        clock["t"] += 0.4
        return clock["t"]

    gateway = _gateway(now=ticking_now)
    # Alive at the gateway check (t=1000.4), dead at the issuance re-check
    # (t=1000.8): exactly the window the second checkpoint exists for.
    raw = codec.encode_request_envelope(
        "submit", ROUTE, _submit_body(), deadline=1000.6
    )
    with pytest.raises(SmacsError) as failure:
        codec.decode_response_envelope(InProcessTransport(gateway).send(raw))
    assert failure.value.code is ErrorCode.DEADLINE_EXCEEDED
    assert "issuance" in str(failure.value)
    assert gateway.shed["deadline"] == 1


def test_mempool_sheds_expired_deadlines_before_signature_recovery():
    chain = Blockchain(auto_mine=False)
    mempool = Mempool(chain)
    mempool.wall_clock = lambda: 1000.0
    sender = chain.create_account(seed="deadline-sender")
    sink = chain.create_account(seed="deadline-sink")
    tx = Transaction(
        sender=sender.address, to=sink.address, nonce=0, value=0
    ).sign_with(sender.keypair)
    decision = mempool.admit(tx, deadline=999.0)
    assert not decision.admitted
    assert mempool.rejected == {"deadline exceeded before admission": 1}
    # The same transaction with budget left admits cleanly (the shed never
    # consumed its nonce, reserved an index or touched the pool).
    assert mempool.admit(tx, deadline=1001.0).admitted


# --- adaptive admission control at the gateway edge ---------------------------------


def test_gateway_sheds_overload_with_a_retry_after_hint():
    admission = AdmissionController(target_delay_s=0.01, initial_service_s=1.0)
    gateway = _gateway(admission=admission)
    client = gateway.client_for(ROUTE)
    assert client.submit(_request())[0].issued  # uncontended: invisible
    assert admission.admit() is None  # hold a slot: ~1s estimated delay
    with pytest.raises(SmacsError) as failure:
        client.submit(_request())
    assert failure.value.code is ErrorCode.OVERLOADED
    assert failure.value.retryable
    assert failure.value.retry_after_s is not None
    assert failure.value.retry_after_s > 0
    assert gateway.shed["overloaded"] == 1
    # The control plane is never shed: an overloaded gateway still answers
    # health (and reports the shedding it is doing).
    health = client.health()
    assert health["status"] == "ok"
    assert health["admission"]["shed"] == 1
    admission.observe(None)  # the held slot drains: traffic flows again
    assert client.submit(_request())[0].issued


def test_failed_dispatches_release_their_admission_slot():
    admission = AdmissionController(target_delay_s=10.0, initial_service_s=0.001)
    gateway = _gateway(admission=admission)
    for raw, expected in [
        (
            codec.encode_request_envelope("submit", ROUTE, {"requests": "nope"}),
            ErrorCode.MALFORMED_REQUEST,
        ),
        (
            codec.encode_request_envelope("submit", "no-such-route", _submit_body()),
            ErrorCode.UNKNOWN_ROUTE,
        ),
    ]:
        with pytest.raises(SmacsError) as failure:
            codec.decode_response_envelope(InProcessTransport(gateway).send(raw))
        assert failure.value.code is expected
    stats = admission.stats()
    assert stats["admitted"] == 2
    assert stats["inflight"] == 0  # both slots released despite the failures
    assert stats["service_ewma_s"] == 0.001  # failures never teach the EWMA


# --- one request path: arrive() on the read loop, handle() on exactly one thread ----


def test_every_frame_gets_the_same_answer_in_process_and_over_tcp():
    admission = AdmissionController(target_delay_s=0.01, initial_service_s=1.0)
    gateway = _gateway(admission=admission, now=lambda: 1000.0)
    reusable = {
        "requests": [
            codec.encode_token_request(
                TokenRequest.method_token(b"\xaa" * 20, b"\xbb" * 20, "submit")
            )
        ]
    }
    stale_version = b'{"smacs": 99, "op": "submit", "route": "r", "body": {}}'
    frames = [  # (raw frame, expected answer; None = served)
        (codec.encode_request_envelope("submit", ROUTE, reusable), None),
        (codec.encode_request_envelope("submit", ROUTE, reusable, codec="binary"), None),
        (b"\x00garbage", ErrorCode.MALFORMED_REQUEST),
        (stale_version, ErrorCode.UNSUPPORTED),
        (
            codec.encode_request_envelope("submit", ROUTE, reusable, deadline=999.0),
            ErrorCode.DEADLINE_EXCEEDED,
        ),
        (
            codec.encode_request_envelope("submit", ROUTE, reusable, codec="binary"),
            ErrorCode.OVERLOADED,
        ),
        (codec.encode_request_envelope("submit", "nowhere", reusable), ErrorCode.UNKNOWN_ROUTE),
    ]
    local = InProcessTransport(gateway)
    with serve(gateway) as server:
        remote = TcpTransport(server.url)
        try:
            for raw, expected in frames:
                if expected is ErrorCode.OVERLOADED:
                    assert admission.admit() is None  # a queued arrival holds the slot
                answers = [local.send(raw), remote.send(raw)]
                if expected is ErrorCode.OVERLOADED:
                    admission.observe(None)
                assert answers[0] == answers[1], expected
                assert codec.sniff_codec(answers[0]) == codec.reply_codec(raw)
                if expected is None:
                    assert codec.decode_response_envelope(answers[0])["results"][0]["token"]
                else:
                    with pytest.raises(SmacsError) as failure:
                        codec.decode_response_envelope(answers[0])
                    assert failure.value.code is expected
        finally:
            remote.close()
        # Only the deadline and overload refusals are shed load; undecodable
        # frames are answered from the same edge but held no slot to begin with.
        assert server.stats()["frames_shed"] == 2
        assert server.stats()["frames_served"] == len(frames)
    assert gateway.shed == {"deadline": 2, "overloaded": 2}
    stats = admission.stats()
    assert stats["inflight"] == 0
    assert stats["admitted"] == 1 + 2 * 3  # the held slot + served/unknown-route submits
    assert stats["shed"] == 2


def test_a_served_frame_is_decoded_exactly_once(monkeypatch):
    decoded = []
    decode = codec.decode_request_full
    monkeypatch.setattr(
        codec, "decode_request_full", lambda raw: decoded.append(raw) or decode(raw)
    )
    gateway = _gateway(admission=AdmissionController())
    with serve(gateway) as server:
        client = connect(server.url, ROUTE, wire_codec="binary")
        try:
            for _ in range(5):
                assert client.submit([_request()] * 4)[0].issued
        finally:
            client.close()
        assert len(decoded) == server.stats()["frames_served"] == 5


class _RecordingIssuer(IssuerMiddleware):
    """Notes the thread of every submit; optionally parks it on an event."""

    def __init__(self, inner, gate: "threading.Event | None" = None) -> None:
        super().__init__(inner)
        self.gate = gate
        self.entered = threading.Event()
        self.threads: list[int] = []

    def submit(self, requests):
        self.threads.append(threading.get_ident())
        self.entered.set()
        if self.gate is not None:
            assert self.gate.wait(timeout=10.0)
        return self.inner.submit(requests)


def test_the_read_loop_sheds_while_the_dispatch_thread_is_busy():
    admission = AdmissionController(target_delay_s=0.01, initial_service_s=1.0)
    gateway = ServiceGateway(admission=admission)
    gate = threading.Event()
    issuer = _RecordingIssuer(build_service("serial", rules=RuleSet()), gate)
    gateway.register(ROUTE, issuer)
    with serve(gateway) as server:
        first, second = connect(server.url, ROUTE), TcpTransport(server.url)
        outcome = []
        caller = threading.Thread(target=lambda: outcome.extend(first.submit(_request())))
        caller.start()
        try:
            assert issuer.entered.wait(timeout=10.0)  # the issuer is now blocked
            for raw, expected in [
                (
                    codec.encode_request_envelope("submit", ROUTE, _submit_body(), deadline=1.0),
                    ErrorCode.DEADLINE_EXCEEDED,
                ),
                (
                    codec.encode_request_envelope("submit", ROUTE, _submit_body()),
                    ErrorCode.OVERLOADED,  # the blocked call holds the slot
                ),
            ]:
                with pytest.raises(SmacsError) as failure:
                    codec.decode_response_envelope(second.send(raw))
                assert failure.value.code is expected
            # Both were answered on the read loop, before the first call returned.
            assert not outcome
            assert server.stats()["frames_shed"] == 2
        finally:
            gate.set()
            caller.join(timeout=10.0)
            assert not caller.is_alive()
            first.close()
            second.close()
    assert outcome[0].issued
    assert admission.stats()["inflight"] == 0


def test_concurrent_wire_clients_share_one_issuing_thread():
    admission = AdmissionController(target_delay_s=60.0)
    gateway = ServiceGateway(admission=admission)
    issuer = _RecordingIssuer(build_service("serial", rules=RuleSet()))
    gateway.register(ROUTE, issuer)
    indexes: list[int] = []

    def wallet(url: str) -> None:
        client = connect(url, ROUTE)
        try:
            for _ in range(25):
                indexes.append(client.submit(_request())[0].raise_if_failed().index)
        finally:
            client.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # a second issuing thread would now lose updates
    try:
        with serve(gateway) as server:
            wallets = [threading.Thread(target=wallet, args=(server.url,)) for _ in range(8)]
            for thread in wallets:
                thread.start()
            for thread in wallets:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in wallets)
    finally:
        sys.setswitchinterval(interval)
    assert len(indexes) == len(set(indexes)) == 200
    assert len(issuer.threads) == 200 and len(set(issuer.threads)) == 1
    assert issuer.threads[0] != threading.get_ident()
    stats = admission.stats()
    assert (stats["admitted"], stats["shed"], stats["inflight"]) == (200, 0, 0)


def test_the_dispatch_thread_exists_iff_the_gateway_has_admission_control():
    # Not an option: a gateway with nothing to shed with is served on the
    # loop thread (two fewer thread wake-ups per frame), one that can shed
    # gets the dispatch thread so the read loop stays free to do it.
    for admission, prefix in [(None, "smacs-gateway-"), (AdmissionController(), "gw-dispatch")]:
        gateway = ServiceGateway(admission=admission)
        issuer = _RecordingIssuer(build_service("serial", rules=RuleSet()))
        gateway.register(ROUTE, issuer)
        with serve(gateway) as server:
            client = connect(server.url, ROUTE)
            try:
                assert client.submit(_request())[0].issued
                assert client.submit(_request())[0].issued
            finally:
                client.close()
            names = {thread.ident: thread.name for thread in threading.enumerate()}
        assert len(set(issuer.threads)) == 1
        assert names[issuer.threads[0]].startswith(prefix)


# --- retry_after hints end to end (S1) ----------------------------------------------


def test_edge_rate_limit_carries_a_retry_after_hint():
    fake = {"t": 0.0}
    with serve(_gateway(), rate_limit=(10, 2), now=lambda: fake["t"]) as server:
        client = connect(server.url)  # the route-discovery probe spends 1 token
        try:
            assert client.submit(_request())[0].issued  # spends the 2nd token
            with pytest.raises(SmacsError) as failure:
                client.submit(_request())
            assert failure.value.code is ErrorCode.RATE_LIMITED
            assert failure.value.retry_after_s is not None
            # Rate 10/s, one token needed: the refill horizon is ~0.1s.
            assert failure.value.retry_after_s == pytest.approx(0.1, rel=0.01)
        finally:
            client.close()


def test_client_sleeps_the_server_hint_instead_of_guessing():
    ok = codec.encode_response_envelope(
        {"version": codec.WIRE_VERSION, "routes": [ROUTE]}
    )
    transport = _ScriptedTransport(
        [SmacsError("busy", ErrorCode.OVERLOADED, retry_after_s=0.123), ok]
    )
    slept: list[float] = []
    client = GatewayClient(
        transport,
        ROUTE,
        backoff=Backoff(
            retries=2, cap=1.0, codes=frozenset({ErrorCode.OVERLOADED}), sleep=slept.append
        ),
    )
    assert client.describe()["routes"] == [ROUTE]
    assert slept == [0.123]  # the hint, not a jitter draw
    assert client.retry_hints_honored == 1
    assert client.retries_performed == 1


def test_client_caps_the_server_hint_at_the_backoff_cap():
    ok = codec.encode_response_envelope(
        {"version": codec.WIRE_VERSION, "routes": [ROUTE]}
    )
    transport = _ScriptedTransport(
        [SmacsError("busy", ErrorCode.OVERLOADED, retry_after_s=60.0), ok]
    )
    slept: list[float] = []
    client = GatewayClient(
        transport,
        ROUTE,
        backoff=Backoff(
            retries=2, cap=0.25, codes=frozenset({ErrorCode.OVERLOADED}), sleep=slept.append
        ),
    )
    client.describe()
    assert slept == [0.25]  # a server cannot park a client for a minute


# --- client deadlines -------------------------------------------------------------


def test_client_stamps_envelopes_and_stops_retrying_at_the_deadline():
    clock = {"t": 100.0}
    ok = codec.encode_response_envelope(
        {"version": codec.WIRE_VERSION, "routes": [ROUTE]}
    )
    transport = _ScriptedTransport([ok])
    client = GatewayClient(transport, ROUTE, deadline_s=5.0, now=lambda: clock["t"])
    client.describe()
    deadline = codec.decode_request_full(transport.sent[0]).deadline
    assert deadline == pytest.approx(105.0)  # the absolute deadline, stamped

    # A retry loop whose pause outlives the budget stops locally: the dead
    # retry is never sent and the caller sees DEADLINE_EXCEEDED.
    failing = _ScriptedTransport([SmacsError("down", ErrorCode.UNAVAILABLE)] * 4)
    client = GatewayClient(
        failing,
        ROUTE,
        deadline_s=5.0,
        now=lambda: clock["t"],
        backoff=Backoff(retries=3, sleep=lambda _delay: clock.__setitem__("t", 200.0)),
    )
    with pytest.raises(SmacsError) as failure:
        client.describe()
    assert failure.value.code is ErrorCode.DEADLINE_EXCEEDED
    assert len(failing.sent) == 1
    with pytest.raises(ValueError):
        GatewayClient(failing, ROUTE, deadline_s=0.0)


# --- circuit breakers on the TCP pool (incl. the S4 restart regression) -------------


def test_stale_pooled_sockets_redial_transparently_across_a_restart():
    with serve(_gateway()) as server:
        port = server.port
        client = connect(server.url)
        assert client.submit(_request())[0].issued  # warms the pool
    # The server died and a replacement binds the same port.  The pooled
    # socket is now stale: the next request gets zero response bytes on it,
    # which is the one case that is provably safe to replay on a fresh dial.
    with serve(_gateway(), ("127.0.0.1", port)):
        try:
            assert client.submit(_request())[0].issued
            wire = client.transport.describe()
            assert wire["reconnects"] >= 1  # the stale checkout was redialed
            assert wire["breakers"][0]["state"] == BREAKER_CLOSED
        finally:
            client.close()


def test_breakers_fail_fast_and_reclose_after_probing():
    clock = {"t": 0.0}
    with serve(_gateway()) as server:
        port = server.port
        client = connect(
            server.url, connect_timeout=0.5, request_timeout=2.0, now=lambda: clock["t"]
        )
        assert client.submit(_request())[0].issued
    # Hard outage: consecutive dial failures trip the breaker...
    [breaker] = client.transport.breakers
    for _ in range(breaker.failure_threshold):
        with pytest.raises(SmacsError) as failure:
            client.submit(_request())
        assert failure.value.code is ErrorCode.UNAVAILABLE
        assert failure.value.retry_after_s is None  # real dials, really failing
    # ...after which the transport fails fast: no dial, no timeout wait,
    # just UNAVAILABLE with the next-probe horizon.
    with pytest.raises(SmacsError) as failure:
        client.submit(_request())
    assert failure.value.code is ErrorCode.UNAVAILABLE
    assert failure.value.retry_after_s == pytest.approx(breaker.reset_timeout)
    assert client.transport.describe()["breaker_skips"] == 1
    # The server comes back on the same port.  A probe sweep re-closes the
    # breaker immediately -- no waiting out the reset timeout, no user
    # traffic sacrificed to half-open discovery.
    with serve(_gateway(), ("127.0.0.1", port)):
        try:
            probed = client.transport.probe_endpoints()
            assert probed == {endpoint_url("127.0.0.1", port): True}
            assert breaker.state == BREAKER_CLOSED
            assert client.submit(_request())[0].issued
        finally:
            client.close()


def _answer_with_zero_length_frames(listener: socket.socket, count: int) -> None:
    """Accept ``count`` connections; read one frame on each and answer it
    with a frame of length 0 (a malformed answer, but an answer)."""
    for _ in range(count):
        conn, _peer = listener.accept()
        with conn:
            conn.settimeout(5.0)
            header = TcpTransport._recv_exactly(conn, FRAME_HEADER_BYTES)
            TcpTransport._recv_exactly(conn, int.from_bytes(header, "big"))
            conn.sendall((0).to_bytes(FRAME_HEADER_BYTES, "big"))
            conn.recv(1)  # until the client hangs up


def test_a_malformed_answer_releases_the_half_open_probe():
    """The probe of a half-open breaker is answered with a zero-length frame:
    that is an answer, so the endpoint is alive and the breaker closes.  (It
    used to keep the probe slot for ever: every later send was refused
    locally with ``retry_after_s`` 0.0, a spin for a hint-honouring client.)"""
    clock = {"t": 0.0}
    raw = codec.encode_request_envelope("describe", ROUTE, {})
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))  # bound, not listening: dials are refused
        listener.settimeout(5.0)
        transport = TcpTransport(
            endpoint_url(*listener.getsockname()),
            connect_timeout=0.5,
            request_timeout=2.0,
            now=lambda: clock["t"],
        )
        [breaker] = transport.breakers
        for _ in range(breaker.failure_threshold):
            with pytest.raises(SmacsError) as failure:
                transport.send(raw)
            assert failure.value.code is ErrorCode.UNAVAILABLE
        assert breaker.state == BREAKER_OPEN
        listener.listen()
        server = threading.Thread(target=_answer_with_zero_length_frames, args=(listener, 2))
        server.start()
        try:
            clock["t"] += breaker.reset_timeout  # the next send is the half-open probe
            for _ in range(2):
                with pytest.raises(SmacsError) as failure:
                    transport.send(raw)
                # Answered (badly) by the endpoint, not refused by the breaker.
                assert failure.value.code is ErrorCode.MALFORMED_REQUEST
                assert breaker.state == BREAKER_CLOSED
                clock["t"] += 200.0
        finally:
            server.join(timeout=10.0)
            transport.close()
        assert not server.is_alive()
        assert transport.describe()["breaker_skips"] == 0


def test_every_endpoint_always_has_a_breaker():
    transport = TcpTransport(["tcp://127.0.0.1:1", "tcp://127.0.0.1:2"])
    assert [breaker.state for breaker in transport.breakers] == [BREAKER_CLOSED] * 2
    with serve(_gateway()) as server:
        client = connect(server.url)
        try:
            assert client.submit(_request())[0].issued
            [breaker] = client.transport.describe()["breakers"]
            assert breaker["state"] == BREAKER_CLOSED
        finally:
            client.close()
