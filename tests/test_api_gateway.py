"""The service gateway: wire codec, envelopes, error paths, rule epochs."""

from __future__ import annotations

import json
import random

import pytest

from repro.api import (
    Backoff,
    DEFAULT_RETRY_CODES,
    ErrorCode,
    GatewayClient,
    InProcessTransport,
    RETRYABLE_CODES,
    ServiceGateway,
    SmacsError,
    TokenDenied,
    WIRE_VERSION,
    build_service,
)
from repro.api import codec
from repro.core import ClientWallet, OwnerWallet, TokenType
from repro.core.acr import AccessDecision, RuleSet, WhitelistRule
from repro.core.token_request import TokenRequest
from repro.core.token_service import IssuanceResult, TokenService
from repro.crypto.keys import KeyPair

ROUTE = "https://ts.gateway.example"


@pytest.fixture
def gateway(chain, ts_keypair):
    gateway = ServiceGateway()
    service = TokenService(keypair=ts_keypair, rules=RuleSet(), clock=chain.clock)
    gateway.register(ROUTE, service)
    return gateway


@pytest.fixture
def client(gateway):
    return gateway.client_for(ROUTE)


# --- codec round trips --------------------------------------------------------------


def test_token_request_round_trips_all_types(recorder, alice):
    requests = [
        TokenRequest.super_token(recorder.this, alice.address),
        TokenRequest.method_token(recorder.this, alice.address, "submit", one_time=True),
        TokenRequest.argument_token(
            recorder.this, alice.address, "transfer",
            {"amount": 7, "to": b"\x01" * 20, "memo": "hi", "flag": True},
        ),
    ]
    for request in requests:
        decoded = codec.decode_token_request(codec.encode_token_request(request))
        assert decoded == request
        # The Fig. 2 wire layout agrees too (same structured content).
        assert decoded.encode() == request.encode()


def test_issuance_result_round_trips(token_service, recorder, alice, eve):
    issued = token_service.submit(
        TokenRequest.method_token(recorder.this, alice.address, "submit", one_time=True)
    )[0]
    token_service.update_rules(
        lambda rules: rules.add_rule(WhitelistRule([alice.address]))
    )
    denied = token_service.submit(
        TokenRequest.method_token(recorder.this, eve.address, "submit")
    )[0]

    decoded_ok = codec.decode_issuance_result(codec.encode_issuance_result(issued))
    assert decoded_ok.issued
    assert decoded_ok.token.to_bytes() == issued.token.to_bytes()
    assert decoded_ok.request == issued.request

    decoded_denied = codec.decode_issuance_result(codec.encode_issuance_result(denied))
    assert not decoded_denied.issued
    assert decoded_denied.code is ErrorCode.DENIED
    assert isinstance(decoded_denied.error, TokenDenied)
    assert decoded_denied.decision.reason == denied.decision.reason


def test_unsafe_argument_values_are_rejected_at_encode_time(recorder, alice):
    class Opaque:
        pass

    request = TokenRequest.argument_token(
        recorder.this, alice.address, "m", {"x": Opaque()}
    )
    with pytest.raises(SmacsError) as excinfo:
        codec.encode_token_request(request)
    assert excinfo.value.code is ErrorCode.MALFORMED_REQUEST


def test_result_failure_decision_defaults_reference_the_code(recorder, alice):
    request = TokenRequest.method_token(recorder.this, alice.address, "submit")
    failure = IssuanceResult.failure(
        request, SmacsError("no quorum", ErrorCode.COUNTER_TIMEOUT)
    )
    assert failure.code is ErrorCode.COUNTER_TIMEOUT
    assert "COUNTER_TIMEOUT" in failure.decision.reason
    decoded = codec.decode_issuance_result(codec.encode_issuance_result(failure))
    assert decoded.code is ErrorCode.COUNTER_TIMEOUT
    assert decoded.error.retryable


# --- envelope / transport error paths -----------------------------------------------


def _error_of(raw: bytes) -> dict:
    envelope = json.loads(raw.decode())
    assert envelope["ok"] is False
    return envelope["error"]


def test_unknown_route_is_a_stable_error(gateway):
    raw = codec.encode_request_envelope("address", "https://nowhere.example", {})
    assert _error_of(InProcessTransport(gateway).send(raw))["code"] == "UNKNOWN_ROUTE"


def test_unknown_op_is_unsupported(gateway):
    raw = codec.encode_request_envelope("frobnicate", ROUTE, {})
    assert _error_of(InProcessTransport(gateway).send(raw))["code"] == "UNSUPPORTED"


def test_wrong_wire_version_is_unsupported(gateway):
    envelope = {"smacs": 99, "op": "address", "route": ROUTE, "body": {}}
    raw = json.dumps(envelope).encode()
    assert _error_of(InProcessTransport(gateway).send(raw))["code"] == "UNSUPPORTED"


def test_garbage_bytes_are_malformed_not_a_crash(gateway):
    assert _error_of(InProcessTransport(gateway).send(b"\xff\x00 not json"))["code"] == "MALFORMED_REQUEST"


def test_malformed_submit_body(gateway):
    raw = codec.encode_request_envelope("submit", ROUTE, {"requests": "nope"})
    assert _error_of(InProcessTransport(gateway).send(raw))["code"] == "MALFORMED_REQUEST"


def test_describe_lists_routes(client):
    described = client.describe()
    assert described["version"] == WIRE_VERSION
    assert ROUTE in described["routes"]


def test_transport_counts_wire_traffic(client, recorder, alice):
    client.submit(TokenRequest.method_token(recorder.this, alice.address, "submit"))
    stats = client.stats()
    transport = stats["transport"]
    assert transport["requests"] >= 1
    assert transport["bytes_sent"] > 0 and transport["bytes_received"] > 0


# --- rule epochs (EXPIRED_RULESET) --------------------------------------------------


def test_stale_epoch_is_rejected(gateway, client, alice):
    current = json.loads(
        InProcessTransport(gateway).send(codec.encode_request_envelope("get_rules", ROUTE, {})).decode()
    )["body"]
    # A concurrent owner update lands first...
    client.update_rules(lambda rules: rules.add_rule(WhitelistRule([alice.address])))
    # ...so replaying the previously read epoch must fail.
    raw = codec.encode_request_envelope(
        "replace_rules", ROUTE, {"config": current["config"], "epoch": current["epoch"]}
    )
    assert _error_of(InProcessTransport(gateway).send(raw))["code"] == "EXPIRED_RULESET"


def test_wire_rule_update_preserves_programmatic_rules(gateway, client, alice, eve):
    """A wire-level rule replacement must never drop in-process-only rules:
    a fail-closed PredicateRule survives any gateway update_rules."""
    from repro.core.acr import PredicateRule

    service = gateway.issuer_for(ROUTE)
    service.update_rules(lambda rules: rules.add_rule(
        PredicateRule(lambda request: request.client != eve.address, name="ban-eve")
    ))
    client.update_rules(lambda rules: rules.add_rule(
        WhitelistRule([alice.address, eve.address])
    ))
    results = client.submit([
        TokenRequest.method_token(b"\x22" * 20, alice.address, "m"),
        TokenRequest.method_token(b"\x22" * 20, eve.address, "m"),
    ])
    assert results[0].issued
    # eve is whitelisted by the wire update but still banned by the
    # in-process predicate the config cannot express.
    assert results[1].code is ErrorCode.DENIED
    assert "ban-eve" in service.rules.rule_names()


def test_client_update_rules_retries_past_a_conflict(gateway, client, alice, bob):
    inner_transport = client.transport
    original_send = inner_transport.send
    state = {"injected": False}

    def racing_send(raw: bytes) -> bytes:
        # Inject one concurrent update between the client's read and replace.
        if b'"op": "replace_rules"' in raw and not state["injected"]:
            state["injected"] = True
            gateway._rule_epochs[ROUTE] += 1
        return original_send(raw)

    inner_transport.send = racing_send
    client.update_rules(lambda rules: rules.add_rule(WhitelistRule([alice.address])))
    assert state["injected"]
    results = client.submit(
        [
            TokenRequest.method_token(b"\x11" * 20, alice.address, "m"),
            TokenRequest.method_token(b"\x11" * 20, bob.address, "m"),
        ]
    )
    assert results[0].issued
    assert results[1].code is ErrorCode.DENIED


# --- the full loop through the wire -------------------------------------------------


def test_wallet_through_gateway_client_verifies_on_chain(chain, owner, alice):
    service = build_service(
        "serial",
        keypair=KeyPair.from_seed("gateway-e2e-ts"),
        rules=RuleSet(),
        clock=chain.clock,
    )
    gateway = ServiceGateway()
    gateway.register(ROUTE, service)
    client = gateway.client_for(ROUTE)

    from repro.contracts.protected_target import ProtectedRecorder

    protected = OwnerWallet(owner, client).deploy_protected(
        ProtectedRecorder, one_time_bitmap_bits=1024
    ).return_value
    wallet = ClientWallet(alice, {protected.this: client})
    receipt = wallet.call_with_token(
        protected, "submit", amount=3, token_type=TokenType.ARGUMENT, one_time=True
    )
    assert receipt.success, receipt.error
    assert chain.read(protected, "entries") == 1


def test_gateway_stats_are_wire_safe_json(client, recorder, alice):
    client.submit(TokenRequest.method_token(recorder.this, alice.address, "submit"))
    stats = client.stats()
    json.dumps(stats)  # must not raise: every leaf is JSON-serialisable


def test_decision_encoding_is_faithful():
    decision = AccessDecision.deny("client not on sender-whitelist")
    assert not decision.allowed and decision.reason


class StubTransport:
    """Answers every frame with one fixed success envelope."""

    def __init__(self, body: dict):
        self.answer = codec.encode_response_envelope(body)

    def send(self, raw: bytes) -> bytes:
        return self.answer

    def close(self) -> None:
        pass

    def describe(self):
        return {"kind": "stub"}


_CLIENT_CALLS = {
    "address": lambda client: client.address,
    "stats": lambda client: client.stats(),
    "metrics": lambda client: client.metrics(),
    "health": lambda client: client.health(),
    "submit": lambda client: client.submit(
        TokenRequest.method_token(b"\x01" * 20, b"\x02" * 20, "submit")
    ),
    "update_rules": lambda client: client.update_rules(lambda rules: None),
}


@pytest.mark.parametrize(
    "call, body",
    [
        ("address", {}),
        ("address", {"address": "zz"}),
        ("address", {"address": 5}),
        ("stats", {}),
        ("stats", {"stats": []}),
        ("metrics", {}),
        ("health", {}),
        ("submit", {}),
        ("update_rules", {"config": 5, "epoch": 0}),
        ("update_rules", {"epoch": 0}),
    ],
)
def test_client_refuses_answer_bodies_it_cannot_read(call, body):
    """A well-framed answer whose body lacks or mistypes the field the call
    reads is the server's malformed answer, not a client crash."""
    client = GatewayClient(StubTransport(body), ROUTE)
    with pytest.raises(SmacsError) as raised:
        _CLIENT_CALLS[call](client)
    assert raised.value.code is ErrorCode.MALFORMED_REQUEST


# --- retry backoff ------------------------------------------------------------------


class FlakyTransport:
    """Fails the first N sends with a given code, then delegates for real."""

    def __init__(self, inner, failures: int, code: ErrorCode):
        self.inner = inner
        self.failures = failures
        self.code = code
        self.attempts = 0

    def send(self, raw: bytes) -> bytes:
        self.attempts += 1
        if self.failures > 0:
            self.failures -= 1
            raise SmacsError("endpoint down", self.code)
        return self.inner.send(raw)

    def close(self) -> None:
        self.inner.close()

    def describe(self):
        return {"kind": "flaky", "attempts": self.attempts}


def _flaky_client(gateway, failures, code, *, backoff=None):
    transport = FlakyTransport(InProcessTransport(gateway), failures, code)
    return GatewayClient(transport, ROUTE, backoff=backoff), transport


def test_backoff_delays_are_jittered_and_capped():
    backoff = Backoff(base=0.05, cap=0.2, rng=random.Random(7))
    for attempt in range(8):
        bound = min(0.2, 0.05 * 2**attempt)
        for _ in range(20):
            assert 0.0 <= backoff.delay(attempt) <= bound
    # injectable sleep: pause() reports exactly what it slept
    slept = []
    backoff = Backoff(base=0.05, cap=0.2, sleep=slept.append, rng=random.Random(7))
    paused = [backoff.pause(attempt) for attempt in range(4)]
    assert slept == paused


def test_client_retries_unavailable_with_backoff(gateway):
    slept: list[float] = []
    client, transport = _flaky_client(
        gateway, 2, ErrorCode.UNAVAILABLE,
        backoff=Backoff(sleep=slept.append, rng=random.Random(1)),
    )
    assert client.describe()["routes"] == [ROUTE]
    assert transport.attempts == 3  # two failures were re-sent, not surfaced
    assert client.retries_performed == 2
    assert len(slept) == 2
    assert all(0.0 <= delay <= 1.0 for delay in slept)


def test_client_without_backoff_fails_fast(gateway):
    client, transport = _flaky_client(gateway, 1, ErrorCode.UNAVAILABLE)
    with pytest.raises(SmacsError) as excinfo:
        client.describe()
    assert excinfo.value.code is ErrorCode.UNAVAILABLE
    assert transport.attempts == 1  # exactly as before backoff existed


def test_rate_limited_is_not_retried_by_default(gateway):
    """RATE_LIMITED is a policy answer: re-sending would fight the limiter
    for the tenant's own budget, so the default retry set excludes it."""
    slept: list[float] = []
    client, transport = _flaky_client(
        gateway, 1, ErrorCode.RATE_LIMITED,
        backoff=Backoff(sleep=slept.append, rng=random.Random(2)),
    )
    assert ErrorCode.RATE_LIMITED not in DEFAULT_RETRY_CODES
    assert Backoff().codes == DEFAULT_RETRY_CODES
    with pytest.raises(SmacsError) as excinfo:
        client.describe()
    assert excinfo.value.code is ErrorCode.RATE_LIMITED
    assert transport.attempts == 1 and slept == []


def test_opt_in_retry_codes_widen_the_retry_set(gateway):
    client, transport = _flaky_client(
        gateway, 1, ErrorCode.RATE_LIMITED,
        backoff=Backoff(codes=RETRYABLE_CODES, sleep=lambda _s: None, rng=random.Random(3)),
    )
    assert client.describe()["version"] == WIRE_VERSION
    assert transport.attempts == 2


def test_exhausted_backoff_retries_reraise(gateway):
    slept: list[float] = []
    client, transport = _flaky_client(
        gateway, 99, ErrorCode.COUNTER_TIMEOUT,
        backoff=Backoff(retries=2, sleep=slept.append, rng=random.Random(4)),
    )
    with pytest.raises(SmacsError) as excinfo:
        client.describe()
    assert excinfo.value.code is ErrorCode.COUNTER_TIMEOUT
    assert transport.attempts == 3  # initial send + every retry
    assert len(slept) == 2
