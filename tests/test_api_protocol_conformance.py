"""Protocol conformance: one suite, every issuer stack.

The acceptance bar for the unified API: the same requests produce the same
decisions through the serial, cached and replicated stacks -- and through
the wire-level gateway clients wrapping them -- with one-time indexes unique
per stack, batch submissions that never raise mid-batch, and tokens that
verify on-chain regardless of which stack signed them.
"""

from __future__ import annotations

import pytest

from repro.api import (
    ErrorCode,
    ServiceGateway,
    SmacsError,
    TokenDenied,
    TokenIssuer,
    build_service,
    conforms,
    connect,
    issue_one,
    serve,
    try_issue_one,
    unwrap,
)
from repro.api.middleware import RetryFailover
from repro.consensus.counter import CounterTimeout
from repro.contracts.protected_target import ProtectedRecorder
from repro.core import ClientWallet, OwnerWallet, TokenType
from repro.core.acr import RuleSet, WhitelistRule
from repro.core.replication import ReplicatedTokenService
from repro.core.token_request import TokenRequest
from repro.crypto.keys import KeyPair
from repro.crypto.sigcache import SignatureCache

STACKS = [
    "serial",
    # The memo path: a serial service issuing through a private signature
    # cache, so every cell also runs the cached issuance pass.
    "serial-cached",
    "replicated",
    "gateway-serial",
    "gateway-replicated",
    "tcp-serial",
    "tcp-replicated",
    # Observability cells: full tracing on both ends of the wire, in each
    # codec lane.  The conformance bar is that instrumentation (trace
    # contexts on the envelopes, stage timers in the gateway) is invisible
    # to every behavioural test in this file.
    "tcp-traced",
    "tcp-traced-binary",
    # Resilience cells: every envelope carries the optional absolute
    # ``deadline`` field (a budget generous enough never to fire), in each
    # codec lane.  The conformance bar is that a deadline-bearing peer and
    # a legacy peer are behaviourally indistinguishable on this wire.
    "tcp-deadline",
    "tcp-deadline-binary",
]


def _whitelisted_rules(*addresses) -> RuleSet:
    rules = RuleSet()
    rules.add_rule(WhitelistRule(list(addresses), name="sender-whitelist"))
    return rules


def _build_stack(name: str, *, keypair, rules, clock, cleanups=None) -> TokenIssuer:
    kwargs = dict(
        keypair=keypair,
        rules=rules,
        clock=clock,
        replica_count=3,
        seed=29,
    )
    if name.startswith("gateway-"):
        base = build_service(name.split("-", 1)[1], **kwargs)
        gateway = ServiceGateway()
        gateway.register("https://ts.conformance.example", base)
        return gateway.client_for("https://ts.conformance.example")
    if name.startswith("tcp-traced"):
        from repro.api import codec
        from repro.obs import Observability

        base = build_service("serial", **kwargs)
        gateway = ServiceGateway(observability=Observability())
        gateway.register("https://ts.conformance.example", base)
        server = serve(gateway)
        lane = codec.CODEC_BINARY if name.endswith("binary") else codec.CODEC_JSON
        client = connect(server.url, wire_codec=lane)
        client.observability = Observability()
        if cleanups is not None:
            cleanups.append(client.close)
            cleanups.append(server.close)
        return client
    if name.startswith("tcp-deadline"):
        from repro.api import codec

        base = build_service("serial", **kwargs)
        gateway = ServiceGateway()
        gateway.register("https://ts.conformance.example", base)
        server = serve(gateway)
        lane = codec.CODEC_BINARY if name.endswith("binary") else codec.CODEC_JSON
        client = connect(server.url, wire_codec=lane)
        client.deadline_s = 30.0  # stamped on every envelope, never expires
        if cleanups is not None:
            cleanups.append(client.close)
            cleanups.append(server.close)
        return client
    if name.startswith("tcp-"):
        # The same gateway, but reached through real sockets: an asyncio
        # GatewayServer and a pooled TcpTransport.  The conformance bar is
        # that nothing in this file can tell the difference.
        base = build_service(name.split("-", 1)[1], **kwargs)
        gateway = ServiceGateway()
        gateway.register("https://ts.conformance.example", base)
        server = serve(gateway)
        client = connect(server.url)
        if cleanups is not None:
            cleanups.append(client.close)
            cleanups.append(server.close)
        return client
    if name == "serial-cached":
        return build_service("serial", signature_cache=SignatureCache(), **kwargs)
    return build_service(name, **kwargs)


@pytest.fixture(params=STACKS)
def stack(request, chain, alice):
    keypair = KeyPair.from_seed("conformance-ts")
    rules = _whitelisted_rules(alice.address)
    cleanups = []
    try:
        yield _build_stack(
            request.param,
            keypair=keypair,
            rules=rules,
            clock=chain.clock,
            cleanups=cleanups,
        )
    finally:
        for cleanup in reversed(cleanups):
            cleanup()


# --- structural conformance ---------------------------------------------------------


def test_stack_satisfies_the_protocol(stack):
    assert conforms(stack)
    assert isinstance(stack, TokenIssuer)


def test_address_is_a_20_byte_address_everywhere(stack):
    assert isinstance(stack.address, bytes)
    assert len(stack.address) == 20
    # Every stack shares the signing key, so every stack shares the address.
    assert stack.address == KeyPair.from_seed("conformance-ts").address


def test_stats_is_a_dict_with_issuance_counters(stack, alice, recorder):
    stack.submit(TokenRequest.method_token(recorder.this, alice.address, "submit"))
    stats = stack.stats()
    assert isinstance(stats, dict)
    assert stats["issued"] >= 1


# --- same requests, same decisions --------------------------------------------------


def _mixed_batch(contract, alice, eve):
    return [
        TokenRequest.method_token(contract, alice, "submit"),
        TokenRequest.method_token(contract, eve, "submit"),  # not whitelisted
        TokenRequest.argument_token(contract, alice, "submit", {"amount": 7}),
        TokenRequest.super_token(contract, eve),  # not whitelisted
        TokenRequest.method_token(contract, alice, "submit", one_time=True),
    ]


def test_same_requests_same_decisions_across_all_stacks(chain, alice, eve, recorder):
    keypair = KeyPair.from_seed("conformance-ts")
    outcomes = {}
    for name in STACKS:
        cleanups = []
        try:
            issuer = _build_stack(
                name,
                keypair=keypair,
                rules=_whitelisted_rules(alice.address),
                clock=chain.clock,
                cleanups=cleanups,
            )
            results = issuer.submit(
                _mixed_batch(recorder.this, alice.address, eve.address)
            )
        finally:
            for cleanup in reversed(cleanups):
                cleanup()
        outcomes[name] = [
            (result.issued, result.code.value if result.code is not None else None)
            for result in results
        ]
    reference = outcomes[STACKS[0]]
    assert reference == [
        (True, None),
        (False, "DENIED"),
        (True, None),
        (False, "DENIED"),
        (True, None),
    ]
    for name in STACKS[1:]:
        assert outcomes[name] == reference, name


def test_one_time_indexes_unique_per_stack(stack, alice, recorder):
    request = TokenRequest.method_token(
        recorder.this, alice.address, "submit", one_time=True
    )
    results = stack.submit([request] * 12)
    assert all(result.issued for result in results)
    indexes = [result.token.index for result in results]
    assert len(set(indexes)) == len(indexes)
    assert all(result.token.is_one_time for result in results)


def test_single_request_is_the_one_element_batch(stack, alice, recorder):
    request = TokenRequest.method_token(recorder.this, alice.address, "submit")
    as_scalar = stack.submit(request)
    as_batch = stack.submit([request])
    assert len(as_scalar) == len(as_batch) == 1
    assert as_scalar[0].issued and as_batch[0].issued
    # Non-one-time issuance is deterministic: byte-identical tokens.
    assert as_scalar[0].token.to_bytes() == as_batch[0].token.to_bytes()


# --- failure carrying (never raise mid-batch) ---------------------------------------


def test_denials_are_carried_not_raised(stack, alice, eve, recorder):
    batch = _mixed_batch(recorder.this, alice.address, eve.address)
    results = stack.submit(batch)  # must not raise despite the denials
    assert len(results) == len(batch)
    denied = [result for result in results if not result.issued]
    assert len(denied) == 2
    for result in denied:
        assert result.code is ErrorCode.DENIED
        assert isinstance(result.error, SmacsError)
        assert result.error.code is ErrorCode.DENIED
        assert not result.decision.allowed


def test_issue_one_raises_the_carried_error(stack, alice, eve, recorder):
    granted = issue_one(
        stack, TokenRequest.method_token(recorder.this, alice.address, "submit")
    )
    assert granted.token_type is TokenType.METHOD
    with pytest.raises(TokenDenied):
        issue_one(stack, TokenRequest.method_token(recorder.this, eve.address, "submit"))
    reported = try_issue_one(
        stack, TokenRequest.method_token(recorder.this, eve.address, "submit")
    )
    assert reported.code is ErrorCode.DENIED


# --- rule management through the protocol -------------------------------------------


def test_update_rules_through_the_protocol(stack, alice, bob, recorder):
    request = TokenRequest.method_token(recorder.this, bob.address, "submit")
    assert stack.submit(request)[0].code is ErrorCode.DENIED

    def admit_bob(rules: RuleSet) -> None:
        for rule in rules.rules_for(TokenType.METHOD):
            if isinstance(rule, WhitelistRule):
                rule.add(bob.address)

    stack.update_rules(admit_bob)
    assert stack.submit(request)[0].issued
    # The update widened the existing whitelist rather than replacing it:
    # alice stays admitted through every stack (including the wire path).
    assert stack.submit(
        TokenRequest.method_token(recorder.this, alice.address, "submit")
    )[0].issued


# --- on-chain equivalence -----------------------------------------------------------


def test_tokens_from_any_stack_verify_on_chain(stack, chain, owner, alice):
    receipt = OwnerWallet(owner, stack).deploy_protected(
        ProtectedRecorder, one_time_bitmap_bits=4096
    )
    assert receipt.success
    protected = receipt.return_value
    wallet = ClientWallet(alice, {protected.this: stack})
    for amount in (1, 2):
        receipt = wallet.call_with_token(
            protected, "submit", amount=amount,
            token_type=TokenType.METHOD, one_time=True,
        )
        assert receipt.success, receipt.error
    assert chain.read(protected, "entries") == 2


# --- transient failures stay inside results -----------------------------------------


def test_exhausted_failover_carries_counter_timeout(chain, alice, recorder, monkeypatch):
    stack = _build_stack(
        "replicated",
        keypair=KeyPair.from_seed("conformance-ts"),
        rules=_whitelisted_rules(alice.address),
        clock=chain.clock,
    )
    base = unwrap(stack)
    assert isinstance(base, ReplicatedTokenService)
    for replica in base.replicas:
        def always_timeout(requests, _r=replica):
            raise CounterTimeout("injected: cluster has no quorum")

        monkeypatch.setattr(replica, "submit", always_timeout)
    request = TokenRequest.method_token(
        recorder.this, alice.address, "submit", one_time=True
    )
    results = stack.submit([request, request])  # never raises mid-batch
    assert len(results) == 2
    for result in results:
        assert not result.issued
        assert result.code is ErrorCode.COUNTER_TIMEOUT
        assert result.error is not None and result.error.retryable


def test_transient_timeout_recovers_through_retry_layer(chain, alice, recorder, monkeypatch):
    stack = _build_stack(
        "replicated",
        keypair=KeyPair.from_seed("conformance-ts"),
        rules=_whitelisted_rules(alice.address),
        clock=chain.clock,
    )
    retry = stack
    assert isinstance(retry, RetryFailover)
    base = unwrap(stack)
    victim = base.replicas[base._next % len(base.replicas)]
    original = victim.submit
    calls = {"n": 0}

    def flaky(requests):
        if calls["n"] == 0:
            calls["n"] += 1
            raise CounterTimeout("injected: leader election in progress")
        return original(requests)

    monkeypatch.setattr(victim, "submit", flaky)
    request = TokenRequest.method_token(
        recorder.this, alice.address, "submit", one_time=True
    )
    results = stack.submit([request, request])
    assert all(result.issued for result in results)
    assert retry.failovers == 1
    assert retry.recovered == 2


# --- satellite: normalized signatures ------------------------------------------------


def test_update_rules_signatures_are_uniformly_typed():
    import inspect
    import typing

    from repro.core.token_service import TokenService

    for cls in (TokenService, ReplicatedTokenService):
        hints = typing.get_type_hints(cls.update_rules)
        assert hints["mutate"] == typing.Callable[[RuleSet], None], cls
        assert hints["return"] is type(None), cls

    stats_hints = typing.get_type_hints(ReplicatedTokenService.stats)
    assert stats_hints["return"] == dict[str, typing.Any]
    assert inspect.signature(ReplicatedTokenService.submit).parameters.keys() == \
        inspect.signature(TokenService.submit).parameters.keys()
