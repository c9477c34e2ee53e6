"""Byzantine harness units plus the gateway bugs the scenario matrix found.

The harnesses in :mod:`repro.faults.byzantine` sit at real interfaces (the
counter client, the transport, a second signer); these tests pin their
schedules and prove the system-side invariants each one exists to attack.

The ``corrupted content -> MALFORMED_REQUEST`` tests at the bottom are
regressions for a real bug the matrix flushed out: a flip-corrupted frame
that stayed valid JSON but carried an undecodable payload (a damaged hex
address inside a ``replace_rules`` config) used to classify as ``INTERNAL``
and leak a gateway fault for what is the caller's malformed request.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest

from repro.api import ServiceGateway, codec
from repro.api.gateway import GatewayClient, InProcessTransport
from repro.consensus.counter import CounterCluster, ReplicatedCounter
from repro.core import TokenType
from repro.core.acr import RuleSet, WhitelistRule
from repro.core.errors import ErrorCode, SmacsError
from repro.core.token_request import TokenRequest
from repro.faults import (
    CorruptingTransport,
    EquivocatingCounter,
    StaleLeaderCounter,
    untrusted_twin_service,
)

ROUTE = "https://ts.byzantine.example"


# --- EquivocatingCounter ------------------------------------------------------------


class _HonestCounter:
    def __init__(self) -> None:
        self.value = 0

    def take(self, count: int) -> range:
        first = self.value + 1
        self.value += count
        return range(first, first + count)


def test_equivocating_counter_duplicates_on_schedule():
    counter = EquivocatingCounter(_HonestCounter(), duplicate_every=3, skip_every=0)
    indexes = [counter.take(1)[0] for _ in range(9)]
    # Every 3rd call re-serves the previous index; the rest are honest.
    assert indexes == [1, 2, 2, 3, 4, 4, 5, 6, 6]
    assert counter.stats() == {"calls": 9, "duplicates_injected": 3, "skips_injected": 0}


def test_equivocating_counter_skips_burn_honest_indexes():
    counter = EquivocatingCounter(_HonestCounter(), duplicate_every=0, skip_every=4)
    indexes = [counter.take(1)[0] for _ in range(8)]
    # Calls 4 and 8 burn one honest index each before answering.
    assert indexes == [1, 2, 3, 5, 6, 7, 8, 10]
    assert counter.stats()["skips_injected"] == 2
    assert len(set(indexes)) == len(indexes)  # skips never duplicate


def test_equivocating_counter_lies_the_same_inside_ranges():
    """The schedule runs per index, so ranges of any size carry the same lies
    as single calls -- and each range costs the inner counter one ``take``."""
    single = EquivocatingCounter(_HonestCounter(), duplicate_every=3, skip_every=4)
    expected = [single.take(1)[0] for _ in range(20)]
    inner = _HonestCounter()
    inner.take = mock.Mock(wraps=inner.take)
    ranged = EquivocatingCounter(inner, duplicate_every=3, skip_every=4)
    ranges = [ranged.take(count) for count in (1, 7, 1, 8, 3)]
    assert [index for indexes in ranges for index in indexes] == expected
    assert ranged.stats() == single.stats()
    # The third range is one repeated index: it overlaps the range before it
    # and takes nothing from the honest counter.
    assert ranges[2] == [ranges[1][-1]]
    assert [call.args[0] for call in inner.take.call_args_list] == [1, 7, 7, 3]
    assert inner.value == 1 + 7 + 7 + 3


def test_equivocating_counter_rejects_negative_schedules():
    with pytest.raises(ValueError):
        EquivocatingCounter(_HonestCounter(), duplicate_every=-1)


# --- StaleLeaderCounter -------------------------------------------------------------


def test_stale_leader_answers_but_never_commits():
    cluster = CounterCluster(size=3, seed=7)
    harness = StaleLeaderCounter(cluster, patience=0.4)
    try:
        first = harness.take(1)[0]  # healthy before the zombie exists
        zombie_id = harness.induce_zombie()
        indexes = [harness.take(1)[0] for _ in range(4)]
        stats = harness.stats()
        # The zombie kept accepting commands ...
        assert stats["zombie_answers"] >= 1
        # ... and not one was ever fulfilled: its answers are inert.
        assert stats["zombie_results"] == 0
        # Every index the client actually issued came from the honest
        # majority: fresh, unique, strictly increasing.
        assert indexes == sorted(set(indexes))
        assert indexes[0] == first + 1
        harness.heal()
        assert harness.zombie_id is None
        after_heal = harness.take(1)[0]
        assert after_heal > indexes[-1]
        assert zombie_id in cluster.nodes
    finally:
        cluster.network.heal_partition()


def test_stale_leader_is_offered_whole_ranges_and_commits_none():
    cluster = CounterCluster(size=3, seed=7)
    harness = StaleLeaderCounter(cluster, patience=0.4)
    try:
        assert harness.take(4) == range(0, 4)
        zombie = cluster.nodes[harness.induce_zombie()]
        stale_value = cluster.machines[zombie.node_id].value
        ranges = [harness.take(8) for _ in range(3)]
        # One offer per range, not per index; none fulfilled.
        assert harness.stats() == {"zombie_answers": 3, "zombie_results": 0, "issued": 28}
        # Every range came from the majority; the zombie's counter -- from
        # which its range would have overlapped [4, 12) -- never moved.
        assert [i for r in ranges for i in r] == list(range(4, 28))
        assert cluster.machines[zombie.node_id].value == stale_value <= 4
    finally:
        cluster.network.heal_partition()


def test_stale_leader_offer_noops_once_the_node_steps_down():
    cluster = CounterCluster(size=3, seed=11)
    harness = StaleLeaderCounter(cluster, patience=0.4)
    try:
        harness.induce_zombie()
        # Heal the network without telling the harness: the ex-zombie will
        # observe the newer term and step down; the next offer must detect
        # that and clear the pin instead of counting phantom answers.
        cluster.network.heal_partition()
        cluster.network.run_for(1.0)
        before = harness.stats()["zombie_answers"]
        harness.take(1)
        assert harness.zombie_id is None
        assert harness.stats()["zombie_answers"] == before
    finally:
        cluster.network.heal_partition()


# --- CorruptingTransport against the gateway ----------------------------------------


@pytest.fixture
def gateway(chain, token_service):
    gateway = ServiceGateway()
    gateway.register(ROUTE, token_service)
    return gateway


def test_corrupting_transport_yields_malformed_never_internal(gateway, recorder, alice):
    transport = CorruptingTransport(InProcessTransport(gateway), corrupt_every=2, seed=3)
    client = GatewayClient(transport, ROUTE)
    request = TokenRequest.method_token(recorder.this, alice.address, "submit")

    issued, malformed = 0, 0
    for _ in range(12):
        try:
            results = client.submit([request])
        except SmacsError as error:
            # A damaged frame is always the *caller's* problem on the wire:
            # the gateway must never classify it as an internal fault.
            assert error.code is ErrorCode.MALFORMED_REQUEST, error.code
            malformed += 1
        else:
            issued += sum(1 for result in results if result.issued)
    assert transport.corrupted == 6
    assert issued >= 5  # the clean half of the frames still issues
    assert malformed >= 4  # most mutations are detectable damage
    described = transport.describe()
    assert described["corrupted"] == 6
    assert sum(described["mutations"].values()) == 6


def test_corrupting_transport_validates_schedule():
    with pytest.raises(ValueError):
        CorruptingTransport(object(), corrupt_every=0)


# --- untrusted twin signer ----------------------------------------------------------


def test_twin_tokens_are_perfect_and_still_refused_on_chain(
    chain, token_service, recorder, alice, alice_wallet
):
    twin = untrusted_twin_service(token_service)
    assert twin.keypair.address != token_service.keypair.address
    assert twin.rules is token_service.rules  # everything but the key

    request = TokenRequest.method_token(recorder.this, alice.address, "submit")
    forged = twin.submit(request)[0]
    assert forged.issued  # structurally perfect, fresh, well-signed ...

    receipt = alice.transact(recorder, "submit", 5, token=forged.token.to_bytes())
    assert not receipt.success  # ... and refused by ecrecover-vs-trusted
    assert chain.read(recorder, "entries") == 0

    honest = alice_wallet.request_token(recorder, TokenType.METHOD, "submit")
    assert alice.transact(recorder, "submit", 5, token=honest.to_bytes()).success


# --- gateway regression: corrupted content is MALFORMED, not INTERNAL ---------------


def _error_code_of(raw: bytes) -> str:
    envelope = json.loads(raw.decode())
    assert envelope["ok"] is False
    return envelope["error"]["code"]


def test_replace_rules_with_corrupt_hex_is_malformed_not_internal(gateway, alice):
    # A realistic flip-corruption survivor: valid JSON, damaged hex address.
    config = RuleSet().to_config()
    config["sender"] = {"whitelist": ["0x" + "zz" * 20]}
    raw = codec.encode_request_envelope(
        "replace_rules", ROUTE, {"config": config, "epoch": 0}
    )
    assert _error_code_of(InProcessTransport(gateway).send(raw)) == "MALFORMED_REQUEST"
    # The shared ruleset was never touched and the epoch did not advance.
    good = RuleSet()
    good.add_rule(WhitelistRule([alice.address], name="sender-whitelist"))
    ok = codec.encode_request_envelope(
        "replace_rules", ROUTE, {"config": good.to_config(), "epoch": 0}
    )
    response = json.loads(InProcessTransport(gateway).send(ok).decode())
    assert response["ok"] is True
    assert response["body"]["epoch"] == 1


def test_submit_with_undecodable_request_content_is_malformed(gateway, recorder, alice):
    good = codec.encode_token_request(
        TokenRequest.method_token(recorder.this, alice.address, "submit")
    )
    bad = dict(good)
    bad["contract"] = "0xnot-a-hex-address"
    raw = codec.encode_request_envelope("submit", ROUTE, {"requests": [bad]})
    assert _error_code_of(InProcessTransport(gateway).send(raw)) == "MALFORMED_REQUEST"


def test_replicated_counter_survives_the_harness_interface():
    """The harnesses honour the same counter protocol the service uses."""
    cluster = CounterCluster(size=3, seed=5)
    try:
        counter = EquivocatingCounter(ReplicatedCounter(cluster), duplicate_every=0)
        values = [counter.take(1)[0] for _ in range(3)]
        assert values == sorted(set(values))
        assert counter.value >= values[-1]
    finally:
        cluster.network.heal_partition()
