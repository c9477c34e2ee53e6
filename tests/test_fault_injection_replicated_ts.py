"""Fault injection for the Raft-backed Token Service (§VII-B availability).

Three failure families are exercised against the replicated one-time
counter:

* the counter **leader crashes mid-batch** of issuance;
* the cluster suffers a **network partition** that later heals;
* a replica raises a **transient counter timeout**, which the §VII-B
  fail-over (``RetryFailover`` around the one-attempt front end) must retry
  on a different replica instead of surfacing to the client.

The safety property under every scenario is the same: issued one-time
indexes stay globally unique, and no one-time token is ever accepted twice
on-chain.
"""

import pytest

from repro.api import RetryFailover, build_service, issue_one, unwrap
from repro.chain import Blockchain
from repro.consensus.counter import CounterTimeout
from repro.contracts.protected_target import ProtectedRecorder
from repro.core import OwnerWallet
from repro.core.acr import RuleSet, WhitelistRule
from repro.core.replication import NoReplicaAvailable, ReplicatedTokenService
from repro.core.token_request import TokenRequest
from repro.crypto.keys import KeyPair


@pytest.fixture
def chain():
    return Blockchain()


@pytest.fixture
def rts(chain):
    return ReplicatedTokenService(
        replica_count=3,
        keypair=KeyPair.from_seed("fault-ts"),
        rules=RuleSet(),
        clock=chain.clock,
        seed=41,
    )


@pytest.fixture
def stack(rts):
    """The §VII-B fail-over as the matrix builds it: one try per replica."""
    return RetryFailover(rts, attempts=len(rts.replicas) - 1)


@pytest.fixture
def protected(chain, rts):
    owner = chain.create_account("owner", seed="fault-owner")
    receipt = OwnerWallet(owner, rts.replicas[0]).deploy_protected(
        ProtectedRecorder, one_time_bitmap_bits=4096
    )
    assert receipt.success
    return receipt.return_value


@pytest.fixture
def alice(chain):
    return chain.create_account("alice", seed="fault-alice")


def _one_time_request(protected, alice):
    return TokenRequest.method_token(
        protected.this, alice.address, "submit", one_time=True
    )


def _issue_batch(rts, request, count):
    return [issue_one(rts, request) for _ in range(count)]


# --- leader crash mid-batch --------------------------------------------------------


def test_leader_crash_mid_batch_keeps_indexes_unique(rts, protected, alice):
    request = _one_time_request(protected, alice)
    tokens = _issue_batch(rts, request, 5)
    crashed = rts.counter_cluster.crash_leader()
    tokens += _issue_batch(rts, request, 5)
    indexes = [t.index for t in tokens]
    assert len(set(indexes)) == len(indexes)
    assert rts.issued_indexes_are_unique()
    # The crashed node recovers and catches up without disturbing uniqueness.
    rts.counter_cluster.restart(crashed)
    tokens += _issue_batch(rts, request, 3)
    indexes = [t.index for t in tokens]
    assert len(set(indexes)) == len(indexes)
    assert rts.issued_indexes_are_unique()


def test_repeated_leader_crashes(rts, protected, alice):
    request = _one_time_request(protected, alice)
    tokens = []
    crashed = None
    for _ in range(2):
        tokens += _issue_batch(rts, request, 3)
        if crashed is not None:
            rts.counter_cluster.restart(crashed)
        crashed = rts.counter_cluster.crash_leader()
    tokens += _issue_batch(rts, request, 3)
    indexes = [t.index for t in tokens]
    assert len(set(indexes)) == len(indexes)
    assert rts.issued_indexes_are_unique()


def test_tokens_issued_across_crash_all_verify_once_on_chain(
    chain, rts, protected, alice
):
    """No one-time token is accepted twice on-chain, crash or no crash."""
    request = _one_time_request(protected, alice)
    tokens = _issue_batch(rts, request, 4)
    rts.counter_cluster.crash_leader()
    tokens += _issue_batch(rts, request, 4)
    for amount, token in enumerate(tokens, start=1):
        first = alice.transact(protected, "submit", amount, token=token.to_bytes())
        assert first.success, first.error
        replay = alice.transact(protected, "submit", amount, token=token.to_bytes())
        assert not replay.success
        assert "SMACS" in replay.error
    assert chain.read(protected, "entries") == len(tokens)


# --- partitions --------------------------------------------------------------------


def test_partition_and_heal_keeps_indexes_unique(rts, protected, alice):
    request = _one_time_request(protected, alice)
    tokens = _issue_batch(rts, request, 4)

    network = rts.counter_cluster.network
    nodes = sorted(rts.counter_cluster.nodes)
    # Majority partition {0, 1} keeps committing; {2} is isolated.
    network.partition(nodes[:2], nodes[2:])
    tokens += _issue_batch(rts, request, 4)

    network.heal_partition()
    tokens += _issue_batch(rts, request, 4)

    indexes = [t.index for t in tokens]
    assert len(set(indexes)) == len(indexes)
    assert rts.issued_indexes_are_unique()


def test_minority_leader_cannot_commit_duplicates(chain, rts, protected, alice):
    """Indexes committed before an isolation are never re-issued after it:
    the isolated ex-leader's uncommitted state cannot fork the counter."""
    request = _one_time_request(protected, alice)
    before = [t.index for t in _issue_batch(rts, request, 3)]
    leader = rts.counter_cluster.elect_leader()
    network = rts.counter_cluster.network
    others = [n for n in rts.counter_cluster.nodes if n != leader.node_id]
    network.partition(others, [leader.node_id])
    after = [t.index for t in _issue_batch(rts, request, 3)]
    network.heal_partition()
    healed = [t.index for t in _issue_batch(rts, request, 3)]
    indexes = before + after + healed
    assert len(set(indexes)) == len(indexes)
    assert rts.issued_indexes_are_unique()


# --- transient counter timeouts (the failover-retry fix) ----------------------------


def test_transient_timeout_retries_on_another_replica(
    rts, stack, protected, alice, monkeypatch
):
    """A single transient CounterTimeout is absorbed by fail-over."""
    request = _one_time_request(protected, alice)
    victim = rts.replicas[rts._next % len(rts.replicas)]  # the next pick
    original = victim.counter.take
    calls = {"n": 0}

    def flaky(count):
        if calls["n"] == 0:
            calls["n"] += 1
            raise CounterTimeout("injected: leader election in progress")
        return original(count)

    monkeypatch.setattr(victim.counter, "take", flaky)
    token = issue_one(stack, request)
    assert token is not None
    assert (stack.failovers, stack.recovered) == (1, 1)
    assert rts.transient_failovers == 0  # the replica answered; nothing died whole
    assert rts.issued_indexes_are_unique()


def test_timeout_in_an_envelope_fails_only_its_one_time_requests(
    rts, stack, protected, alice, monkeypatch
):
    """A mixed envelope hits a counter timeout: the reusable request issues on
    the first replica, the one-time ones -- and only they -- are retried on the
    next, and no index is handed out twice."""
    one_time = _one_time_request(protected, alice)
    reusable = TokenRequest.method_token(protected.this, alice.address, "submit")
    first = [r.token.index for r in rts.submit([one_time, one_time])]
    victim_index = rts._next % len(rts.replicas)
    victim = rts.replicas[victim_index]

    def timeout(count):
        raise CounterTimeout("injected: leader election in progress")

    monkeypatch.setattr(victim.counter, "take", timeout)
    attempt = victim.submit([one_time, reusable, one_time])
    assert [r.issued for r in attempt] == [False, True, False]
    assert {r.code.value for r in attempt if not r.issued} == {"COUNTER_TIMEOUT"}

    results = stack.submit([one_time, reusable, one_time])
    assert all(r.issued for r in results)
    assert (stack.failovers, stack.recovered) == (1, 2)
    assert rts.transient_failovers == 0
    assert results[1].token == attempt[1].token  # deterministic, index-free
    indexes = first + [r.token.index for r in results if r.token.is_one_time]
    assert indexes == [0, 1, 2, 3]
    assert victim.issued_count == 2  # the reusable token, twice; never retried
    assert rts.issued_indexes_are_unique()


def test_transient_timeout_in_submit_retries_whole_batch(
    rts, stack, protected, alice, monkeypatch
):
    request = _one_time_request(protected, alice)
    victim = rts.replicas[rts._next % len(rts.replicas)]
    original = victim.submit
    calls = {"n": 0}

    def flaky(requests):
        if calls["n"] == 0:
            calls["n"] += 1
            raise CounterTimeout("injected: commit deadline exceeded")
        return original(requests)

    monkeypatch.setattr(victim, "submit", flaky)
    results = stack.submit([request, request])
    assert all(result.issued for result in results)
    assert rts.transient_failovers == 1  # a submission that died whole
    assert (stack.failovers, stack.recovered) == (1, 2)
    indexes = [result.token.index for result in results]
    assert len(set(indexes)) == len(indexes)


def test_persistent_timeout_surfaces_after_all_replicas(
    rts, stack, protected, alice, monkeypatch
):
    request = _one_time_request(protected, alice)
    tried = []
    for index, replica in enumerate(rts.replicas):
        def always_timeout(count, index=index):
            tried.append(index)
            raise CounterTimeout("injected: cluster has no quorum")

        monkeypatch.setattr(replica.counter, "take", always_timeout)
    with pytest.raises(CounterTimeout):
        issue_one(stack, request)
    assert sorted(tried) == [0, 1, 2]  # one try per live replica, no more
    assert stack.failovers == len(rts.replicas) - 1
    assert rts.transient_failovers == 0


def test_replicas_timing_out_in_phase_exhaust_after_one_try_each(
    rts, stack, protected, alice, monkeypatch
):
    """The matrix's ``every=4`` x 3-replica case: every replica's submission
    dies whole on the same round.  The front end alone makes one attempt and
    carries the error; the fail-over tries each live replica once, never a
    taken-down one, and then lets ``COUNTER_TIMEOUT`` through."""
    request = _one_time_request(protected, alice)
    tried = []
    for index, replica in enumerate(rts.replicas):
        def dies_whole(requests, index=index):
            tried.append(index)
            raise CounterTimeout("injected: commit deadline exceeded")

        monkeypatch.setattr(replica, "submit", dies_whole)

    [carried] = rts.submit([request])
    assert carried.code.value == "COUNTER_TIMEOUT"
    assert tried == [0] and rts.transient_failovers == 1

    tried.clear()
    results = stack.submit([request, request])
    assert [r.code.value for r in results] == ["COUNTER_TIMEOUT"] * 2
    assert tried == [1, 2, 0]  # exactly len(replicas) tries
    assert stack.failovers == len(rts.replicas) - 1
    assert rts.transient_failovers == 1 + len(rts.replicas)

    rts.take_down(1)
    tried.clear()
    stack.submit([request])
    assert 1 not in tried and len(tried) == len(rts.replicas)


@pytest.mark.parametrize("replica_count", [1, 2, 3, 4])
def test_the_replicated_factory_tries_each_replica_once(replica_count, monkeypatch):
    """``build_service("replicated")`` stacks the same fail-over: a full
    outage submits to every replica exactly once, never one twice."""
    stack = build_service("replicated", replica_count=replica_count, seed=41)
    rts = unwrap(stack)
    tried = []
    for index, replica in enumerate(rts.replicas):
        def dies_whole(requests, index=index):
            tried.append(index)
            raise CounterTimeout("injected: commit deadline exceeded")

        monkeypatch.setattr(replica, "submit", dies_whole)
    request = TokenRequest.method_token(b"\xaa" * 20, b"\xbb" * 20, "submit", one_time=True)
    [result] = stack.submit([request])
    assert result.code.value == "COUNTER_TIMEOUT"
    assert sorted(tried) == list(range(replica_count))


def test_all_replicas_down_still_raises_no_replica(rts, protected, alice):
    for index in range(len(rts.replicas)):
        rts.take_down(index)
    with pytest.raises(NoReplicaAvailable):
        issue_one(rts, _one_time_request(protected, alice))


def test_real_no_quorum_timeout_is_transient_and_recovers(rts, protected, alice):
    """With 2 of 3 counter replicas crashed there is no quorum: issuance
    times out (as CounterTimeout, via every replica) -- and succeeds again
    once a replica returns."""
    request = _one_time_request(protected, alice)
    first = issue_one(rts, request)
    cluster = rts.counter_cluster
    nodes = sorted(cluster.nodes)
    cluster.network.take_down(nodes[0])
    cluster.network.take_down(nodes[1])
    with pytest.raises(CounterTimeout):
        issue_one(rts, request)
    cluster.network.bring_up(nodes[0])
    token = issue_one(rts, request)
    assert token.index != first.index
    assert rts.issued_indexes_are_unique()


# --- one commit per envelope --------------------------------------------------------


def _leader_machine(rts):
    cluster = rts.counter_cluster
    return cluster.machines[cluster.elect_leader().node_id]


def test_a_32_token_envelope_is_one_raft_command(rts, protected, alice):
    issue_one(rts, _one_time_request(protected, alice))  # settle the election
    machine = _leader_machine(rts)
    commands, value = machine.applied_commands, machine.value
    results = rts.submit([_one_time_request(protected, alice)] * 32)
    assert all(r.issued for r in results)
    assert machine.applied_commands == commands + 1
    assert machine.value == value + 32
    assert [r.token.index for r in results] == list(range(value, value + 32))
    assert rts.issued_indexes_are_unique()


def test_only_allowed_one_time_requests_advance_the_counter(rts, protected, alice, chain):
    eve = chain.create_account("eve", seed="fault-eve")
    rts.update_rules(lambda rules: rules.add_rule(WhitelistRule([alice.address])))
    issue_one(rts, _one_time_request(protected, alice))
    machine = _leader_machine(rts)
    value = machine.value
    one_time = _one_time_request(protected, alice)
    denied = _one_time_request(protected, eve)
    reusable = TokenRequest.method_token(protected.this, alice.address, "submit")
    # k = 2 denied, m = 2 reusable, n = 3 one-time, interleaved.
    results = rts.submit([denied, one_time, reusable, one_time, denied, reusable, one_time])
    assert [r.issued for r in results] == [False, True, True, True, False, True, True]
    assert machine.value == value + 3
    assert [r.token.index for r in results if r.issued and r.token.is_one_time] == [
        value, value + 1, value + 2
    ]
    assert rts.issued_indexes_are_unique()
