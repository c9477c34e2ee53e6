"""Tests for Raft consensus and the replicated counter primitive (§VII-B)."""

import pytest

from repro.consensus.counter import CounterCluster, ReplicatedCounter
from repro.consensus.network import SimulatedNetwork
from repro.consensus.raft import Role


@pytest.fixture
def cluster():
    return CounterCluster(size=3, seed=5)


def committed_agreement(cluster):
    values = set(cluster.committed_values().values())
    return len(values) == 1


# --- leader election -----------------------------------------------------------------


def test_a_leader_is_elected(cluster):
    leader = cluster.elect_leader()
    assert leader.role is Role.LEADER
    followers = [n for n in cluster.nodes.values() if n is not leader]
    cluster.network.run_for(1.0)
    assert all(n.role is Role.FOLLOWER for n in followers)
    assert all(n.leader_id == leader.node_id for n in followers)


def test_single_node_cluster_elects_itself():
    single = CounterCluster(size=1, seed=1)
    leader = single.elect_leader()
    assert leader.role is Role.LEADER
    assert single.increment() == 0


def test_new_leader_after_crash(cluster):
    old_leader_id = cluster.crash_leader()
    new_leader = cluster.elect_leader()
    assert new_leader.node_id != old_leader_id
    assert new_leader.current_term > 1


def test_no_leader_in_minority_partition():
    cluster = CounterCluster(size=3, seed=9)
    first = cluster.elect_leader()
    # Isolate the leader alone; the two-node majority side elects a new one.
    others = [n for n in cluster.nodes if n != first.node_id]
    cluster.network.partition({first.node_id}, set(others))
    cluster.network.run_for(2.0)
    majority_leaders = [
        cluster.nodes[n] for n in others if cluster.nodes[n].role is Role.LEADER
    ]
    assert len(majority_leaders) == 1
    assert majority_leaders[0].current_term > first.current_term


# --- log replication and the counter ----------------------------------------------------------


def test_counter_increments_are_sequential(cluster):
    values = [cluster.increment() for _ in range(10)]
    assert values == list(range(10))
    cluster.network.run_for(1.0)
    assert committed_agreement(cluster)


def test_counter_progress_across_leader_crash(cluster):
    first = [cluster.increment() for _ in range(3)]
    cluster.crash_leader()
    second = [cluster.increment() for _ in range(3)]
    assert first + second == list(range(6))


def test_crashed_replica_catches_up_after_restart(cluster):
    for _ in range(3):
        cluster.increment()
    downed = cluster.crash_leader()
    for _ in range(3):
        cluster.increment()
    cluster.restart(downed)
    cluster.network.run_for(3.0)
    assert cluster.machines[downed].value == 6
    assert committed_agreement(cluster)


def test_client_request_rejected_on_followers(cluster):
    leader = cluster.elect_leader()
    follower = next(n for n in cluster.nodes.values() if n is not leader)
    assert follower.client_request("increment") is None


def test_replicas_apply_identical_command_counts(cluster):
    for _ in range(5):
        cluster.increment()
    cluster.network.run_for(2.0)
    counts = {m.applied_commands for m in cluster.machines.values()}
    assert counts == {5}


def test_indexes_remain_unique_across_many_failovers():
    cluster = CounterCluster(size=5, seed=11)
    issued = []
    for round_number in range(3):
        issued.extend(cluster.increment() for _ in range(4))
        downed = cluster.crash_leader()
        issued.extend(cluster.increment() for _ in range(2))
        cluster.restart(downed)
    assert len(issued) == len(set(issued)), "replicated counter repeated an index"
    assert issued == sorted(issued)


# --- ReplicatedCounter facade --------------------------------------------------------------------


def test_replicated_counter_interface():
    counter = ReplicatedCounter(size=3, seed=13)
    assert [counter.take(1)[0] for _ in range(4)] == [0, 1, 2, 3]
    assert counter.take(5) == range(4, 9)
    assert counter.value == 9


def test_replicated_counter_restore_catches_up():
    counter = ReplicatedCounter(size=3, seed=17)
    counter.restore(3)
    assert counter.value == 3
    assert counter.take(1) == range(3, 4)


def test_restore_is_one_command_however_far_behind():
    """A persistence reload at index 50,000 must not cost 50,000 Raft rounds."""
    counter = ReplicatedCounter(size=3, seed=19)
    assert counter.take(2) == range(0, 2)
    cluster = counter.cluster
    leader = cluster.elect_leader()
    away = next(node_id for node_id in cluster.nodes if node_id != leader.node_id)
    cluster.network.take_down(away)
    before = cluster.machines[leader.node_id].applied_commands
    counter.restore(50_000)
    assert cluster.machines[leader.node_id].applied_commands == before + 1
    assert counter.value == 50_000
    counter.restore(49_000)  # already past it: nothing to commit
    assert cluster.machines[leader.node_id].applied_commands == before + 1
    cluster.restart(away)
    cluster.network.run_for(2.0)
    assert set(cluster.committed_values().values()) == {50_000}
    assert counter.take(3) == range(50_000, 50_003)


def test_range_commands_are_validated():
    cluster = CounterCluster(size=1, seed=2)
    with pytest.raises(ValueError):
        cluster.increment(0)
    machine = next(iter(cluster.machines.values()))
    for bad in ("increment", ("take", 0), ("take", "3"), ("give", 1), ("take",)):
        with pytest.raises(ValueError):
            machine.apply(bad)
    assert machine.value == 0 and machine.applied_commands == 0
    assert cluster.increment(7) == 0
    assert cluster.increment() == 7


def test_cluster_validates_size_and_shared_network():
    with pytest.raises(ValueError):
        CounterCluster(size=0)
    shared = SimulatedNetwork(seed=3)
    cluster = CounterCluster(size=3, network=shared)
    assert cluster.network is shared
    assert cluster.increment() == 0
