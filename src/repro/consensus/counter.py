"""The replicated counter primitive (§VII-B).

A :class:`CounterCluster` runs a small Raft group whose state machine is a
monotonically increasing counter.  :class:`ReplicatedCounter` exposes the
``take(count)`` interface the Token Service expects from its one-time
counter: one Raft command reserves a whole contiguous index range, routed
through the current leader and awaited (in simulated time) until it commits
-- so an envelope of any size costs one consensus round, and every issued
one-time token index is unique and monotone even across leader failures.

A range is reserved *before* its tokens are signed.  A Token Service that
crashes (or fails over) between ``take`` and the signatures leaves that
range committed and unused: burned indexes, holes the Alg. 2 bitmap never
sees -- never a repeat.
"""

from __future__ import annotations

from typing import Any

from repro.consensus.network import SimulatedNetwork
from repro.consensus.raft import RaftNode, Role
from repro.core.errors import ErrorCode, SmacsError


class CounterTimeout(SmacsError, RuntimeError):
    """A counter increment could not commit within its deadline.

    Raised instead of a bare ``RuntimeError`` so front ends can tell a
    *transient* condition (leader election in progress, partition healing)
    from a programming error and retry the request -- typically through a
    different Token Service replica (see
    :class:`repro.core.replication.ReplicatedTokenService`).  Part of the
    :class:`~repro.core.errors.SmacsError` taxonomy (``COUNTER_TIMEOUT``,
    retryable), so the batch issuance path can carry it inside an
    ``IssuanceResult``; it stays a ``RuntimeError`` for legacy handlers.
    """

    code = ErrorCode.COUNTER_TIMEOUT


class CounterStateMachine:
    """The replicated state: a single integer counter."""

    def __init__(self) -> None:
        self.value = 0
        self.applied_commands = 0

    def apply(self, command: Any) -> int:
        """Apply ``("take", count)``: reserve ``count`` indexes, return the first."""
        match command:
            case ("take", int(count)) if count >= 1:
                value = self.value
                self.value += count
                self.applied_commands += 1
                return value
        raise ValueError(f"unknown counter command {command!r}")


class CounterCluster:
    """A Raft-replicated counter cluster of ``size`` replicas."""

    def __init__(self, size: int = 3, seed: int = 7, network: SimulatedNetwork | None = None):
        if size < 1:
            raise ValueError("cluster needs at least one replica")
        self.network = network or SimulatedNetwork(seed=seed)
        self.machines: dict[str, CounterStateMachine] = {}
        self.nodes: dict[str, RaftNode] = {}
        node_ids = [f"ts-replica-{i}" for i in range(size)]
        for node_id in node_ids:
            machine = CounterStateMachine()
            self.machines[node_id] = machine
            self.nodes[node_id] = RaftNode(
                node_id, node_ids, self.network, apply_command=machine.apply
            )

    # -- cluster operations -----------------------------------------------------

    def elect_leader(self, timeout: float = 5.0) -> RaftNode:
        """Run the simulation until some replica becomes leader."""
        ok = self.network.run_until(lambda: self.leader() is not None, timeout=timeout)
        if not ok:
            raise CounterTimeout("no leader elected within the timeout")
        leader = self.leader()
        assert leader is not None
        return leader

    def leader(self) -> RaftNode | None:
        alive_leaders = [
            node
            for node in self.nodes.values()
            if node.role is Role.LEADER and not self.network.is_down(node.node_id)
        ]
        if not alive_leaders:
            return None
        # With a healthy cluster there is one; during transitions prefer the
        # highest term.
        return max(alive_leaders, key=lambda node: node.current_term)

    def crash_leader(self) -> str:
        """Take the current leader down; returns its id."""
        leader = self.elect_leader()
        self.network.take_down(leader.node_id)
        return leader.node_id

    def restart(self, node_id: str) -> None:
        self.network.bring_up(node_id)

    def committed_values(self) -> dict[str, int]:
        """Counter value applied on each replica (for agreement checks)."""
        return {node_id: machine.value for node_id, machine in self.machines.items()}

    def replicas_agree(self) -> bool:
        """Let in-flight replication drain, then: did every live replica
        converge on one committed value?  (Agreement implies no index was
        handed out twice.)"""
        self.network.run_for(2.0)
        live = {
            value
            for node_id, value in self.committed_values().items()
            if not self.network.is_down(node_id)
        }
        return len(live) <= 1

    # -- counter interface ----------------------------------------------------------

    def increment(self, count: int = 1, timeout: float = 5.0, retries: int = 10) -> int:
        """Commit one command advancing the counter by ``count``; returns the
        pre-increment value (the first index of the reserved range)."""
        if count < 1:
            raise ValueError("a counter command reserves at least one index")
        for _ in range(retries):
            leader = self.elect_leader(timeout=timeout)
            handle = leader.client_request(("take", count))
            if handle is None:
                self.network.run_for(0.05)
                continue
            ok = self.network.run_until(lambda: handle.applied, timeout=timeout)
            if ok:
                return handle.result
            # The command may have been lost with a deposed leader; retry.
            self.network.run_for(0.1)
        raise CounterTimeout("replicated counter could not commit an increment")


class ReplicatedCounter:
    """Drop-in replacement for the Token Service's local one-time counter."""

    def __init__(self, cluster: CounterCluster | None = None, size: int = 3, seed: int = 7):
        self.cluster = cluster or CounterCluster(size=size, seed=seed)
        self._issued = 0

    def take(self, count: int) -> range:
        """Reserve ``count`` consecutive indexes with one Raft commit."""
        first = self.cluster.increment(count)
        self._issued += count
        return range(first, first + count)

    @property
    def value(self) -> int:
        leader = self.cluster.leader()
        if leader is None:
            return max(self.cluster.committed_values().values(), default=0)
        return self.cluster.machines[leader.node_id].value

    def restore(self, value: int) -> None:
        """Catch the replicated counter up to ``value`` (persistence reload):
        one command for the whole gap, however large."""
        behind = value - self.value
        if behind > 0:
            self.cluster.increment(behind)
