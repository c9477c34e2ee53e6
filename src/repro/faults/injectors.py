"""Declarative fault plans for scenario-matrix cells.

A :class:`FaultPlan` is the *fault axis* of one matrix cell: a small object
the runner (:mod:`repro.workloads.matrix`) consults while it assembles the
issuance stack and drives the workload.  Plans are deliberately passive --
they only act through five well-defined seams, so the same workload code
runs unchanged under every fault:

``wrap_counter(counter, cluster)``
    replace or wrap the one-time counter the Token Service will trust
    (Byzantine counter plans live here);
``wrap_transport(transport)``
    wrap the wire transport a gateway-backed cell dials through
    (corrupt-frame plans live here);
``disk_hooks()``
    WAL fault hooks for the durable store of a ``needs_durability`` cell;
``setup / between_batches / before_block / teardown``
    lifecycle hooks around the load batches -- crash a Raft leader, cut a
    partition, heal it, arm a disk fault under the block about to commit,
    restore monkey-patched replicas;
``observations(env)``
    plan-specific counters merged into the cell's benchmark record.

The ``env`` passed to the lifecycle hooks is the runner's cell environment;
plans rely only on four documented attributes: ``env.cluster`` (the
:class:`~repro.consensus.counter.CounterCluster` behind issuance, possibly
``None``), ``env.rts`` (the replicated front end, possibly ``None``),
``env.notes`` (a free-form dict merged into the cell record) and
``env.forged_hashes`` (every forged transaction the runner sent so far).  Fail-over is
not a plan's business: every cell issues through the stack the product ships
(``RetryFailover`` around the replicated front end, ``GatewayClient``'s own
retry on the wire), and plans only make it work.
"""

from __future__ import annotations

from typing import Any

from repro.consensus.counter import CounterTimeout
from repro.core.errors import ErrorCode
from repro.faults.byzantine import (
    CorruptingTransport,
    EquivocatingCounter,
    StaleLeaderCounter,
)
from repro.faults.disk import DiskFaultInjector
from repro.faults.netem import NetemTransport


class FaultPlan:
    """No-op base plan (the ``none`` fault column)."""

    name = "none"
    kind = "none"
    #: plans that model *wrong answers* rather than silence
    byzantine = False
    #: plans that need their own CounterCluster wired to a single-service
    #: stack (the counter seam) instead of the replicated front end
    needs_counter_seam = False
    #: plans that act on the wire and need a gateway client between the load
    #: generators and the issuer (the transport seam)
    needs_transport_seam = False
    #: plans that need a durable node (WAL + backend) so they can kill it
    #: mid-workload and demand a recovery (the disk seam); the runner
    #: restarts the node from its disk image when the fault fires
    needs_durability = False
    #: error codes a transport-seam cell's gateway client re-sends a frame
    #: for (its ``Backoff.codes``) -- corrupt-frame plans surface ``MALFORMED_REQUEST``, netem drops
    #: surface ``UNAVAILABLE``; everything else must propagate so a cell
    #: cannot paper over an unexpected failure by retrying it
    retry_codes: "frozenset[ErrorCode]" = frozenset({ErrorCode.MALFORMED_REQUEST})

    # -- stack assembly seams ---------------------------------------------------

    def wrap_counter(self, counter: Any, cluster: Any) -> Any:
        return counter

    def wrap_transport(self, transport: Any) -> Any:
        return transport

    def disk_hooks(self) -> Any:
        """WAL fault hooks for durable cells (None = clean disk)."""
        return None

    # -- lifecycle ---------------------------------------------------------------

    def setup(self, env: Any) -> None:
        pass

    def between_batches(self, env: Any, batch_no: int) -> None:
        pass

    def before_block(self, env: Any, batch_no: int) -> None:
        """Batch ``batch_no`` is admitted; its block is about to be mined."""

    def teardown(self, env: Any) -> None:
        pass

    def observations(self, env: Any) -> dict[str, Any]:
        return {}


class LeaderCrashPlan(FaultPlan):
    """Crash the counter's Raft leader mid-run; restart it later."""

    kind = "crash"

    def __init__(self, crash_at: int = 1, restart_after: int = 1, name: str = "leader-crash"):
        self.name = name
        self.crash_at = crash_at
        self.restart_after = restart_after
        self._crashed: "str | None" = None
        self.crashes = 0

    def between_batches(self, env: Any, batch_no: int) -> None:
        if env.cluster is None:
            return
        if batch_no == self.crash_at:
            self._crashed = env.cluster.crash_leader()
            self.crashes += 1
        elif self._crashed is not None and batch_no == self.crash_at + self.restart_after:
            env.cluster.restart(self._crashed)
            self._crashed = None

    def teardown(self, env: Any) -> None:
        if self._crashed is not None and env.cluster is not None:
            env.cluster.restart(self._crashed)
            self._crashed = None

    def observations(self, env: Any) -> dict[str, Any]:
        return {"leader_crashes": self.crashes}


class PartitionPlan(FaultPlan):
    """Isolate the current leader in a minority partition; heal later."""

    kind = "partition"

    def __init__(self, cut_at: int = 1, heal_after: int = 1, name: str = "leader-partition"):
        self.name = name
        self.cut_at = cut_at
        self.heal_after = heal_after
        self._cut = False
        self.partitions = 0

    def between_batches(self, env: Any, batch_no: int) -> None:
        if env.cluster is None:
            return
        if batch_no == self.cut_at:
            leader = env.cluster.elect_leader()
            others = [n for n in env.cluster.nodes if n != leader.node_id]
            env.cluster.network.partition(others, [leader.node_id])
            self._cut = True
            self.partitions += 1
        elif self._cut and batch_no == self.cut_at + self.heal_after:
            env.cluster.network.heal_partition()
            self._cut = False

    def teardown(self, env: Any) -> None:
        if self._cut and env.cluster is not None:
            env.cluster.network.heal_partition()
            self._cut = False

    def observations(self, env: Any) -> dict[str, Any]:
        return {"partitions_cut": self.partitions}


class TransientTimeoutPlan(FaultPlan):
    """Replicas intermittently answer ``COUNTER_TIMEOUT``; fail-over absorbs it.

    Every ``every``-th front-end batch submission against a replica raises a
    transient :class:`~repro.consensus.counter.CounterTimeout` before any
    token is issued, exactly the shape of a commit deadline missed during a
    leader election.  The front end answers it as error results and the
    cell's ``RetryFailover`` re-submits them to the next replica.
    """

    kind = "timeout"

    def __init__(self, every: int = 4, name: str = "transient-timeouts"):
        if every < 2:
            raise ValueError("every must be >= 2 (every call failing can never recover)")
        self.name = name
        self.every = every
        self.injected = 0
        self._originals: list[tuple[Any, Any]] = []

    def setup(self, env: Any) -> None:
        if env.rts is None:
            return
        plan = self
        for replica in env.rts.replicas:
            original = replica.submit
            calls = {"n": 0}

            def flaky(requests, _original=original, _calls=calls):
                _calls["n"] += 1
                if _calls["n"] % plan.every == 0:
                    plan.injected += 1
                    raise CounterTimeout("injected: commit deadline exceeded")
                return _original(requests)

            self._originals.append((replica, original))
            replica.submit = flaky  # type: ignore[method-assign]

    def teardown(self, env: Any) -> None:
        for replica, original in self._originals:
            replica.submit = original
        self._originals.clear()

    def observations(self, env: Any) -> dict[str, Any]:
        return {
            "timeouts_injected": self.injected,
            "transient_failovers": env.rts.transient_failovers if env.rts else 0,
        }


class StaleLeaderPlan(FaultPlan):
    """Byzantine: a deposed leader keeps answering; its answers must be inert."""

    kind = "byzantine"
    byzantine = True
    needs_counter_seam = True

    def __init__(self, induce_at: int = 1, heal_after: int = 2, name: str = "stale-leader"):
        self.name = name
        self.induce_at = induce_at
        self.heal_after = heal_after
        self.harness: "StaleLeaderCounter | None" = None

    def wrap_counter(self, counter: Any, cluster: Any) -> Any:
        self.harness = StaleLeaderCounter(cluster)
        return self.harness

    def between_batches(self, env: Any, batch_no: int) -> None:
        if self.harness is None:
            return
        if batch_no == self.induce_at:
            self.harness.induce_zombie()
        elif batch_no == self.induce_at + self.heal_after:
            self.harness.heal()

    def teardown(self, env: Any) -> None:
        if self.harness is not None and self.harness.zombie_id is not None:
            self.harness.heal()

    def observations(self, env: Any) -> dict[str, Any]:
        return dict(self.harness.stats()) if self.harness else {}


class EquivocationPlan(FaultPlan):
    """Byzantine: the counter lies -- duplicate and skipped one-time indexes."""

    kind = "byzantine"
    byzantine = True
    needs_counter_seam = True

    def __init__(
        self, duplicate_every: int = 5, skip_every: int = 7, name: str = "equivocating-counter"
    ):
        self.name = name
        self.duplicate_every = duplicate_every
        self.skip_every = skip_every
        self.harness: "EquivocatingCounter | None" = None

    def wrap_counter(self, counter: Any, cluster: Any) -> Any:
        self.harness = EquivocatingCounter(
            counter, duplicate_every=self.duplicate_every, skip_every=self.skip_every
        )
        return self.harness

    def observations(self, env: Any) -> dict[str, Any]:
        return dict(self.harness.stats()) if self.harness else {}


class CorruptFramesPlan(FaultPlan):
    """Byzantine edge: request frames are damaged before they hit the wire."""

    kind = "byzantine"
    byzantine = True
    needs_transport_seam = True

    def __init__(self, corrupt_every: int = 3, seed: int = 0, name: str = "corrupt-frames"):
        self.name = name
        self.corrupt_every = corrupt_every
        self.seed = seed
        self.harness: "CorruptingTransport | None" = None

    def wrap_transport(self, transport: Any) -> Any:
        self.harness = CorruptingTransport(
            transport, corrupt_every=self.corrupt_every, seed=self.seed
        )
        return self.harness

    def observations(self, env: Any) -> dict[str, Any]:
        if self.harness is None:
            return {}
        return {
            "frames_sent": self.harness.requests,
            "frames_corrupted": self.harness.corrupted,
        }


class NetemPlan(FaultPlan):
    """Impaired network path: latency, jitter, frame drop, duplication.

    Wraps the cell's transport in a :class:`~repro.faults.netem.NetemTransport`.
    Dropped frames surface as ``UNAVAILABLE`` -- the gateway client's
    :class:`~repro.api.gateway.Backoff` re-sends those (and only those,
    beyond the default), which is exactly what its one re-send loop is for.
    """

    kind = "network"
    needs_transport_seam = True
    retry_codes = frozenset({ErrorCode.MALFORMED_REQUEST, ErrorCode.UNAVAILABLE})

    def __init__(
        self,
        latency_s: float = 0.0,
        jitter_s: float = 0.0,
        drop_every: int = 0,
        duplicate_every: int = 0,
        seed: int = 0,
        name: str = "netem",
    ):
        self.name = name
        self.latency_s = latency_s
        self.jitter_s = jitter_s
        self.drop_every = drop_every
        self.duplicate_every = duplicate_every
        self.seed = seed
        self.harness: "NetemTransport | None" = None

    def wrap_transport(self, transport: Any) -> Any:
        self.harness = NetemTransport(
            transport,
            latency_s=self.latency_s,
            jitter_s=self.jitter_s,
            drop_every=self.drop_every,
            duplicate_every=self.duplicate_every,
            seed=self.seed,
        )
        return self.harness

    def observations(self, env: Any) -> dict[str, Any]:
        if self.harness is None:
            return {}
        return {
            "frames_sent": self.harness.requests,
            "frames_dropped": self.harness.dropped,
            "frames_duplicated": self.harness.duplicated,
            "netem_delay_total_s": round(self.harness.delay_total_s, 6),
        }


class UntrustedSignerPlan(FaultPlan):
    """Byzantine: a twin Token Service with the wrong ``skTS`` joins the load.

    The runner interleaves ``forgeries_per_batch`` forged-token transactions
    from the twin alongside every batch of the honest load and counts them
    (with its own canary) in the record's ``forged_attempted``; the
    trusted-signer invariant demands exactly zero of them succeed.
    """

    kind = "byzantine"
    byzantine = True

    def __init__(self, forgeries_per_batch: int = 2, name: str = "untrusted-signer"):
        self.name = name
        self.forgeries_per_batch = forgeries_per_batch

    def observations(self, env: Any) -> dict[str, Any]:
        # every forgery the runner sent but its one canary
        return {"forged_txs": len(env.forged_hashes) - 1}


class DiskCrashPlan(FaultPlan):
    """Kill the durable node at a block-commit fsync; demand a recovery.

    The runner attaches a durable store carrying this plan's WAL hooks; the
    plan arms the injector once batch ``crash_after_batch`` is admitted, so
    that batch's block commit dies with ``SimulatedCrash``.  The runner then
    rebuilds the node from disk and resumes the workload at the next batch;
    the block-derived invariants are asserted across the restart boundary.

    ``mode`` picks the disk image left behind (see
    :mod:`repro.faults.disk`): clean page-cache loss, a torn write, or a
    bit-flipped record.
    """

    kind = "disk"
    needs_durability = True

    def __init__(
        self,
        mode: str = "crash-before-fsync",
        crash_after_batch: int = 1,
        name: str = "crash-restart",
    ):
        self.name = name
        self.mode = mode
        self.crash_after_batch = crash_after_batch
        self.harness: "DiskFaultInjector | None" = None

    def disk_hooks(self) -> DiskFaultInjector:
        self.harness = DiskFaultInjector(mode=self.mode)
        return self.harness

    def before_block(self, env: Any, batch_no: int) -> None:
        if batch_no == self.crash_after_batch and self.harness is not None:
            self.harness.arm()

    def observations(self, env: Any) -> dict[str, Any]:
        harness_stats = self.harness.stats() if self.harness else {}
        return {
            "disk_fault_mode": self.mode,
            "crashes": 1 if harness_stats.get("crashed") else 0,
            "syncs_before_crash": harness_stats.get("syncs_seen", 0),
        }


__all__ = [
    "CorruptFramesPlan",
    "DiskCrashPlan",
    "EquivocationPlan",
    "FaultPlan",
    "LeaderCrashPlan",
    "PartitionPlan",
    "StaleLeaderPlan",
    "TransientTimeoutPlan",
    "UntrustedSignerPlan",
]
