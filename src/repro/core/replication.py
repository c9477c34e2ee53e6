"""Token Service replication and fail-over (§VII-B "Availability").

A single TS is a single point of failure.  For tokens *without* the one-time
property, replicas are stateless with respect to each other and a simple
fail-over front end suffices.  For one-time tokens the replicas must agree on
the counter value; this module wires the Raft-backed
:class:`repro.consensus.counter.ReplicatedCounter` into a group of TS
replicas that share the signing key and the rule set, and puts a round-robin
front end in front of them.  The front end makes one attempt per submission
and carries what failed; re-submitting the failed requests to the next
replica is :class:`repro.api.middleware.RetryFailover`, around it.

The agreement costs one Raft commit per *envelope*, not per token: a
replica's staged issuance path reserves the whole index range of a
submission's allowed one-time requests with a single ``counter.take(n)``
before it signs any of them.  A replica that times out on the commit fails
exactly those requests (``COUNTER_TIMEOUT``, retryable); one that crashes
after the commit but before its signatures leaves the range reserved and
unused -- burned indexes the Alg. 2 bitmap never sees, never a repeated one.
The same holds for a submission whose session signature fails its check: the
check runs after ``take`` (the session is signed in the batch the range's
tokens are signed in), so the submission is answered ``INTERNAL`` and its
range is burned, never handed out again.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro.chain.address import Address, address_hex
from repro.chain.clock import SimulatedClock
from repro.consensus.counter import CounterCluster, CounterTimeout, ReplicatedCounter
from repro.core.acr import RuleSet
from repro.core.errors import ErrorCode, SmacsError
from repro.core.token_request import TokenRequest
from repro.core.token_service import IssuanceResult, TokenService
from repro.crypto.keys import KeyPair
from repro.crypto.sigcache import SignatureCache


class NoReplicaAvailable(SmacsError):
    """Every TS replica is marked down."""

    code = ErrorCode.NO_REPLICA


class ReplicatedTokenService:
    """A group of TS replicas behind a round-robin front end.

    All replicas share the same ``skTS`` (so any of them can issue tokens the
    contract will accept), the same rule set object (owner updates apply
    everywhere at once), and -- when one-time tokens are enabled -- a
    Raft-replicated counter guaranteeing globally unique indexes.  Each
    replica holds its *own* client handle onto the shared counter cluster
    (modelling one Raft client connection per web server), and every
    submission goes to the next live replica -- so a caller that re-submits
    what came back ``COUNTER_TIMEOUT`` reaches a different replica.
    """

    def __init__(
        self,
        replica_count: int = 3,
        keypair: KeyPair | None = None,
        rules: RuleSet | None = None,
        clock: SimulatedClock | None = None,
        token_lifetime: int = 3600,
        replicate_counter: bool = True,
        seed: int = 7,
        signature_cache: SignatureCache | None = None,
    ):
        if replica_count < 1:
            raise ValueError("need at least one replica")
        self.keypair = keypair or KeyPair.generate()
        self.rules = rules or RuleSet()
        self.clock = clock or SimulatedClock()
        self.signature_cache = signature_cache
        self.counter_cluster: CounterCluster | None = None
        if replicate_counter:
            self.counter_cluster = CounterCluster(size=replica_count, seed=seed)
        self.replicas: list[TokenService] = []
        for i in range(replica_count):
            replica = TokenService(
                keypair=self.keypair,
                rules=self.rules,
                clock=self.clock,
                token_lifetime=token_lifetime,
                counter=(
                    ReplicatedCounter(cluster=self.counter_cluster)
                    if self.counter_cluster is not None
                    else None
                ),
                label=f"ts-replica-{i}",
                signature_cache=signature_cache,
            )
            self.replicas.append(replica)
        self._down: set[int] = set()
        self._next = 0
        #: submissions a replica failed *whole* with a counter timeout
        self.transient_failovers = 0
        self._submit_lock = threading.Lock()  # one submission at a time (see submit)

    # -- identity --------------------------------------------------------------

    @property
    def address(self) -> Address:
        """The shared ``pkTS`` address (same :class:`Address` type as every
        other issuer -- contracts are preloaded with exactly this value)."""
        return self.keypair.address

    @property
    def address_hex(self) -> str:
        return address_hex(self.address)

    # -- failure control ---------------------------------------------------------

    def take_down(self, replica_index: int) -> None:
        """Simulate a replica outage (web server down)."""
        if not 0 <= replica_index < len(self.replicas):
            raise IndexError("no such replica")
        self._down.add(replica_index)

    def bring_up(self, replica_index: int) -> None:
        self._down.discard(replica_index)

    def available_replicas(self) -> list[int]:
        return [i for i in range(len(self.replicas)) if i not in self._down]

    # -- request routing -------------------------------------------------------------

    def _pick_replica(self) -> TokenService:
        available = self.available_replicas()
        if not available:
            raise NoReplicaAvailable("all Token Service replicas are down")
        # Round-robin over the available replicas.
        choice = available[self._next % len(available)]
        self._next += 1
        return self.replicas[choice]

    def submit(self, requests: "TokenRequest | Sequence[TokenRequest]") -> list[IssuanceResult]:
        """The :class:`~repro.api.protocol.TokenIssuer` batch path.

        One attempt, on the next live replica.  Never raises mid-batch: what
        failed comes back with its classified error (``COUNTER_TIMEOUT`` /
        ``NO_REPLICA``) inside the result, for the caller -- usually a
        :class:`~repro.api.middleware.RetryFailover` -- to re-submit.

        Submissions are serialized, as :meth:`TokenService.submit` serializes
        its own: the round-robin cursor and the fail-over counter are
        read-modify-write, and the replicas' counter handles drive one shared
        cluster, so two threads on two replicas would race on all three.
        """
        request_list = [requests] if isinstance(requests, TokenRequest) else list(requests)
        if not request_list:
            return []
        with self._submit_lock:
            try:
                return self._pick_replica().submit(request_list)
            except NoReplicaAvailable as exc:
                error: SmacsError = exc
            except CounterTimeout as exc:
                # A real TokenService.submit carries timeouts in its results, so
                # this branch guards against replicas whose whole submission dies
                # (custom issuers, fault injection at the submit boundary).
                self.transient_failovers += 1
                error = exc
        return [IssuanceResult.failure(request, error) for request in request_list]

    # -- owner management --------------------------------------------------------------

    def update_rules(self, mutate: Callable[[RuleSet], None]) -> None:
        """Rules are shared by reference; one update applies to every replica."""
        mutate(self.rules)

    # -- introspection -----------------------------------------------------------------

    @property
    def issued_count(self) -> int:
        return sum(replica.issued_count for replica in self.replicas)

    @property
    def denied_count(self) -> int:
        return sum(replica.denied_count for replica in self.replicas)

    def stats(self) -> dict[str, Any]:
        """Availability counters (the protocol's uniform introspection surface)."""
        return {
            "service": "replicated-token-service",
            "profile": "replicated",
            "replicas": len(self.replicas),
            "available": len(self.available_replicas()),
            "issued": self.issued_count,
            "denied": self.denied_count,
            "transient_failovers": self.transient_failovers,
            "replicated_counter": self.counter_cluster is not None,
        }

    def issued_indexes_are_unique(self) -> bool:
        """The replicated counter's replicas agree (so no index repeats)."""
        return self.counter_cluster is None or self.counter_cluster.replicas_agree()
