"""Batched, sharded token issuance -- the high-throughput front end.

The single :class:`~repro.core.token_service.TokenService` of the paper
processes requests strictly serially and pays the front-end session overhead
(TLS-grade sign + verify) per submission.  This module adds the pipeline the
ROADMAP's production-scale target needs, without changing what a token *is*:

* **Sharding** -- ``shards`` worker services share the signing key, the rule
  set and the clock, so any shard can issue tokens every contract accepts.
  Each shard owns a private one-time counter that leases contiguous index
  blocks from a common :class:`IndexBlockAllocator`; indexes stay globally
  unique while shards never contend per request.  Because shards draw from
  different blocks, concurrently issued indexes are spread over at most
  :attr:`BatchTokenService.max_index_dispersion` ``= shards x
  index_block_size`` positions -- a contract's one-time bitmap must cover at
  least that many bits or tokens from older blocks are rejected as Alg. 2
  window misses.  The paper's sizing rule (``token_lifetime x
  max_tx_per_second``, 126 000 bits for the Tab. IV workload) exceeds the
  default dispersion of 256 by orders of magnitude, but keep the bound in
  mind when deploying test contracts with tiny bitmaps.
* **Batch amortisation** -- one submission-level session overhead is paid per
  batch, not per request (the effect behind the rising curve of Fig. 9,
  applied across the whole pipeline).
* **Signature memoisation** -- token signing is RFC-6979 deterministic, so
  identical non-one-time requests inside a token-lifetime window reproduce
  the same digest and signature.  Shards share an LRU
  :class:`~repro.crypto.sigcache.SignatureCache`; by default it is the same
  process-wide cache the execution engine's ``ecrecover`` path uses, so a
  token issued here warms the verifier and vice versa.

The shards model worker processes of a scaled-out deployment inside one
Python process (like the replicas of
:class:`~repro.core.replication.ReplicatedTokenService`, which solve the
orthogonal availability problem); wall-clock wins come from doing strictly
less cryptographic work per request, not from pretend concurrency.
"""

import threading
from typing import Any, Callable, Sequence

from repro.chain.address import Address, address_hex
from repro.chain.clock import SimulatedClock
from repro.core.acr import RuleSet
from repro.core.token_request import TokenRequest
from repro.core.token_service import (
    DEFAULT_TOKEN_LIFETIME,
    IssuanceResult,
    TokenService,
    session_message,
)
from repro.crypto.keys import KeyPair
from repro.crypto.sigcache import DEFAULT_SIGNATURE_CACHE, SignatureCache


class IndexBlockAllocator:
    """Hands out disjoint, contiguous one-time index ranges to shards."""

    def __init__(self, block_size: int = 256, start: int = 0):
        if block_size <= 0:
            raise ValueError("block size must be positive")
        self.block_size = block_size
        self._next_base = start

    def lease(self) -> tuple:
        """Reserve the next ``[base, base + block_size)`` range."""
        base = self._next_base
        self._next_base += self.block_size
        return (base, base + self.block_size)

    @property
    def value(self) -> int:
        """Highest index any lease may have reached (persistence checkpoint)."""
        return self._next_base

    def restore(self, value: int) -> None:
        """Resume allocation above a persisted checkpoint (never reuse)."""
        self._next_base = max(self._next_base, value)


class ShardCounter:
    """Per-shard counter drawing contiguous blocks from a shared allocator.

    Compatible with the ``take(count)`` / ``value`` interface of the Token
    Service's local counter, so a shard is just a ``TokenService`` with this
    counter plugged in.
    """

    def __init__(self, allocator: IndexBlockAllocator):
        self._allocator = allocator
        self._next = 0
        self._limit = 0  # exhausted; the first take() leases a block

    def take(self, count: int) -> list[int]:
        """The shard's next ``count`` indexes: the rest of its current block,
        then freshly leased ones -- consecutive except across a lease."""
        indexes: list[int] = []
        while len(indexes) < count:
            if self._next >= self._limit:
                self._next, self._limit = self._allocator.lease()
            end = min(self._limit, self._next + count - len(indexes))
            indexes.extend(range(self._next, end))
            self._next = end
        return indexes

    @property
    def value(self) -> int:
        return self._allocator.value


class BatchTokenService:
    """A sharded Token Service front end with per-batch amortised overhead."""

    def __init__(
        self,
        keypair: "KeyPair | None" = None,
        rules: "RuleSet | None" = None,
        clock: "SimulatedClock | None" = None,
        token_lifetime: int = DEFAULT_TOKEN_LIFETIME,
        shards: int = 4,
        index_block_size: int = 64,
        signature_cache: "SignatureCache | None" = None,
        label: str = "batch-token-service",
    ):
        if shards < 1:
            raise ValueError("need at least one shard")
        self.keypair = keypair if keypair is not None else KeyPair.generate()
        self.rules = rules if rules is not None else RuleSet()
        self.clock = clock if clock is not None else SimulatedClock()
        self.label = label
        self.signature_cache = (
            signature_cache if signature_cache is not None else DEFAULT_SIGNATURE_CACHE
        )
        self.allocator = IndexBlockAllocator(block_size=index_block_size)
        self.shards: list[TokenService] = [
            TokenService(
                keypair=self.keypair,
                rules=self.rules,
                clock=self.clock,
                token_lifetime=token_lifetime,
                counter=ShardCounter(self.allocator),
                label=f"{label}-shard-{i}",
                signature_cache=self.signature_cache,
            )
            for i in range(shards)
        ]
        self.batches_processed = 0
        self._shard_loads = [0] * shards
        # The shards are dealt to through ``_issue``, under this lock instead
        # of their own: the allocator and the books above are shared.
        self._submit_lock = threading.Lock()

    # -- identity --------------------------------------------------------------

    @property
    def address(self) -> Address:
        """The shared ``pkTS`` address (what contracts are preloaded with)."""
        return self.keypair.address

    @property
    def address_hex(self) -> str:
        return address_hex(self.address)

    @property
    def max_index_dispersion(self) -> int:
        """Worst-case spread of concurrently issued one-time indexes.

        Target contracts must allocate at least this many bitmap bits, or
        tokens drawn from older shard blocks can be missed (see the module
        docstring).
        """
        return len(self.shards) * self.allocator.block_size

    # -- request routing -------------------------------------------------------

    def submit(self, requests: "TokenRequest | Sequence[TokenRequest]") -> list[IssuanceResult]:
        """Process one batch through the sharded pipeline (the
        :class:`~repro.api.protocol.TokenIssuer` batch path).

        The front-end session overhead is paid once for the whole batch, and
        requests are dealt round-robin across the shards; result order
        matches request order.  Single requests are one-element batches.
        Batches are serialized, as :meth:`TokenService.submit` serializes
        submissions: the shards share one index allocator.
        """
        if isinstance(requests, TokenRequest):
            requests = [requests]
        with self._submit_lock:
            self.batches_processed += 1
            # One session's worth of real front-end work for the whole batch: it
            # rides the first shard's pass (and is all that pass does when the
            # batch is empty).
            session = session_message(requests)
            results: "list[IssuanceResult | None]" = [None] * len(requests)
            shard_count = len(self.shards)
            for shard_index, shard in enumerate(self.shards):
                positions = range(shard_index, len(requests), shard_count)
                self._shard_loads[shard_index] += len(positions)
                dealt = shard._issue(
                    [requests[position] for position in positions],
                    session if shard_index == 0 else None,
                )
                for position, result in zip(positions, dealt):
                    results[position] = result
            return results

    # -- owner management ------------------------------------------------------

    def update_rules(self, mutate: Callable[[RuleSet], None]) -> None:
        """Rules are shared by reference; one update applies to every shard."""
        mutate(self.rules)

    # -- introspection ---------------------------------------------------------

    @property
    def issued_count(self) -> int:
        return sum(shard.issued_count for shard in self.shards)

    @property
    def denied_count(self) -> int:
        return sum(shard.denied_count for shard in self.shards)

    def stats(self) -> dict[str, Any]:
        """Pipeline counters for benchmarks and monitoring."""
        return {
            "service": self.label,
            "profile": "sharded",
            "shards": len(self.shards),
            "batches_processed": self.batches_processed,
            "issued": self.issued_count,
            "denied": self.denied_count,
            "shard_loads": list(self._shard_loads),
            "next_unleased_index": self.allocator.value,
            "signature_cache": self.signature_cache.stats(),
        }
