"""Byzantine replica harnesses (§VII-B trust model, stressed past it).

The paper assumes the replicated Token Service and the on-chain verifier
stay *correct* under failure; the crash/partition/timeout injection of the
earlier fault suites stays inside that assumption.  These harnesses step
outside it: components that keep answering with **wrong** answers --

* :class:`StaleLeaderCounter` -- a counter client that keeps dialling a
  deposed Raft leader (a "zombie": partitioned away, still believing it
  leads at a stale term).  The zombie accepts commands that can never
  commit; the harness proves those answers are never converted into issued
  one-time indexes (the duplicate-index bug class PR 2's fix closed);
* :class:`EquivocatingCounter` -- a Byzantine counter that *succeeds* with
  wrong values: on a deterministic schedule the range it hands out repeats
  an index it already handed out (overlapping the previous range), or skips
  ahead.  The Token Service trusting it will sign two
  tokens with the same one-time index -- the on-chain Alg. 2 bitmap (and the
  mempool's reservation table) must accept at most one;
* :class:`CorruptingTransport` -- frame corruption at the transport edge: a
  :class:`~repro.api.protocol.Transport` wrapper that flips, truncates or
  garbles request bytes on a deterministic schedule before they reach the
  wire, so gateway envelope handling is exercised against hostile bytes;
* :func:`untrusted_twin_service` -- a Token Service that holds everything
  *except* the key: same rules, same clock, different ``skTS``.  Its tokens
  are well-formed and fresh, and every one of them must still be refused by
  the contract's ``ecrecover``-against-trusted-address check.

None of these harnesses patch the components under test -- they sit at the
same interfaces real Byzantine peers would occupy (the counter client, the
transport, a second signer), which is what makes a surviving invariant
meaningful.
"""

from __future__ import annotations

import random
from typing import Any

from repro.consensus.counter import CounterCluster, CounterTimeout
from repro.consensus.raft import RaftNode, Role
from repro.core.acr import RuleSet
from repro.core.token_service import TokenService
from repro.crypto.keys import KeyPair


class StaleLeaderCounter:
    """Counter client pinned to a zombie leader, with honest fallback.

    Drop-in for the Token Service's one-time counter (``take(count)``).
    :meth:`induce_zombie` partitions the current leader away from the
    majority and waits until a successor is elected -- the old leader is now
    *stale*: alive, reachable by this client, still role ``LEADER`` at an
    outdated term, still accepting ``client_request``.  Every ``take``
    call first offers the range reservation to the zombie -- whose stale
    counter value would make it overlap a range the majority has since
    committed -- and gives it a bounded window to "commit"; only when the
    zombie (necessarily) fails does the client fall back to the honest
    majority leader.

    ``zombie_answers`` counts commands the stale leader accepted;
    ``zombie_results`` counts those that ever produced a fulfilled client
    handle.  The latter staying 0 is exactly the PR 2 zombie-leader fix
    holding under deliberate attack.
    """

    def __init__(self, cluster: CounterCluster, patience: float = 0.6):
        self.cluster = cluster
        self.patience = patience
        self.zombie_id: "str | None" = None
        self.zombie_answers = 0
        self.zombie_results = 0
        self._issued = 0

    # -- scenario control ---------------------------------------------------------

    def induce_zombie(self, timeout: float = 5.0) -> str:
        """Partition the current leader into a minority; returns its id."""
        zombie = self.cluster.elect_leader(timeout=timeout)
        others = [n for n in self.cluster.nodes if n != zombie.node_id]
        self.cluster.network.partition(others, [zombie.node_id])
        self.zombie_id = zombie.node_id
        stale_term = zombie.current_term
        ok = self.cluster.network.run_until(
            lambda: self._majority_leader(stale_term) is not None, timeout=timeout
        )
        if not ok:  # pragma: no cover - the majority always re-elects
            raise CounterTimeout("no successor elected around the zombie leader")
        return zombie.node_id

    def heal(self) -> None:
        self.cluster.network.heal_partition()
        self.zombie_id = None

    def _majority_leader(self, stale_term: int) -> "RaftNode | None":
        for node in self.cluster.nodes.values():
            if (
                node.node_id != self.zombie_id
                and node.role is Role.LEADER
                and node.current_term > stale_term
                and not self.cluster.network.is_down(node.node_id)
            ):
                return node
        return None

    # -- counter interface --------------------------------------------------------

    def _offer_to_zombie(self, count: int) -> None:
        zombie = self.cluster.nodes.get(self.zombie_id or "")
        if zombie is None or zombie.role is not Role.LEADER:
            # The node noticed a newer term (e.g. after heal) -- no zombie.
            self.zombie_id = None
            return
        handle = zombie.client_request(("take", count))
        if handle is None:
            return
        self.zombie_answers += 1
        self.cluster.network.run_until(lambda: handle.applied, timeout=self.patience)
        if handle.applied:  # pragma: no cover - must never happen
            self.zombie_results += 1
            raise AssertionError(
                "a minority zombie leader fulfilled a client command: "
                f"index {handle.index} result {handle.result!r}"
            )

    def take(self, count: int) -> range:
        if self.zombie_id is not None:
            self._offer_to_zombie(count)
        first = self.cluster.increment(count)
        self._issued += count
        return range(first, first + count)

    @property
    def value(self) -> int:
        return max(self.cluster.committed_values().values(), default=0)

    def restore(self, value: int) -> None:  # pragma: no cover - persistence API
        behind = value - self.value
        if behind > 0:
            self.cluster.increment(behind)

    def stats(self) -> dict[str, int]:
        return {
            "zombie_answers": self.zombie_answers,
            "zombie_results": self.zombie_results,
            "issued": self._issued,
        }


class EquivocatingCounter:
    """A counter that answers -- sometimes with a lie.

    Wraps any honest counter (the local one or a replicated client).  The
    lie schedule runs per index handed out, wherever in a range it falls:

    * every ``duplicate_every``-th index is the **previous** one again -- the
      last index of the preceding range when it falls first in a range, so
      the two ranges overlap (two one-time tokens will carry the same index);
    * every ``skip_every``-th index burns one honest index and is the next
      (the issued index stream has holes).

    A whole range still costs the inner counter one ``take``: the schedule
    says up front how many honest indexes the range needs.  Both behaviours
    are what a compromised counter replica (or a buggy
    de-duplicating proxy) would produce.  Duplicates are the dangerous case:
    the Token Service signs both tokens, so only the mempool reservation
    table and the on-chain bitmap stand between the duplicate and a double
    acceptance.
    """

    def __init__(
        self,
        inner: Any,
        duplicate_every: int = 5,
        skip_every: int = 0,
    ):
        if duplicate_every < 0 or skip_every < 0:
            raise ValueError("equivocation schedules must be non-negative")
        self.inner = inner
        self.duplicate_every = duplicate_every
        self.skip_every = skip_every
        self.calls = 0
        self.duplicates_injected = 0
        self.skips_injected = 0
        self._last_index: "int | None" = None

    def take(self, count: int) -> list[int]:
        # How many honest indexes each position consumes: 0 repeats the
        # previous index, 2 burns one (never handed to anyone) first.
        plan: list[int] = []
        repeatable = self._last_index is not None
        for _ in range(count):
            self.calls += 1
            if self.duplicate_every and repeatable and self.calls % self.duplicate_every == 0:
                self.duplicates_injected += 1
                plan.append(0)
                continue
            burn = bool(self.skip_every) and self.calls % self.skip_every == 0
            self.skips_injected += burn
            plan.append(1 + burn)
            repeatable = True
        honest = iter(self.inner.take(sum(plan)) if any(plan) else ())
        indexes: list[int] = []
        for consumed in plan:
            for _ in range(consumed):
                self._last_index = next(honest)
            indexes.append(self._last_index)
        return indexes

    @property
    def value(self) -> int:
        return getattr(self.inner, "value", 0)

    def restore(self, value: int) -> None:  # pragma: no cover - persistence API
        if hasattr(self.inner, "restore"):
            self.inner.restore(value)

    def stats(self) -> dict[str, int]:
        return {
            "calls": self.calls,
            "duplicates_injected": self.duplicates_injected,
            "skips_injected": self.skips_injected,
        }


class CorruptingTransport:
    """Transport wrapper that damages request frames on a schedule.

    Implements the :class:`~repro.api.protocol.Transport` protocol around any
    inner transport (in-process or TCP).  Every ``corrupt_every``-th request
    is corrupted *before* it is handed to the inner transport -- one of three
    deterministic mutations chosen by a seeded RNG:

    * ``flip``      -- a byte in the middle of the envelope is XOR-flipped;
    * ``truncate``  -- the tail of the envelope is cut off;
    * ``garbage``   -- the envelope is replaced by random bytes of the same
      length (no codec magic, no JSON).

    The receiving gateway must answer each with a ``MALFORMED_REQUEST``
    error envelope (never crash, never issue); the caller sees the carried
    :class:`~repro.core.errors.SmacsError` and may re-send.  A real attacker
    on the path (or a failing NIC) produces exactly this traffic.
    """

    MUTATIONS = ("flip", "truncate", "garbage")

    def __init__(self, inner: Any, corrupt_every: int = 3, seed: int = 0):
        if corrupt_every < 1:
            raise ValueError("corrupt_every must be >= 1")
        self.inner = inner
        self.corrupt_every = corrupt_every
        self.random = random.Random(seed)
        self.requests = 0
        self.corrupted = 0
        self.mutations_used: dict[str, int] = {}

    def _mutate(self, raw: bytes) -> bytes:
        kind = self.MUTATIONS[self.corrupted % len(self.MUTATIONS)]
        self.mutations_used[kind] = self.mutations_used.get(kind, 0) + 1
        if kind == "flip" and raw:
            position = len(raw) // 2
            flipped = raw[position] ^ 0x5A or 0x5A
            return raw[:position] + bytes([flipped]) + raw[position + 1:]
        if kind == "truncate" and len(raw) > 2:
            return raw[: max(1, len(raw) // 3)]
        return bytes(self.random.getrandbits(8) for _ in range(max(1, len(raw))))

    def send(self, raw: bytes) -> bytes:
        self.requests += 1
        if self.requests % self.corrupt_every == 0:
            self.corrupted += 1
            raw = self._mutate(raw)
        return self.inner.send(raw)

    def close(self) -> None:
        self.inner.close()

    def describe(self) -> dict[str, Any]:
        return {
            "kind": "corrupting",
            "requests": self.requests,
            "corrupted": self.corrupted,
            "mutations": dict(self.mutations_used),
            "inner": self.inner.describe(),
        }


def untrusted_twin_service(
    trusted: TokenService,
    seed: str = "byzantine-twin",
) -> TokenService:
    """A Token Service clone that signs with the *wrong* key.

    Same rules object, same clock, same token lifetime -- everything a
    compromised or impersonating TS replica would plausibly have, except
    ``skTS``.  Its tokens are structurally perfect and fresh; the on-chain
    verifier must still refuse every one of them because ``ecrecover`` over
    the reconstructed datagram yields an address different from the trusted
    one stored at deployment.

    The twin deliberately does **not** share the signature cache: priming the
    shared cache would let the mempool refuse its tokens before they ever
    reach the chain, and the point of the harness is to prove the *on-chain*
    trust anchor.
    """
    twin_key = KeyPair.from_seed(seed)
    if twin_key.address == trusted.keypair.address:  # pragma: no cover
        raise ValueError("twin seed collides with the trusted key")
    return TokenService(
        keypair=twin_key,
        rules=trusted.rules if trusted.rules is not None else RuleSet(),
        clock=trusted.clock,
        token_lifetime=trusted.token_lifetime,
        label=f"{trusted.label}-byzantine-twin",
    )


__all__ = [
    "CorruptingTransport",
    "EquivocatingCounter",
    "StaleLeaderCounter",
    "untrusted_twin_service",
]
