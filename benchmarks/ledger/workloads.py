"""The four named workloads and their seeded op streams.

A workload is an endless, deterministic stream of wallet ops; segments are
time-boxed windows over it.  ``--seed`` drives account order, argument
values and the positions of adversarial ops -- the program under test only
ever sees the generated requests and transactions.  Names are fixed: later
issues cite them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

#: block size in admitted transactions (the harness cuts a block at this many)
BLOCK_TXS = 64
#: the section VI-A CryptoKitties peak, arrivals per second
OPEN_LOOP_RATE = 48.0
#: ``reuse_replay_mix``: a wallet re-fetches its reusable token every this many ops
REUSE_EPOCH_OPS = 1_280
#: ``reuse_replay_mix`` composition, per hundred ops
MIX_PER_HUNDRED = (("reuse", 80), ("fresh", 10), ("replay", 5), ("forged", 3), ("stolen", 2))

FRESH, REUSE, REPLAY, FORGED, STOLEN = "fresh", "reuse", "replay", "forged", "stolen"
#: op kinds whose transactions must be refused (at admission or on-chain)
ADVERSARIAL = frozenset({REPLAY, FORGED, STOLEN})


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str          # "closed" | "open"
    token: str         # "method" | "argument"
    batch: int         # tokens (and transactions) per envelope
    wire_codec: str    # codec lane of the client connection
    ruleset: str       # "permissive" | "fig6"
    mixed: bool = False


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("onetime_single", "closed", "method", 1, "json", "permissive"),
        Workload("onetime_open48", "open", "method", 1, "json", "permissive"),
        Workload("argument_batch32", "closed", "argument", 32, "binary", "fig6"),
        Workload("reuse_replay_mix", "closed", "method", 1, "json", "permissive", mixed=True),
    )
}


@dataclass(frozen=True)
class Op:
    """One wallet op: fetch token(s) if needed, sign, submit for admission."""

    index: int
    kind: str
    clients: "tuple[int, ...]"    # account indexes, distinct within the op
    amounts: "tuple[int, ...]"    # the ``amount`` argument of each transaction
    #: ``stolen``: whose reusable token is presented; ``replay``: selects the
    #: spent one-time token (``pick`` modulo how many have been spent so far)
    pick: int = 0

    @property
    def expect_success(self) -> bool:
        return self.kind not in ADVERSARIAL


def op_stream(
    workload: Workload, seed: int, clients: int, *, amounts: int, lane: str = "run"
) -> Iterator[Op]:
    """The workload's ops for ``seed``; ``lane`` separates warm-up from run."""
    rng = random.Random(f"ledger:{workload.name}:{seed}:{lane}")
    order: "list[int]" = []
    kinds: "list[str]" = []
    index = 0
    while True:
        while len(order) < workload.batch:
            # Every account appears once per pass, in seeded order.
            order.extend(rng.sample(range(clients), clients))
        chosen, order = tuple(order[: workload.batch]), order[workload.batch:]
        kind = FRESH
        pick = 0
        if workload.mixed:
            if not kinds:
                # Stratified: every hundred ops hold the exact mix, shuffled,
                # so gas_per_tx does not drift with the luck of the draw.
                kinds = [name for name, share in MIX_PER_HUNDRED for _ in range(share)]
                rng.shuffle(kinds)
            kind = kinds.pop()
            if kind == STOLEN:
                pick = rng.choice([c for c in range(clients) if c != chosen[0]])
            elif kind == REPLAY:
                pick = rng.randrange(1 << 30)
        yield Op(
            index=index,
            kind=kind,
            clients=chosen,
            amounts=tuple(rng.randint(1, amounts) for _ in chosen),
            pick=pick,
        )
        index += 1


def arrival_offsets(
    workload: Workload, seed: int, segment: int, count: int, span: float
) -> "list[float]":
    """Open-loop due times within one segment.

    Given that ``count`` Poisson arrivals fall in ``[0, span)``, their times
    are distributed as sorted uniforms -- so every segment offers exactly the
    nominal rate while gaps stay memoryless.
    """
    rng = random.Random(f"ledger:{workload.name}:{seed}:arrivals:{segment}")
    return sorted(rng.uniform(0.0, span) for _ in range(count))
