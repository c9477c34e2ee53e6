"""The block builder: pack admitted transactions under a gas limit.

Ethereum blocks are bounded by gas, not by transaction count; a builder that
ignores this either under-fills blocks (wasting the per-block overhead the
pipeline exists to amortise) or over-fills them (executing transactions that
must be carried over).  This builder packs the mempool's admission-ordered
queue greedily -- each transaction is budgeted at its declared ``gas_limit``,
the same worst-case bound a real builder must reserve -- while preserving
per-sender nonce order: when a sender's next transaction does not fit, the
sender's later transactions are *not* considered for this block (a nonce gap
would invalidate them all).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.transaction import Transaction
from repro.obs import DORMANT, Observability
from repro.pipeline.mempool import DEFAULT_BLOCK_GAS_LIMIT, Mempool


@dataclass
class BlockPlan:
    """An ordered set of transactions scheduled for one block."""

    transactions: list[Transaction] = field(default_factory=list)
    gas_budget: int = 0          # sum of per-transaction gas limits
    gas_limit: int = DEFAULT_BLOCK_GAS_LIMIT
    deferred: int = 0            # pool entries that did not fit this block

    @property
    def transaction_count(self) -> int:
        return len(self.transactions)

    @property
    def fill_ratio(self) -> float:
        return self.gas_budget / self.gas_limit if self.gas_limit else 0.0

    def __bool__(self) -> bool:
        return bool(self.transactions)


class BlockBuilder:
    """Greedy gas-limit packer over a :class:`Mempool`."""

    def __init__(self, mempool: Mempool, block_gas_limit: int = DEFAULT_BLOCK_GAS_LIMIT):
        if block_gas_limit <= 0:
            raise ValueError("block gas limit must be positive")
        self.mempool = mempool
        self.block_gas_limit = block_gas_limit
        self.blocks_planned = 0
        #: the :class:`repro.obs.Observability` handle; a live one times
        #: :meth:`build` into the ``build`` stage histogram.
        self.obs: Observability = DORMANT

    def build(self) -> BlockPlan:
        """Plan the next block from the current pool contents.

        The planned transactions stay in the mempool until the executor
        reports them included (crash safety: an executor that dies mid-block
        loses no transactions).
        """
        with self.obs.stage("build"):
            plan = BlockPlan(gas_limit=self.block_gas_limit)
            skipped_senders: set[bytes] = set()
            for tx in self.mempool.transactions():
                if tx.sender in skipped_senders:
                    plan.deferred += 1
                    continue
                if plan.gas_budget + tx.gas_limit > self.block_gas_limit:
                    # Nonce ordering: once one of a sender's transactions is
                    # deferred, all its later ones must wait too.
                    skipped_senders.add(tx.sender)
                    plan.deferred += 1
                    continue
                plan.transactions.append(tx)
                plan.gas_budget += tx.gas_limit
            if plan:
                self.blocks_planned += 1
            return plan


__all__ = ["BlockBuilder", "BlockPlan", "DEFAULT_BLOCK_GAS_LIMIT"]
