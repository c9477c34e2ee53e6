"""The end-to-end execution pipeline: mempool -> block builder -> executor.

:class:`ExecutionPipeline` wires the three stages around one
:class:`~repro.chain.chain.Blockchain` and the chain's
:class:`~repro.crypto.sigcache.SignatureCache` (``signature_cache=`` installs
one on the chain's execution engine, which holds the node's only reference):

* transactions **ingest** through the mempool's admission checks;
* :meth:`run_block` packs one gas-limited block and executes it with the
  batched cache pre-warm;
* :meth:`drain` repeats until the pool is empty, returning every block's
  result.

The pipeline is deliberately synchronous -- stages run back-to-back inside
one Python process -- but the *accounting* is production-shaped: admission
work happens once per transaction at ingest, block production touches only
cache-warmed material, and every rejection is counted by reason so a
workload's bitmap misses or duplicate indexes are visible instead of being
silent transaction failures.
"""

from __future__ import annotations

from typing import Iterable

from repro.chain.chain import Blockchain
from repro.chain.transaction import Transaction
from repro.crypto.sigcache import SignatureCache
from repro.obs import DORMANT, Observability
from repro.pipeline.builder import BlockBuilder, DEFAULT_BLOCK_GAS_LIMIT
from repro.pipeline.executor import BlockExecutor, BlockResult
from repro.pipeline.mempool import AdmissionDecision, Mempool


class ExecutionPipeline:
    """Mempool, block builder and block executor over one chain."""

    def __init__(
        self,
        chain: "Blockchain | None" = None,
        signature_cache: "SignatureCache | None" = None,
        block_gas_limit: int = DEFAULT_BLOCK_GAS_LIMIT,
    ):
        if chain is None:
            chain = Blockchain()
        self.chain = chain
        if signature_cache is not None:
            chain.evm.signature_cache = signature_cache
        self.mempool = Mempool(chain, max_gas_limit=block_gas_limit)
        self.builder = BlockBuilder(self.mempool, block_gas_limit=block_gas_limit)
        self.executor = BlockExecutor(chain)
        self.blocks_executed = 0
        self.transactions_executed = 0
        #: optional durability engine (``repro.storage.DurableStore``); set
        #: by its ``attach()`` -- the pipeline only drives the block-commit
        #: protocol, it never imports the storage layer.
        self.durability = None
        #: the :class:`repro.obs.Observability` handle; a live one is set by
        #: ``Observability.instrument_pipeline`` (which also attaches it to
        #: the mempool, builder, executor and -- when present -- the WAL).
        self.obs: Observability = DORMANT

    @property
    def signature_cache(self) -> SignatureCache:
        return self.chain.evm.signature_cache

    # -- ingest -----------------------------------------------------------------

    def ingest(
        self, txs: "Transaction | Iterable[Transaction]"
    ) -> list[AdmissionDecision]:
        """Admit transactions into the mempool (signature, nonce, SMACS checks)."""
        if isinstance(txs, Transaction):
            txs = [txs]
        return self.mempool.admit_many(txs)

    # -- block production ----------------------------------------------------------

    def run_block(self) -> "BlockResult | None":
        """Pack and execute the next block; None when the pool is empty.

        With a durability engine attached, ``begin_block`` announces the block
        before execution (mining then seals its delta and state root) and
        ``commit_block`` appends + fsyncs the WAL record afterwards -- a crash
        between the two loses only the in-memory block, which recovery
        rebuilds from the admission log (the crash-before-fsync scenario of
        the fault matrix).
        """
        # Root span for the block: the build / pre_warm / execute /
        # commit_fsync stage timers nest under it when tracing is enabled.
        with self.obs.tracer.span("pipeline.run_block"):
            plan = self.builder.build()
            if not plan:
                return None
            durability = self.durability
            if durability is not None:
                durability.begin_block()
            result = self.executor.execute(plan.transactions)
            self.mempool.remove(plan.transactions)
            self.blocks_executed += 1
            self.transactions_executed += result.executed
            if durability is not None:
                durability.commit_block(self.chain.latest_block, result)
            return result

    def drain(self, max_blocks: int = 10_000) -> list[BlockResult]:
        """Run blocks until the mempool is empty."""
        results: list[BlockResult] = []
        while len(self.mempool):
            result = self.run_block()
            if result is None:
                break
            results.append(result)
            if len(results) >= max_blocks:
                raise RuntimeError("drain exceeded max_blocks (stuck mempool?)")
        return results

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        return {
            "mempool": self.mempool.stats(),
            "blocks_executed": self.blocks_executed,
            "transactions_executed": self.transactions_executed,
            "signature_cache": self.signature_cache.stats(),
        }


__all__ = ["ExecutionPipeline"]
