"""The execution stage: pre-warm the signature cache, then run the block.

Token verification inside the EVM is dominated by two pure-Python costs --
the keccak-256 of the reconstructed datagram and the ``ecrecover`` curve math.
Both are memoized in the node's :class:`~repro.crypto.sigcache.
SignatureCache` (``chain.evm.signature_cache``), and both are *predictable*
from a planned block: every token's datagram can be reconstructed outside
the gas-metered path.  The
executor therefore walks the block plan once before execution and resolves
every ``(digest, signature)`` pair through the cache:

* tokens issued by a cache-sharing Token Service were primed at issuance and
  hit immediately;
* foreign tokens are checked here, once, against the trusted signer their
  contract stores (Alg. 1's own question, so from the third token a trusted
  key signs it is a fixed-base check, not a recovery) -- so the in-EVM
  ``ecrecover`` (and the verifier's datagram digest) are cache hits for every
  transaction in the block, no matter where its token came from.  A node
  restarted from disk re-primes its cold cache through this same pass.

Gas accounting is untouched: the EVM still charges the full precompile and
keccak costs; the pre-warm only moves the node-level work off the per-frame
critical path (and collapses it entirely for issuance-primed tokens).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.chain import Blockchain
from repro.chain.evm import Receipt
from repro.chain.transaction import Transaction
from repro.core.call_chain import tokens_carried
from repro.core.smacs_contract import SMACSContract
from repro.core.token import MalformedToken, Token
from repro.core.verifier import TS_ADDRESS_SLOT, reconstruct_datagram
from repro.crypto.ecdsa import Signature
from repro.obs import DORMANT, Observability


@dataclass(slots=True)
class BlockResult:
    """Receipts and bookkeeping from executing one planned block."""

    receipts: list[Receipt] = field(default_factory=list)
    executed: int = 0
    succeeded: int = 0
    smacs_denied: int = 0
    other_failures: int = 0
    prewarm_hits: int = 0
    prewarm_misses: int = 0

    @property
    def block_number(self) -> int:
        return self.receipts[0].block_number if self.receipts else 0


class BlockExecutor:
    """Executes block plans against a :class:`Blockchain`."""

    def __init__(self, chain: Blockchain):
        self.chain = chain
        #: the :class:`repro.obs.Observability` handle; a live one times the
        #: ``pre_warm`` and ``execute`` stages separately so a block's
        #: cache-warming cost is attributable apart from the EVM run.
        self.obs: Observability = DORMANT

    # -- the batched pre-warm pass ----------------------------------------------

    def pre_warm(self, transactions: list[Transaction]) -> tuple[int, int]:
        """Resolve every token's digest + Alg. 1 verdict through the node's cache.

        Walks the block plan, hashes the uncached datagrams by lanes, and asks
        :meth:`SignatureCache.recovery_matches` of every ``(digest,
        signature)`` pair the cache cannot answer yet whether it recovers to
        the trusted signer its contract stores -- the answer, and the only
        one, the in-EVM verifier will want.  A token whose contract stores no
        trusted signer can never verify and is not warmed.

        Returns ``(hits, misses)`` where a miss means the curve math ran
        here -- once, outside any gas-metered frame -- instead of inside
        the EVM.
        """
        with self.obs.stage("pre_warm"):
            cache = self.chain.evm.signature_cache
            state = self.chain.state
            datagrams: list[bytes] = []
            checks: list[tuple[Signature, bytes]] = []  # (signature, trusted signer)
            for tx in transactions:
                for address, raw in tokens_carried(tx).items():
                    # Call-chain bundles carry one entry per contract; each entry
                    # is verified by its own contract with the same datagram
                    # rules, so each is warmed against that contract.
                    target = self.chain.evm.contracts.get(address)
                    if not isinstance(target, SMACSContract):
                        continue
                    trusted = state.storage_get(address, TS_ADDRESS_SLOT, None)
                    if trusted is None:
                        continue
                    try:
                        token = Token.from_bytes(raw)
                    except MalformedToken:
                        continue
                    datagram = reconstruct_datagram(tx, target, token)
                    if datagram is None:
                        continue
                    datagrams.append(datagram)
                    checks.append((token.signature, trusted))
            misses = 0
            # The whole plan's datagrams are in hand: hash the uncached ones by lanes.
            for digest, (signature, trusted) in zip(cache.digests_for(datagrams), checks):
                # An intra-block replay of a not-yet-cached token finds the
                # answer its first copy left, so `misses` keeps meaning "curve
                # math ran here".
                if cache.peek_recovery_matches(digest, signature, trusted) is None:
                    cache.recovery_matches(digest, signature, trusted)
                    misses += 1
            return len(checks) - misses, misses

    # -- execution ----------------------------------------------------------------

    def execute(self, transactions: list[Transaction]) -> BlockResult:
        """Mine one block from already-admitted transactions."""
        result = BlockResult()
        if not transactions:
            return result
        result.prewarm_hits, result.prewarm_misses = self.pre_warm(transactions)
        # Timed after pre-warm, so "execute" is the EVM mine alone.  A raise
        # leaves the chain as it was and the plan in the mempool.
        with self.obs.stage("execute"):
            result.receipts = self.chain.mine_block(transactions)
            result.executed = len(result.receipts)
            for receipt in result.receipts:
                if receipt.success:
                    result.succeeded += 1
                elif receipt.error is not None and "SMACS" in receipt.error:
                    result.smacs_denied += 1
                else:
                    result.other_failures += 1
            return result


__all__ = [
    "BlockExecutor",
    "BlockResult",
    "reconstruct_datagram",
]
