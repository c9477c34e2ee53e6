"""Blocks and block headers of the simulated chain.

A header commits to its body the way py-evm / Ethereum headers do, through a
transactions root, so a block hash is one permutation over a 96--128 byte
header however many transactions the block holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.transaction import Transaction
from repro.crypto.keccak import keccak256, keccak256_many

GENESIS_PARENT_HASH = b"\x00" * 32


@dataclass
class Block:
    """A mined block: header fields plus the ordered list of transactions."""

    number: int
    parent_hash: bytes
    timestamp: int
    transactions: list[Transaction] = field(default_factory=list)
    gas_used: int = 0
    #: flat state-root commitment over the post-block world state; empty on
    #: nodes running without a durability layer (see ``repro.storage``).
    state_root: bytes = b""
    #: the transactions a block this chain knows only by its header commits
    #: to: a recovered node's head, whose body executed on the node that
    #: crashed, so no receipt here answers for it (None: ``transactions``)
    body: "list[Transaction] | None" = None

    def transactions_root(self) -> bytes:
        """Root of the fan-out-4 Merkle tree over the transaction hashes.

        Each level groups its nodes by four, in order, and hashes every
        group's concatenation -- four children are one 128-byte sponge block,
        and a level is one :func:`~repro.crypto.keccak.keccak256_many` call.
        An incomplete last group is hashed as it is; a last group of *one*
        rides up to the next level unhashed.  So one transaction's root is
        its hash, and none is 32 zero bytes.  The tree's shape follows from
        the leaf count alone, which is why :meth:`hash` commits to the count
        beside the root.
        """
        level = [tx.hash() for tx in self._committed()]
        if not level:
            return b"\x00" * 32
        while len(level) > 1:
            groups = [b"".join(level[i:i + 4]) for i in range(0, len(level), 4)]
            rider = [groups.pop()] if len(groups[-1]) == 32 else []
            level = keccak256_many(groups) + rider
        return level[0]

    def hash(self) -> bytes:
        """Block hash: ``keccak256`` of the header, which names the body by
        transaction count and :meth:`transactions_root`.

        The state root is folded in only when present (nodes running without
        a durability layer have none).
        """
        return keccak256(
            self.number.to_bytes(8, "big")
            + self.parent_hash
            + self.timestamp.to_bytes(8, "big")
            + self.gas_used.to_bytes(8, "big")
            + len(self._committed()).to_bytes(8, "big")
            + self.transactions_root()
            + self.state_root
        )

    def _committed(self) -> list[Transaction]:
        return self.transactions if self.body is None else self.body

    @property
    def transaction_count(self) -> int:
        return len(self.transactions)


def genesis_block(timestamp: int = 0) -> Block:
    """The canonical genesis block."""
    return Block(number=0, parent_hash=GENESIS_PARENT_HASH, timestamp=timestamp)
