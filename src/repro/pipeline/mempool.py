"""The SMACS-aware mempool: cheap admission checks at the ingest edge.

A production node does not discover that a transaction is garbage while it is
building a block -- it screens at admission, where a rejection costs
microseconds instead of a wasted block slot.  This mempool runs the node's
standard admission checks (signature, nonce, balance, dedup) plus three
SMACS-specific pre-checks that need no gas and no EVM frame:

* **expiry** -- a token whose ``expire`` already passed can never verify, so
  the transaction is refused on arrival;
* **datagram digest screen** -- the token's signed datagram is reconstructed
  from the transaction context and its digest fetched through the node's
  :class:`~repro.crypto.sigcache.SignatureCache` (``chain.evm``'s); when the
  cache already holds Alg. 1's verdict on the signature (primed at issuance,
  the normal case, or left by an earlier block) the mempool refuses tokens
  that provably do not recover to the contract's trusted Token Service.
  Unknown signatures are *not* computed here -- they are left for the block
  executor's pre-warm pass.  A contract that stores no trusted Token Service
  can never pass Alg. 1, so its tokens are refused without a lookup;
* **one-time index screen** -- :func:`repro.core.bitmap.screen`, the
  read-only half of Alg. 2, run over the contract's storage in the world
  state, refuses indexes that were already consumed on-chain or fell behind
  the window (never one the chain would accept), and an in-pool reservation
  table refuses a second pending transaction carrying the same index.

Checks run cheapest first -- dedup, gas limit, nonce, balance, the SMACS
screens -- and the transaction signature last, so only a transaction
that every lookup would let through pays for curve math.  What it pays
depends on whether the node has met the sender
(:meth:`repro.crypto.sigcache.SignatureCache.signed_by`): a first sight is a
full ``ecrecover`` (~1.2 ms) compared with the claimed address; the second
builds the now-known key's table and checks against it (~1.4 ms, once); every
later one is a fixed-base check of "recovers to this key" (~0.63 ms), the same
decision on every input.  Admission is the only place transaction signatures
are verified; the block executor hands each plan of admitted transactions to
:meth:`repro.chain.chain.Blockchain.mine_block`, which mines them without
re-validating, so the check is paid at most once per transaction.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable

from repro.chain.address import Address
from repro.chain.chain import Blockchain
from repro.chain.transaction import UNENCODABLE, Transaction, prime_digests
from repro.core import bitmap
from repro.core.call_chain import token_entries
from repro.core.smacs_contract import SMACSContract
from repro.core.token import MalformedToken, Token
from repro.core.verifier import TS_ADDRESS_SLOT, reconstruct_datagram
from repro.obs import DORMANT, Observability

#: Ethereum's block gas limit around the paper's evaluation period was
#: ~10M; the simulator's default is roomier so benchmark blocks can hold a
#: full burst of SMACS calls.  Lives here (not in the builder) because
#: admission must refuse transactions that could never fit one block.
DEFAULT_BLOCK_GAS_LIMIT = 30_000_000


class RejectReason(str, enum.Enum):
    """Stable identifiers for every reason admission refuses a transaction.

    The mempool's counterpart of :class:`~repro.core.errors.ErrorCode`: each
    member *is* its string (``decision.reason == "bad nonce"`` holds, and the
    values are what :meth:`Mempool.stats` and the committed scenario baselines
    are keyed by), so the strings are pinned and a new refusal is a new
    member, not a new spelling.  :func:`repro.core.bitmap.screen` answers
    with the names of ``NO_BITMAP``, ``INDEX_BEHIND_WINDOW`` and
    ``INDEX_CONSUMED``.
    """

    DUPLICATE_TRANSACTION = "duplicate transaction"
    GAS_LIMIT = "transaction gas limit exceeds the block gas limit"
    BAD_NONCE = "bad nonce"
    INSUFFICIENT_FUNDS = "insufficient funds"
    MALFORMED_TOKEN = "malformed or missing token entry"
    EXPIRED_TOKEN = "expired token"
    UNTRUSTED_TOKEN = "token not signed by the trusted Token Service"
    INDEX_IN_POOL = "duplicate one-time index in pool"
    NO_BITMAP = "contract has no one-time bitmap"
    INDEX_BEHIND_WINDOW = "one-time index fell behind the bitmap window (token miss)"
    INDEX_CONSUMED = "one-time index already consumed on-chain"
    INVALID_SIGNATURE = "invalid signature"
    MALFORMED_TRANSACTION = "malformed transaction"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """Outcome of one mempool admission attempt."""

    admitted: bool
    #: a :class:`RejectReason` when refused
    reason: str = "admitted"

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.admitted


#: every successful admission answers with this one (immutable) decision
_ADMITTED = AdmissionDecision(True)


@dataclass
class _PoolEntry:
    transaction: Transaction
    one_time_reservations: tuple  # ((contract, index), ...) held by this tx


class Mempool:
    """Admission-checked holding area feeding the block builder."""

    def __init__(self, chain: Blockchain, max_gas_limit: int = DEFAULT_BLOCK_GAS_LIMIT):
        self.chain = chain
        #: a transaction whose gas limit exceeds one block's budget can never
        #: be packed; admitting it would strand it (and any one-time index it
        #: reserves) in the pool forever.
        self.max_gas_limit = max_gas_limit
        self._pool: "OrderedDict[bytes, _PoolEntry]" = OrderedDict()
        self._pending_nonces: dict[Address, int] = {}   # extra nonces held in-pool
        self._pending_spend: dict[Address, int] = {}    # value committed in-pool
        self._reserved_indexes: set[tuple[Address, int]] = set()
        self.admitted_count = 0
        self.rejected: dict[str, int] = {}
        #: accounting disagreements detected by :meth:`remove` -- an included
        #: transaction whose sender had no nonce/spend recorded.  Always 0 for
        #: a healthy pool; never silently clamped away.
        self.accounting_underflows = 0
        #: called with each successfully admitted transaction -- the seam
        #: the durability layer uses to write mempool WAL records.
        self.admission_listener: "Any | None" = None
        #: the :class:`repro.obs.Observability` handle; a live one (attached
        #: by ``Observability.instrument_pipeline``) makes :meth:`admit_many`
        #: record the ``admission`` stage histogram.
        self.obs: Observability = DORMANT

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pool)

    def __contains__(self, tx_hash: bytes) -> bool:
        return tx_hash in self._pool

    def transactions(self) -> list[Transaction]:
        """Pool contents in admission (and therefore per-sender nonce) order."""
        return [entry.transaction for entry in self._pool.values()]

    def stats(self) -> dict:
        return {
            "pooled": len(self._pool),
            "admitted": self.admitted_count,
            "rejected": dict(self.rejected),
            "reserved_one_time_indexes": len(self._reserved_indexes),
            "accounting_underflows": self.accounting_underflows,
            "tracked_nonce_senders": len(self._pending_nonces),
            "tracked_spend_senders": len(self._pending_spend),
        }

    # -- admission -------------------------------------------------------------

    def admit(self, tx: Transaction) -> AdmissionDecision:
        """Run all admission checks; pool the transaction when they pass."""
        return self.admit_many((tx,))[0]

    def _admit(self, tx: Transaction) -> AdmissionDecision:
        try:
            tx.signing_digest()  # one pass over the payload also memoizes the hash
        except UNENCODABLE:
            return self._reject(RejectReason.MALFORMED_TRANSACTION)
        tx_hash = tx.hash()
        if tx_hash in self._pool or tx_hash in self.chain.receipts:
            return self._reject(RejectReason.DUPLICATE_TRANSACTION)

        decision = self._check_node_rules(tx)
        if decision is not None:
            return decision

        reservations = ()
        if tx.is_contract_call:
            smacs_decision, reservations = self._check_smacs(tx)
            if smacs_decision is not None:
                return smacs_decision

        # Curve math last: every screen above is a dict lookup or a storage
        # read, so a replayed index or a stale nonce is refused without
        # paying for a signature check it could never have passed anyway.
        if tx.signature is None or not self.chain.evm.signature_cache.signed_by(
            tx.signing_digest(), tx.signature, tx.sender
        ):
            return self._reject(RejectReason.INVALID_SIGNATURE)

        self._pool[tx_hash] = _PoolEntry(tx, reservations)
        self._pending_nonces[tx.sender] = self._pending_nonces.get(tx.sender, 0) + 1
        if tx.value:
            # Zero-value calls carry no spend to track; recording a 0 entry
            # would only grow the dict by one key per sender.
            self._pending_spend[tx.sender] = (
                self._pending_spend.get(tx.sender, 0) + tx.value
            )
        self._reserved_indexes.update(reservations)
        self.admitted_count += 1
        if self.admission_listener is not None:
            self.admission_listener(tx)
        return _ADMITTED

    def admit_many(self, txs: Iterable[Transaction]) -> list[AdmissionDecision]:
        """:meth:`admit` each transaction in order, hashing the batch by lanes.

        The transactions' signing digests and hashes are primed in one
        :func:`~repro.chain.transaction.prime_digests` call; every screen then
        runs per transaction exactly as a lone :meth:`admit` runs it.
        """
        txs = list(txs)
        obs = self.obs
        # Direct stage recording (no context manager, no span): admission is
        # the per-transaction hot path, so the cost is two clock reads and
        # one ``record_stage`` call per transaction.  The batch hash belongs
        # to no single transaction; its wall time is shared equally so the
        # stage's sum still covers it.
        t0 = obs.clock()
        prime_digests(txs)
        share = (obs.clock() - t0) / len(txs) if txs else 0.0
        decisions = []
        for tx in txs:
            t0 = obs.clock()
            decisions.append(self._admit(tx))
            obs.record_stage("admission", share + obs.clock() - t0)
        return decisions

    def _reject(self, reason: RejectReason) -> AdmissionDecision:
        self.rejected[reason.value] = self.rejected.get(reason.value, 0) + 1
        return AdmissionDecision(False, reason)

    def _check_node_rules(self, tx: Transaction) -> "AdmissionDecision | None":
        """Gas limit / nonce / balance -- the cheap half of the checks
        :meth:`~repro.chain.chain.Blockchain.send_transaction` runs (the
        signature is verified last, by :meth:`_admit`), aware of nonces *and
        value* already held in this pool.  The chain's
        :meth:`~repro.chain.chain.Blockchain.next_nonce` counts what a batch
        chain queued in ``pending``; no pooled transaction is ever there, so
        none is counted twice.

        The cumulative-spend check matters because admitted transactions skip
        re-validation at block inclusion: two transfers that are each covered
        by the sender's balance but not jointly would otherwise both reach
        the EVM, where the second blows up mid-block."""
        if tx.gas_limit > self.max_gas_limit:
            return self._reject(RejectReason.GAS_LIMIT)
        expected = self.chain.next_nonce(tx.sender) + self._pending_nonces.get(tx.sender, 0)
        if tx.nonce != expected:
            return self._reject(RejectReason.BAD_NONCE)
        committed = self._pending_spend.get(tx.sender, 0)
        if self.chain.state.balance_of(tx.sender) < committed + tx.value:
            return self._reject(RejectReason.INSUFFICIENT_FUNDS)
        return None

    def _check_smacs(
        self, tx: Transaction
    ) -> tuple["AdmissionDecision | None", tuple]:
        """The SMACS pre-checks; returns (decision, one-time reservations)."""
        contract = self.chain.evm.contracts.get(tx.to)
        if not isinstance(contract, SMACSContract):
            return None, ()
        raw = tx.kwargs.get("token")
        if raw is None:
            # Methods without tokens (unprotected or fallback) are the EVM's
            # problem; nothing to screen here.
            return None, ()

        token_bytes = token_entries(raw, tx.to).get(tx.to)
        if token_bytes is None:
            return self._reject(RejectReason.MALFORMED_TOKEN), ()
        try:
            token = Token.from_bytes(token_bytes)
        except MalformedToken:
            return self._reject(RejectReason.MALFORMED_TOKEN), ()

        # Cheap check 1: expiry.  Admission uses the node clock; the
        # authoritative check re-runs against the block timestamp.
        if self.chain.clock.now() > token.expire:
            return self._reject(RejectReason.EXPIRED_TOKEN), ()

        # Cheap check 2: a contract with no trusted signer verifies nothing.
        trusted = self.chain.state.storage_get(tx.to, TS_ADDRESS_SLOT, None)
        if trusted is None:
            return self._reject(RejectReason.UNTRUSTED_TOKEN), ()

        # Cheap check 3: datagram digest through the node's cache.  When
        # Alg. 1's verdict on this signature is already known (primed at
        # issuance or by an earlier block), a refusal is definitive; unknown
        # signatures are deferred to the executor's pre-warm.
        # (Arguments that do not bind give no datagram: the EVM fails
        # such a call's receipt anyway.)
        datagram = reconstruct_datagram(tx, contract, token)
        if datagram is not None:
            cache = self.chain.evm.signature_cache
            if cache.peek_recovery_matches(
                cache.digest_for(datagram), token.signature, trusted
            ) is False:
                return self._reject(RejectReason.UNTRUSTED_TOKEN), ()

        # Cheap check 4: one-time index screening.
        if token.is_one_time:
            reservation = (tx.to, token.index)
            if reservation in self._reserved_indexes:
                return self._reject(RejectReason.INDEX_IN_POOL), ()
            refusal = bitmap.screen(self.chain.state.storage_of(tx.to), token.index)
            if refusal is not None:
                return self._reject(RejectReason[refusal]), ()
            return None, (reservation,)
        return None, ()

    # -- builder interface ------------------------------------------------------

    def remove(self, txs: Iterable[Transaction]) -> None:
        """Drop transactions (after block inclusion) and free reservations.

        Per-sender accounting entries are *deleted* once they reach zero --
        under sender churn (millions of distinct senders passing through) the
        dicts would otherwise grow one zeroed entry per sender forever.  A
        decrement that would go negative means the pool's books disagree with
        the caller; it is counted in ``accounting_underflows`` (visible via
        :meth:`stats`) instead of being silently absorbed by a fallback
        default.
        """
        for tx in txs:
            entry = self._pool.pop(tx.hash(), None)
            if entry is None:
                continue
            sender = tx.sender
            remaining = self._pending_nonces.get(sender, 0) - 1
            if remaining > 0:
                self._pending_nonces[sender] = remaining
            else:
                self._pending_nonces.pop(sender, None)
                if remaining < 0:
                    self.accounting_underflows += 1
            if tx.value:
                spend = self._pending_spend.get(sender, 0) - tx.value
                if spend > 0:
                    self._pending_spend[sender] = spend
                else:
                    self._pending_spend.pop(sender, None)
                    if spend < 0:
                        self.accounting_underflows += 1
            for reservation in entry.one_time_reservations:
                self._reserved_indexes.discard(reservation)


__all__ = [
    "AdmissionDecision",
    "DEFAULT_BLOCK_GAS_LIMIT",
    "Mempool",
    "RejectReason",
]
