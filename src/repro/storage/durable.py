"""The durability engine: WAL + backend + state roots under one pipeline.

:class:`DurableStore` is the py-evm-shaped persistence stack for one node:
the journaled :class:`~repro.chain.state.WorldState` stays the in-RAM
source of truth, a :class:`~repro.storage.wal.WriteAheadLog` makes every
committed block durable at its fsync boundary, and a keyed
:class:`~repro.storage.backend.Backend` absorbs compacted snapshots so the
WAL never grows without bound.  Record kinds on the WAL::

    base   -- full account snapshot + state root + chain height (written
              once when a store attaches to a fresh directory)
    block  -- one committed block: header fields, serialized transactions,
              per-transaction success flags, the touched-slot delta and
              the post-block state root (fsync'd -- the commit point)
    tx     -- one mempool admission (fsync'd only with ``fsync_on_admit``;
              otherwise it becomes durable with the next block commit)

Everything on the durable path costs O(what a block changed).  A block's
delta is the chain's own open fork point read through
``Blockchain.touched_since_latest_block`` -- every slot and scalar written
since the previous block, between-block faucet writes included -- and the
state root moves by those slots alone (see :mod:`repro.storage.codec`).
``flush()`` compaction and the recovery cross-check are O(state) on purpose.

Crash model: the node may die at any point; everything after the last
fsync is gone (the disk-fault hooks simulate exactly that, plus torn and
bit-flipped tails).  :meth:`recover_into` rebuilds a scratch ``WorldState``
from the backend snapshot plus the WAL suffix.  The snapshot is verified
from the bytes it was read from -- each slot's digest is the hash of its
stored entry, and together they must make the recorded root -- each block
then moves that root by what it wrote, and one full recomputation over the
rebuilt state cross-checks the result.  A block either replays completely
and root-verified, or recovery stops (torn tail) or fails loudly (mid-file
corruption, gaps, root mismatches, a snapshot record that is not the
canonical one, an image written under another commitment version).  Only
then is the state installed into the chain with the last durable block as
its head (so numbering and parent hashes go on), the chain clock brought up
to that block's timestamp, and the admission log turned back into a
mempool.  Replay hashes nothing: an admission record and the block record of
the same transaction hold the same ``encode_transaction`` bytes -- by
construction: :meth:`note_admitted` keeps the bytes it logged and
:meth:`commit_block` writes those, encoding only a transaction the listener
never saw -- so admissions are matched to committed transactions by byte
equality and only the survivors are decoded and re-admitted through the
normal admission path.  Last, the signature cache is re-primed with what a
client can still present: reusable tokens from durable blocks and every
token of a surviving transaction.  One-time tokens in durable blocks are
not primed: an accepted one spent its index for good (Alg. 2), and the rare
one whose call reverted pays one ordinary recovery if it is presented again;
``max_one_time_index`` still covers them all.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.chain.block import GENESIS_PARENT_HASH, Block
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.core.call_chain import tokens_carried
from repro.core.token import MalformedToken, Token
from repro.storage.backend import Backend, open_backend
from repro.storage.codec import (
    COMMITMENT_VERSION,
    CodecError,
    StateRootTracker,
    decode_account_digests,
    decode_transaction,
    decode_value,
    encode_account,
    encode_transaction,
    encode_value,
    state_root,
)
from repro.storage.wal import MAGIC, ReplaySummary, WriteAheadLog

META_KEY = b"meta"
ACCOUNT_PREFIX = b"a:"


class DurabilityError(RuntimeError):
    """The durability layer was driven outside its protocol."""


class RecoveryError(DurabilityError):
    """The on-disk image cannot be recovered to a consistent state."""


@dataclass
class RecoveredBlock:
    """One block replayed from the WAL (enough to re-check invariants)."""

    number: int
    timestamp: int
    gas_used: int
    state_root: bytes
    transactions: list[Transaction]
    statuses: list[bool]


@dataclass
class RecoveryReport:
    """What :meth:`DurableStore.recover_into` rebuilt and re-admitted."""

    base_height: int = 0
    recovered_height: int = 0
    state_root: bytes = b""
    blocks: list[RecoveredBlock] = field(default_factory=list)
    mempool_seen: int = 0
    readmitted: int = 0
    readmission_refused: int = 0
    refusal_reasons: dict[str, int] = field(default_factory=dict)
    signatures_primed: int = 0
    max_one_time_index: int = -1
    wal: "ReplaySummary | None" = None
    sources: list[str] = field(default_factory=list)

    def describe(self) -> dict[str, Any]:
        """JSON-ready summary (uploaded by the CI durability smoke job)."""
        return {
            "base_height": self.base_height,
            "recovered_height": self.recovered_height,
            "blocks_recovered": len(self.blocks),
            "txs_recovered": sum(len(b.transactions) for b in self.blocks),
            "state_root": self.state_root.hex(),
            "mempool_seen": self.mempool_seen,
            "readmitted": self.readmitted,
            "readmission_refused": self.readmission_refused,
            "refusal_reasons": dict(self.refusal_reasons),
            "signatures_primed": self.signatures_primed,
            "max_one_time_index": self.max_one_time_index,
            "wal_torn_tail": bool(self.wal and self.wal.torn_tail),
            "wal_truncated_bytes": self.wal.truncated_bytes if self.wal else 0,
            "sources": list(self.sources),
        }


class DurableStore:
    """Write-ahead logged, backend-compacted persistence for one pipeline."""

    def __init__(
        self,
        directory: str,
        backend: "str | Backend" = "sqlite",
        *,
        fsync_on_admit: bool = False,
        hooks: Any = None,
    ):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.wal = WriteAheadLog(os.path.join(directory, "wal.log"), hooks=hooks)
        self.backend: Backend = (
            open_backend(backend, os.path.join(directory, "state.sqlite"))
            if isinstance(backend, str)
            else backend
        )
        self.fsync_on_admit = fsync_on_admit
        self.pipeline: Any = None
        self.tracker = StateRootTracker()
        self._block_open = False
        self._pending_delta: "list | None" = None
        #: ``tx.hash() -> encode_transaction(tx)`` of the admissions logged
        #: since the last flush: a block record repeats those bytes, it does
        #: not encode them again.  Holds at most one pool.
        self._encoded: dict[bytes, bytes] = {}
        self._recovered = False
        self.blocks_committed = 0
        self.admissions_logged = 0
        self.flushes = 0

    # -- wiring ----------------------------------------------------------------------

    def attach(self, pipeline: Any) -> None:
        """Hook into a pipeline: root stamping, admission log, block commits."""
        self.pipeline = pipeline
        chain = pipeline.chain
        chain.state_root_provider = self._seal_block
        pipeline.durability = self
        pipeline.mempool.admission_listener = self.note_admitted
        # The pipeline's handle reaches the WAL so the commit_fsync stage is
        # timed no matter which of attach() /
        # Observability.instrument_pipeline() ran first.
        self.wal.obs = pipeline.obs
        self.tracker = StateRootTracker.from_state(chain.state)
        if (
            not self._recovered
            and self.wal.size == len(MAGIC)
            and self.backend.get(META_KEY) is None
        ):
            self._write_base()

    def _write_base(self) -> None:
        chain = self.pipeline.chain
        state = chain.state
        accounts = {
            bytes(addr): encode_account(state.account(addr)) for addr in state.addresses()
        }
        record = encode_value(
            {
                "kind": "base",
                "commitment": COMMITMENT_VERSION,
                "height": chain.height,
                "root": self.tracker.root,
                "accounts": accounts,
            }
        )
        self.wal.append(record, sync=True)

    # -- the block-commit protocol (driven by the pipeline) --------------------------

    def begin_block(self) -> None:
        """Arm the next seal: the pipeline is about to mine a block it will commit.

        The store opens no journal checkpoint of its own.  The chain's fork
        point for the latest block is already open and already spans every
        write since that block was mined -- faucet funding and account
        creation between blocks as well as the coming transactions -- so the
        block's delta is read from it.  A block mined any other way would
        never reach :meth:`commit_block`; sealing one is refused.
        """
        self._block_open = True

    def _seal_block(self, state: WorldState) -> bytes:
        """Collect the block's touched-slot delta and return the new root.

        Installed as the chain's ``state_root_provider``: runs inside
        ``_mine`` after the transaction loop and before the new block's fork
        point is opened, so the latest fork point's journal holds exactly
        the keys written since the previous block.
        """
        if not self._block_open:
            raise DurabilityError("state_root_provider fired without begin_block()")
        self._block_open = False
        touched = self.pipeline.chain.touched_since_latest_block()
        self._pending_delta = _delta_from(state, touched)
        self.tracker.update(state, touched)
        return self.tracker.root

    def commit_block(self, block: Any, result: Any) -> None:
        """Append + fsync the block record: the durability commit point."""
        if self._pending_delta is None:
            raise DurabilityError("commit_block without a sealed block")
        record = encode_value(
            {
                "kind": "block",
                "number": block.number,
                "timestamp": block.timestamp,
                "gas_used": block.gas_used,
                "parent": block.parent_hash,
                "root": block.state_root,
                # The bytes the admission record holds; encoded here only
                # for a transaction the listener never saw.
                "txs": tuple(
                    self._encoded.pop(tx.hash(), None) or encode_transaction(tx)
                    for tx in block.transactions
                ),
                "ok": tuple(bool(r.success) for r in result.receipts),
                "delta": tuple(self._pending_delta),
            }
        )
        self._pending_delta = None
        self.wal.append(record, sync=True)
        self.blocks_committed += 1

    def note_admitted(self, tx: Transaction) -> None:
        """Log one mempool admission (the re-admission source after a crash)."""
        blob = self._encoded[tx.hash()] = encode_transaction(tx)
        self.wal.append(encode_value({"kind": "tx", "tx": blob}), sync=self.fsync_on_admit)
        self.admissions_logged += 1

    # -- compaction ------------------------------------------------------------------

    def flush(self) -> None:
        """Compact the live state into the backend and truncate the WAL.

        Pooled (not yet included) transactions are re-logged into the fresh
        WAL so compaction never costs a surviving mempool entry.
        """
        chain = self.pipeline.chain
        state = chain.state
        live: set[bytes] = set()
        for addr in state.addresses():
            key = ACCOUNT_PREFIX + bytes(addr)
            live.add(key)
            self.backend.put(key, encode_account(state.account(addr)))
        for key, _ in list(self.backend.items()):
            if key.startswith(ACCOUNT_PREFIX) and key not in live:
                self.backend.delete(key)
        self.backend.put(
            META_KEY,
            encode_value(
                {
                    "commitment": COMMITMENT_VERSION,
                    "height": chain.height,
                    "root": self.tracker.root,
                    # An image whose WAL holds no block still tells a
                    # recovered node how late it is (absent in old images).
                    "timestamp": chain.latest_block.timestamp,
                }
            ),
        )
        self.backend.flush()
        self.wal.reset()
        self._encoded.clear()
        for tx in self.pipeline.mempool.transactions():
            self.note_admitted(tx)
        self.wal.sync()
        self.flushes += 1

    # -- recovery --------------------------------------------------------------------

    def _read_image(
        self, report: RecoveryReport
    ) -> "tuple[WorldState, StateRootTracker, int, Block | None, list[Transaction]]":
        """Rebuild, and verify, what the backend and the WAL hold: the state,
        its root tracker, the height, the head block (None for a WAL base
        alone) and the admissions no block includes.

        A snapshot (backend records or a WAL base) is verified from the bytes
        it was read from: each slot's digest hashes its stored entry, and
        together they must make the recorded root.  Each block then moves the
        root by what it wrote.  The closing :func:`state_root` recomputes it
        over the state as installed, so a decoder, install or tracker bug is
        caught before anything reaches the chain.

        Trusts no record's shape: a missing or mistyped field surfaces as the
        ``KeyError`` / ``TypeError`` / ``AttributeError`` / ``CodecError`` its
        first use raises, which :meth:`recover_into` reports as one
        :class:`RecoveryError`.
        """
        scratch = WorldState()
        tracker = StateRootTracker()
        height = 0
        head = None
        saw_base = False

        meta_raw = self.backend.get(META_KEY)
        if meta_raw is not None:
            meta = decode_value(meta_raw)
            _check_commitment(meta, "backend snapshot")
            accounts = (
                (key[len(ACCOUNT_PREFIX):], raw)
                for key, raw in self.backend.items()
                if key.startswith(ACCOUNT_PREFIX)
            )
            _install_accounts(
                scratch, tracker, accounts, meta["root"],
                "backend snapshot does not hash to its recorded state root",
            )
            height = meta["height"]
            # A compacted image keeps no header (see recover_into); an image
            # flushed before the meta carried a timestamp stands at 0.
            head = _header(height, GENESIS_PARENT_HASH, meta.get("timestamp", 0), 0, meta["root"])
            report.base_height = height
            saw_base = True
            report.sources.append("backend")

        frames, summary = self.wal.replay()
        report.wal = summary
        # Transactions as their canonical ``encode_transaction`` bytes: the
        # admission record and the block record of one transaction come out
        # of the same encoder, so equal bytes identify it without hashing.
        accounted: set[bytes] = set()
        admissions: list[bytes] = []
        for payload in frames:
            record = decode_value(payload)
            kind = record.get("kind") if isinstance(record, dict) else None
            if kind == "base":
                if saw_base:
                    raise RecoveryError(
                        "base record on a WAL that already has a backend snapshot "
                        "(stale or mixed-up directory)"
                    )
                _check_commitment(record, "WAL base record")
                _install_accounts(
                    scratch, tracker, record["accounts"].items(), record["root"],
                    "base snapshot does not hash to its state root",
                )
                height = record["height"]
                report.base_height = height
                saw_base = True
                report.sources.append("wal-base")
            elif kind == "block":
                if not saw_base:
                    raise RecoveryError("block record before any base snapshot")
                if record["number"] != height + 1:
                    raise RecoveryError(
                        f"WAL gap: expected block {height + 1}, found "
                        f"{record['number']} (stale or partial WAL)"
                    )
                touched = _apply_delta(scratch, record["delta"])
                tracker.update(scratch, touched)
                if tracker.root != record["root"]:
                    raise RecoveryError(
                        f"state root mismatch replaying block {record['number']}"
                    )
                height = record["number"]
                accounted.update(record["txs"])
                transactions = [decode_transaction(raw) for raw in record["txs"]]
                head = _header(
                    height, record["parent"], record["timestamp"], record["gas_used"],
                    record["root"], transactions,
                )
                report.blocks.append(
                    RecoveredBlock(
                        number=height,
                        timestamp=head.timestamp,
                        gas_used=head.gas_used,
                        state_root=head.state_root,
                        transactions=transactions,
                        statuses=[bool(ok) for ok in record["ok"]],
                    )
                )
            elif kind == "tx":
                admissions.append(record["tx"])
            else:
                raise RecoveryError(f"unknown WAL record kind: {kind!r}")

        if not saw_base:
            raise RecoveryError(
                "nothing to recover: no backend snapshot and no WAL base record"
            )
        if type(height) is not int:
            raise RecoveryError(f"recorded height is not a number: {height!r}")
        # The one independent recompute: what was installed, encoded afresh.
        if state_root(scratch) != tracker.root:
            raise RecoveryError(
                "incremental state root disagrees with full recomputation"
            )

        # Only admissions no durable block includes are decoded; a record
        # logged twice (once at admission, again by ``flush()``) counts once.
        candidates: list[Transaction] = []
        for raw in admissions:
            if raw not in accounted:
                accounted.add(raw)
                candidates.append(decode_transaction(raw))
        return scratch, tracker, height, head, candidates

    def recover_into(self, pipeline: Any) -> RecoveryReport:
        """Rebuild state from disk, install it, re-admit survivors, re-prime.

        ``pipeline`` must be a freshly built node (same deployment recipe as
        the crashed one -- contract *code* is live Python and is not stored).
        Call :meth:`attach` afterwards to resume durable operation.

        The last durable block, rebuilt from its WAL record, becomes the
        chain's head: the next block is numbered after it and names its real
        hash as parent (hashed at that mine, not here).  Its transactions are
        its ``body``, not ``transactions``: no receipt here answers for them.
        A WAL base alone keeps the fresh node's head, at the height the
        recipe built.  A compacted image without a block cannot name its
        head's hash -- the backend keeps state, height, root and timestamp,
        not a header, and carrying one would change the meta record -- so its
        head is a stand-in at the recorded height whose parent hash is 32
        zero bytes: numbering goes on, the next parent hash is this node's own.
        """
        report = RecoveryReport()
        try:
            scratch, tracker, height, head, candidates = self._read_image(report)
        except (CodecError, KeyError, TypeError, AttributeError) as exc:
            # Bytes that pass their checksum and still are no record of ours:
            # refused as a whole, before anything is installed.
            raise RecoveryError(f"ill-shaped record in the durable image: {exc!r}") from exc

        pipeline.chain.install_state(scratch, head)
        # The fresh node's clock starts at its own genesis: bring it up to
        # the last durable block, so block timestamps and token expiries go
        # on from where the crashed node's stopped instead of repeating.
        clock = pipeline.chain.clock
        if head is not None and head.timestamp > clock.now():
            clock.set(head.timestamp)
        self.tracker = tracker
        self._recovered = True
        report.recovered_height = height
        report.state_root = tracker.root

        # Re-admit surviving mempool transactions through normal admission
        # (state-dependent checks run against the *recovered* state).
        survivors: list[Transaction] = []
        for tx in candidates:
            report.mempool_seen += 1
            decision = pipeline.mempool.admit(tx)
            if decision.admitted:
                report.readmitted += 1
                survivors.append(tx)
            else:
                report.readmission_refused += 1
                report.refusal_reasons[decision.reason] = (
                    report.refusal_reasons.get(decision.reason, 0) + 1
                )

        # Re-prime the signature cache with what a client can still present,
        # so the recovered node keeps the issuance-primed verification path.
        durable = [tx for block in report.blocks for tx in block.transactions]
        prime, report.max_one_time_index = _presentable(durable, survivors)
        if prime:
            hits, misses = pipeline.executor.pre_warm(prime)
            report.signatures_primed = hits + misses
        return report

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        self.wal.close()
        self.backend.close()


# -- delta capture and replay --------------------------------------------------------


def _delta_from(state: WorldState, touched: dict[Any, set]) -> list[dict]:
    """The canonical per-account delta for one block's touched set."""
    delta: list[dict] = []
    for addr in sorted(touched):
        if not state.has_account(addr):
            delta.append({"a": bytes(addr), "x": True})
            continue
        record = state.account(addr)
        writes = {}
        deletes = []
        for slot in touched[addr]:
            if slot in record.storage:
                writes[slot] = record.storage[slot]
            else:
                deletes.append(slot)
        delta.append(
            {
                "a": bytes(addr),
                "b": record.balance,
                "n": record.nonce,
                "c": record.is_contract,
                "z": record.code_size,
                "w": writes,
                "d": tuple(sorted(deletes, key=encode_value)),
            }
        )
    return delta


def _apply_delta(state: WorldState, delta: Any) -> dict[bytes, list]:
    """Apply one block delta to a scratch state.

    Returns the ``{address: [slots written or deleted]}`` map the delta was
    built from, in the shape :meth:`StateRootTracker.update` takes.
    """
    touched: dict[bytes, list] = {}
    for entry in delta:
        addr = entry["a"]
        if entry.get("x"):
            state.discard_account(addr)
            touched[addr] = []
            continue
        state.set_balance(addr, entry["b"])
        state.set_nonce(addr, entry["n"])
        state.set_is_contract(addr, entry["c"])
        state.set_code_size(addr, entry["z"])
        for slot, value in entry["w"].items():
            state.storage_set(addr, slot, value)
        for slot in entry["d"]:
            state.storage_delete(addr, slot)
        touched[addr] = [*entry["w"], *entry["d"]]
    return touched


def _install_accounts(
    state: WorldState, tracker: StateRootTracker, accounts: Iterable, root: bytes, refusal: str
) -> None:
    """Install a snapshot's ``(address, record bytes)`` pairs and verify them
    against ``root`` from those bytes (:func:`decode_account_digests`)."""
    for addr, raw in accounts:
        record, digests = decode_account_digests(raw)
        if digests is None:  # equivalent, but not the bytes any root was taken over
            raise RecoveryError(refusal)
        state.install_account(addr, record)
        tracker.add_account(addr, record, digests)
    if tracker.root != root:
        raise RecoveryError(refusal)


def _header(
    number: int, parent: bytes, timestamp: int, gas: int, root: bytes, body: Any = None
) -> Block:
    """A head block from recorded fields, which must have a header's types."""
    if not (type(number) is type(timestamp) is type(gas) is int and type(parent) is bytes):
        raise RecoveryError(f"mistyped block header: {number!r} / {timestamp!r} / {gas!r}")
    return Block(number, parent, timestamp, gas_used=gas, state_root=root, body=body)


def _check_commitment(record: dict, what: str) -> None:
    version = record.get("commitment", 1)
    if version != COMMITMENT_VERSION:
        raise RecoveryError(
            f"{what} carries state commitment v{version}; this node computes "
            f"v{COMMITMENT_VERSION} roots and cannot verify it"
        )


def _presentable(
    durable: list[Transaction], survivors: list[Transaction]
) -> tuple[list[Transaction], int]:
    """The transactions worth priming, and the highest one-time index on disk.

    What a client can still present is a reusable token it has used before
    and any token of a transaction still waiting in the mempool.  A one-time
    token in a durable block is not worth a curve recovery: once accepted,
    Alg. 2 never takes its index again.  The index, by contrast, ranges
    over every token: the issuer's counter must restart above all of them.
    """
    parsed = [(tx, _tokens(tx)) for tx in durable]
    reusable = [tx for tx, carried in parsed if not all(t.is_one_time for t in carried)]
    tokens = [t for _, carried in parsed for t in carried]
    tokens += [t for tx in survivors for t in _tokens(tx)]
    highest = max((t.index for t in tokens if t.is_one_time), default=-1)
    return reusable + survivors, highest


def _tokens(tx: Transaction) -> list[Token]:
    tokens = []
    for raw in tokens_carried(tx).values():
        try:
            tokens.append(Token.from_bytes(raw))
        except MalformedToken:
            continue
    return tokens


#: type of the hook the chain calls to stamp ``Block.state_root``
StateRootProvider = Callable[[WorldState], bytes]

__all__ = [
    "DurabilityError",
    "DurableStore",
    "RecoveredBlock",
    "RecoveryError",
    "RecoveryReport",
    "StateRootProvider",
]
