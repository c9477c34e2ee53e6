"""World state: accounts, balances, nonces and contract storage.

The state supports snapshot/revert semantics needed for:

* reverting all effects of a failed call frame (Solidity ``revert``),
* rolling the chain back across blocks (fork / 51%-attack simulation): the
  chain leaves one journal checkpoint open per block, so a block's fork point
  is the undo record of what it wrote, not a copy of the state.

Contract *code* is a live Python object registered with the execution engine;
only the data that Solidity would keep in ``storage`` lives here, so that a
state rollback restores exactly what an EVM rollback would restore.

Two snapshot policies share one account container:

* :class:`WorldState` (the production implementation) keeps a **write-ahead
  undo journal**, the pattern of py-evm's ``JournalDB``: ``snapshot()``
  pushes an empty checkpoint in O(1), every mutation records the *old* value
  in the topmost checkpoint on first touch, ``revert_to()`` replays the undo
  records back to the marker in O(writes-since-checkpoint) and ``commit()``
  merges a frame's records into the parent checkpoint.  A message call that
  touches three slots costs three undo records -- not a copy of every account
  in the world -- which is what keeps deep call chains (Fig. 8) affordable
  over Tab. IV-sized bitmap windows.
* :class:`ReferenceWorldState` is the original copy-on-snapshot
  implementation, kept as the differential-testing oracle: its
  ``snapshot()`` copies every account and storage dict, which is trivially
  correct and O(total state) slow.

Both expose the identical public API (snapshot ids are positions in the
checkpoint stack, exactly as before), so either can sit behind the execution
engine.  Every write is implemented once, on the shared container, and
reports the field's old value to one hook (:meth:`_AccountStore._record`)
before it writes: the journal files that value as its undo record, the
copy-on-snapshot oracle ignores it.  Storage holds only immutable values
(``int``, ``float``, ``bool``, ``str``, ``bytes``, ``frozenset``, ``None``
and tuples of them), so a value the journal keeps can never change under
it; :meth:`_AccountStore.storage_set` and :meth:`WorldState.install_account`
raise :class:`TypeError` for anything else.  Reads never create an account: only writes do.
:meth:`~_AccountStore.storage_of` hands out a read-only mapping view, and
:meth:`~_AccountStore.deep_copy` (a chain fork) is the only full-copy path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterator, Mapping

from repro.chain.address import Address
from repro.chain.errors import MutableStorageValue

#: Storage value types that cannot change once stored (tuples of them too).
_IMMUTABLE = (int, float, bool, str, bytes, frozenset, type(None))
_IMMUTABLE_EXACT = frozenset(_IMMUTABLE)


def _require_immutable(value: Any) -> None:
    """Raise :class:`MutableStorageValue` (a :class:`TypeError`) unless
    ``value`` can never change in place."""
    if isinstance(value, tuple):
        for item in value:
            _require_immutable(item)
    elif not isinstance(value, _IMMUTABLE):
        raise MutableStorageValue(
            f"storage holds only immutable values, not {type(value).__name__}: "
            "store a tuple or frozenset instead"
        )


@dataclass(slots=True)
class AccountState:
    """Balance, nonce and persistent storage of one account."""

    balance: int = 0
    nonce: int = 0
    is_contract: bool = False
    code_size: int = 0
    storage: dict[Any, Any] = field(default_factory=dict)

    def copy(self) -> "AccountState":
        # Storage values are immutable, so the copy shares them.
        return AccountState(
            self.balance, self.nonce, self.is_contract, self.code_size, dict(self.storage)
        )


# Undo-record tags (first element of a journal key).
_CREATED = 0   # (tag, address) -> None            undo: delete the account
_BALANCE = 1   # (tag, address) -> old balance
_NONCE = 2     # (tag, address) -> old nonce
_CONTRACT = 3  # (tag, address) -> old is_contract
_CODE = 4      # (tag, address) -> old code_size
_SLOT = 5      # (tag, address, slot) -> old value (or _ABSENT)

#: Sentinel recorded when a storage slot did not exist before the write.
_ABSENT = object()

_NO_STORAGE: Mapping[Any, Any] = MappingProxyType({})


class _AccountStore:
    """Account container plus the read/write API both state flavours share.

    Every write is implemented here, once, and reports the old value of the
    field it is about to change to :meth:`_record` first.  Direct mutation
    of the :class:`AccountState` records returned by :meth:`account`
    bypasses whatever snapshot policy is active -- all writes must go
    through these methods.
    """

    def __init__(self) -> None:
        self._accounts: dict[Address, AccountState] = {}

    def _record(self, key: tuple, old: Any) -> None:
        """Called with a field's old value before each write (no-op here)."""

    # -- account management --------------------------------------------------

    def account(self, address: Address) -> AccountState:
        """Return (creating on demand) the state record of ``address``.

        The record is live; mutate it only through the write methods or the
        changes will be invisible to snapshot/revert.  Creation is recorded
        before any field touch, so its undo (deleting the account) runs last
        within a checkpoint.
        """
        record = self._accounts.get(address)
        if record is None:
            self._record((_CREATED, address), None)
            record = self._accounts[address] = AccountState()
        return record

    def has_account(self, address: Address) -> bool:
        return address in self._accounts

    def addresses(self) -> Iterator[Address]:
        return iter(self._accounts)

    def discard_account(self, address: Address) -> None:
        """Remove an account record entirely (recovery/bootstrap only)."""
        self._accounts.pop(address, None)

    # -- balances and nonces ---------------------------------------------------

    def balance_of(self, address: Address) -> int:
        record = self._accounts.get(address)
        return 0 if record is None else record.balance

    def set_balance(self, address: Address, amount: int) -> None:
        if amount < 0:
            raise ValueError("balance cannot be negative")
        record = self.account(address)
        self._record((_BALANCE, address), record.balance)
        record.balance = amount

    def add_balance(self, address: Address, amount: int) -> None:
        record = self.account(address)
        self._record((_BALANCE, address), record.balance)
        record.balance += amount

    def sub_balance(self, address: Address, amount: int) -> None:
        if self.balance_of(address) < amount:
            raise ValueError("insufficient balance")
        record = self.account(address)
        self._record((_BALANCE, address), record.balance)
        record.balance -= amount

    def nonce_of(self, address: Address) -> int:
        record = self._accounts.get(address)
        return 0 if record is None else record.nonce

    def increment_nonce(self, address: Address) -> None:
        record = self.account(address)
        self._record((_NONCE, address), record.nonce)
        record.nonce += 1

    def set_nonce(self, address: Address, nonce: int) -> None:
        """Set a nonce outright (state sync / crash recovery)."""
        if nonce < 0:
            raise ValueError("nonce cannot be negative")
        record = self.account(address)
        self._record((_NONCE, address), record.nonce)
        record.nonce = nonce

    # -- contract metadata ------------------------------------------------------

    def set_is_contract(self, address: Address, flag: bool = True) -> None:
        """Mark an account as holding contract code."""
        record = self.account(address)
        self._record((_CONTRACT, address), record.is_contract)
        record.is_contract = flag

    def set_code_size(self, address: Address, code_size: int) -> None:
        """Record the code-size proxy of a contract account."""
        record = self.account(address)
        self._record((_CODE, address), record.code_size)
        record.code_size = code_size

    # -- contract storage -------------------------------------------------------

    def storage_get(self, address: Address, slot: Any, default: Any = 0) -> Any:
        record = self._accounts.get(address)
        return default if record is None else record.storage.get(slot, default)

    def storage_set(self, address: Address, slot: Any, value: Any) -> None:
        """Write one slot; ``value`` must be immutable (else :class:`TypeError`)."""
        if type(value) not in _IMMUTABLE_EXACT:
            _require_immutable(value)
        storage = self.account(address).storage
        self._record((_SLOT, address, slot), storage.get(slot, _ABSENT))
        storage[slot] = value

    def storage_contains(self, address: Address, slot: Any) -> bool:
        record = self._accounts.get(address)
        return record is not None and slot in record.storage

    def storage_delete(self, address: Address, slot: Any) -> None:
        storage = self.account(address).storage
        self._record((_SLOT, address, slot), storage.get(slot, _ABSENT))
        storage.pop(slot, None)

    def storage_of(self, address: Address) -> Mapping[Any, Any]:
        """Read-only live view of an account's storage.

        Returned as a :class:`types.MappingProxyType` so callers cannot
        mutate storage behind the journal's back; writes must go through
        :meth:`storage_set` / :meth:`storage_delete`.  An unknown address
        reads as an empty mapping.
        """
        record = self._accounts.get(address)
        return _NO_STORAGE if record is None else MappingProxyType(record.storage)

    def storage_slot_count(self, address: Address) -> int:
        record = self._accounts.get(address)
        return 0 if record is None else len(record.storage)

    # -- block-level copies -------------------------------------------------------

    def deep_copy(self) -> "Any":
        """A fully independent copy (chain forks only).

        This is the one remaining full-copy path: per-frame rollback and
        :class:`~repro.chain.chain.Blockchain`'s per-block fork points ride
        the undo journal, while a Token Service simulation fork genuinely
        needs an isolated state and pays O(total state) for it here.
        """
        clone = type(self)()
        clone._accounts = {addr: rec.copy() for addr, rec in self._accounts.items()}
        return clone


class WorldState(_AccountStore):
    """The mutable world state of the simulated chain (journaled snapshots).

    ``snapshot()`` is O(1): it pushes an empty checkpoint dict.  Every write
    records the previous value in the topmost checkpoint the first time a
    (account, field) pair is touched within that checkpoint; ``revert_to``
    replays those records newest-first and ``commit`` merges them into the
    parent checkpoint (parent records, being older, win).  With no active
    checkpoint the write methods skip journaling entirely; a state owned by a
    :class:`~repro.chain.chain.Blockchain` always has one (the latest block's
    fork point), so there even faucet writes are journaled.
    """

    def __init__(self) -> None:
        super().__init__()
        self._checkpoints: list[dict[tuple, Any]] = []
        self._top: dict[tuple, Any] | None = None

    def _record(self, key: tuple, old: Any) -> None:
        top = self._top
        if top is not None and key not in top:
            top[key] = old

    def discard_account(self, address: Address) -> None:
        """Remove an account record entirely (recovery/bootstrap only).

        Account removal has no undo record, so it is refused while any
        checkpoint is open: it exists for rebuilding scratch states during
        crash recovery, not for journaled execution.
        """
        if self._top is not None:
            raise RuntimeError(
                "discard_account is not journal-aware; close all checkpoints first"
            )
        super().discard_account(address)

    def install_account(self, address: Address, record: AccountState) -> None:
        """Place a whole account record (recovery/bootstrap only, and refused
        while a checkpoint is open, as :meth:`discard_account` is).

        Its storage values must be immutable, as :meth:`storage_set`'s are
        (else :class:`TypeError`).
        """
        if self._top is not None:
            raise RuntimeError(
                "install_account is not journal-aware; close all checkpoints first"
            )
        for value in record.storage.values():
            _require_immutable(value)
        self._accounts[address] = record

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> int:
        """Push a checkpoint marker and return its id (O(1))."""
        checkpoint: dict[tuple, Any] = {}
        self._checkpoints.append(checkpoint)
        self._top = checkpoint
        return len(self._checkpoints) - 1

    def revert_to(self, snapshot_id: int) -> None:
        """Replay undo records back to ``snapshot_id`` and drop newer ones.

        O(writes since the checkpoint), not O(total state).
        """
        if not 0 <= snapshot_id < len(self._checkpoints):
            raise ValueError(f"unknown snapshot {snapshot_id}")
        accounts = self._accounts
        for checkpoint in reversed(self._checkpoints[snapshot_id:]):
            for key in reversed(checkpoint):
                old = checkpoint[key]
                tag = key[0]
                if tag == _SLOT:
                    record = accounts.get(key[1])
                    if record is None:
                        continue  # the account's creation undo already ran
                    if old is _ABSENT:
                        record.storage.pop(key[2], None)
                    else:
                        record.storage[key[2]] = old
                elif tag == _CREATED:
                    accounts.pop(key[1], None)
                else:
                    record = accounts.get(key[1])
                    if record is None:
                        continue
                    if tag == _BALANCE:
                        record.balance = old
                    elif tag == _NONCE:
                        record.nonce = old
                    elif tag == _CONTRACT:
                        record.is_contract = old
                    else:  # _CODE
                        record.code_size = old
        del self._checkpoints[snapshot_id:]
        self._top = self._checkpoints[-1] if self._checkpoints else None

    def commit(self, snapshot_id: int) -> None:
        """Discard the checkpoint (changes since it are kept).

        The committed frames' undo records merge into the parent checkpoint
        so that a later ``revert_to`` of an *enclosing* snapshot still undoes
        them; records already present in the parent are older and win.
        """
        if not 0 <= snapshot_id < len(self._checkpoints):
            raise ValueError(f"unknown snapshot {snapshot_id}")
        committed = self._checkpoints[snapshot_id:]
        del self._checkpoints[snapshot_id:]
        if self._checkpoints:
            parent = self._checkpoints[-1]
            for checkpoint in committed:  # oldest first: older records win
                for key, old in checkpoint.items():
                    if key not in parent:
                        parent[key] = old
            self._top = parent
        else:
            self._top = None

    # -- introspection (used by benchmarks/tests) -----------------------------------

    @property
    def active_checkpoints(self) -> int:
        """Number of open (not committed / not reverted) snapshots."""
        return len(self._checkpoints)

    def journal_records(self) -> int:
        """Total undo records across all open checkpoints."""
        return sum(len(checkpoint) for checkpoint in self._checkpoints)

    def touched_since(self, snapshot_id: int) -> dict[Address, set]:
        """Addresses (and their touched storage slots) written since a snapshot.

        Aggregates the undo journals of ``snapshot_id`` and every checkpoint
        above it into ``{address: {touched slot, ...}}``; an account whose
        scalar fields (balance, nonce, flags) were touched appears with an
        empty slot set.  This is the write-behind delta surface the
        durability layer flushes at block boundaries -- O(records), and
        purely observational (no journal state changes).
        """
        if not 0 <= snapshot_id < len(self._checkpoints):
            raise ValueError(f"unknown snapshot {snapshot_id}")
        touched: dict[Address, set] = {}
        for checkpoint in self._checkpoints[snapshot_id:]:
            for key in checkpoint:
                slots = touched.setdefault(key[1], set())
                if key[0] == _SLOT:
                    slots.add(key[2])
        return touched


class ReferenceWorldState(_AccountStore):
    """The original copy-on-snapshot world state (differential oracle).

    ``snapshot()`` copies every account and every storage dict -- O(total
    accounts x total storage slots) per call frame.  Kept so the property
    suites can prove the journal semantically equivalent, and so the
    state-hotpath benchmark has its honest baseline.
    """

    def __init__(self) -> None:
        super().__init__()
        self._snapshots: list[dict[Address, AccountState]] = []

    def snapshot(self) -> int:
        """Take a snapshot and return its id (for nested call frames)."""
        self._snapshots.append(
            {addr: record.copy() for addr, record in self._accounts.items()}
        )
        return len(self._snapshots) - 1

    def revert_to(self, snapshot_id: int) -> None:
        """Restore the state captured by ``snapshot_id`` and drop newer ones."""
        if not 0 <= snapshot_id < len(self._snapshots):
            raise ValueError(f"unknown snapshot {snapshot_id}")
        self._accounts = self._snapshots[snapshot_id]
        del self._snapshots[snapshot_id:]

    def commit(self, snapshot_id: int) -> None:
        """Discard the snapshot (changes since it are kept)."""
        if not 0 <= snapshot_id < len(self._snapshots):
            raise ValueError(f"unknown snapshot {snapshot_id}")
        del self._snapshots[snapshot_id:]

    @property
    def active_checkpoints(self) -> int:
        return len(self._snapshots)
