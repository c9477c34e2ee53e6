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
  implementation, kept verbatim as the differential-testing oracle: its
  ``snapshot()`` copies every account and storage dict, which is trivially
  correct and O(total state) slow.

Both expose the identical public API (snapshot ids are positions in the
checkpoint stack, exactly as before), so either can sit behind the execution
engine.  One caveat the journal shares with the real EVM: storage values are
journaled *by reference*, so mutating a stored mutable object in place
(instead of writing through :meth:`WorldState.storage_set`) is invisible to
rollback.  :meth:`WorldState.storage_of` therefore hands out a read-only
mapping view; :meth:`deep_copy` (a chain fork) is the only remaining
full-copy path.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterator, Mapping

from repro.chain.address import Address

#: Storage value types that can be shared between copies without cloning.
_IMMUTABLE_SCALARS = (int, float, bool, str, bytes, frozenset, type(None))


class JournalHazardError(RuntimeError):
    """A stored mutable value was mutated behind the journal's back.

    Raised only under the ``canary`` journal guard (see
    :func:`set_journal_guard`): the undo record's fingerprint no longer
    matches the object it journaled by reference, so a revert would restore
    corrupted history.
    """


#: journal-guard mode: "" (off, the default), "copy" or "canary".
#: Seeded from the ``SMACS_STATE_GUARD`` environment variable so test and
#: debug runs can arm the guard without touching call sites.
_GUARD_MODES = ("", "copy", "canary")
_journal_guard = os.environ.get("SMACS_STATE_GUARD", "").strip().lower()
if _journal_guard in ("off", "none", "0"):
    _journal_guard = ""
if _journal_guard not in _GUARD_MODES:
    raise ValueError(
        f"SMACS_STATE_GUARD={_journal_guard!r}: expected 'off', 'copy' or 'canary'"
    )


def set_journal_guard(mode: str) -> str:
    """Arm or disarm the journaled-by-reference guard; returns the old mode.

    ``"off"`` (production default) journals mutable storage values by
    reference -- zero overhead, but in-place mutation of a stored mutable
    object is invisible to rollback (the documented hazard).  ``"copy"``
    deep-copies mutable old values into the journal, making reverts immune
    to back-door mutation.  ``"canary"`` journals by reference but records
    a ``repr`` fingerprint and raises :class:`JournalHazardError` from
    ``revert_to`` when the object changed underneath the journal.
    """
    global _journal_guard
    normalized = mode.strip().lower()
    if normalized in ("off", "none", "0"):
        normalized = ""
    if normalized not in _GUARD_MODES:
        raise ValueError(f"unknown journal guard mode {mode!r}")
    previous = _journal_guard or "off"
    _journal_guard = normalized
    return previous


def journal_guard() -> str:
    """The active journal guard mode: ``"off"``, ``"copy"`` or ``"canary"``."""
    return _journal_guard or "off"


class _GuardedValue:
    """A journaled-by-reference mutable value plus its canary fingerprint."""

    __slots__ = ("value", "fingerprint")

    def __init__(self, value: Any):
        self.value = value
        self.fingerprint = repr(value)


def _copy_value(value: Any) -> Any:
    """Clone one storage value, sharing it when immutability makes that safe."""
    if isinstance(value, _IMMUTABLE_SCALARS):
        return value
    if isinstance(value, tuple) and all(
        isinstance(item, _IMMUTABLE_SCALARS) for item in value
    ):
        return value
    return copy.deepcopy(value)


@dataclass(slots=True)
class AccountState:
    """Balance, nonce and persistent storage of one account."""

    balance: int = 0
    nonce: int = 0
    is_contract: bool = False
    code_size: int = 0
    storage: dict[Any, Any] = field(default_factory=dict)

    def copy(self) -> "AccountState":
        # Storage values are overwhelmingly immutable ints/bytes/tuples; only
        # genuinely mutable values (lists, dicts, ...) pay for a deep copy.
        return AccountState(
            balance=self.balance,
            nonce=self.nonce,
            is_contract=self.is_contract,
            code_size=self.code_size,
            storage={slot: _copy_value(value) for slot, value in self.storage.items()},
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


def _journal_old_value(old: Any) -> Any:
    """What to record in the undo journal for a storage slot's old value.

    With the guard off this is the value itself (by reference).  Under
    ``copy`` mutable values are cloned so reverts are immune to back-door
    mutation; under ``canary`` they are wrapped with a fingerprint that
    ``revert_to`` checks before restoring.
    """
    if old is _ABSENT or isinstance(old, _IMMUTABLE_SCALARS):
        return old
    if _journal_guard == "copy":
        return _copy_value(old)
    return _GuardedValue(old)


class _AccountStore:
    """Account container plus the read/write API both state flavours share.

    The write methods here are the *plain* (un-journaled) versions; the
    journaled :class:`WorldState` overrides every one of them.  Direct
    mutation of the :class:`AccountState` records returned by
    :meth:`account` bypasses whatever snapshot policy is active -- all
    writes must go through these methods.
    """

    def __init__(self) -> None:
        self._accounts: dict[Address, AccountState] = {}

    # -- account management --------------------------------------------------

    def account(self, address: Address) -> AccountState:
        """Return (creating on demand) the state record of ``address``.

        The record is live; mutate it only through the ``WorldState`` write
        methods or the changes will be invisible to snapshot/revert.
        """
        record = self._accounts.get(address)
        if record is None:
            record = AccountState()
            self._accounts[address] = record
        return record

    def has_account(self, address: Address) -> bool:
        return address in self._accounts

    def addresses(self) -> Iterator[Address]:
        return iter(self._accounts)

    # -- balances and nonces ---------------------------------------------------

    def balance_of(self, address: Address) -> int:
        return self.account(address).balance

    def set_balance(self, address: Address, amount: int) -> None:
        if amount < 0:
            raise ValueError("balance cannot be negative")
        self.account(address).balance = amount

    def add_balance(self, address: Address, amount: int) -> None:
        self.account(address).balance += amount

    def sub_balance(self, address: Address, amount: int) -> None:
        record = self.account(address)
        if record.balance < amount:
            raise ValueError("insufficient balance")
        record.balance -= amount

    def nonce_of(self, address: Address) -> int:
        return self.account(address).nonce

    def increment_nonce(self, address: Address) -> None:
        self.account(address).nonce += 1

    def set_nonce(self, address: Address, nonce: int) -> None:
        """Set a nonce outright (state sync / crash recovery)."""
        if nonce < 0:
            raise ValueError("nonce cannot be negative")
        self.account(address).nonce = nonce

    def discard_account(self, address: Address) -> None:
        """Remove an account record entirely (recovery/bootstrap only)."""
        self._accounts.pop(address, None)

    # -- contract metadata ------------------------------------------------------

    def set_is_contract(self, address: Address, flag: bool = True) -> None:
        """Mark an account as holding contract code (journal-aware setter)."""
        self.account(address).is_contract = flag

    def set_code_size(self, address: Address, code_size: int) -> None:
        """Record the code-size proxy of a contract account."""
        self.account(address).code_size = code_size

    # -- contract storage -------------------------------------------------------

    def storage_get(self, address: Address, slot: Any, default: Any = 0) -> Any:
        return self.account(address).storage.get(slot, default)

    def storage_set(self, address: Address, slot: Any, value: Any) -> None:
        self.account(address).storage[slot] = value

    def storage_contains(self, address: Address, slot: Any) -> bool:
        return slot in self.account(address).storage

    def storage_delete(self, address: Address, slot: Any) -> None:
        self.account(address).storage.pop(slot, None)

    def storage_of(self, address: Address) -> Mapping[Any, Any]:
        """Read-only live view of an account's storage.

        Returned as a :class:`types.MappingProxyType` so callers cannot
        mutate storage behind the journal's back; writes must go through
        :meth:`storage_set` / :meth:`storage_delete`.
        """
        return MappingProxyType(self.account(address).storage)

    def storage_slot_count(self, address: Address) -> int:
        return len(self.account(address).storage)

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

    # -- account management --------------------------------------------------

    def account(self, address: Address) -> AccountState:
        """Return (creating on demand) the state record of ``address``."""
        record = self._accounts.get(address)
        if record is None:
            record = AccountState()
            self._accounts[address] = record
            top = self._top
            if top is not None:
                # Creation is recorded before any field touch, so its undo
                # (deleting the account) runs last within a checkpoint.
                top[(_CREATED, address)] = None
        return record

    # -- journaled writes --------------------------------------------------------

    def set_balance(self, address: Address, amount: int) -> None:
        if amount < 0:
            raise ValueError("balance cannot be negative")
        record = self.account(address)
        top = self._top
        if top is not None:
            key = (_BALANCE, address)
            if key not in top:
                top[key] = record.balance
        record.balance = amount

    def add_balance(self, address: Address, amount: int) -> None:
        record = self.account(address)
        top = self._top
        if top is not None:
            key = (_BALANCE, address)
            if key not in top:
                top[key] = record.balance
        record.balance += amount

    def sub_balance(self, address: Address, amount: int) -> None:
        record = self.account(address)
        if record.balance < amount:
            raise ValueError("insufficient balance")
        top = self._top
        if top is not None:
            key = (_BALANCE, address)
            if key not in top:
                top[key] = record.balance
        record.balance -= amount

    def increment_nonce(self, address: Address) -> None:
        record = self.account(address)
        top = self._top
        if top is not None:
            key = (_NONCE, address)
            if key not in top:
                top[key] = record.nonce
        record.nonce += 1

    def set_is_contract(self, address: Address, flag: bool = True) -> None:
        record = self.account(address)
        top = self._top
        if top is not None:
            key = (_CONTRACT, address)
            if key not in top:
                top[key] = record.is_contract
        record.is_contract = flag

    def set_code_size(self, address: Address, code_size: int) -> None:
        record = self.account(address)
        top = self._top
        if top is not None:
            key = (_CODE, address)
            if key not in top:
                top[key] = record.code_size
        record.code_size = code_size

    def set_nonce(self, address: Address, nonce: int) -> None:
        if nonce < 0:
            raise ValueError("nonce cannot be negative")
        record = self.account(address)
        top = self._top
        if top is not None:
            key = (_NONCE, address)
            if key not in top:
                top[key] = record.nonce
        record.nonce = nonce

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
        self._accounts.pop(address, None)

    def install_account(self, address: Address, record: AccountState) -> None:
        """Place a whole account record (recovery/bootstrap only, and refused
        while a checkpoint is open, as :meth:`discard_account` is)."""
        if self._top is not None:
            raise RuntimeError(
                "install_account is not journal-aware; close all checkpoints first"
            )
        self._accounts[address] = record

    def storage_set(self, address: Address, slot: Any, value: Any) -> None:
        storage = self.account(address).storage
        top = self._top
        if top is not None:
            key = (_SLOT, address, slot)
            if key not in top:
                old = storage.get(slot, _ABSENT)
                top[key] = _journal_old_value(old) if _journal_guard else old
        storage[slot] = value

    def storage_delete(self, address: Address, slot: Any) -> None:
        storage = self.account(address).storage
        top = self._top
        if top is not None:
            key = (_SLOT, address, slot)
            if key not in top:
                old = storage.get(slot, _ABSENT)
                top[key] = _journal_old_value(old) if _journal_guard else old
        storage.pop(slot, None)

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
                        if type(old) is _GuardedValue:
                            if repr(old.value) != old.fingerprint:
                                raise JournalHazardError(
                                    f"storage slot {key[2]!r} of account "
                                    f"0x{bytes(key[1]).hex()} was mutated in place "
                                    "behind the journal (write through storage_set)"
                                )
                            old = old.value
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
    accounts x total storage slots) per call frame.  Kept verbatim so the
    property suites can prove the journal semantically equivalent, and so
    the state-hotpath benchmark has its honest baseline.
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
