"""Canonical binary codec for durable records and state commitments.

Everything the durability layer writes to disk -- WAL records, backend
snapshots, per-block deltas -- goes through one deterministic encoding so
that byte-identical inputs always produce byte-identical records and the
flat state root is reproducible across restarts.

The value codec is :mod:`repro.chain.canonical`, the encoding a
transaction's signature covers too: a WAL transaction record is exactly its
signing payload's fields plus ``"x"``, the signature.

The state commitment is deliberately flat (ROADMAP: trie-backed state is a
separate open item) and is a two-level XOR fold, version
:data:`COMMITMENT_VERSION`:

* a storage slot folds to ``sha256(enc(slot) || enc(value))``;
* an account folds to ``sha256(address || enc(balance, nonce, is_contract,
  code_size) || storage_accumulator)``, where the accumulator is the XOR of
  its slot digests;
* the root is the sha256 of the XOR of all account digests.

XOR-folding makes both levels order-independent, so
:class:`StateRootTracker` moves the root across a block by touching only
what the block touched: one sha256 per written slot plus one per written
account, however many slots the account already holds.  The full O(state)
recompute, :func:`state_root`, shares nothing with the tracker but the two
digest formulas and stays the recovery cross-check.  A stored account
record holds its slots as ``enc(slot) || enc(value)`` entries, the very
bytes a slot digest hashes: :func:`decode_account_digests` takes each digest
from the span it read, so a snapshot is verified from its own bytes, not by
encoding every slot a second time.  sha256 (not the
pure-Python keccak used for consensus artifacts) keeps the durability hot
path at C speed; the commitment is strictly off-chain.
"""

from __future__ import annotations

import itertools
from functools import reduce
from hashlib import sha256
from operator import xor
from typing import Any, Iterable, Mapping

from repro.chain.canonical import (
    MAX_VALUE_DEPTH,
    CodecError,
    _decode,
    _varint_at,
    decode_value,
    encode_value,
)
from repro.chain.state import AccountState
from repro.chain.transaction import Signature, Transaction, check_unsigned_fields

# -- transactions --------------------------------------------------------------------


def encode_transaction(tx: Transaction) -> bytes:
    """Serialize a signed transaction for the WAL (full round trip): its
    signing payload's fields plus ``"x"``, the signature."""
    fields = tx.unsigned_fields()
    fields["x"] = tx.signature.to_bytes() if tx.signature is not None else b""
    return encode_value(fields)


def _shapes(fields: "dict[str, tuple]") -> "tuple[tuple[str, ...], frozenset]":
    """A record schema -- field name -> the types it may have -- as the field
    names and every tuple of types they may have together."""
    return tuple(fields), frozenset(itertools.product(*fields.values()))


_NONE = type(None)
_TRANSACTION = _shapes(
    {
        "s": (bytes,),
        "t": (bytes, _NONE),
        "n": (int,),
        "m": (str, _NONE),
        "a": (tuple, list),
        "k": (dict,),
        "v": (int,),
        "g": (int,),
        "p": (int,),
        "x": (bytes,),
    }
)
_ACCOUNT = _shapes({"b": (int,), "n": (int,), "c": (bool,), "z": (int,), "s": (dict,)})


def _check_fields(fields: Any, schema: "tuple[tuple[str, ...], frozenset]", what: str) -> dict:
    """``fields`` itself, if it is a dict carrying every field of ``schema``
    with one of its types (exact types: the decoder produces no others)."""
    names, shapes = schema
    try:
        shape = tuple([type(fields[name]) for name in names])
    except (TypeError, KeyError) as exc:
        raise CodecError(f"{what} record is not a dict, or lacks a field: {exc!r}") from exc
    if type(fields) is not dict or shape not in shapes:
        raise CodecError(f"{what} record has a mistyped field")
    return fields


def decode_transaction(raw: bytes) -> Transaction:
    fields = check_unsigned_fields(_check_fields(decode_value(raw), _TRANSACTION, "transaction"))
    try:
        signature = Signature.from_bytes(fields["x"]) if fields["x"] else None
    except ValueError as exc:  # SignatureError: wrong length, r / s / v out of range
        raise CodecError(f"transaction record: {exc}") from exc
    return Transaction(
        sender=fields["s"],
        to=fields["t"],
        nonce=fields["n"],
        method=fields["m"],
        args=tuple(fields["a"]),
        kwargs=dict(fields["k"]),
        value=fields["v"],
        gas_limit=fields["g"],
        gas_price=fields["p"],
        signature=signature,
    )


# -- accounts and the flat state root ------------------------------------------------


def encode_account(record: AccountState) -> bytes:
    """Canonical encoding of one account (storage slots sorted via the codec)."""
    return encode_value(
        {
            "b": record.balance,
            "n": record.nonce,
            "c": record.is_contract,
            "z": record.code_size,
            "s": dict(record.storage),
        }
    )


def decode_account(raw: bytes) -> AccountState:
    return decode_account_digests(raw)[0]


def decode_account_digests(raw: bytes) -> "tuple[AccountState, dict[Any, int] | None]":
    """Decode an account record, and each storage slot's :func:`slot_digest`
    from the bytes the slot was read from.

    The record stores its storage as ``enc(slot) ‖ enc(value)`` entries --
    exactly what :func:`slot_digest` hashes -- so a slot's digest is one
    sha256 of a span already in hand, and no slot is encoded again.  An
    entry stored in another form than the canonical one hashes to a digest
    no root was computed over, and so fails the root it is checked against.
    The digests are ``None`` when the entries are not in ascending key-byte
    order: that record is equivalent, but not the canonical bytes either.
    """
    digests: "dict[Any, int] | None" = None
    if not isinstance(raw, bytes) or raw[:1] != b"\x09":
        fields = decode_value(raw)  # not a dict: the field check refuses it
    else:
        fields = {}
        end = len(raw)
        count, pos = _varint_at(raw, 1, end)
        try:
            for _ in range(count):
                name, pos = _decode(raw, pos, end, 1)
                if name != "s" or raw[pos : pos + 1] != b"\x09":
                    fields[name], pos = _decode(raw, pos, end, 1)
                    continue
                storage: dict = {}
                digests = {}
                ordered, previous = True, b""
                slots, pos = _varint_at(raw, pos + 1, end)
                for _ in range(slots):
                    start = pos
                    slot, middle = _decode(raw, pos, end, 2)
                    storage[slot], pos = _decode(raw, middle, end, 2)
                    digests[slot] = _digest(raw[start:pos])
                    key = raw[start:middle]
                    ordered = ordered and previous < key
                    previous = key
                fields[name] = storage
                digests = digests if ordered else None
        except TypeError as exc:  # a list or dict where a key belongs
            raise CodecError(f"unhashable dict key: {exc}") from exc
        if pos != end:
            raise CodecError(f"{end - pos} trailing bytes after value")
    _check_fields(fields, _ACCOUNT, "account")
    record = AccountState(
        balance=fields["b"],
        nonce=fields["n"],
        is_contract=fields["c"],
        code_size=fields["z"],
        storage=fields["s"],
    )
    return record, digests


#: Version of the commitment formulas below.  Base and backend-meta records
#: carry it, so an image whose roots were computed another way is refused by
#: name instead of as a state-root mismatch.
COMMITMENT_VERSION = 2


def _digest(data: bytes) -> int:
    """sha256 as an integer, ready to XOR into an accumulator."""
    return int.from_bytes(sha256(data).digest(), "big")


def slot_digest(slot: Any, value: Any) -> int:
    """One storage slot's term in its account's storage accumulator."""
    return _digest(encode_value(slot) + encode_value(value))


def account_digest(
    address: bytes, record: AccountState, storage_acc: "int | None" = None
) -> int:
    """One account's term in the root accumulator.

    ``storage_acc`` is the XOR of the account's slot digests; left out, it
    is recomputed from ``record.storage`` (O(slots): the full-recompute
    path, never the per-block one).
    """
    if storage_acc is None:
        storage_acc = 0
        for slot, value in record.storage.items():
            storage_acc ^= slot_digest(slot, value)
    header = encode_value(
        (record.balance, record.nonce, record.is_contract, record.code_size)
    )
    return _digest(address + header + storage_acc.to_bytes(32, "big"))


def _root_of(acc: int) -> bytes:
    return sha256(acc.to_bytes(32, "big")).digest()


def state_root(state: Any) -> bytes:
    """Full O(state) recompute of the flat state root (the recovery cross-check).

    ``state`` is any object with the ``_AccountStore`` read surface:
    ``addresses()`` and ``account(addr)``.  Reads go through ``addresses()``
    first so no account is created as a side effect.
    """
    acc = 0
    for addr in state.addresses():
        acc ^= account_digest(addr, state.account(addr))
    return _root_of(acc)


class StateRootTracker:
    """Incrementally maintained flat state root (O(touched slots) per block).

    Keeps every account's digest, its storage accumulator and its per-slot
    digests.  :meth:`update` folds a ``{address: {touched slots}}`` map in by
    XOR-ing each touched slot's stale digest out of its account's
    accumulator and the fresh one in, then re-hashing only the account
    header over that accumulator -- slots the block did not write are never
    read, encoded or hashed.  ``root`` hashes the top-level accumulator.
    """

    def __init__(self) -> None:
        self._digests: dict[bytes, int] = {}
        self._storage_accs: dict[bytes, int] = {}
        self._slot_digests: dict[bytes, dict[Any, int]] = {}
        self._acc = 0

    @classmethod
    def from_state(cls, state: Any) -> "StateRootTracker":
        tracker = cls()
        tracker.update(
            state, {addr: state.account(addr).storage for addr in state.addresses()}
        )
        return tracker

    def update(self, state: Any, touched: Mapping[bytes, Iterable[Any]]) -> None:
        """Re-fold ``touched`` -- every address written since the last update,
        mapped to the storage slots written in it -- against the live state.

        An address with no slots re-hashes its header alone; one that no
        longer exists is folded out together with its slot digests.
        """
        for addr, slots in touched.items():
            self._acc ^= self._digests.pop(addr, 0)
            if not state.has_account(addr):
                self._storage_accs.pop(addr, None)
                self._slot_digests.pop(addr, None)
                continue
            record = state.account(addr)
            storage = record.storage
            digests = self._slot_digests.setdefault(addr, {})
            storage_acc = self._storage_accs.get(addr, 0)
            for slot in slots:
                storage_acc ^= digests.pop(slot, 0)
                if slot in storage:
                    fresh = digests[slot] = slot_digest(slot, storage[slot])
                    storage_acc ^= fresh
            self._storage_accs[addr] = storage_acc
            fresh = self._digests[addr] = account_digest(addr, record, storage_acc)
            self._acc ^= fresh

    def add_account(self, addr: bytes, record: AccountState, slot_digests: dict) -> None:
        """Fold in an account whose slot digests are already known -- taken
        from its stored bytes by :func:`decode_account_digests` -- at one
        sha256 (the header) and no slot encoded."""
        self._acc ^= self._digests.pop(addr, 0)
        self._slot_digests[addr] = slot_digests
        storage_acc = self._storage_accs[addr] = reduce(xor, slot_digests.values(), 0)
        fresh = self._digests[addr] = account_digest(addr, record, storage_acc)
        self._acc ^= fresh

    @property
    def root(self) -> bytes:
        return _root_of(self._acc)

    def __len__(self) -> int:
        return len(self._digests)


__all__ = [
    "COMMITMENT_VERSION",
    "CodecError",
    "MAX_VALUE_DEPTH",
    "StateRootTracker",
    "account_digest",
    "decode_account",
    "decode_account_digests",
    "decode_transaction",
    "decode_value",
    "encode_account",
    "encode_transaction",
    "encode_value",
    "slot_digest",
    "state_root",
]
