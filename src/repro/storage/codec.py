"""Canonical binary codec for durable records and state commitments.

Everything the durability layer writes to disk -- WAL records, backend
snapshots, per-block deltas -- goes through one deterministic encoding so
that byte-identical inputs always produce byte-identical records and the
flat state root is reproducible across restarts.

The value codec is a small TLV scheme (one tag byte, varint lengths) over
the closed set of types the reproduction actually stores: ``None``, bools,
arbitrary-precision ints, bytes, str, floats, tuples, lists and dicts.
Dict entries are sorted by their *encoded key bytes*, which makes the
encoding canonical without demanding orderable heterogeneous keys.

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
digest formulas and stays the recovery cross-check.  sha256 (not the
pure-Python keccak used for consensus artifacts) keeps the durability hot
path at C speed; the commitment is strictly off-chain.
"""

from __future__ import annotations

import itertools
from hashlib import sha256
from typing import Any, Iterable, Mapping

from repro.chain.state import AccountState
from repro.chain.transaction import Signature, Transaction

# -- value codec ---------------------------------------------------------------------

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_BYTES = 0x04
_T_STR = 0x05
_T_FLOAT = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_DICT = 0x09


#: Containers may nest this deep, on the way out and on the way back: what
#: the encoder would write and the decoder refuse is refused at the write,
#: and a buffer of nothing but container openers -- the decoder recurses per
#: level -- is a :class:`CodecError`, not a ``RecursionError``.  Real records
#: nest six deep (a block's delta: list, entry, writes, slot); the cap is the
#: wire codec's ``MAX_ENVELOPE_DEPTH``.
MAX_VALUE_DEPTH = 64


class CodecError(ValueError):
    """Raised when a value cannot be encoded or a buffer cannot be decoded."""


def _write_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(raw: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(raw):
            raise CodecError("truncated varint")
        byte = raw[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _encode_into(out: bytearray, value: Any, depth: int = 0) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif type(value) is int:
        out.append(_T_INT)
        # zigzag so negative ints get a canonical varint form
        _write_varint(out, value << 1 if value >= 0 else ((-value) << 1) - 1)
    elif type(value) is bytes:
        out.append(_T_BYTES)
        _write_varint(out, len(value))
        out += value
    elif type(value) is str:
        encoded = value.encode("utf-8")
        out.append(_T_STR)
        _write_varint(out, len(encoded))
        out += encoded
    elif type(value) is float:
        import struct

        out.append(_T_FLOAT)
        out += struct.pack(">d", value)
    elif type(value) is tuple or type(value) is list:
        if depth >= MAX_VALUE_DEPTH:
            raise CodecError("value nested too deep")
        depth += 1
        out.append(_T_TUPLE if type(value) is tuple else _T_LIST)
        _write_varint(out, len(value))
        for item in value:
            _encode_into(out, item, depth)
    elif type(value) is dict:
        if depth >= MAX_VALUE_DEPTH:
            raise CodecError("value nested too deep")
        depth += 1
        out.append(_T_DICT)
        _write_varint(out, len(value))
        entries = []
        for key, item in value.items():
            key_buf = bytearray()
            _encode_into(key_buf, key, depth)
            item_buf = bytearray()
            _encode_into(item_buf, item, depth)
            entries.append((bytes(key_buf), bytes(item_buf)))
        entries.sort(key=lambda entry: entry[0])
        for key_bytes, item_bytes in entries:
            out += key_bytes
            out += item_bytes
    else:
        raise CodecError(f"cannot encode {type(value).__name__} canonically")


def encode_value(value: Any) -> bytes:
    """Canonically encode ``value``; equal values always yield equal bytes."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _decode_at(raw: bytes, pos: int, depth: int = 0) -> tuple[Any, int]:
    if pos >= len(raw):
        raise CodecError("truncated value")
    tag = raw[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        zig, pos = _read_varint(raw, pos)
        return (-((zig + 1) >> 1) if zig & 1 else zig >> 1), pos
    if tag == _T_BYTES or tag == _T_STR:
        length, pos = _read_varint(raw, pos)
        if pos + length > len(raw):
            raise CodecError("truncated bytes payload")
        payload = raw[pos : pos + length]
        if tag == _T_BYTES:
            return payload, pos + length
        try:
            return payload.decode("utf-8"), pos + length
        except UnicodeDecodeError as exc:
            raise CodecError(f"str payload is not UTF-8: {exc}") from exc
    if tag == _T_FLOAT:
        import struct

        if pos + 8 > len(raw):
            raise CodecError("truncated float payload")
        return struct.unpack(">d", raw[pos : pos + 8])[0], pos + 8
    if tag == _T_TUPLE or tag == _T_LIST or tag == _T_DICT:
        if depth >= MAX_VALUE_DEPTH:
            raise CodecError("value nested too deep")
        depth += 1
        count, pos = _read_varint(raw, pos)
        if tag != _T_DICT:
            items = []
            for _ in range(count):
                item, pos = _decode_at(raw, pos, depth)
                items.append(item)
            return (tuple(items) if tag == _T_TUPLE else items), pos
        result = {}
        for _ in range(count):
            key, pos = _decode_at(raw, pos, depth)
            value, pos = _decode_at(raw, pos, depth)
            try:
                result[key] = value
            except TypeError as exc:  # a list or dict where a key belongs
                raise CodecError(f"unhashable dict key: {exc}") from exc
        return result, pos
    raise CodecError(f"unknown tag 0x{tag:02x}")


def decode_value(raw: bytes) -> Any:
    """Decode one canonical value; trailing bytes are an error."""
    if not isinstance(raw, bytes):
        raise CodecError(f"cannot decode {type(raw).__name__}: not bytes")
    value, pos = _decode_at(raw, 0)
    if pos != len(raw):
        raise CodecError(f"{len(raw) - pos} trailing bytes after value")
    return value


# -- transactions --------------------------------------------------------------------


def _canonical_arg(value: Any) -> Any:
    """Flatten structured call arguments to their wire bytes.

    Tokens and bundles ride in ``tx.kwargs`` as live objects; the ABI layer
    canonicalises them through ``to_bytes()`` when hashing, so substituting
    the raw bytes here keeps ``calldata`` -- and therefore the transaction
    hash and its signature -- identical across a WAL round trip.
    """
    to_bytes = getattr(value, "to_bytes", None)
    if callable(to_bytes) and not isinstance(value, (int, float)):
        return to_bytes()
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_arg(item) for item in value)
    return value


def encode_transaction(tx: Transaction) -> bytes:
    """Serialize a signed transaction for the WAL (full round trip)."""
    return encode_value(
        {
            "s": tx.sender,
            "t": tx.to,
            "n": tx.nonce,
            "m": tx.method,
            "a": tuple(_canonical_arg(arg) for arg in tx.args),
            "k": {key: _canonical_arg(val) for key, val in tx.kwargs.items()},
            "v": tx.value,
            "g": tx.gas_limit,
            "p": tx.gas_price,
            "x": tx.signature.to_bytes() if tx.signature is not None else b"",
        }
    )


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


def _decode_fields(raw: bytes, schema: "tuple[tuple[str, ...], frozenset]", what: str) -> dict:
    """Decode a record that must be a dict carrying every field of ``schema``
    with one of its types (exact types: the decoder produces no others)."""
    fields = decode_value(raw)
    names, shapes = schema
    try:
        shape = tuple([type(fields[name]) for name in names])
    except (TypeError, KeyError) as exc:
        raise CodecError(f"{what} record is not a dict, or lacks a field: {exc!r}") from exc
    if type(fields) is not dict or shape not in shapes:
        raise CodecError(f"{what} record has a mistyped field")
    return fields


def decode_transaction(raw: bytes) -> Transaction:
    fields = _decode_fields(raw, _TRANSACTION, "transaction")
    for key in fields["k"]:
        if type(key) is not str:
            raise CodecError("transaction record: keyword arguments must be named by str")
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
    fields = _decode_fields(raw, _ACCOUNT, "account")
    record = AccountState(
        balance=fields["b"],
        nonce=fields["n"],
        is_contract=fields["c"],
        code_size=fields["z"],
    )
    record.storage.update(fields["s"])
    return record


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
    "decode_transaction",
    "decode_value",
    "encode_account",
    "encode_transaction",
    "encode_value",
    "slot_digest",
    "state_root",
]
