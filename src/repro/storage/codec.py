"""Canonical binary codec for durable records and state commitments.

Everything the durability layer writes to disk -- WAL records, backend
snapshots, per-block deltas -- goes through one deterministic encoding so
that byte-identical inputs always produce byte-identical records and the
flat state root is reproducible across restarts.

The value codec is a small TLV scheme (one tag byte, varint lengths) over
the closed set of types the reproduction actually stores: ``None``, bools,
arbitrary-precision ints, bytes, str, floats, tuples, lists and dicts.
Dict entries are sorted by their *encoded key bytes*, which makes the
encoding canonical without demanding orderable heterogeneous keys.  The
encoder dispatches on a value's exact type once and returns its bytes; the
decoder is one loop over a stack of open containers, so neither pays an
interpreter call per scalar, and what a restart costs is what its image
holds (the recursive codec they replaced is the differential oracle under
``tests/``).

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
import struct
from functools import reduce
from hashlib import sha256
from operator import itemgetter, xor
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
#: and a buffer of nothing but container openers is a :class:`CodecError`,
#: not a stack that grows with the buffer.  Real records nest six deep (a
#: block's delta: list, entry, writes, slot); the cap is the wire codec's
#: ``MAX_ENVELOPE_DEPTH``.
MAX_VALUE_DEPTH = 64


class CodecError(ValueError):
    """Raised when a value cannot be encoded or a buffer cannot be decoded."""


#: ``tag ‖ n`` for every tag and every length ``n`` one varint byte holds
_HEADS = [[bytes((tag, n)) for n in range(0x80)] for tag in range(_T_DICT + 1)]
#: ints in ``range(_SMALL_INTS)`` are encoded once, into ``_INTS``
_SMALL_INTS = 1024
_FLOAT = struct.Struct(">d")
_key_bytes = itemgetter(0)


def _varint(value: int) -> bytes:
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _head(tag: int, size: int) -> bytes:
    return _HEADS[tag][size] if size < 0x80 else bytes((tag,)) + _varint(size)


_INTS = [bytes((_T_INT,)) + _varint(n << 1) for n in range(_SMALL_INTS)]


def _encode(value: Any, depth: int) -> bytes:
    """``value``'s canonical bytes, dispatched on its exact type once."""
    kind = type(value)
    if kind is str:
        data = value.encode("utf-8")
        return _head(_T_STR, len(data)) + data
    if kind is int:
        if 0 <= value < _SMALL_INTS:
            return _INTS[value]
        # zigzag so negative ints get a canonical varint form
        return b"\x03" + _varint(value << 1 if value >= 0 else (-value << 1) - 1)
    if kind is bytes:
        return _head(_T_BYTES, len(value)) + value
    if kind is tuple or kind is list or kind is dict:
        if depth >= MAX_VALUE_DEPTH:
            raise CodecError("value nested too deep")
        depth += 1
        if kind is dict:
            # Sorted by encoded key: canonical without orderable keys.
            # Encodings are prefix-free, so two distinct keys differ in a byte.
            entries = [(_encode(key, depth), _encode(item, depth)) for key, item in value.items()]
            entries.sort(key=_key_bytes)
            return _head(_T_DICT, len(entries)) + b"".join(itertools.chain.from_iterable(entries))
        out = _head(_T_TUPLE if kind is tuple else _T_LIST, len(value))
        for item in value:  # a slot or a record field: its strs and small ints in place
            if type(item) is str:
                data = item.encode("utf-8")
                out += _head(_T_STR, len(data)) + data
            elif type(item) is int and 0 <= item < _SMALL_INTS:
                out += _INTS[item]
            else:
                out += _encode(item, depth)
        return out
    if kind is bool:
        return b"\x02" if value else b"\x01"
    if value is None:
        return b"\x00"
    if kind is float:
        return b"\x06" + _FLOAT.pack(value)
    raise CodecError(f"cannot encode {kind.__name__} canonically")


def encode_value(value: Any) -> bytes:
    """Canonically encode ``value``; equal values always yield equal bytes."""
    return _encode(value, 0)


def _varint_at(raw: bytes, pos: int, end: int) -> "tuple[int, int]":
    result = shift = 0
    while pos < end:
        byte = raw[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7
    raise CodecError("truncated varint")


def _decode(raw: bytes, pos: int, end: int, depth: int = 0) -> "tuple[Any, int]":
    """The value at ``raw[pos:end]`` and the position after it.

    One loop, no call per value: an open container is a frame on a stack,
    each value decoded goes to the innermost frame, and a frame that holds
    all it was promised closes and goes to its own container.  Tags are
    tested most frequent first (str names every field), and the varint
    after a tag -- a length, an int, a count -- is read in place when it is
    one byte.  ``depth`` counts the containers already open around ``pos``.
    """
    stack: list = []
    kind = left = 0
    items: "list | None" = None  # the innermost open container's values so far
    while True:
        if pos >= end:
            raise CodecError("truncated value")
        tag = raw[pos]
        pos += 1
        if _T_INT <= tag <= _T_DICT and tag != _T_FLOAT:
            if pos >= end:
                raise CodecError("truncated varint")
            size = raw[pos]
            pos += 1
            if size > 0x7F:
                size, pos = _varint_at(raw, pos - 1, end)
            if tag == _T_STR or tag == _T_BYTES:
                if pos + size > end:
                    raise CodecError("truncated bytes payload")
                value = raw[pos : pos + size]
                pos += size
                if tag == _T_STR:
                    try:
                        value = value.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise CodecError(f"str payload is not UTF-8: {exc}") from exc
            elif tag == _T_INT:
                value = -((size + 1) >> 1) if size & 1 else size >> 1
            elif depth + len(stack) >= MAX_VALUE_DEPTH:
                raise CodecError("value nested too deep")
            elif size:
                stack.append((kind, items, left))
                kind, items, left = tag, [], 2 * size if tag == _T_DICT else size
                continue
            else:
                value = () if tag == _T_TUPLE else {} if tag == _T_DICT else []
        elif tag == _T_NONE:
            value = None
        elif tag == _T_TRUE:
            value = True
        elif tag == _T_FALSE:
            value = False
        elif tag == _T_FLOAT:
            if pos + 8 > end:
                raise CodecError("truncated float payload")
            value = _FLOAT.unpack_from(raw, pos)[0]
            pos += 8
        else:
            raise CodecError(f"unknown tag 0x{tag:02x}")
        while items is not None:
            items.append(value)
            left -= 1
            if left:
                break
            if kind == _T_TUPLE:
                value = tuple(items)
            elif kind == _T_LIST:
                value = items
            else:
                try:
                    value = dict(zip(items[::2], items[1::2]))
                except TypeError as exc:  # a list or dict where a key belongs
                    raise CodecError(f"unhashable dict key: {exc}") from exc
            kind, items, left = stack.pop()
        else:
            return value, pos


def decode_value(raw: bytes) -> Any:
    """Decode one canonical value; trailing bytes are an error."""
    if not isinstance(raw, bytes):
        raise CodecError(f"cannot decode {type(raw).__name__}: not bytes")
    end = len(raw)
    value, pos = _decode(raw, 0, end)
    if pos != end:
        raise CodecError(f"{end - pos} trailing bytes after value")
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
    fields = _check_fields(decode_value(raw), _TRANSACTION, "transaction")
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
