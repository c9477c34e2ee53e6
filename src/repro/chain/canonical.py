"""The canonical value codec: one deterministic byte form per value.

A TLV scheme (one tag byte, varint lengths) over ``None``, bools, ints,
bytes, str, floats, tuples, lists and dicts, each type its own tag -- ``1``
and ``True``, ``"abc"`` and ``b"abc"`` never share bytes -- and dict entries
sorted by encoded key bytes.  The encoder dispatches on exact type once; the
decoder is one loop over a stack of open containers (the recursive codec
they replaced is the oracle under ``tests/``).  It imports nothing from the
chain, so transaction signing and :mod:`repro.storage.codec` both use it.
"""

from __future__ import annotations

import itertools
import struct
from operator import itemgetter
from typing import Any

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


__all__ = ["CodecError", "MAX_VALUE_DEPTH", "decode_value", "encode_value"]
