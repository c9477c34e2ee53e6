"""The recursive TLV codec, kept as the differential oracle for the value
codec (:mod:`repro.chain.canonical`, which :mod:`repro.storage.codec` and
transaction signing use).

This is the value codec as it was before the encoder learned to dispatch
once per value and the decoder became one loop over a stack of open
containers: one recursive call and one ``bytearray`` per value, a
``_read_varint`` call per length.  It is deliberately the slow, obvious
version -- ``tests/test_storage_codec_fuzz.py`` holds the production codec
byte for byte and error for error against it.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.storage.codec import MAX_VALUE_DEPTH, CodecError

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
    if not isinstance(raw, bytes):
        raise CodecError(f"cannot decode {type(raw).__name__}: not bytes")
    value, pos = _decode_at(raw, 0)
    if pos != len(raw):
        raise CodecError(f"{len(raw) - pos} trailing bytes after value")
    return value
