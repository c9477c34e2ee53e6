"""Versioned wire codec for the service gateway.

Serialises :class:`~repro.core.token_request.TokenRequest` and
:class:`~repro.core.token_service.IssuanceResult` into wire envelopes, so the
issuance protocol can cross a process boundary (the in-process transport
models it; :mod:`repro.api.transport` carries the same bytes over TCP).

Two codec lanes share one envelope structure:

* **JSON** (the default): every envelope leads with ``{"smacs": 1, ...}``;
  an endpoint that does not speak the version answers ``UNSUPPORTED``
  instead of guessing.
* **binary**: a compact tag-length-value encoding of the same envelope
  fields behind the ``b"\\xc5SB"`` magic + one version byte -- at 6k+ tx/s
  block production, envelope encode/decode is on the critical path, and the
  TLV lane skips JSON string escaping and hex inflation.

Negotiation is envelope-level and stateless: :func:`sniff_codec` identifies
the lane from the first bytes of a request (``{`` -> JSON, the magic ->
binary, anything else -> ``MALFORMED_REQUEST``), and the gateway answers in
the codec the request arrived in, so old JSON-only clients keep working
against a binary-capable endpoint unchanged.

Addresses travel as ``0x``-hex, tokens as the 86-byte Fig. 3 wire form in
hex, and argument values as JSON scalars with a ``{"$bytes": ...}`` tag for
byte strings -- the values an :class:`~repro.core.acr.ArgumentRule` can bind.
Anything undecodable raises :class:`~repro.core.errors.SmacsError` with
``MALFORMED_REQUEST``; codec errors never escape as bare ``KeyError`` /
``ValueError`` -- nor as ``RecursionError``: both lanes refuse an envelope
that nests more than :data:`MAX_ENVELOPE_DEPTH` containers ("envelope nested
too deeply"), the binary reader as it descends, the JSON lane on the decoded
value (and by mapping the parser's own ``RecursionError``), so the two lanes
accept exactly the same envelopes.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Mapping, NamedTuple, cast

from repro.chain.address import address_hex, to_address
from repro.core.acr import AccessDecision
from repro.core.errors import ErrorCode, SmacsError
from repro.core.token import Token, TokenType
from repro.core.token_request import TokenRequest
from repro.core.token_service import IssuanceResult, TokenDenied
from repro.resilience.deadline import decode_deadline

#: the wire protocol version this codec speaks
WIRE_VERSION = 1

#: the two codec lanes an envelope can travel in
CODEC_JSON = "json"
CODEC_BINARY = "binary"
CODECS = (CODEC_JSON, CODEC_BINARY)

#: leading bytes of a binary envelope (0xc5 can start neither JSON nor UTF-8
#: text, so the lane is identifiable from the first byte)
BINARY_MAGIC = b"\xc5SB"

#: containers (objects, lists) an envelope may nest, the envelope itself
#: counted, in either lane.  The protocol's own envelopes are 5-6 deep and an
#: argument value may nest a little further; both decoders recurse, so the
#: cap sits far below the interpreter's recursion limit (1,000 frames) and a
#: frame of nothing but openers is refused, not a ``RecursionError``.
MAX_ENVELOPE_DEPTH = 64


def _malformed(detail: str) -> SmacsError:
    return SmacsError(detail, ErrorCode.MALFORMED_REQUEST)


def _too_deep() -> SmacsError:
    return _malformed("envelope nested too deeply")


def sniff_codec(raw: bytes) -> str:
    """Identify the codec lane an envelope travels in.

    JSON envelopes start with ``{`` (optionally after insignificant
    whitespace), binary envelopes with :data:`BINARY_MAGIC`.  Anything else
    is an unknown codec: ``MALFORMED_REQUEST``, never a guess.
    """
    if raw.startswith(BINARY_MAGIC):
        return CODEC_BINARY
    if raw.lstrip(b" \t\r\n").startswith(b"{"):
        return CODEC_JSON
    prefix = bytes(raw[:4])
    raise _malformed(f"unknown envelope codec (leading bytes {prefix!r})")


def reply_codec(raw: bytes) -> str:
    """The lane an answer to ``raw`` travels in: its own, JSON when unknown."""
    try:
        return sniff_codec(raw)
    except SmacsError:
        return CODEC_JSON


# -- argument values ----------------------------------------------------------


def encode_value(value: Any) -> Any:
    """JSON-encode one argument value (scalars, bytes, shallow lists)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, bytes):
        return {"$bytes": value.hex()}
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    raise _malformed(f"argument value of type {type(value).__name__} is not wire-safe")


def decode_value(payload: Any) -> Any:
    if isinstance(payload, dict):
        if set(payload) == {"$bytes"} and isinstance(payload["$bytes"], str):
            try:
                return bytes.fromhex(payload["$bytes"])
            except ValueError as exc:
                raise _malformed(f"bad $bytes payload: {exc}") from exc
        raise _malformed(f"unknown tagged value {sorted(payload)!r}")
    if isinstance(payload, list):
        return [decode_value(item) for item in payload]
    return payload


# -- TokenRequest -------------------------------------------------------------


def encode_token_request(request: TokenRequest) -> dict[str, Any]:
    return {
        "type": request.token_type.name,
        "contract": address_hex(request.contract),
        "client": address_hex(request.client),
        "method": request.method,
        "arguments": {
            name: encode_value(value) for name, value in sorted(request.arguments.items())
        },
        "one_time": request.one_time,
    }


def decode_token_request(payload: Mapping[str, Any]) -> TokenRequest:
    try:
        token_type = TokenType[str(payload["type"])]
        contract = to_address(str(payload["contract"]))
        client = to_address(str(payload["client"]))
        method = payload.get("method")
        raw_arguments = payload.get("arguments") or {}
        one_time = bool(payload.get("one_time", False))
        if method is not None and not isinstance(method, str):
            raise _malformed("method must be a string or null")
        if not isinstance(raw_arguments, Mapping):
            raise _malformed("arguments must be an object")
        arguments = {
            str(name): decode_value(value) for name, value in raw_arguments.items()
        }
        return TokenRequest(
            token_type=token_type,
            contract=contract,
            client=client,
            method=method,
            arguments=arguments,
            one_time=one_time,
        )
    except SmacsError:
        raise
    except Exception as exc:  # KeyError, ValueError, InvalidTokenRequest, ...
        raise _malformed(f"undecodable token request: {exc}") from exc


# -- IssuanceResult -----------------------------------------------------------


def encode_issuance_result(result: IssuanceResult) -> dict[str, Any]:
    return {
        "request": encode_token_request(result.request),
        "token": result.token.to_bytes().hex() if result.token is not None else None,
        "decision": {
            "allowed": result.decision.allowed,
            "reason": result.decision.reason,
        },
        "error": result.error.to_dict() if result.error is not None else None,
    }


def decode_issuance_result(payload: Mapping[str, Any]) -> IssuanceResult:
    try:
        request = decode_token_request(payload["request"])
        raw_token = payload.get("token")
        token = Token.from_bytes(bytes.fromhex(raw_token)) if raw_token else None
        decision_payload = payload.get("decision") or {}
        decision = AccessDecision(
            allowed=bool(decision_payload.get("allowed", token is not None)),
            reason=str(decision_payload.get("reason", "")),
        )
        raw_error = payload.get("error")
        error = SmacsError.from_dict(raw_error) if raw_error else None
        if error is not None and error.code is ErrorCode.DENIED:
            # Rehydrate the taxonomy subclass so catching semantics survive
            # the wire: a denial is a TokenDenied on both sides.
            error = TokenDenied(decision)
        return IssuanceResult(request, token, decision, error=error)
    except SmacsError:
        raise
    except Exception as exc:
        raise _malformed(f"undecodable issuance result: {exc}") from exc


# -- the binary TLV lane ------------------------------------------------------
#
# One tag byte per value, unsigned LEB128 varints for lengths/counts, zigzag
# varints for ints (arbitrary precision, like the JSON lane), big-endian
# IEEE-754 doubles for floats.  The value model is exactly the JSON data
# model the envelopes already use -- the two lanes carry identical envelope
# dicts, which is what the round-trip property suite pins.

_TAG_NONE = 0x00
_TAG_TRUE = 0x01
_TAG_FALSE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_LIST = 0x07
_TAG_DICT = 0x08


def _pack_varint(value: int, out: bytearray) -> None:
    if value < 0x80:  # every length and count of an ordinary envelope
        out.append(value)
        return
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _pack_value(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        _pack_varint(value * 2 if value >= 0 else -value * 2 - 1, out)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out.extend(struct.pack(">d", value))
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(_TAG_STR)
        _pack_varint(len(encoded), out)
        out.extend(encoded)
    elif isinstance(value, bytes):
        out.append(_TAG_BYTES)
        _pack_varint(len(value), out)
        out.extend(value)
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        _pack_varint(len(value), out)
        for item in value:
            _pack_value(item, out)
    elif isinstance(value, dict):
        out.append(_TAG_DICT)
        _pack_varint(len(value), out)
        for key, item in value.items():
            if not isinstance(key, str):
                raise _malformed(f"binary envelope keys must be strings, got {key!r}")
            encoded = key.encode("utf-8")
            _pack_varint(len(encoded), out)
            out.extend(encoded)
            _pack_value(item, out)
    else:
        raise _malformed(f"value of type {type(value).__name__} is not wire-safe")


def _unpack_value(raw: bytes, offset: int, depth_limit: int) -> "tuple[Any, int]":
    """Read one TLV value at ``offset``: ``(value, offset past it)``.

    Every violation is ``MALFORMED_REQUEST``.  The cursor is a closure
    variable and tags and one-byte varints -- all an ordinary envelope has --
    are read by index, so only payloads are sliced.
    """
    size = len(raw)

    def varint() -> int:
        nonlocal offset
        result = shift = 0
        try:
            while True:
                byte = raw[offset]
                offset += 1
                if byte < 0x80:
                    return result | byte << shift
                result |= (byte & 0x7F) << shift
                shift += 7
                if shift > 10_000 * 7:  # a continuation run this long is an attack
                    raise _malformed("binary envelope varint too long")
        except IndexError:
            raise _malformed("binary envelope truncated") from None

    def take(count: int) -> bytes:
        nonlocal offset
        end = offset + count
        if end > size:
            raise _malformed("binary envelope truncated")
        chunk = raw[offset:end]
        offset = end
        return chunk

    def string() -> str:
        nonlocal offset
        # Keys and strings are most of an envelope: their (nearly always
        # one-byte) length is read in place, not through varint() and take().
        if offset < size and raw[offset] < 0x80:
            end = offset + 1 + raw[offset]
            start = offset + 1
        else:
            length = varint()
            start, end = offset, offset + length
        if end > size:
            raise _malformed("binary envelope truncated")
        offset = end
        try:
            return raw[start:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _malformed(f"binary envelope string is not UTF-8: {exc}") from exc

    def value(depth: int) -> Any:
        nonlocal offset
        try:
            tag = raw[offset]
        except IndexError:
            raise _malformed("binary envelope truncated") from None
        offset += 1
        if tag == _TAG_STR:
            return string()
        if tag == _TAG_DICT or tag == _TAG_LIST:
            if depth >= depth_limit:
                raise _too_deep()
            depth += 1
            if tag == _TAG_LIST:
                return [value(depth) for _ in range(varint())]
            result: dict[str, Any] = {}
            for _ in range(varint()):
                key = string()
                result[key] = value(depth)
            return result
        if tag == _TAG_NONE:
            return None
        if tag == _TAG_TRUE:
            return True
        if tag == _TAG_FALSE:
            return False
        if tag == _TAG_INT:
            zigzag = varint()
            return zigzag // 2 if zigzag % 2 == 0 else -(zigzag // 2) - 1
        if tag == _TAG_FLOAT:
            return cast(float, struct.unpack(">d", take(8))[0])
        if tag == _TAG_BYTES:
            return bytes(take(varint()))
        raise _malformed(f"unknown binary tag 0x{tag:02x}")

    return value(0), offset


def _pack_envelope(envelope: Mapping[str, Any]) -> bytes:
    out = bytearray(BINARY_MAGIC)
    out.append(WIRE_VERSION)
    _pack_value(dict(envelope), out)
    return bytes(out)


def _unpack_envelope(raw: bytes, depth_limit: int) -> dict[str, Any]:
    if len(raw) == len(BINARY_MAGIC):
        raise _malformed("binary envelope ends after its magic")
    version = raw[len(BINARY_MAGIC)]
    if version != WIRE_VERSION:
        raise SmacsError(
            f"unsupported wire version {version!r} (this endpoint speaks {WIRE_VERSION})",
            ErrorCode.UNSUPPORTED,
        )
    envelope, end = _unpack_value(raw, len(BINARY_MAGIC) + 1, depth_limit)
    if not isinstance(envelope, dict):
        raise _malformed("binary envelope must be an object")
    if end != len(raw):
        raise _malformed("binary envelope carries trailing bytes")
    return cast("dict[str, Any]", envelope)


# -- envelopes ----------------------------------------------------------------


def _check_codec(codec: str) -> None:
    if codec not in CODECS:
        raise _malformed(f"unknown envelope codec {codec!r}; pick one of {CODECS}")


def encode_request_envelope(
    op: str,
    route: str,
    body: Mapping[str, Any],
    *,
    codec: str = CODEC_JSON,
    trace: "Mapping[str, Any] | None" = None,
    deadline: "float | None" = None,
) -> bytes:
    """Encode a request envelope, optionally carrying trace and deadline.

    ``trace`` is the *optional* observability field (the
    :meth:`repro.obs.trace.TraceContext.to_wire` dict).  ``deadline`` is the
    *optional* resilience field: the absolute wall-clock time
    (``time.time()`` seconds) after which the caller no longer wants the
    answer -- hops that see it expired shed the request with
    ``DEADLINE_EXCEEDED`` instead of doing the work.  Both lanes carry each
    as one extra top-level key that decoders are free to ignore -- the wire
    version is unchanged, so new and legacy peers interoperate (an envelope
    without either field is byte-identical to the pre-resilience encoding).
    """
    _check_codec(codec)
    envelope: dict[str, Any] = {"op": op, "route": route, "body": dict(body)}
    if trace is not None:
        envelope["trace"] = dict(trace)
    if deadline is not None:
        envelope["deadline"] = float(deadline)
    if codec == CODEC_BINARY:
        return _pack_envelope(envelope)
    envelope["smacs"] = WIRE_VERSION
    return json.dumps(envelope, sort_keys=True).encode("utf-8")


class Request(NamedTuple):
    """One decoded request envelope -- what a gateway dispatches.

    ``trace`` is the raw wire dict (``None`` when absent/malformed -- a bad
    trace never fails the request, it just loses its telemetry);
    ``deadline`` is the absolute deadline (``None`` when absent/malformed,
    with the same never-fail leniency -- a garbled deadline degrades to "no
    deadline", exactly what a legacy peer sends); ``codec`` is the lane the
    envelope arrived in, which is the lane its answer travels in.
    """

    op: str
    route: str
    body: dict[str, Any]
    trace: "dict[str, Any] | None"
    deadline: "float | None"
    codec: str


def decode_request_full(raw: bytes) -> Request:
    """Decode a request envelope with every optional field (the one decoder)."""
    lane = sniff_codec(raw)
    # An answer echoes each request one level further down than it arrived,
    # so a request is held to one level less than the answer may have.
    depth_limit = MAX_ENVELOPE_DEPTH - 1
    if lane == CODEC_BINARY:
        envelope = _unpack_envelope(raw, depth_limit)
    else:
        envelope = _load_json(raw, depth_limit)
        version = envelope.get("smacs")
        if version != WIRE_VERSION:
            raise SmacsError(
                f"unsupported wire version {version!r} (this endpoint speaks {WIRE_VERSION})",
                ErrorCode.UNSUPPORTED,
            )
    op = envelope.get("op")
    route = envelope.get("route")
    body = envelope.get("body", {})
    if not isinstance(op, str) or not isinstance(route, str) or not isinstance(body, dict):
        raise _malformed("request envelope requires string op/route and object body")
    trace = envelope.get("trace")
    if not isinstance(trace, dict):
        trace = None
    return Request(op, route, body, trace, decode_deadline(envelope.get("deadline")), lane)


def encode_response_envelope(body: Mapping[str, Any], *, codec: str = CODEC_JSON) -> bytes:
    _check_codec(codec)
    if codec == CODEC_BINARY:
        return _pack_envelope({"ok": True, "body": dict(body)})
    envelope = {"smacs": WIRE_VERSION, "ok": True, "body": dict(body)}
    return json.dumps(envelope, sort_keys=True).encode("utf-8")


def encode_error_envelope(error: SmacsError, *, codec: str = CODEC_JSON) -> bytes:
    _check_codec(codec)
    if codec == CODEC_BINARY:
        return _pack_envelope({"ok": False, "error": error.to_dict()})
    envelope = {"smacs": WIRE_VERSION, "ok": False, "error": error.to_dict()}
    return json.dumps(envelope, sort_keys=True).encode("utf-8")


def decode_response_envelope(raw: bytes) -> dict[str, Any]:
    """Unwrap a response; a carried gateway-level error is raised as-is."""
    if sniff_codec(raw) == CODEC_BINARY:
        envelope = _unpack_envelope(raw, MAX_ENVELOPE_DEPTH)
    else:
        envelope = _load_json(raw, MAX_ENVELOPE_DEPTH)
        if envelope.get("smacs") != WIRE_VERSION:
            raise SmacsError(
                f"unsupported wire version {envelope.get('smacs')!r}", ErrorCode.UNSUPPORTED
            )
    if not envelope.get("ok"):
        raise SmacsError.from_dict(envelope.get("error") or {})
    body = envelope.get("body", {})
    if not isinstance(body, dict):
        raise _malformed("response body must be an object")
    return cast("dict[str, Any]", body)


def _load_json(raw: bytes, depth_limit: int) -> dict[str, Any]:
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _malformed(f"envelope is not valid JSON: {exc}") from exc
    except RecursionError:  # the parser ran out of stack before the cap could look
        raise _too_deep() from None
    if not isinstance(payload, dict):
        raise _malformed("envelope must be a JSON object")
    _check_json_depth(raw, payload, depth_limit)
    # A ``\uD800``-``\uDFFF`` escape outside a pair decodes to a lone
    # surrogate, which is not text: the binary lane refuses its UTF-8, so this
    # lane refuses the escape.  Only an envelope with an escape can carry one.
    if b"\\u" in raw:
        try:
            json.dumps(payload, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise _malformed(f"envelope string is not Unicode text: {exc}") from exc
    return cast("dict[str, Any]", payload)


def _check_json_depth(raw: bytes, payload: dict[str, Any], depth_limit: int) -> None:
    # The binary reader's cap, so both lanes accept the same envelopes.  Every
    # level costs the text an opener, so most envelopes cannot reach the cap
    # and skip the walk; ``level`` holds the containers one level further down
    # each round.
    if raw.count(b"{") + raw.count(b"[") <= depth_limit:
        return
    level: list[Any] = [payload]
    for _ in range(depth_limit):
        level = [
            child
            for node in level
            for child in (node.values() if isinstance(node, dict) else node)
            if isinstance(child, (dict, list))
        ]
        if not level:
            return
    raise _too_deep()


__all__ = [
    "BINARY_MAGIC",
    "CODECS",
    "CODEC_BINARY",
    "CODEC_JSON",
    "MAX_ENVELOPE_DEPTH",
    "Request",
    "WIRE_VERSION",
    "decode_issuance_result",
    "decode_request_full",
    "decode_response_envelope",
    "decode_token_request",
    "decode_value",
    "encode_error_envelope",
    "encode_issuance_result",
    "encode_request_envelope",
    "encode_response_envelope",
    "encode_token_request",
    "encode_value",
    "reply_codec",
    "sniff_codec",
]
