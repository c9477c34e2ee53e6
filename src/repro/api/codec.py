"""Versioned wire codec for the service gateway.

Serialises :class:`~repro.core.token_request.TokenRequest` and
:class:`~repro.core.token_service.IssuanceResult` into wire envelopes, so the
issuance protocol can cross a process boundary (the in-process transport
models it; :mod:`repro.api.transport` carries the same bytes over TCP).

There is one envelope format, JSON text, in two lanes:

* **JSON** (the default): every envelope leads with ``{"smacs": 1, ...}``;
  an endpoint that does not speak the version answers ``UNSUPPORTED``
  instead of guessing.
* **binary**: the same JSON text behind the ``b"\\xc5SB"`` magic and one
  version byte (:data:`BINARY_VERSION`) instead of the ``"smacs"`` field.
  The lane once carried a pure-Python tag-length-value encoding, which was
  slower than the C ``json`` module behind the same header: encoding and
  decoding a 32-token request/response pair cost 1.85 ms through it and
  0.85 ms through ``json`` (CPython 3.11, one Xeon vCPU), so the lane now
  frames the JSON text.  Its version byte moved from 1 to 2 with that
  change: a tag-length-value frame is answered ``UNSUPPORTED``, not parsed
  as junk.

Negotiation is envelope-level and stateless: :func:`sniff_codec` identifies
the lane from the first bytes of a request (``{`` -> JSON, the magic ->
binary, anything else -> ``MALFORMED_REQUEST``), and the gateway answers in
the codec the request arrived in, so old JSON-only clients keep working
against a binary-capable endpoint unchanged.

Addresses travel as ``0x``-hex, tokens as the 86-byte Fig. 3 wire form in
hex, and argument values as JSON scalars with a ``{"$bytes": ...}`` tag for
byte strings -- the values an :class:`~repro.core.acr.ArgumentRule` can bind.
A value JSON cannot carry (raw ``bytes``, a lone surrogate, an integer past
the interpreter's digit limit) is ``MALFORMED_REQUEST`` at encode time, and
anything undecodable is ``MALFORMED_REQUEST`` at decode time: codec errors
never escape as bare ``KeyError`` / ``ValueError`` / ``TypeError`` -- nor as
``RecursionError``: an envelope that nests more than
:data:`MAX_ENVELOPE_DEPTH` containers is refused ("envelope nested too
deeply") in either lane.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, NamedTuple, cast

from repro.chain.address import address_hex, to_address
from repro.core.acr import AccessDecision
from repro.core.errors import ErrorCode, SmacsError
from repro.core.token import Token, TokenType
from repro.core.token_request import TokenRequest
from repro.core.token_service import IssuanceResult, TokenDenied
from repro.resilience.deadline import decode_deadline

#: the wire protocol version this codec speaks: the JSON lane's ``"smacs"``
#: field, and the ``version`` a gateway's ``describe`` reports
WIRE_VERSION = 1

#: the two codec lanes an envelope can travel in
CODEC_JSON = "json"
CODEC_BINARY = "binary"
CODECS = (CODEC_JSON, CODEC_BINARY)

#: leading bytes of a binary envelope (0xc5 can start neither JSON nor UTF-8
#: text, so the lane is identifiable from the first byte)
BINARY_MAGIC = b"\xc5SB"

#: the byte after :data:`BINARY_MAGIC` (1 was the tag-length-value encoding)
BINARY_VERSION = 2

_BINARY_HEADER = BINARY_MAGIC + bytes([BINARY_VERSION])

#: containers (objects, lists) an envelope may nest, the envelope itself
#: counted, in either lane.  The protocol's own envelopes are 5-6 deep and an
#: argument value may nest a little further; the cap sits far below the
#: interpreter's recursion limit (1,000 frames), and a frame of nothing but
#: openers is refused, not a ``RecursionError``.
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


# -- envelopes ----------------------------------------------------------------


def _unsupported(version: Any, speaks: int) -> SmacsError:
    return SmacsError(
        f"unsupported wire version {version!r} (this endpoint speaks {speaks})",
        ErrorCode.UNSUPPORTED,
    )


def _frame(envelope: dict[str, Any], codec: str) -> bytes:
    """The one encoder: the envelope's JSON text, carrying the ``"smacs"``
    version field in the JSON lane and behind the binary header in the other."""
    if codec not in CODECS:
        raise _malformed(f"unknown envelope codec {codec!r}; pick one of {CODECS}")
    if codec == CODEC_JSON:
        envelope["smacs"] = WIRE_VERSION
    try:
        raw = json.dumps(envelope, sort_keys=True).encode("utf-8")
    except (TypeError, ValueError, RecursionError) as exc:  # bytes, a huge int, a cycle
        raise _malformed(f"envelope is not wire-safe: {exc}") from exc
    _refuse_lone_surrogates(raw, envelope)
    return _BINARY_HEADER + raw if codec == CODEC_BINARY else raw


def _unframe(raw: bytes, depth_limit: int) -> "tuple[dict[str, Any], str]":
    """The one decoder: the envelope ``raw`` carries and the lane it came in."""
    lane = sniff_codec(raw)
    if lane == CODEC_JSON:
        envelope = _load_json(raw, depth_limit)
        if envelope.get("smacs") != WIRE_VERSION:
            raise _unsupported(envelope.get("smacs"), WIRE_VERSION)
        return envelope, lane
    if len(raw) == len(BINARY_MAGIC):
        raise _malformed("binary envelope ends after its magic")
    if raw[len(BINARY_MAGIC)] != BINARY_VERSION:
        raise _unsupported(raw[len(BINARY_MAGIC)], BINARY_VERSION)
    return _load_json(raw[len(_BINARY_HEADER):], depth_limit), lane


def _load_json(raw: bytes, depth_limit: int) -> dict[str, Any]:
    try:
        payload = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, an int past the digit limit
        raise _malformed(f"envelope is not valid JSON: {exc}") from exc
    except RecursionError:  # the parser ran out of stack before the cap could look
        raise _too_deep() from None
    if not isinstance(payload, dict):
        raise _malformed("envelope must be a JSON object")
    _check_json_depth(raw, payload, depth_limit)
    _refuse_lone_surrogates(raw, payload)
    return cast("dict[str, Any]", payload)


def _refuse_lone_surrogates(raw: bytes, payload: Any) -> None:
    # A ``\uD800``-``\uDFFF`` escape outside a pair stands for a lone
    # surrogate, which is not text and has no UTF-8.  Only text with an escape
    # can carry one.
    if b"\\u" in raw:
        try:
            json.dumps(payload, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise _malformed(f"envelope string is not Unicode text: {exc}") from exc


def _check_json_depth(raw: bytes, payload: dict[str, Any], depth_limit: int) -> None:
    # Every level costs the text an opener, so most envelopes cannot reach the
    # cap and skip the walk; ``level`` holds the containers one level further
    # down each round.
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
    envelope: dict[str, Any] = {"op": op, "route": route, "body": dict(body)}
    if trace is not None:
        envelope["trace"] = dict(trace)
    if deadline is not None:
        envelope["deadline"] = float(deadline)
    return _frame(envelope, codec)


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
    # An answer echoes each request one level further down than it arrived,
    # so a request is held to one level less than the answer may have.
    envelope, lane = _unframe(raw, MAX_ENVELOPE_DEPTH - 1)
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
    return _frame({"ok": True, "body": dict(body)}, codec)


def encode_error_envelope(error: SmacsError, *, codec: str = CODEC_JSON) -> bytes:
    return _frame({"ok": False, "error": error.to_dict()}, codec)


def decode_response_envelope(raw: bytes) -> dict[str, Any]:
    """Unwrap a response; a carried gateway-level error is raised as-is."""
    envelope, _ = _unframe(raw, MAX_ENVELOPE_DEPTH)
    if not envelope.get("ok"):
        raise SmacsError.from_dict(envelope.get("error") or {})
    body = envelope.get("body", {})
    if not isinstance(body, dict):
        raise _malformed("response body must be an object")
    return cast("dict[str, Any]", body)


__all__ = [
    "BINARY_MAGIC",
    "BINARY_VERSION",
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
