"""Property tests for the binary codec lane and its negotiation.

The binary lane carries the JSON lane's text behind its magic and version
byte, so it must be a drop-in for JSON: any envelope a gateway or client can
produce round-trips value-for-value in both lanes, the sniffing that drives
per-envelope negotiation is unambiguous, a frame of the retired
tag-length-value lane is ``UNSUPPORTED``, and anything that is neither lane
maps to ``MALFORMED_REQUEST`` (never an exception leak).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import codec
from repro.core.errors import ErrorCode, SmacsError

_BINARY_HEADER = codec.BINARY_MAGIC + bytes([codec.BINARY_VERSION])

# JSON-representable values: what envelope bodies are made of.  Both lanes
# carry ints beyond IEEE range and non-ASCII text.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
)
bodies = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=12), children, max_size=6),
    ),
    max_leaves=24,
).map(lambda value: {"payload": value})


# --- negotiation / sniffing ---------------------------------------------------------


def test_sniffing_is_unambiguous():
    json_raw = codec.encode_request_envelope("stats", "r", {}, codec=codec.CODEC_JSON)
    binary_raw = codec.encode_request_envelope("stats", "r", {}, codec=codec.CODEC_BINARY)
    assert codec.sniff_codec(json_raw) == codec.CODEC_JSON
    assert codec.sniff_codec(b"   \t\n" + json_raw) == codec.CODEC_JSON
    assert codec.sniff_codec(binary_raw) == codec.CODEC_BINARY
    assert binary_raw.startswith(codec.BINARY_MAGIC)
    assert len(binary_raw) < len(json_raw)


@pytest.mark.parametrize("junk", [b"", b"\x00\x01", b"<xml/>", b"\xc5S", b"null"])
def test_unknown_codec_is_malformed(junk):
    with pytest.raises(SmacsError) as failure:
        codec.sniff_codec(junk)
    assert failure.value.code is ErrorCode.MALFORMED_REQUEST


def test_unknown_codec_name_is_rejected_at_encode_time():
    with pytest.raises(SmacsError) as failure:
        codec.encode_response_envelope({}, codec="msgpack")
    assert failure.value.code is ErrorCode.MALFORMED_REQUEST


def test_binary_version_mismatch_is_unsupported():
    raw = bytearray(codec.encode_response_envelope({}, codec=codec.CODEC_BINARY))
    raw[len(codec.BINARY_MAGIC)] = 99  # corrupt the version byte
    with pytest.raises(SmacsError) as failure:
        codec.decode_response_envelope(bytes(raw))
    assert failure.value.code is ErrorCode.UNSUPPORTED


def test_truncated_and_padded_binary_envelopes_are_malformed():
    raw = codec.encode_response_envelope({"a": 1}, codec=codec.CODEC_BINARY)
    for mangled in (raw[:-1], raw + b"\x00"):
        with pytest.raises(SmacsError) as failure:
            codec.decode_response_envelope(mangled)
        assert failure.value.code is ErrorCode.MALFORMED_REQUEST


def test_json_lane_refuses_a_lone_surrogate_the_binary_lane_could_not_carry():
    paired = codec.encode_request_envelope("submit", "r", {"s": "\U00010000"})
    assert b"\\ud800\\udc00" in paired
    assert codec.decode_request_full(paired).body == {"s": "\U00010000"}
    for lone in (paired.replace(b"\\ud800", b""), paired.replace(b"\\udc00", b"")):
        for decode in (codec.decode_request_full, codec.decode_response_envelope):
            with pytest.raises(SmacsError) as failure:
                decode(lone)
            assert failure.value.code is ErrorCode.MALFORMED_REQUEST


@pytest.mark.parametrize("lane", codec.CODECS)
@pytest.mark.parametrize(
    "value", [b"raw", "\ud800", 10**5000], ids=["bytes", "lone-surrogate", "huge-int"]
)
def test_a_value_json_cannot_carry_is_malformed_at_encode_time(lane, value):
    for encode in (
        lambda: codec.encode_request_envelope("submit", "r", {"v": value}, codec=lane),
        lambda: codec.encode_response_envelope({"v": [value]}, codec=lane),
    ):
        with pytest.raises(SmacsError) as failure:
            encode()
        assert failure.value.code is ErrorCode.MALFORMED_REQUEST


def test_the_codec_has_one_envelope_format():
    # Both lanes are the JSON text: no tag table, no struct packing, and one
    # json.loads that every decode goes through.
    tree = ast.parse(Path(codec.__file__).read_text(encoding="utf-8"))
    defined = [
        target.id
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    ]
    assert [name for name in defined if name.startswith("_TAG_")] == []
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    ] + [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "struct" not in imported and "json" in imported
    loads = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "loads"
    ]
    assert len(loads) == 1


# --- round-trip properties ----------------------------------------------------------


@pytest.mark.slow
@given(body=bodies, lane=st.sampled_from(codec.CODECS))
@settings(max_examples=200, deadline=None)
def test_request_envelopes_round_trip_in_both_lanes(body, lane):
    raw = codec.encode_request_envelope("submit", "route-7", body, codec=lane)
    request = codec.decode_request_full(raw)
    assert (request.op, request.route, request.codec) == ("submit", "route-7", lane)
    assert request.body == body


@pytest.mark.slow
@given(body=bodies, lane=st.sampled_from(codec.CODECS))
@settings(max_examples=200, deadline=None)
def test_response_envelopes_round_trip_in_both_lanes(body, lane):
    raw = codec.encode_response_envelope(body, codec=lane)
    assert codec.decode_response_envelope(raw) == body


@pytest.mark.slow
@given(
    message=st.text(max_size=60),
    code=st.sampled_from(list(ErrorCode)),
    lane=st.sampled_from(codec.CODECS),
)
@settings(max_examples=100, deadline=None)
def test_error_envelopes_round_trip_in_both_lanes(message, code, lane):
    raw = codec.encode_error_envelope(SmacsError(message, code), codec=lane)
    with pytest.raises(SmacsError) as failure:
        codec.decode_response_envelope(raw)
    assert failure.value.code is code
    assert message in str(failure.value)


@pytest.mark.slow
@given(value=st.integers())
@settings(max_examples=200, deadline=None)
def test_binary_lane_carries_arbitrary_precision_ints(value):
    raw = codec.encode_response_envelope({"n": value}, codec=codec.CODEC_BINARY)
    assert codec.decode_response_envelope(raw)["n"] == value


# --- the depth cap -------------------------------------------------------------------


def _nested(levels: int):
    value: object = 0
    for _ in range(levels):
        value = [value]
    return value


@pytest.mark.parametrize("lane", codec.CODECS)
def test_both_lanes_cap_nesting_at_the_same_depth(lane):
    # An envelope and its body are two levels; a response may nest
    # MAX_ENVELOPE_DEPTH, a request one less (its answer echoes it one down).
    cap = codec.MAX_ENVELOPE_DEPTH
    body = {"a": _nested(cap - 3)}
    request = codec.encode_request_envelope("submit", "r", body, codec=lane)
    assert codec.decode_request_full(request).body == body
    body = {"a": _nested(cap - 2)}
    assert codec.decode_response_envelope(codec.encode_response_envelope(body, codec=lane)) == body
    for raw, decode in (
        (codec.encode_request_envelope("submit", "r", body, codec=lane), codec.decode_request_full),
        (
            codec.encode_response_envelope({"a": _nested(cap - 1)}, codec=lane),
            codec.decode_response_envelope,
        ),
    ):
        with pytest.raises(SmacsError) as failure:
            decode(raw)
        assert failure.value.code is ErrorCode.MALFORMED_REQUEST
        assert str(failure.value) == "envelope nested too deeply"


@pytest.mark.parametrize(
    "raw",
    [
        _BINARY_HEADER + b"[" * 5000 + b"0" + b"]" * 5000,
        _BINARY_HEADER + b'{"k": ' * 5000 + b"0" + b"}" * 5000,
        b'{"smacs": 1, "op": "submit", "route": "r", "body": ' + b"[" * 100_000,
        b'{"smacs": 1, "ok": true, "body": ' + b'{"k": ' * 100_000,
    ],
    ids=["binary-lists", "binary-objects", "json-lists", "json-objects"],
)
def test_a_frame_of_openers_is_malformed_not_a_recursion_error(raw):
    for decode in (codec.decode_request_full, codec.decode_response_envelope):
        with pytest.raises(SmacsError) as failure:
            decode(raw)
        assert failure.value.code is ErrorCode.MALFORMED_REQUEST
        assert str(failure.value) == "envelope nested too deeply"


# --- fuzz: both lanes decode or refuse with a stable code, and agree ----------------


def _issuance_envelopes() -> list[bytes]:
    """The ledger-shaped traffic: a 4-request envelope and its answer, per lane."""
    from repro.core.acr import AccessDecision
    from repro.core.token_request import TokenRequest
    from repro.core.token_service import IssuanceResult, TokenDenied

    requests = [
        TokenRequest.argument_token(
            bytes(range(20)), bytes(range(20, 40)), "submit", {"amount": i, "memo": b"\x00\xff"},
            one_time=True,
        )
        for i in range(4)
    ]
    denial = AccessDecision.deny("client not on whitelist")
    results = [IssuanceResult.failure(request, TokenDenied(denial)) for request in requests]
    body = {"requests": [codec.encode_token_request(r) for r in requests]}
    answer = {"results": [codec.encode_issuance_result(r) for r in results]}
    return [
        raw
        for lane in codec.CODECS
        for raw in (
            codec.encode_request_envelope(
                "submit", "route", body, codec=lane, trace={"id": "t1"}, deadline=12.5
            ),
            codec.encode_response_envelope(answer, codec=lane),
            codec.encode_error_envelope(SmacsError("shed", ErrorCode.OVERLOADED), codec=lane),
        )
    ]


_OPENERS = (b"[", b'{"k":', b"[ ", b'{ "k" : ')

envelopes = st.one_of(
    st.sampled_from(_issuance_envelopes()),
    st.builds(
        lambda body, lane: codec.encode_request_envelope("submit", "r", body, codec=lane),
        bodies, st.sampled_from(codec.CODECS),
    ),
    st.builds(
        lambda body, lane: codec.encode_response_envelope(body, codec=lane),
        bodies, st.sampled_from(codec.CODECS),
    ),
)

#: (kind, where in the frame as a fraction, payload): flip a byte, cut the
#: frame, splice junk in, drop a slice, or splice a run of container openers
mutations = st.lists(
    st.tuples(
        st.sampled_from(["flip", "truncate", "insert", "delete", "nest"]),
        st.floats(min_value=0, max_value=1),
        st.binary(min_size=1, max_size=8),
        st.integers(min_value=1, max_value=3000),  # past the interpreter's recursion limit
    ),
    max_size=3,
)


def _mutate(raw: bytes, steps) -> bytes:
    for kind, where, junk, count in steps:
        at = int(where * len(raw))
        if kind == "flip" and raw:
            at = min(at, len(raw) - 1)
            raw = raw[:at] + bytes([raw[at] ^ junk[0] or 1]) + raw[at + 1:]
        elif kind == "truncate":
            raw = raw[:at]
        elif kind == "insert":
            raw = raw[:at] + junk + raw[at:]
        elif kind == "delete":
            raw = raw[:at] + raw[at + len(junk):]
        elif kind == "nest":
            raw = raw[:at] + _OPENERS[junk[0] % len(_OPENERS)] * count + raw[at:]
    return raw


def _canonical(value):
    """Floats by their repr (NaN equals itself), containers element-wise."""
    if isinstance(value, float):
        return ("float", repr(value))
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_canonical(item) for item in value]
    return value


def _other(lane: str) -> str:
    return codec.CODEC_JSON if lane == codec.CODEC_BINARY else codec.CODEC_BINARY


@given(raw=envelopes, steps=mutations)
@example(raw=b'{"smacs": 1, "ok": true, "body": 0}', steps=[("nest", 0.95, b"\x02", 3000)])  # "["
@example(raw=_issuance_envelopes()[3], steps=[("nest", 0.25, b"\x00", 3000)])  # binary, lists
@example(  # the deletion leaves "\udc00" unpaired: a lone surrogate
    raw=codec.encode_response_envelope({"payload": ["\U00010000"]}), steps=[("delete", 0.37, b"\x00", 1)]
)
@example(  # an integer literal past the interpreter's 4,300-digit limit
    raw=b'{"smacs": 1, "op": "submit", "route": "r", "ok": true, "body": {"n": '
    + b"7" * 5000
    + b"}}",
    steps=[],
)
@settings(max_examples=300, deadline=None)
def test_decoding_a_fuzzed_envelope_returns_or_raises_a_stable_code(raw, steps):
    raw = _mutate(raw, steps)
    # Anything but SmacsError escaping either decoder fails the test.
    try:
        request = codec.decode_request_full(raw)
    except SmacsError as error:
        assert error.code in (ErrorCode.MALFORMED_REQUEST, ErrorCode.UNSUPPORTED)
    else:
        # Accepted: the other lane carries the same request to the same fields.
        again = codec.decode_request_full(
            codec.encode_request_envelope(
                request.op, request.route, request.body, codec=_other(request.codec),
                trace=request.trace, deadline=request.deadline,
            )
        )
        assert _canonical(list(again[:5])) == _canonical(list(request[:5]))
        assert again.codec == _other(request.codec)
    try:
        body = codec.decode_response_envelope(raw)
    except SmacsError as error:
        assert isinstance(error.code, ErrorCode)  # a carried error keeps its own code
    else:
        lane = _other(codec.sniff_codec(raw))
        again = codec.decode_response_envelope(codec.encode_response_envelope(body, codec=lane))
        assert _canonical(again) == _canonical(body)
