"""Property tests for the compact binary codec lane and its negotiation.

The binary lane must be a drop-in for JSON: any envelope a gateway or client
can produce round-trips byte-for-value through the TLV packer, the sniffing
that drives per-envelope negotiation is unambiguous, and anything that is
neither lane maps to ``MALFORMED_REQUEST`` (never an exception leak).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import codec
from repro.core.errors import ErrorCode, SmacsError

# JSON-representable values: what envelope bodies are made of.  Binary also
# carries arbitrary ints (beyond IEEE range) and utf-8 text.
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
