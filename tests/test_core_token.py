"""Unit tests for the token format (Fig. 3) and the signed datagram."""

import gc
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import token as token_mod
from repro.core.token import (
    ONE_TIME_UNSET,
    TOKEN_SIZE,
    MalformedToken,
    Token,
    TokenType,
    decode_index,
    encode_argument_data,
    encode_index,
    signing_datagram,
    signing_digest,
)
from repro.crypto.keys import KeyPair
from repro.crypto.secp256k1 import N


@pytest.fixture
def ts_keypair():
    return KeyPair.from_seed("ts")


@pytest.fixture
def client():
    return KeyPair.from_seed("client").address


@pytest.fixture
def contract():
    return KeyPair.from_seed("contract").address


def _issue(ts_keypair, token_type, client, contract, expire=10_000, index=ONE_TIME_UNSET,
           method=None, arguments=None):
    digest = signing_digest(token_type, expire, index, client, contract,
                            method=method, arguments=arguments)
    return Token(token_type, expire, index, ts_keypair.sign(digest))


# --- wire layout -----------------------------------------------------------------


def test_token_is_exactly_86_bytes(ts_keypair, client, contract):
    token = _issue(ts_keypair, TokenType.SUPER, client, contract)
    assert TOKEN_SIZE == 86
    assert len(token.to_bytes()) == 86


def test_roundtrip_preserves_all_fields(ts_keypair, client, contract):
    token = _issue(ts_keypair, TokenType.ARGUMENT, client, contract, expire=123456,
                   index=42, method="submit", arguments={"amount": 5})
    decoded = Token.from_bytes(token.to_bytes())
    assert decoded == token
    assert decoded.token_type is TokenType.ARGUMENT
    assert decoded.expire == 123456
    assert decoded.index == 42


def test_one_time_flag_derived_from_index(ts_keypair, client, contract):
    assert not _issue(ts_keypair, TokenType.SUPER, client, contract).is_one_time
    assert _issue(ts_keypair, TokenType.SUPER, client, contract, index=0).is_one_time
    assert _issue(ts_keypair, TokenType.SUPER, client, contract, index=7).is_one_time


def test_expiry_check(ts_keypair, client, contract):
    token = _issue(ts_keypair, TokenType.SUPER, client, contract, expire=1000)
    assert not token.is_expired(now=999)
    assert not token.is_expired(now=1000)
    assert token.is_expired(now=1001)


def test_from_bytes_rejects_wrong_length():
    with pytest.raises(MalformedToken):
        Token.from_bytes(b"\x01" * 85)
    with pytest.raises(MalformedToken):
        Token.from_bytes(b"\x01" * 87)


def test_from_bytes_rejects_unknown_type(ts_keypair, client, contract):
    raw = bytearray(_issue(ts_keypair, TokenType.SUPER, client, contract).to_bytes())
    raw[0] = 0xEE
    with pytest.raises(MalformedToken):
        Token.from_bytes(bytes(raw))


def test_index_encoding_roundtrip_including_sentinel():
    for index in (ONE_TIME_UNSET, 0, 1, 2**63, 2**120):
        assert decode_index(encode_index(index)) == index
    assert encode_index(ONE_TIME_UNSET) == b"\xff" * 16


# --- the decode memo -----------------------------------------------------------------

_EDGE_SCALARS = [0, 1, N - 1, N]


@given(
    type_byte=st.integers(0, 255),
    expire=st.binary(min_size=4, max_size=4),
    index=st.binary(min_size=16, max_size=16),
    r=st.sampled_from(_EDGE_SCALARS),
    s=st.sampled_from(_EDGE_SCALARS),
    v=st.sampled_from([0, 1, 27, 28, 29]),
)
@settings(max_examples=200, deadline=None)
def test_the_memoized_decode_equals_the_uncached_one(type_byte, expire, index, r, s, v):
    raw = (
        bytes([type_byte]) + expire + index
        + r.to_bytes(32, "big") + s.to_bytes(32, "big") + bytes([v])
    )
    assert len(raw) == TOKEN_SIZE
    try:
        expected = token_mod._decoded.__wrapped__(raw)
    except MalformedToken:
        for _ in range(2):
            with pytest.raises(MalformedToken):
                Token.from_bytes(raw)
    else:
        for _ in range(2):
            assert Token.from_bytes(raw) == expected


def test_malformed_bytes_raise_every_time_and_are_not_kept(token_decodes):
    raw = b"\x09" + b"\x00" * (TOKEN_SIZE - 1)  # an unknown type byte
    for _ in range(3):
        with pytest.raises(MalformedToken):
            Token.from_bytes(raw)
    assert token_decodes[raw] == 3
    assert token_mod._decoded.cache_info().currsize == 0


def test_a_bytearray_decodes_to_an_equal_token_and_stays_out_of_the_memo(
    ts_keypair, client, contract, token_decodes
):
    token = _issue(ts_keypair, TokenType.METHOD, client, contract, method="submit")
    mutable = bytearray(token.to_bytes())
    decoded = Token.from_bytes(mutable)
    mutable[0] = 0xFF
    assert decoded == token == Token.from_bytes(token.to_bytes())
    assert token_mod._decoded.cache_info().currsize == 1  # the bytes, not the bytearray


def test_the_memo_is_bounded_in_entries_and_bytes(monkeypatch):
    bound = token_mod.DECODE_MEMO_SIZE
    memo = lru_cache(maxsize=bound)(token_mod._decoded.__wrapped__)
    monkeypatch.setattr(token_mod, "_decoded", memo)

    def raw(i):
        return (
            bytes([TokenType.ARGUMENT]) + (1_000 + i).to_bytes(4, "big") + encode_index(i)
            + (N - 1 - i).to_bytes(32, "big") + (N // 2 + i).to_bytes(32, "big")
            + bytes([i % 2])
        )

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(bound + 100):
            Token.from_bytes(raw(i))
            assert memo.cache_info().currsize <= bound
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert memo.cache_info().currsize == bound
    assert held <= 1 << 20


# --- signed datagram -----------------------------------------------------------------


def test_datagram_layout_prefix(client, contract):
    data = signing_datagram(TokenType.SUPER, 1000, ONE_TIME_UNSET, client, contract)
    assert data[0] == int(TokenType.SUPER)
    assert data[1:5] == (1000).to_bytes(4, "big")
    assert client in data and contract in data


def test_datagram_differs_per_token_type(client, contract):
    super_data = signing_datagram(TokenType.SUPER, 1, 0, client, contract)
    method_data = signing_datagram(TokenType.METHOD, 1, 0, client, contract, method="m")
    argument_data = signing_datagram(TokenType.ARGUMENT, 1, 0, client, contract,
                                     method="m", arguments={"a": 1})
    assert len(super_data) < len(method_data) < len(argument_data)
    assert super_data != method_data != argument_data


def test_method_token_requires_method(client, contract):
    with pytest.raises(ValueError):
        signing_datagram(TokenType.METHOD, 1, 0, client, contract)


def test_argument_encoding_is_canonical():
    assert encode_argument_data({"a": 1, "b": 2}) == encode_argument_data({"b": 2, "a": 1})
    assert encode_argument_data({"a": 1}) != encode_argument_data({"a": 2})


def test_digest_binds_every_field(client, contract):
    reference = signing_digest(TokenType.METHOD, 100, 5, client, contract, method="m")
    variations = [
        signing_digest(TokenType.SUPER, 100, 5, client, contract),
        signing_digest(TokenType.METHOD, 101, 5, client, contract, method="m"),
        signing_digest(TokenType.METHOD, 100, 6, client, contract, method="m"),
        signing_digest(TokenType.METHOD, 100, 5, contract, client, method="m"),
        signing_digest(TokenType.METHOD, 100, 5, client, contract, method="other"),
    ]
    assert all(v != reference for v in variations)


def test_digest_for_matches_signature_verification(ts_keypair, client, contract):
    token = _issue(ts_keypair, TokenType.METHOD, client, contract, method="submit")
    digest = token.digest_for(client, contract, method="submit")
    assert ts_keypair.verify(digest, token.signature)
    wrong = token.digest_for(client, contract, method="other")
    assert not ts_keypair.verify(wrong, token.signature)


def test_token_type_enum_values_are_distinct_bytes():
    values = {int(t) for t in TokenType}
    assert len(values) == 3
    assert all(0 < v < 256 for v in values)
