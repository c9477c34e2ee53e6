"""What a transaction's signature covers: its canonical encoding.

The signing payload is the transaction's unsigned fields in the canonical
value codec -- exactly the WAL record minus ``"x"``, the signature -- so:

* arguments are signed with their types: twins that pad to the same ABI
  words (an int and its 20-byte string, ``"abc"`` and ``b"abc"``, ``True``
  and ``1``) are different calls, and one signature does not cover both;
* a WAL round trip gives back the same payload, digest and hash;
* the WAL record's bytes did not move;
* a ledger-shaped payload and payload ‖ signature are two keccak rate
  blocks each.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import Blockchain
from repro.chain.canonical import CodecError, decode_value
from repro.chain.errors import InvalidTransaction
from repro.chain.transaction import Transaction
from repro.core import TokenType
from repro.core.call_chain import TokenBundle
from repro.core.token import TOKEN_SIZE, Token
from repro.crypto.ecdsa import Signature
from repro.crypto.keccak import keccak256
from repro.pipeline import Mempool, RejectReason
from repro.pipeline.load import DEFAULT_CALL_GAS_LIMIT
from repro.storage.codec import decode_transaction, encode_transaction

from storage_codec_reference import encode_value as reference_encode

SENDER = bytes.fromhex("a1" * 20)
CONTRACT = bytes.fromhex("5c" * 20)
SIGNATURE = Signature(r=0x1234567890ABCDEF, s=0xFEDCBA0987654321, v=1)
#: the rate of keccak-256: a message of up to 135 bytes pads to one block
RATE = 136

#: ``encode_transaction`` of :func:`_pinned` as the tree before the signing
#: payload moved wrote it: the WAL format did not move with it.
PINNED_WAL_HEX = (
    "090a05016107000501670380ea3005016b09020505746f6b656e04560001020304050607"
    "08090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b"
    "2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f"
    "5051525354550506616d6f756e74030e05016d05067375626d697405016e030605017003"
    "020501730414a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a105017404145c5c5c5c5c"
    "5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c050176030005017804410000000000000000000000"
    "000000000000000000000000001234567890abcdef000000000000000000000000000000"
    "000000000000000000fedcba098765432101"
)


def _pinned(nonce=3, amount=7):
    """A ledger-shaped transaction: ``submit(amount=, token=)`` under the
    ledger's call gas limit, with a fixed (not computed) signature."""
    return Transaction(
        sender=SENDER,
        to=CONTRACT,
        nonce=nonce,
        method="submit",
        kwargs={"amount": amount, "token": bytes(range(TOKEN_SIZE))},
        gas_limit=DEFAULT_CALL_GAS_LIMIT,
        signature=SIGNATURE,
    )


def test_the_wal_record_of_a_transaction_did_not_move():
    assert encode_transaction(_pinned()).hex() == PINNED_WAL_HEX


def test_the_signing_payload_is_the_wal_record_without_its_signature():
    tx = _pinned()
    record = decode_value(encode_transaction(tx))
    assert record.pop("x") == SIGNATURE.to_bytes()
    assert decode_value(tx.signing_payload()) == record
    assert tx.signing_payload() == reference_encode(record)


@pytest.mark.parametrize("nonce", [0, 3, 2**16, 2**20])
@pytest.mark.parametrize("amount", [1, 63, 64, 1_024])
def test_a_ledger_shaped_payload_and_its_signed_form_are_two_blocks(nonce, amount):
    """≤ 206 bytes, so payload ‖ signature (+ 65) stays within two rate
    blocks (a message of up to 271 bytes pads to two)."""
    payload = _pinned(nonce, amount).signing_payload()
    assert len(payload) <= 206
    assert (len(payload) // RATE + 1, (len(payload) + 65) // RATE + 1) == (2, 2)


# --- re-typed twins ----------------------------------------------------------------

TWINS = [
    pytest.param(5, (5).to_bytes(20, "big"), id="int-vs-20-bytes"),
    pytest.param("abc", b"abc", id="str-vs-bytes"),
    pytest.param(True, 1, id="bool-vs-int"),
]


@pytest.fixture
def funded():
    chain = Blockchain(auto_mine=True)
    client = chain.create_account("client", seed="twin-client")
    chain.auto_mine = False
    return chain, client


@pytest.mark.parametrize("value, twin", TWINS)
def test_a_signature_does_not_cover_a_re_typed_twin(funded, value, twin):
    """The twin pads to the same ABI words -- the calldata is equal -- but it
    is a different call: its signing payload, digest and hash differ, the
    original's signature does not verify for it and admission refuses it."""
    chain, client = funded
    signed = Transaction(
        sender=client.address, to=CONTRACT, nonce=0, method="submit", kwargs={"amount": value}
    ).sign_with(client.keypair)
    forged = Transaction(
        sender=client.address, to=CONTRACT, nonce=0, method="submit", kwargs={"amount": twin},
        signature=signed.signature,
    )
    assert forged.calldata == signed.calldata
    assert forged.signing_payload() != signed.signing_payload()
    assert forged.signing_digest() != signed.signing_digest()
    assert forged.hash() != signed.hash()
    assert signed.verify_signature()
    assert not forged.verify_signature()
    assert Mempool(chain).admit(forged).reason == RejectReason.INVALID_SIGNATURE
    assert Mempool(chain).admit(signed).admitted


@pytest.mark.parametrize("value, twin", TWINS)
def test_a_re_typed_positional_twin_hashes_apart(value, twin):
    signed = Transaction(
        sender=SENDER, to=CONTRACT, nonce=0, method="submit", args=(value,), signature=SIGNATURE
    )
    forged = Transaction(
        sender=SENDER, to=CONTRACT, nonce=0, method="submit", args=(twin,), signature=SIGNATURE
    )
    assert forged.calldata == signed.calldata
    assert forged.hash() != signed.hash()


@pytest.mark.parametrize(
    "field, key, value",
    [("nonce", "n", -1), ("nonce", "n", 2**64), ("value", "v", -1), ("value", "v", 2**128),
     ("gas_limit", "g", -1), ("gas_price", "p", 2**64), ("nonce", "n", 1.0),
     ("value", "v", True)],
)
def test_a_numeric_field_outside_its_bound_has_no_signing_payload(field, key, value):
    """The fixed header the payload replaced could only carry unsigned ints
    of 64 bits (128 for the value); the bounds stay.  A negative value would
    move balance from the recipient to the sender."""
    tx = _pinned()
    setattr(tx, field, value)
    with pytest.raises(ValueError, match=f"'{key}'"):
        tx.signing_payload()
    raw = encode_transaction(tx)  # the WAL carries what it carried ...
    with pytest.raises(CodecError):
        decode_transaction(raw)  # ... and refuses to read it back


# --- the WAL round trip keeps a transaction's identity -----------------------------


def _token(token_type, expire, index):
    return Token(TokenType(token_type), expire, index, SIGNATURE)


tokens = st.builds(
    _token,
    st.sampled_from([1, 2, 3]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=-1, max_value=2**64),
)
bundles = st.lists(tokens, min_size=1, max_size=2).map(
    lambda items: TokenBundle({bytes([i + 1]) * 20: token for i, token in enumerate(items)})
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.binary(max_size=40),
    st.binary(min_size=20, max_size=20),
    st.text(max_size=8),
    tokens,
    bundles,
)
values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3) | st.tuples(children, children),
    max_leaves=8,
)


#: keyword names: mostly ``str``, sometimes what no transaction may be keyed by
names = st.one_of(
    st.text(min_size=1, max_size=6),
    st.integers(min_value=-3, max_value=3),
    st.binary(min_size=1, max_size=3),
)
#: refuses only at the signing payload; the signature and funds never matter
_malformed_screen = Mempool(Blockchain())


@settings(max_examples=80, deadline=None)
@given(
    args=st.lists(values, max_size=3),
    kwargs=st.dictionaries(names, values, max_size=3),
    nonce=st.integers(min_value=0, max_value=2**64 - 1),
    value=st.integers(min_value=0, max_value=2**128 - 1),
    to=st.one_of(st.none(), st.just(CONTRACT)),
    method=st.one_of(st.none(), st.just("submit")),
    signed=st.booleans(),
)
def test_the_wal_round_trip_keeps_a_transactions_identity(
    args, kwargs, nonce, value, to, method, signed
):
    tx = Transaction(
        sender=SENDER, to=to, nonce=nonce, method=method, args=tuple(args), kwargs=kwargs,
        value=value, signature=SIGNATURE if signed else None,
    )
    raw = encode_transaction(tx)
    if any(type(key) is not str for key in kwargs):
        # Nothing signs what the WAL could not read back.
        with pytest.raises(CodecError, match="named by str"):
            tx.signing_payload()
        assert _malformed_screen.admit(tx).reason is RejectReason.MALFORMED_TRANSACTION
        with pytest.raises(CodecError, match="named by str"):
            decode_transaction(raw)
        return
    back = decode_transaction(raw)
    assert back.signing_payload() == tx.signing_payload()
    assert back.signing_digest() == tx.signing_digest() == keccak256(tx.signing_payload())
    assert back.hash() == tx.hash()
    record = decode_value(raw)
    del record["x"]
    assert decode_value(tx.signing_payload()) == record


def test_a_token_object_signs_as_its_bytes():
    """``_canonical_arg``'s identification: a live token (or bundle) and its
    wire bytes are one argument, so a WAL round trip keeps the hash."""
    token = _token(3, 1_700_000_000, 5)
    bundle = TokenBundle({CONTRACT: token})
    for live, raw in ((token, token.to_bytes()), (bundle, bundle.to_bytes())):
        as_object = Transaction(SENDER, CONTRACT, 0, "submit", kwargs={"token": live})
        as_bytes = Transaction(SENDER, CONTRACT, 0, "submit", kwargs={"token": raw})
        assert as_object.signing_payload() == as_bytes.signing_payload()


# --- a transaction with no signing payload --------------------------------------------


@pytest.mark.parametrize(
    "args, kwargs",
    [pytest.param(({1, 2},), {}, id="set-argument"),
     pytest.param((), {1: 2}, id="int-keyword"),
     pytest.param(("\ud800",), {}, id="lone-surrogate")],
)
def test_a_transaction_with_no_signing_payload_has_no_valid_signature(funded, args, kwargs):
    """Neither ``verify_signature`` nor the chain's own intake leaks the
    codec's error: the answer is ``False`` and ``InvalidTransaction``."""
    chain, client = funded
    tx = Transaction(
        sender=client.address, to=CONTRACT, nonce=0, method="submit", args=args, kwargs=kwargs,
        signature=SIGNATURE,
    )
    assert tx.verify_signature() is False
    with pytest.raises(InvalidTransaction, match="signature"):
        chain.send_transaction(tx)
    assert chain.pending == []
    assert Mempool(chain).admit(tx).reason is RejectReason.MALFORMED_TRANSACTION
