"""Unit tests for transactions, blocks and the simulated clock."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.block import Block, GENESIS_PARENT_HASH, genesis_block
from repro.chain.clock import SimulatedClock
from repro.chain.transaction import Transaction
from repro.crypto.keccak import keccak256
from repro.crypto.keys import KeyPair


@pytest.fixture
def sender_keypair():
    return KeyPair.from_seed("tx-sender")


@pytest.fixture
def recipient():
    return KeyPair.from_seed("tx-recipient").address


def _make_tx(sender_keypair, recipient, **overrides):
    fields = dict(
        sender=sender_keypair.address,
        to=recipient,
        nonce=0,
        method="submit",
        args=(5,),
        kwargs={"memo": "hello"},
        value=0,
    )
    fields.update(overrides)
    return Transaction(**fields)


# --- transactions -----------------------------------------------------------------


def test_calldata_includes_selector_and_args(sender_keypair, recipient):
    tx = _make_tx(sender_keypair, recipient)
    assert len(tx.calldata) > 4
    assert tx.is_contract_call


def test_plain_transfer_has_empty_calldata(sender_keypair, recipient):
    tx = _make_tx(sender_keypair, recipient, method=None, args=(), kwargs={}, value=10)
    assert tx.calldata == b""
    assert not tx.is_contract_call


def test_sign_and_verify(sender_keypair, recipient):
    tx = _make_tx(sender_keypair, recipient)
    assert not tx.verify_signature()
    tx.sign_with(sender_keypair)
    assert tx.verify_signature()


def test_signature_binds_all_fields(sender_keypair, recipient):
    tx = _make_tx(sender_keypair, recipient).sign_with(sender_keypair)
    # Tamper with each covered field and check the signature breaks.
    for attribute, value in [
        ("nonce", 5),
        ("value", 123),
        ("method", "other"),
        ("args", (6,)),
        ("gas_limit", 1),
    ]:
        tampered = _make_tx(sender_keypair, recipient)
        tampered.signature = tx.signature
        setattr(tampered, attribute, value)
        assert not tampered.verify_signature(), attribute


def test_signature_from_wrong_key_rejected(sender_keypair, recipient):
    other = KeyPair.from_seed("other-signer")
    tx = _make_tx(sender_keypair, recipient)
    tx.sign_with(other)
    assert not tx.verify_signature()


def test_transaction_hash_changes_with_content(sender_keypair, recipient):
    tx1 = _make_tx(sender_keypair, recipient).sign_with(sender_keypair)
    tx2 = _make_tx(sender_keypair, recipient, nonce=1).sign_with(sender_keypair)
    assert tx1.hash() != tx2.hash()
    assert len(tx1.hash()) == 32


def test_describe_mentions_method_and_nonce(sender_keypair, recipient):
    tx = _make_tx(sender_keypair, recipient)
    text = tx.describe()
    assert "submit" in text
    assert "nonce=0" in text


# --- blocks ----------------------------------------------------------------------------


def test_genesis_block_shape():
    block = genesis_block(timestamp=100)
    assert block.number == 0
    assert block.parent_hash == GENESIS_PARENT_HASH
    assert block.transaction_count == 0


def test_block_hash_covers_transactions(sender_keypair, recipient):
    tx = _make_tx(sender_keypair, recipient).sign_with(sender_keypair)
    empty = Block(number=1, parent_hash=b"\x00" * 32, timestamp=1)
    full = Block(number=1, parent_hash=b"\x00" * 32, timestamp=1, transactions=[tx])
    assert empty.hash() != full.hash()
    assert len(full.hash()) == 32


def test_block_hash_covers_parent():
    a = Block(number=1, parent_hash=b"\x01" * 32, timestamp=1)
    b = Block(number=1, parent_hash=b"\x02" * 32, timestamp=1)
    assert a.hash() != b.hash()


# --- the transactions root --------------------------------------------------------------


def scalar_transactions_root(hashes):
    """The tree rule written out with ``keccak256`` alone (the reference the
    lane-hashed root and the golden block hash are held against)."""
    level = list(hashes) or [bytes(32)]
    while len(level) > 1:
        groups = [level[i:i + 4] for i in range(0, len(level), 4)]
        level = [g[0] if len(g) == 1 else keccak256(b"".join(g)) for g in groups]
    return level[0]


def scalar_block_hash(block):
    hashes = [tx.hash() for tx in block.transactions]
    return keccak256(
        block.number.to_bytes(8, "big") + block.parent_hash
        + block.timestamp.to_bytes(8, "big") + block.gas_used.to_bytes(8, "big")
        + len(hashes).to_bytes(8, "big") + scalar_transactions_root(hashes)
        + block.state_root
    )


def _block_of(hashes, **fields):
    """A block whose transactions hash to ``hashes`` (the header reads nothing else)."""
    txs = [SimpleNamespace(hash=lambda h=h: h) for h in hashes]
    return Block(number=7, parent_hash=b"\x11" * 32, timestamp=99, transactions=txs, **fields)


@settings(max_examples=60, deadline=None)
@given(hashes=st.lists(st.binary(min_size=32, max_size=32), max_size=70), rooted=st.booleans())
def test_transactions_root_matches_the_scalar_reference(hashes, rooted):
    # 0-70 leaves reach every tail shape on up to four levels: a full group,
    # a partial one hashed as it is, a lone hash riding up.
    block = _block_of(hashes, gas_used=len(hashes), state_root=b"\x22" * 32 * rooted)
    assert block.transactions_root() == scalar_transactions_root(hashes)
    assert block.hash() == scalar_block_hash(block)


def test_transactions_root_of_none_and_of_one():
    only = keccak256(b"only")
    assert _block_of([]).transactions_root() == bytes(32)
    assert _block_of([only]).transactions_root() == only
    assert _block_of([]).hash() != _block_of([bytes(32)]).hash()


def test_hashing_a_64_transaction_block_is_two_scalar_and_two_packed_permutations(
    keccak_permutations, packed_permutations
):
    # Levels of 16 and of 4 groups ride the lanes; the top node and the
    # 128-byte header are one scalar permutation each.  The flat
    # concatenation this replaced was 16 scalar permutations.
    block = _block_of([keccak256(bytes([i])) for i in range(64)], state_root=b"\x22" * 32)
    keccak_permutations[0] = packed_permutations[0] = 0
    block.hash()
    assert (keccak_permutations[0], packed_permutations[0]) == (2, 2)


@pytest.mark.parametrize("count, scalar", [(0, 1), (1, 1), (2, 2), (3, 2), (4, 2)])
def test_a_small_block_never_leaves_the_scalar_path(
    count, scalar, keccak_permutations, packed_permutations
):
    # What an auto-mined chain produces: no more permutations than the flat
    # header cost (1, 1, 2, 2, 2 with a state root).
    block = _block_of([keccak256(bytes([i])) for i in range(count)], state_root=b"\x22" * 32)
    keccak_permutations[0] = 0
    block.hash()
    assert (keccak_permutations[0], packed_permutations[0]) == (scalar, 0)


def test_the_header_commits_to_the_transaction_count():
    # An inner node passed off as a leaf gives the same root -- and another
    # block, because the count fixes the shape of the tree.
    a, b, c, d, e = (keccak256(bytes([i])) for i in range(5))
    five = _block_of([a, b, c, d, e])
    two = _block_of([keccak256(a + b + c + d), e])
    assert five.transactions_root() == two.transactions_root()
    assert five.hash() != two.hash()


# --- clock ---------------------------------------------------------------------------------


def test_clock_advances_monotonically():
    clock = SimulatedClock(start=1000)
    assert clock.now() == 1000
    clock.advance(60)
    assert clock.now() == 1060
    clock.set(2000)
    assert clock.now() == 2000


def test_clock_rejects_going_backwards():
    clock = SimulatedClock(start=1000)
    with pytest.raises(ValueError):
        clock.advance(-1)
    with pytest.raises(ValueError):
        clock.set(999)
