"""Unit tests for ECDSA signatures, recovery and key/address handling."""

import hashlib

import pytest

from repro.crypto.ecdsa import Signature, SignatureError, recover, sign, sign_batch, verify
from repro.crypto.keccak import keccak256
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey, recover_address
from repro.crypto.secp256k1 import N


@pytest.fixture
def keypair():
    return KeyPair.from_seed("ecdsa-test-key")


@pytest.fixture
def digest():
    return keccak256(b"a message to be signed")


def test_sign_and_verify_roundtrip(keypair, digest):
    signature = keypair.sign(digest)
    assert keypair.verify(digest, signature)


def test_signature_is_deterministic_rfc6979(keypair, digest):
    assert keypair.sign(digest) == keypair.sign(digest)


def test_different_messages_produce_different_signatures(keypair):
    s1 = keypair.sign(keccak256(b"m1"))
    s2 = keypair.sign(keccak256(b"m2"))
    assert s1 != s2


def test_verify_rejects_wrong_message(keypair, digest):
    signature = keypair.sign(digest)
    assert not keypair.verify(keccak256(b"another message"), signature)


def test_verify_rejects_wrong_key(keypair, digest):
    other = KeyPair.from_seed("someone-else")
    signature = keypair.sign(digest)
    assert not other.verify(digest, signature)


def test_verify_rejects_high_s_signature(keypair, digest):
    """EIP-2 regression: the (r, N - s) mauling of a valid signature is a
    valid classic-ECDSA signature but must be refused by verify."""
    signature = keypair.sign(digest)
    mauled = Signature(signature.r, N - signature.s, signature.v ^ 1)
    assert mauled.s > N // 2  # sign() emits low-s, so the flip is high-s
    assert keypair.verify(digest, signature)
    assert not keypair.verify(digest, mauled)
    # ecrecover (like the precompile) still accepts either form.
    assert recover(digest, mauled) == keypair.public.point


def test_low_s_normalisation(keypair, digest):
    signature = keypair.sign(digest)
    assert signature.s <= N // 2


def test_recover_returns_signer_public_key(keypair, digest):
    signature = keypair.sign(digest)
    assert recover(digest, signature) == keypair.public.point


def test_recover_address_matches_keypair(keypair, digest):
    signature = keypair.sign(digest)
    assert recover_address(digest, signature) == keypair.address


def test_recover_address_differs_for_tampered_digest(keypair, digest):
    signature = keypair.sign(digest)
    assert recover_address(keccak256(b"tampered"), signature) != keypair.address


def test_signature_serialisation_roundtrip(keypair, digest):
    signature = keypair.sign(digest)
    raw = signature.to_bytes()
    assert len(raw) == 65
    assert Signature.from_bytes(raw) == signature


def test_signature_from_bytes_accepts_ethereum_v_offset(keypair, digest):
    signature = keypair.sign(digest)
    raw = bytearray(signature.to_bytes())
    raw[64] += 27  # Ethereum encodes v as 27/28
    assert Signature.from_bytes(bytes(raw)) == signature


def test_signature_rejects_bad_length():
    with pytest.raises(SignatureError):
        Signature.from_bytes(b"\x01" * 64)


@pytest.mark.parametrize("raw_v", [2, 3, 14, 26, 29, 255])
def test_signature_from_bytes_rejects_invalid_v(keypair, digest, raw_v):
    """Raw v bytes outside {0, 1, 27, 28} fail with a clear message instead
    of falling through to the constructor's generic range error."""
    raw = bytearray(keypair.sign(digest).to_bytes())
    raw[64] = raw_v
    with pytest.raises(SignatureError, match="recovery id byte"):
        Signature.from_bytes(bytes(raw))


@pytest.mark.parametrize("raw_v", [0, 1, 27, 28])
def test_signature_from_bytes_accepts_all_valid_v_encodings(raw_v):
    raw = (1).to_bytes(32, "big") + (1).to_bytes(32, "big") + bytes([raw_v])
    signature = Signature.from_bytes(raw)
    assert signature.v == (raw_v - 27 if raw_v >= 27 else raw_v)


def test_signature_rejects_out_of_range_components():
    with pytest.raises(SignatureError):
        Signature(0, 1, 0)
    with pytest.raises(SignatureError):
        Signature(1, N, 0)
    with pytest.raises(SignatureError):
        Signature(1, 1, 5)


def test_sign_requires_32_byte_digest(keypair):
    with pytest.raises(SignatureError):
        sign(b"short", keypair.private.secret)


def test_verify_requires_32_byte_digest(keypair, digest):
    signature = keypair.sign(digest)
    with pytest.raises(SignatureError):
        verify(b"short", signature, keypair.public.point)


def test_private_key_range_validation():
    with pytest.raises(ValueError):
        PrivateKey(0)
    with pytest.raises(ValueError):
        PrivateKey(N)


def test_public_key_serialisation_roundtrip(keypair):
    raw = keypair.public.to_bytes()
    assert len(raw) == 64
    assert PublicKey.from_bytes(raw) == keypair.public


def test_address_is_20_bytes_and_stable(keypair):
    assert len(keypair.address) == 20
    assert keypair.address == keypair.private.public_key().address()
    assert keypair.address_hex.startswith("0x")
    assert len(keypair.address_hex) == 42


def test_from_seed_is_deterministic_and_distinct():
    assert KeyPair.from_seed("a").address == KeyPair.from_seed("a").address
    assert KeyPair.from_seed("a").address != KeyPair.from_seed("b").address


def test_generated_keys_are_distinct():
    assert KeyPair.generate().address != KeyPair.generate().address


def test_private_key_bytes_roundtrip(keypair):
    raw = keypair.private.to_bytes()
    assert len(raw) == 32
    assert PrivateKey.from_bytes(raw) == keypair.private


# --- known answers, and the batch signer against them ----------------------------------


def _sha256(message: bytes) -> bytes:
    return hashlib.sha256(message).digest()


_FASTPATH_KEY = KeyPair.from_seed("fastpath-differential-key").private.secret

#: (private key, digest, r || s || v).  The first two are the published
#: RFC 6979 secp256k1 vectors for key 1; the rest were produced by the commit
#: before the 8-bit window table and ``sign_batch`` -- signatures must not move.
KNOWN_SIGNATURES = [
    (
        1,
        _sha256(b"Satoshi Nakamoto"),
        "934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8"
        "2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e501",
    ),
    (
        1,
        _sha256(b"All those moments will be lost in time, like tears in rain. Time to die..."),
        "8600dbd41e348fe5c9465ab92d23e3db8b98b873beecd930736488696438cb6b"
        "547fe64427496db33bf66019dacbf0039c04199abb0122918601db38a72cfc2100",
    ),
    (
        _FASTPATH_KEY,
        keccak256(b"kat-0"),
        "81d1f0774a452efd2020aefe8932bd6ed8c4cab0321a9d8fa73826ae926ade40"
        "2ddc7e475d69d72e216d196244cace808c9dd0b1c15c59d4fa704c70a0c4aca201",
    ),
    (
        _FASTPATH_KEY,
        keccak256(b"kat-1"),
        "baa838127504e1e0d4da8c20a0725c9be0c2685e1db2456a745736ebdc05762a"
        "753aded1f6c612e117a797a442ada9b7db9ee62977ee29f8fa908a1a13d32b7001",
    ),
    (
        _FASTPATH_KEY,
        keccak256(b"kat-2"),
        "879a2bd2911513d5910bd076a806662bb85a02638395a75ad3e91798d16db04e"
        "6b6609b771081d90d6dfc63ddf6e64bbf2ac471aa7f03be86e770e2742e02ce901",
    ),
]


@pytest.mark.parametrize("key,message_digest,expected", KNOWN_SIGNATURES)
def test_sign_known_answers(key, message_digest, expected):
    assert sign(message_digest, key).to_bytes().hex() == expected
    assert sign_batch([message_digest], key)[0].to_bytes().hex() == expected


def test_sign_batch_equals_elementwise_sign(keypair, digest):
    key = keypair.private.secret
    assert sign_batch([], key) == []
    known = [d for k, d, _ in KNOWN_SIGNATURES if k == _FASTPATH_KEY]
    assert [s.to_bytes().hex() for s in sign_batch(known, _FASTPATH_KEY)] == [
        expected for k, _, expected in KNOWN_SIGNATURES if k == _FASTPATH_KEY
    ]
    repeated = [digest, keccak256(b"other"), digest, digest]
    assert sign_batch(repeated, key) == [sign(d, key) for d in repeated]
    block = [keccak256(b"block-%d" % i) for i in range(64)]
    assert keypair.sign_batch(block) == [keypair.sign(d) for d in block]


@pytest.mark.parametrize("count", [1, 2, 3, 32, 33, 64, 65])
def test_sign_batch_equals_elementwise_sign_at_every_tree_shape(keypair, count):
    """Either side of the crossover, a full tree, one past it (an odd list
    riding up) and the sizes around a second block; some digests repeat."""
    digests = [keccak256(b"tree-%d" % (i % 50)) for i in range(count)]
    key = keypair.private.secret
    assert [s.to_bytes() for s in sign_batch(digests, key)] == [
        sign(d, key).to_bytes() for d in digests
    ]


def test_sign_batch_adds_affine_and_a_block_of_one_is_sign(keypair, digest):
    """Counts, not clocks: 32 signatures make no mixed addition and at most
    seven inversions (six tree levels and the nonces); one signature makes no
    shared inversion at all -- it runs ``sign``'s own path."""
    from unittest import mock

    from repro.crypto import ecdsa, secp256k1

    key = keypair.private.secret
    inverse, add_mixed, multiply = (
        secp256k1.batch_inverse, secp256k1._jacobian_add_mixed, ecdsa.generator_multiply
    )

    def counted(digests):
        with mock.patch.object(secp256k1, "batch_inverse", side_effect=inverse) as inversions, \
                mock.patch.object(secp256k1, "_jacobian_add_mixed", side_effect=add_mixed) as mixed, \
                mock.patch.object(ecdsa, "generator_multiply", side_effect=multiply) as singles:
            signatures = sign_batch(digests, key)
        assert signatures == [sign(d, key) for d in digests]
        return inversions.call_count, mixed.call_count, singles.call_count

    inversions, mixed, singles = counted([keccak256(b"count-%d" % i) for i in range(32)])
    assert (mixed, singles) == (0, 0) and 0 < inversions <= 7
    inversions, mixed, singles = counted([digest])
    assert (inversions, singles) == (0, 1) and 0 < mixed <= 33


def test_sign_batch_checks_every_input_and_every_signature(keypair, digest, monkeypatch):
    key = keypair.private.secret
    with pytest.raises(SignatureError):
        sign_batch([digest, digest[:31], digest], key)
    with pytest.raises(SignatureError):
        sign_batch([digest], N)
    # Every element goes through Signature's validating constructor.
    checked = []
    range_checks = Signature.__post_init__

    def counting(signature):
        checked.append(signature)
        range_checks(signature)

    monkeypatch.setattr(Signature, "__post_init__", counting)
    signatures = sign_batch([keccak256(b"%d" % i) for i in range(5)], key)
    assert all(a is b for a, b in zip(checked, signatures)) and len(checked) == 5
