"""Key pairs and Ethereum address derivation.

An Ethereum address is the last 20 bytes of ``keccak256(pubkey_x || pubkey_y)``
where the public key coordinates are 32-byte big-endian integers (the
uncompressed encoding without the ``0x04`` prefix).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from functools import lru_cache

from repro.crypto.ecdsa import Signature, recover, recover_batch, sign, sign_batch, verify
from repro.crypto.keccak import keccak256
from repro.crypto.secp256k1 import (
    N,
    Point,
    PreparedPoint,
    generator_multiply,
    prepare_point,
)


@dataclass(frozen=True)
class PublicKey:
    """A secp256k1 public key with Ethereum address derivation."""

    point: Point
    #: what :meth:`verify` checks against: nothing yet, then the bare point,
    #: then -- from the second call on -- the point's prepared table
    _verify_key: "Point | PreparedPoint | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def to_bytes(self) -> bytes:
        """Uncompressed encoding without the 0x04 prefix (64 bytes)."""
        if self.point.is_infinity():
            raise ValueError("cannot serialise the point at infinity")
        return self.point.x.to_bytes(32, "big") + self.point.y.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PublicKey":
        if len(raw) != 64:
            raise ValueError("public key must be 64 bytes")
        x = int.from_bytes(raw[:32], "big")
        y = int.from_bytes(raw[32:], "big")
        return cls(Point(x, y))

    def address(self) -> bytes:
        """The 20-byte Ethereum address for this key."""
        return _address_of(self.point)

    def address_hex(self) -> str:
        """The checksummed-free 0x-prefixed hex address."""
        return "0x" + self.address().hex()

    def verify(self, digest: bytes, signature: Signature) -> bool:
        """:func:`~repro.crypto.ecdsa.verify` against this key.

        A key object asked a second time is a fixed base: that call builds
        the point's split-exponent table (about 0.7 of a verification, once)
        and every later one costs about 0.6 of the first.  A key that
        verifies once -- most of them -- builds nothing.
        """
        key = self._verify_key
        if key is None or key is self.point:
            key = self.point if key is None else prepare_point(self.point)
            object.__setattr__(self, "_verify_key", key)
        return verify(digest, signature, key)


@lru_cache(maxsize=4096)
def _address_of(point: Point) -> bytes:
    """Key -> address memo: a pure function, one keccak permutation per miss.

    A node recovers the same few senders' keys over and over (every
    admission ends in one), and a wallet reads its own ``KeyPair.address``
    per transaction; bounded so sender churn cannot grow it without limit.
    """
    return keccak256(PublicKey(point).to_bytes())[-20:]


@dataclass(frozen=True)
class PrivateKey:
    """A secp256k1 private key (scalar in [1, N-1])."""

    secret: int

    def __post_init__(self) -> None:
        if not 0 < self.secret < N:
            raise ValueError("private key scalar out of range")

    @classmethod
    def generate(cls) -> "PrivateKey":
        return cls(secrets.randbelow(N - 1) + 1)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PrivateKey":
        if len(raw) != 32:
            raise ValueError("private key must be 32 bytes")
        return cls(int.from_bytes(raw, "big"))

    def to_bytes(self) -> bytes:
        return self.secret.to_bytes(32, "big")

    def public_key(self) -> PublicKey:
        return PublicKey(generator_multiply(self.secret))

    def sign(self, digest: bytes) -> Signature:
        return sign(digest, self.secret)

    def sign_batch(self, digests: "list[bytes]") -> "list[Signature]":
        return sign_batch(digests, self.secret)


@dataclass(frozen=True)
class KeyPair:
    """Convenience bundle of a private key, its public key and address."""

    private: PrivateKey
    public: PublicKey

    @classmethod
    def generate(cls) -> "KeyPair":
        private = PrivateKey.generate()
        return cls(private, private.public_key())

    @classmethod
    def from_seed(cls, seed: bytes | str) -> "KeyPair":
        """Deterministically derive a key pair from a seed (for tests/demos)."""
        if isinstance(seed, str):
            seed = seed.encode()
        scalar = int.from_bytes(keccak256(seed), "big") % (N - 1) + 1
        private = PrivateKey(scalar)
        return cls(private, private.public_key())

    @property
    def address(self) -> bytes:
        return self.public.address()

    @property
    def address_hex(self) -> str:
        return self.public.address_hex()

    def sign(self, digest: bytes) -> Signature:
        return self.private.sign(digest)

    def sign_batch(self, digests: "list[bytes]") -> "list[Signature]":
        """``[self.sign(d) for d in digests]``, sharing the block's inversions."""
        return self.private.sign_batch(digests)

    def verify(self, digest: bytes, signature: Signature) -> bool:
        return self.public.verify(digest, signature)


def recover_address(digest: bytes, signature: Signature) -> bytes:
    """Recover the 20-byte signer address from a digest + signature.

    Mirrors Solidity's ``ecrecover`` which returns an address, not a key.
    """
    return _address_of(recover(digest, signature))


def recover_address_batch(
    pairs: "list[tuple[bytes, Signature]]",
) -> "list[bytes | None]":
    """:func:`recover_address` for each pair of a block of signatures;
    unrecoverable entries come back as ``None`` instead of raising."""
    return [
        _address_of(point) if point is not None else None
        for point in recover_batch(pairs)
    ]
