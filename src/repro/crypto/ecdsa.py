"""ECDSA over secp256k1 with Ethereum-style recoverable signatures.

SMACS tokens carry a 65-byte signature ``r (32) || s (32) || v (1)`` produced
by the Token Service and verified on-chain via the ``ecrecover`` precompile.
This module provides:

* :func:`sign` -- RFC-6979 deterministic ECDSA producing a recoverable
  signature (low-s normalised, as enforced by Ethereum since EIP-2).
* :func:`sign_batch` -- the same signatures for a block of digests under one
  key, byte for byte.  A block of signatures shares the coordinate system
  of its curve work: ``k*G`` from the window table is a *sum* of affine
  points, so all the block's sums are added affine, level by level, one
  Montgomery inversion per level
  (:func:`~repro.crypto.secp256k1.generator_multiply_batch`), plus one for
  the nonces.  What a Token Service envelope runs; a block of one is
  :func:`sign`.
* :func:`verify` -- signature verification against a public key, rejecting
  high-s signatures (EIP-2).
* :func:`recover` -- public-key recovery from a signature (``ecrecover``)
  computing ``Q = (s*r^-1)*R + (-z*r^-1)*G`` in one ladder.
* :func:`recover_batch` -- :func:`recover` per pair, ``None`` where it
  raises (a recovery's doublings are sequential: a block shares nothing
  worth a kernel of its own).
* :func:`recovers_to` -- "does this signature recover to key Q" for a key
  seen before, answered without recovering: with Q known the same equation
  is solved for the nonce point, ``R' = (z/s)*G + (r/s)*Q``, against Q's
  prepared table (:func:`~repro.crypto.secp256k1.prepare_point`), and
  compared with what ``recover`` would have lifted -- ``x == r`` exactly and
  the parity bit ``v``.  About half a recovery; :func:`verify` takes the same
  table through the same helper, its own high-s / mod-N rules intact.
* :func:`recover_reference` -- the seed's three-multiplication recovery,
  kept as the reference for differential tests and the microbench gate.

Every ``u1*G + u2*Q`` above is one
:func:`~repro.crypto.secp256k1.shamir_multiply`: G's window-table points plus
Q's digit events, summed by one ladder, whether Q arrives as a point (its
one-base table built on the spot) or as a known key's four-base table.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.crypto import secp256k1
from repro.crypto.secp256k1 import (
    N,
    Point,
    PreparedPoint,
    generator_multiply,
    lift_x,
    point_multiply_reference,
    shamir_multiply,
)

_HALF_N = N >> 1


class SignatureError(ValueError):
    """Raised for malformed or unrecoverable signatures."""


@dataclass(frozen=True, slots=True)
class Signature:
    """A recoverable ECDSA signature.

    ``v`` is the recovery id in {0, 1} (callers may add the Ethereum 27
    offset when serialising for wire compatibility; :meth:`to_bytes` stores
    the raw id).
    """

    r: int
    s: int
    v: int

    def __post_init__(self) -> None:
        if not 0 < self.r < N:
            raise SignatureError("signature r out of range")
        if not 0 < self.s < N:
            raise SignatureError("signature s out of range")
        if self.v not in (0, 1):
            raise SignatureError("recovery id must be 0 or 1")

    def to_bytes(self) -> bytes:
        """Serialise as the 65-byte ``r || s || v`` layout used in tokens."""
        return (
            self.r.to_bytes(32, "big")
            + self.s.to_bytes(32, "big")
            + bytes([self.v])
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Signature":
        if len(raw) != 65:
            raise SignatureError(f"signature must be 65 bytes, got {len(raw)}")
        r = int.from_bytes(raw[0:32], "big")
        s = int.from_bytes(raw[32:64], "big")
        v = raw[64]
        if v in (27, 28):  # Ethereum wire encoding
            v -= 27
        elif v not in (0, 1):
            raise SignatureError(
                f"recovery id byte must be 0, 1, 27 or 28, got {v}"
            )
        return cls(r, s, v)


def _rfc6979_nonce(private_key: int, digest: bytes) -> int:
    """Derive the deterministic ECDSA nonce k per RFC 6979 (HMAC-SHA256)."""
    key_bytes = private_key.to_bytes(32, "big")
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = hmac.new(k, v + b"\x00" + key_bytes + digest, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + key_bytes + digest, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < N:
            return candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def _check_signing_input(digest: bytes, private_key: int) -> None:
    if len(digest) != 32:
        raise SignatureError("digest must be 32 bytes")
    if not 0 < private_key < N:
        raise SignatureError("private key out of range")


def _finish_signature(
    digest: bytes, private_key: int, point: Point, k_inv: int
) -> "Signature | None":
    """``(r, s, v)`` from the nonce point ``k*G`` and ``k^-1``; None when the
    nonce is unusable (``r`` or ``s`` zero) and the caller must draw another."""
    r = point.x % N
    s = k_inv * (int.from_bytes(digest, "big") + r * private_key) % N
    if r == 0 or s == 0:
        return None
    v = point.y & 1
    # Enforce low-s (EIP-2); flipping s flips the recovery parity.
    if s > _HALF_N:
        s = N - s
        v ^= 1
    return Signature(r, s, v)


def sign(digest: bytes, private_key: int) -> Signature:
    """Sign a 32-byte message digest with the given private key scalar."""
    _check_signing_input(digest, private_key)
    k = _rfc6979_nonce(private_key, digest)
    while True:
        signature = _finish_signature(
            digest, private_key, generator_multiply(k), pow(k, -1, N)
        )
        if signature is not None:
            return signature
        k = (k + 1) % N or 1


def sign_batch(digests: "list[bytes]", private_key: int) -> "list[Signature]":
    """Sign a block of digests with one key: ``[sign(d, key) for d in digests]``.

    Byte-identical to the elementwise loop (each digest gets its own RFC 6979
    nonce).  What the block shares is the price of its curve additions: the
    nonce points come from one
    :func:`~repro.crypto.secp256k1.generator_multiply_batch` (every ``k*G`` a
    sum of table points, added affine with one field inversion per tree level
    for the whole block) and the nonces are inverted ``mod N`` by one
    :func:`~repro.crypto.secp256k1.batch_inverse`.  Below
    :data:`~repro.crypto.secp256k1.GENERATOR_BATCH_CROSSOVER` digests there
    is nothing to share and the block *is* the loop.
    """
    for digest in digests:
        _check_signing_input(digest, private_key)
    if len(digests) < secp256k1.GENERATOR_BATCH_CROSSOVER:
        return [sign(digest, private_key) for digest in digests]
    nonces = [_rfc6979_nonce(private_key, digest) for digest in digests]
    points = secp256k1.generator_multiply_batch(nonces)
    inverses = secp256k1.batch_inverse(nonces, N)
    return [
        # An unusable nonce (probability ~2^-256) re-draws on the single path.
        _finish_signature(digest, private_key, point, k_inv) or sign(digest, private_key)
        for digest, point, k_inv in zip(digests, points, inverses)
    ]


def _nonce_point(
    digest: bytes, signature: Signature, public_key: "Point | PreparedPoint"
) -> Point:
    """``(z/s)*G + (r/s)*Q``: where a signature by ``Q`` over ``z`` puts its nonce.

    ``Q`` arrives as a :class:`Point` (its one-base table built on the spot)
    or as the table :func:`prepare_point` made of it; either way one ladder.
    The identity for a key at infinity: no signature is by it.
    """
    if public_key == secp256k1.INFINITY or public_key == ():
        return secp256k1.INFINITY
    try:
        s_inv = pow(signature.s, -1, N)
    except ValueError:
        return secp256k1.INFINITY
    u1 = int.from_bytes(digest, "big") * s_inv % N
    u2 = signature.r * s_inv % N
    return shamir_multiply(u1, u2, public_key)


def verify(
    digest: bytes, signature: Signature, public_key: "Point | PreparedPoint"
) -> bool:
    """Verify a signature against a known public key.

    Runs one ladder against the key -- a point, or its
    :func:`~repro.crypto.secp256k1.prepare_point` table (32 doublings, not
    128) -- and rejects high-s signatures (EIP-2), matching the canonical
    form :func:`sign` emits: a mauled ``(r, N - s)`` variant of a valid
    signature is refused even though classic ECDSA would accept it.
    """
    if len(digest) != 32:
        raise SignatureError("digest must be 32 bytes")
    if signature.s > _HALF_N:
        return False
    point = _nonce_point(digest, signature, public_key)
    if point.is_infinity():
        return False
    return point.x % N == signature.r


def recovers_to(digest: bytes, signature: Signature, table: PreparedPoint) -> bool:
    """``recover(digest, signature) == Q`` for ``table = prepare_point(Q)``.

    That is the definition, on every input: whatever makes :func:`recover`
    raise is ``False`` here.  ``recover`` lifts ``x = r`` with y parity ``v``
    to R and solves ``s*R = z*G + r*Q`` for Q; with Q given, the same
    equation is solved for R instead -- :func:`_nonce_point` -- and holds
    exactly when the result *is* R.  Hence the two comparisons below and
    nothing else: ``x`` equal to ``r`` itself, not modulo N (``recover``
    never lifts ``r + N``), the parity bit (a flipped ``v`` recovers another
    key), and no low-s rule (``recover`` has none: the high-s twin with the
    flipped parity recovers the same key, and is accepted here too).  A
    nonce point at infinity has no ``x``; an ``r`` that is no abscissa can
    equal no point's.  The square root, R's odd multiples and three quarters
    of the doublings are what knowing Q removes.
    """
    if len(digest) != 32:
        return False
    point = _nonce_point(digest, signature, table)
    return point.x == signature.r and point.y & 1 == signature.v & 1


def _recovery_point(signature: Signature) -> Point:
    """Lift ``r`` to the curve point R, mapping failure to SignatureError."""
    # For secp256k1, r + N >= P in all but astronomically rare cases, so the
    # candidate x is simply r (we do not iterate over r + j*N).
    try:
        return lift_x(signature.r, bool(signature.v & 1))
    except ValueError as exc:
        raise SignatureError("invalid signature: r is not a curve abscissa") from exc


def recover(digest: bytes, signature: Signature) -> Point:
    """Recover the signing public key from a signature (``ecrecover``).

    One pass: ``Q = (s*r^-1)*R + (-z*r^-1)*G`` is R's GLV-split digits and
    G's window points on one ladder (~128 shared doublings), instead of the
    three full scalar multiplications of the textbook formulation.  Raises
    :class:`SignatureError` when no valid key can be recovered.
    """
    if len(digest) != 32:
        raise SignatureError("digest must be 32 bytes")
    z = int.from_bytes(digest, "big")
    r_point = _recovery_point(signature)
    r_inv = pow(signature.r, -1, N)
    u1 = -z * r_inv % N
    u2 = signature.s * r_inv % N
    public_key = shamir_multiply(u1, u2, r_point)
    if public_key.is_infinity():
        raise SignatureError("recovered point at infinity")
    return public_key


def recover_batch(
    pairs: list[tuple[bytes, Signature]],
) -> "list[Point | None]":
    """:func:`recover` for each ``(digest, signature)`` pair, in order.

    Unrecoverable entries (and digests that are not 32 bytes) yield ``None``
    instead of raising, so one forged token cannot poison a whole block.
    """
    results: "list[Point | None]" = []
    for digest, signature in pairs:
        try:
            results.append(recover(digest, signature))
        except SignatureError:
            results.append(None)
    return results


def recover_reference(digest: bytes, signature: Signature) -> Point:
    """The seed's ``ecrecover``: three separate scalar multiplications.

    ``Q = r^-1 * (s*R - z*G)`` with a naive double-and-add ladder for the
    non-generator multiplications and a validated affine point after each
    step.  Kept as the reference implementation: the differential tests
    check :func:`recover`/:func:`recover_batch` against it, and the
    microbench gate measures the fast path's speedup over it.
    """
    if len(digest) != 32:
        raise SignatureError("digest must be 32 bytes")
    z = int.from_bytes(digest, "big")
    r_point = _recovery_point(signature)
    r_inv = pow(signature.r, -1, N)
    s_r = point_multiply_reference(r_point, signature.s)
    z_g = generator_multiply(z)
    neg_z_g = secp256k1.point_negate(z_g)
    candidate = secp256k1.point_add(s_r, neg_z_g)
    public_key = point_multiply_reference(candidate, r_inv)
    if public_key.is_infinity():
        raise SignatureError("recovered point at infinity")
    return public_key
