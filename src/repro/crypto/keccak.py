"""Pure-Python keccak-256 (the Ethereum hash function).

Ethereum uses the original Keccak submission padding (``0x01``) rather than
the NIST SHA-3 padding (``0x06``), so :func:`hashlib.sha3_256` cannot be used
as a drop-in replacement.  This module implements the Keccak-f[1600]
permutation and the sponge construction for a 256-bit output.

The permutation is fully flattened: the 5x5 lane state lives in 25 local
variables and the theta/rho/pi/chi steps are unrolled with their rotation
offsets and pi-permutation indices baked in.  Compared to the loop-and-list
formulation this removes every list allocation and index computation from
the hot path, which is worth ~3x in CPython -- the datagram digest is half
the cost of verifying a SMACS token, so the sponge matters as much as the
curve math.
"""

from __future__ import annotations

import struct

# Round constants for the iota step (24 rounds of Keccak-f[1600]).
_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

_MASK = 0xFFFFFFFFFFFFFFFF

# Rate in bytes for keccak-256: (1600 - 2*256) / 8 = 136.
_RATE_BYTES = 136
_RATE_LANES = _RATE_BYTES // 8

_UNPACK_RATE = struct.Struct("<17Q").unpack_from
_PACK_DIGEST = struct.Struct("<4Q").pack


def _keccak_f(state: list[int]) -> list[int]:
    """Apply the Keccak-f[1600] permutation to a 5x5 lane state.

    ``state`` is a flat list of 25 64-bit integers laid out as
    ``state[x + 5 * y]``.  The round function is fully unrolled: theta's
    column parities, the combined rho rotation + pi transposition (with the
    offsets for each lane inlined) and chi's row mixing all operate on the
    25 lane locals directly.
    """
    (s0, s1, s2, s3, s4, s5, s6, s7, s8, s9,
     s10, s11, s12, s13, s14, s15, s16, s17, s18, s19,
     s20, s21, s22, s23, s24) = state
    for rc in _ROUND_CONSTANTS:
        # Theta: column parities and their rotated combination.
        c0 = s0 ^ s5 ^ s10 ^ s15 ^ s20
        c1 = s1 ^ s6 ^ s11 ^ s16 ^ s21
        c2 = s2 ^ s7 ^ s12 ^ s17 ^ s22
        c3 = s3 ^ s8 ^ s13 ^ s18 ^ s23
        c4 = s4 ^ s9 ^ s14 ^ s19 ^ s24
        d0 = c4 ^ (((c1 << 1) | (c1 >> 63)) & _MASK)
        d1 = c0 ^ (((c2 << 1) | (c2 >> 63)) & _MASK)
        d2 = c1 ^ (((c3 << 1) | (c3 >> 63)) & _MASK)
        d3 = c2 ^ (((c4 << 1) | (c4 >> 63)) & _MASK)
        d4 = c3 ^ (((c0 << 1) | (c0 >> 63)) & _MASK)
        s0 ^= d0
        s5 ^= d0
        s10 ^= d0
        s15 ^= d0
        s20 ^= d0
        s1 ^= d1
        s6 ^= d1
        s11 ^= d1
        s16 ^= d1
        s21 ^= d1
        s2 ^= d2
        s7 ^= d2
        s12 ^= d2
        s17 ^= d2
        s22 ^= d2
        s3 ^= d3
        s8 ^= d3
        s13 ^= d3
        s18 ^= d3
        s23 ^= d3
        s4 ^= d4
        s9 ^= d4
        s14 ^= d4
        s19 ^= d4
        s24 ^= d4

        # Rho (lane rotations) and Pi (lane permutation), combined:
        # b[y + 5*((2x + 3y) mod 5)] = rotl(s[x + 5y], offset[x][y]).
        b0 = s0
        b1 = ((s6 << 44) | (s6 >> 20)) & _MASK
        b2 = ((s12 << 43) | (s12 >> 21)) & _MASK
        b3 = ((s18 << 21) | (s18 >> 43)) & _MASK
        b4 = ((s24 << 14) | (s24 >> 50)) & _MASK
        b5 = ((s3 << 28) | (s3 >> 36)) & _MASK
        b6 = ((s9 << 20) | (s9 >> 44)) & _MASK
        b7 = ((s10 << 3) | (s10 >> 61)) & _MASK
        b8 = ((s16 << 45) | (s16 >> 19)) & _MASK
        b9 = ((s22 << 61) | (s22 >> 3)) & _MASK
        b10 = ((s1 << 1) | (s1 >> 63)) & _MASK
        b11 = ((s7 << 6) | (s7 >> 58)) & _MASK
        b12 = ((s13 << 25) | (s13 >> 39)) & _MASK
        b13 = ((s19 << 8) | (s19 >> 56)) & _MASK
        b14 = ((s20 << 18) | (s20 >> 46)) & _MASK
        b15 = ((s4 << 27) | (s4 >> 37)) & _MASK
        b16 = ((s5 << 36) | (s5 >> 28)) & _MASK
        b17 = ((s11 << 10) | (s11 >> 54)) & _MASK
        b18 = ((s17 << 15) | (s17 >> 49)) & _MASK
        b19 = ((s23 << 56) | (s23 >> 8)) & _MASK
        b20 = ((s2 << 62) | (s2 >> 2)) & _MASK
        b21 = ((s8 << 55) | (s8 >> 9)) & _MASK
        b22 = ((s14 << 39) | (s14 >> 25)) & _MASK
        b23 = ((s15 << 41) | (s15 >> 23)) & _MASK
        b24 = ((s21 << 2) | (s21 >> 62)) & _MASK

        # Chi: row-wise nonlinear mix, then Iota on lane 0.
        s0 = b0 ^ (~b1 & b2) ^ rc
        s1 = b1 ^ (~b2 & b3)
        s2 = b2 ^ (~b3 & b4)
        s3 = b3 ^ (~b4 & b0)
        s4 = b4 ^ (~b0 & b1)
        s5 = b5 ^ (~b6 & b7)
        s6 = b6 ^ (~b7 & b8)
        s7 = b7 ^ (~b8 & b9)
        s8 = b8 ^ (~b9 & b5)
        s9 = b9 ^ (~b5 & b6)
        s10 = b10 ^ (~b11 & b12)
        s11 = b11 ^ (~b12 & b13)
        s12 = b12 ^ (~b13 & b14)
        s13 = b13 ^ (~b14 & b10)
        s14 = b14 ^ (~b10 & b11)
        s15 = b15 ^ (~b16 & b17)
        s16 = b16 ^ (~b17 & b18)
        s17 = b17 ^ (~b18 & b19)
        s18 = b18 ^ (~b19 & b15)
        s19 = b19 ^ (~b15 & b16)
        s20 = b20 ^ (~b21 & b22)
        s21 = b21 ^ (~b22 & b23)
        s22 = b22 ^ (~b23 & b24)
        s23 = b23 ^ (~b24 & b20)
        s24 = b24 ^ (~b20 & b21)
    return [s0, s1, s2, s3, s4, s5, s6, s7, s8, s9,
            s10, s11, s12, s13, s14, s15, s16, s17, s18, s19,
            s20, s21, s22, s23, s24]


def _absorb(state: list[int], blocks: "bytes | bytearray") -> list[int]:
    """Absorb whole rate blocks into the sponge; ``state`` is left untouched."""
    state = list(state)
    for offset in range(0, len(blocks), _RATE_BYTES):
        lanes = _UNPACK_RATE(blocks, offset)
        for i in range(_RATE_LANES):
            state[i] ^= lanes[i]
        state = _keccak_f(state)
    return state


def _finish(state: list[int], tail: bytes) -> bytes:
    """Pad ``tail``, absorb it on top of ``state`` and squeeze the digest."""
    # Padding: multi-rate pad10*1 with the Keccak domain byte 0x01.
    padded = bytearray(tail)
    padded += bytes(_RATE_BYTES - (len(padded) % _RATE_BYTES))
    padded[len(tail)] ^= 0x01
    padded[-1] ^= 0x80
    state = _absorb(state, padded)
    # Squeeze phase: 256 bits fit within a single rate block.
    return _PACK_DIGEST(state[0] & _MASK, state[1] & _MASK,
                        state[2] & _MASK, state[3] & _MASK)


_EMPTY_SPONGE = [0] * 25


def keccak256(data: bytes) -> bytes:
    """Return the 32-byte keccak-256 digest of ``data``.

    This matches Ethereum's ``keccak256`` / Solidity ``keccak256(...)`` and
    geth's ``crypto.Keccak256``.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"keccak256 expects bytes, got {type(data).__name__}")
    return _finish(_EMPTY_SPONGE, data)


def keccak256_shared_prefix(prefix: bytes, suffix: bytes) -> tuple[bytes, bytes]:
    """``(keccak256(prefix), keccak256(prefix + suffix))`` hashing ``prefix`` once.

    The whole rate blocks of ``prefix`` are absorbed a single time and both
    digests are finished from that shared sponge state, so the pair costs
    the permutations of the longer message plus the shorter one's final
    block(s) -- 5 instead of 7 for a transaction's signing payload and its
    payload-plus-signature hash.  Both digests are byte-identical to two
    separate :func:`keccak256` calls.
    """
    shared = len(prefix) - len(prefix) % _RATE_BYTES
    state = _absorb(_EMPTY_SPONGE, prefix[:shared])
    tail = prefix[shared:]
    return _finish(state, tail), _finish(state, tail + suffix)


def keccak256_hex(data: bytes) -> str:
    """Return the keccak-256 digest of ``data`` as a lowercase hex string."""
    return keccak256(data).hex()
