"""Pure-Python keccak-256 (the Ethereum hash function).

Ethereum uses the original Keccak submission padding (``0x01``) rather than
the NIST SHA-3 padding (``0x06``), so :func:`hashlib.sha3_256` cannot be used
as a drop-in replacement.  This module implements the Keccak-f[1600]
permutation and the sponge construction for a 256-bit output.

The permutation is fully flattened: the 5x5 lane state lives in 25 local
variables and the theta/rho/pi/chi steps are unrolled with their rotation
offsets and pi-permutation indices baked in.  Compared to the loop-and-list
formulation this removes every list allocation and index computation from
the hot path, which is worth ~3x in CPython.  It matters as much as the
curve math: a two-block datagram digest (~0.30 ms) costs more than the ECDSA
signature over it (~0.19 ms) and a third of the recovery that verifies it.

Hashing by lanes
----------------
:func:`keccak256` hashes one message; :func:`keccak256_many` hashes N, and
from :data:`PACKED_CROSSOVER` messages up it does so *across* them.  The
packed state is still 25 integers, but each is N x 64 bits wide: slot ``j``
(bits ``64j .. 64j+63``) of lane ``i`` is lane ``i`` of message ``j``'s
sponge.  XOR and AND act on every slot at once for free, so
:func:`_keccak_f_packed` is :func:`_keccak_f` line for line and the
interpreter is paid once per round step instead of once per message.  Two
steps need care:

* a rotation by ``r`` must not carry bits into the neighbouring slot, so it
  is two shifts and two masks -- ``(x << r) & keep_high | (x >> 64 - r) &
  keep_low`` -- where ``keep_high`` clears the low ``r`` bits of every slot
  (what the left shift dragged in from the slot below, or past the top) and
  ``keep_low`` keeps only them;
* chi's ``~b & c`` would need an all-ones constant of the state's width;
  ``c ^ (b & c)`` is the same function and needs none.

The masks exist for the 24 distinct rho offsets (theta's 1 is one of them),
are built once at import for ``_PACKED_CAP`` = 64 slots and are used as they
are by every narrower state (``&`` stops at the shorter operand), so there is
no table per width: ~26 KB, immutable module constants, safe to share between
the issuing thread and the node thread.  Batches wider than the cap are hashed
in chunks of it.  Packing is a strided ``memoryview`` slice per lane;
unpacking the four digest lanes is the same in reverse.

The crossover is where the packed path wins *including* pack and unpack,
measured on one pinned CPU with ``keccak256_many`` against a ``keccak256``
loop (two-block messages, ms per call)::

    N          1      2      3      4      8     16     32     64
    scalar   0.32   0.63   0.97   1.26   2.57   5.11   9.66  19.59
    packed     --   0.35   0.35   0.38   0.46   0.51   0.63   0.97

One packed permutation costs about what a scalar one does at width 1-3
(~160 us against ~150), ~285 us at width 32 and ~440 us at width 64, so two
messages already halve the bill and ``PACKED_CROSSOVER = 2``; a lone message
stays on the scalar path, which is also the differential reference the
packed kernel is tested against slot by slot.

Ragged lanes
------------
The messages of a batch need not pad to the same length: a slot is a sponge
of its own, so each step every live slot absorbs *its* message's next block.
:func:`keccak256_many` orders the batch by block count, longest first, and
cuts it into chunks of ``_PACKED_CAP``; within a chunk the messages that end
first therefore sit in the top slots, are squeezed when their last block has
been permuted, and the state is truncated to the slots still live -- later
steps run narrower, and the last survivor finishes on the scalar
:func:`_keccak_f`.  A chunk costs ``max(blocks)`` interpreter round trips
instead of one pass per length group, and equal-length input performs
exactly the permutations it always did.  What that buys where the lengths
differ (ms per call, one pinned CPU)::

                                              apart   one call
    two one-block messages (keccak256 x 2)    0.340      0.191
    8-block message + 32 two-block ones        2.06       1.79
    32 three-block + 32 four-block             2.32       2.00

-- a lone submission's session message beside its token's datagram (one
width-2 permutation, no scalar one), the session message riding an
envelope's datagrams (two of its eight sequential blocks cost nothing), and
a 32-transaction admission of 3- and 4-block messages (4 packed
permutations, three at width 64, instead of 7 at width 32; 2 at width 64
since a transaction signs its 2-block canonical encoding).

What stays apart is a *shared state*, which is not a ragged length: a
transaction's signing payload and the payload-plus-signature it is hashed
as share a prefix, and hashing them as two ragged lanes would absorb that
prefix twice.  :func:`keccak256_shared_prefix` absorbs the shared whole
blocks once (scalar), then runs the *next* block of both messages -- the
shorter one's last -- as the two slots of one width-2 packed permutation
(~180 us against two scalar ones at ~176 each), and only the longer
message's remaining blocks go on alone.  A ledger-shaped transaction is a
2- and a 2-block message: 1 scalar + 1 packed permutation where two
separate hashes cost 4 (for the 3- and 4-block messages padded calldata
made, 3 + 1 where apart cost 7: the pair 862 -> 695 us here).
"""

from __future__ import annotations

import struct
from typing import Sequence

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


# -- the packed kernel: N sponge states, one big integer per lane ---------------

#: Widest packed state.  Larger groups are hashed in chunks of this many
#: messages, which is what bounds the mask table below.
_PACKED_CAP = 64

#: Smallest group :func:`keccak256_many` hashes packed; a lone message goes
#: through the scalar :func:`_keccak_f`.  See the module docstring for how
#: it was measured.
PACKED_CROSSOVER = 2

# Bit 0 of every 64-bit slot: ``pattern * _SLOTS`` repeats a 64-bit pattern
# across all ``_PACKED_CAP`` slots.
_SLOTS = sum(1 << (64 * slot) for slot in range(_PACKED_CAP))

_RHO_OFFSETS = (1, 2, 3, 6, 8, 10, 14, 15, 18, 20, 21, 25,
                27, 28, 36, 39, 41, 43, 44, 45, 55, 56, 61, 62)

# For each rotation offset r, in ``_RHO_OFFSETS`` order: the per-slot mask of
# the bits a left shift by r keeps (r..63) and of the bits the matching right
# shift by 64 - r brings round (0..r-1).  Built once at import for the cap
# width and never mutated; a narrower state ANDs against the low end of them.
_ROTATION_MASKS = tuple(
    mask * _SLOTS
    for r in _RHO_OFFSETS
    for mask in ((_MASK << r) & _MASK, _MASK >> (64 - r))
)


def _keccak_f_packed(state: list[int], width: int) -> list[int]:
    """Keccak-f[1600] on ``width`` states at once (``width <= _PACKED_CAP``).

    ``state`` is 25 integers of ``width`` 64-bit slots each: slot ``j`` of
    ``state[i]`` is lane ``i`` of the ``j``-th sponge.  The body is
    :func:`_keccak_f` line for line, with the two differences packing
    forces: a rotation masks each shifted half so no bit crosses into the
    neighbouring slot, and chi's ``~b & c`` is written ``c ^ (b & c)`` so no
    all-ones constant of the state's width is needed.
    """
    (s0, s1, s2, s3, s4, s5, s6, s7, s8, s9,
     s10, s11, s12, s13, s14, s15, s16, s17, s18, s19,
     s20, s21, s22, s23, s24) = state
    (h1, l1, h2, l2, h3, l3, h6, l6, h8, l8, h10, l10,
     h14, l14, h15, l15, h18, l18, h20, l20, h21, l21, h25, l25,
     h27, l27, h28, l28, h36, l36, h39, l39, h41, l41, h43, l43,
     h44, l44, h45, l45, h55, l55, h56, l56, h61, l61, h62, l62) = _ROTATION_MASKS
    slots = _SLOTS >> (64 * (_PACKED_CAP - width))
    for rc in _ROUND_CONSTANTS:
        # Theta.
        c0 = s0 ^ s5 ^ s10 ^ s15 ^ s20
        c1 = s1 ^ s6 ^ s11 ^ s16 ^ s21
        c2 = s2 ^ s7 ^ s12 ^ s17 ^ s22
        c3 = s3 ^ s8 ^ s13 ^ s18 ^ s23
        c4 = s4 ^ s9 ^ s14 ^ s19 ^ s24
        d0 = c4 ^ (((c1 << 1) & h1) | ((c1 >> 63) & l1))
        d1 = c0 ^ (((c2 << 1) & h1) | ((c2 >> 63) & l1))
        d2 = c1 ^ (((c3 << 1) & h1) | ((c3 >> 63) & l1))
        d3 = c2 ^ (((c4 << 1) & h1) | ((c4 >> 63) & l1))
        d4 = c3 ^ (((c0 << 1) & h1) | ((c0 >> 63) & l1))
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

        # Rho and Pi.
        b0 = s0
        b1 = ((s6 << 44) & h44) | ((s6 >> 20) & l44)
        b2 = ((s12 << 43) & h43) | ((s12 >> 21) & l43)
        b3 = ((s18 << 21) & h21) | ((s18 >> 43) & l21)
        b4 = ((s24 << 14) & h14) | ((s24 >> 50) & l14)
        b5 = ((s3 << 28) & h28) | ((s3 >> 36) & l28)
        b6 = ((s9 << 20) & h20) | ((s9 >> 44) & l20)
        b7 = ((s10 << 3) & h3) | ((s10 >> 61) & l3)
        b8 = ((s16 << 45) & h45) | ((s16 >> 19) & l45)
        b9 = ((s22 << 61) & h61) | ((s22 >> 3) & l61)
        b10 = ((s1 << 1) & h1) | ((s1 >> 63) & l1)
        b11 = ((s7 << 6) & h6) | ((s7 >> 58) & l6)
        b12 = ((s13 << 25) & h25) | ((s13 >> 39) & l25)
        b13 = ((s19 << 8) & h8) | ((s19 >> 56) & l8)
        b14 = ((s20 << 18) & h18) | ((s20 >> 46) & l18)
        b15 = ((s4 << 27) & h27) | ((s4 >> 37) & l27)
        b16 = ((s5 << 36) & h36) | ((s5 >> 28) & l36)
        b17 = ((s11 << 10) & h10) | ((s11 >> 54) & l10)
        b18 = ((s17 << 15) & h15) | ((s17 >> 49) & l15)
        b19 = ((s23 << 56) & h56) | ((s23 >> 8) & l56)
        b20 = ((s2 << 62) & h62) | ((s2 >> 2) & l62)
        b21 = ((s8 << 55) & h55) | ((s8 >> 9) & l55)
        b22 = ((s14 << 39) & h39) | ((s14 >> 25) & l39)
        b23 = ((s15 << 41) & h41) | ((s15 >> 23) & l41)
        b24 = ((s21 << 2) & h2) | ((s21 >> 62) & l2)

        # Chi, then Iota on every slot of lane 0.
        s0 = b0 ^ b2 ^ (b1 & b2) ^ rc * slots
        s1 = b1 ^ b3 ^ (b2 & b3)
        s2 = b2 ^ b4 ^ (b3 & b4)
        s3 = b3 ^ b0 ^ (b4 & b0)
        s4 = b4 ^ b1 ^ (b0 & b1)
        s5 = b5 ^ b7 ^ (b6 & b7)
        s6 = b6 ^ b8 ^ (b7 & b8)
        s7 = b7 ^ b9 ^ (b8 & b9)
        s8 = b8 ^ b5 ^ (b9 & b5)
        s9 = b9 ^ b6 ^ (b5 & b6)
        s10 = b10 ^ b12 ^ (b11 & b12)
        s11 = b11 ^ b13 ^ (b12 & b13)
        s12 = b12 ^ b14 ^ (b13 & b14)
        s13 = b13 ^ b10 ^ (b14 & b10)
        s14 = b14 ^ b11 ^ (b10 & b11)
        s15 = b15 ^ b17 ^ (b16 & b17)
        s16 = b16 ^ b18 ^ (b17 & b18)
        s17 = b17 ^ b19 ^ (b18 & b19)
        s18 = b18 ^ b15 ^ (b19 & b15)
        s19 = b19 ^ b16 ^ (b15 & b16)
        s20 = b20 ^ b22 ^ (b21 & b22)
        s21 = b21 ^ b23 ^ (b22 & b23)
        s22 = b22 ^ b24 ^ (b23 & b24)
        s23 = b23 ^ b20 ^ (b24 & b20)
        s24 = b24 ^ b21 ^ (b20 & b21)
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


def _padding(length: int) -> bytes:
    """Multi-rate pad10*1 (Keccak domain byte 0x01) after a ``length``-byte message."""
    missing = _RATE_BYTES - length % _RATE_BYTES
    return b"\x81" if missing == 1 else b"\x01" + bytes(missing - 2) + b"\x80"


def _squeeze(state: list[int]) -> bytes:
    """The digest of a finished sponge: 256 bits fit within a single rate block."""
    return _PACK_DIGEST(state[0] & _MASK, state[1] & _MASK,
                        state[2] & _MASK, state[3] & _MASK)


def _finish(state: list[int], tail: bytes) -> bytes:
    """Pad ``tail``, absorb it on top of ``state`` and squeeze the digest."""
    return _squeeze(_absorb(state, tail + _padding(len(tail))))


_EMPTY_SPONGE = [0] * 25


def keccak256(data: bytes) -> bytes:
    """Return the 32-byte keccak-256 digest of ``data``.

    This matches Ethereum's ``keccak256`` / Solidity ``keccak256(...)`` and
    geth's ``crypto.Keccak256``.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"keccak256 expects bytes, got {type(data).__name__}")
    return _finish(_EMPTY_SPONGE, data)


def _sponge_ragged(messages: "list[bytes | bytearray]") -> list[bytes]:
    """Digests of one chunk of ``messages`` ordered longest first, every step
    one packed permutation.

    Slot ``j`` absorbs message ``j``'s own next block each step.  The order
    puts the messages that finish first in the top slots, so they are
    squeezed and the state cut back to the slots still live; once fewer than
    :data:`PACKED_CROSSOVER` are, they go on alone on the scalar permutation.
    """
    padded = [message + _padding(len(message)) for message in messages]
    digests = [b""] * len(messages)
    from_bytes = int.from_bytes
    state = [0] * 25
    live = len(messages)
    offset = 0
    while live >= PACKED_CROSSOVER:
        # One 8-byte item per lane, slot after slot; lane i of every slot's
        # block is then a strided slice, and its bytes are the packed lane.
        # ``tobytes`` copies items without interpreting them, so the only
        # byte order involved is the explicit "little" below.
        end = offset + _RATE_BYTES
        blocks = [message[offset:end] for message in padded[:live]]
        lanes = memoryview(b"".join(blocks)).cast("Q")
        for i in range(_RATE_LANES):
            state[i] ^= from_bytes(lanes[i::_RATE_LANES].tobytes(), "little")
        state = _keccak_f_packed(state, live)
        offset = end
        staying = live
        while staying and len(padded[staying - 1]) == offset:
            staying -= 1
        if staying < live:
            squeezed = memoryview(
                b"".join(lane.to_bytes(8 * live, "little") for lane in state[:4])
            ).cast("Q")
            for slot in range(staying, live):
                digests[slot] = squeezed[slot::live].tobytes()
            keep = (1 << 64 * staying) - 1
            state = [lane & keep for lane in state]
            live = staying
    for slot in range(live):
        alone = [lane >> 64 * slot & _MASK for lane in state]
        digests[slot] = _squeeze(_absorb(alone, padded[slot][offset:]))
    return digests


def keccak256_many(messages: "Sequence[bytes | bytearray]") -> list[bytes]:
    """``[keccak256(m) for m in messages]``, hashing by lanes across messages.

    Messages are ordered by rate-block count, longest first, and cut into
    chunks of at most ``_PACKED_CAP``; a chunk is one packed state whose slots
    each absorb their own message (:func:`_sponge_ragged`), so it costs as
    many interpreter round trips as its longest message has blocks, whatever
    the other lengths are.  A lone message never leaves the scalar path.
    Every element is type-checked before anything is hashed, and no input is
    mutated or retained.
    """
    messages = list(messages)
    for message in messages:
        if not isinstance(message, (bytes, bytearray)):
            raise TypeError(f"keccak256 expects bytes, got {type(message).__name__}")
    # sorted() is stable: equal lengths keep their order, so equal-length
    # input is chunked exactly as it arrives.
    order = sorted(
        range(len(messages)), key=lambda position: -(len(messages[position]) // _RATE_BYTES)
    )
    digests: list[bytes] = [b""] * len(messages)
    for start in range(0, len(order), _PACKED_CAP):
        chunk = order[start:start + _PACKED_CAP]
        hashed = _sponge_ragged([messages[position] for position in chunk])
        for position, digest in zip(chunk, hashed):
            digests[position] = digest
    return digests


def keccak256_shared_prefix(prefix: bytes, suffix: bytes) -> tuple[bytes, bytes]:
    """``(keccak256(prefix), keccak256(prefix + suffix))`` hashing ``prefix`` once.

    The whole rate blocks of ``prefix`` are absorbed a single time; from that
    shared sponge state the two messages are *ragged lanes*: what is left of
    ``prefix`` pads to exactly one block, what is left of ``prefix + suffix``
    to one or more, and the first block of each is one slot of a single
    width-2 :func:`_keccak_f_packed`.  Slot 0 is then ``keccak256(prefix)``;
    slot 1 carries on alone through the longer message's remaining blocks.
    A transaction's signing payload and its payload-plus-signature hash (two
    2-block messages for a ledger-shaped transaction) cost 1 scalar
    permutation and 1 packed one instead of 4 scalar apart.  An empty
    ``suffix`` is one message, hashed once.  Both digests are byte-identical
    to two separate :func:`keccak256` calls.
    """
    shared = len(prefix) - len(prefix) % _RATE_BYTES
    state = _absorb(_EMPTY_SPONGE, prefix[:shared])
    tail = prefix[shared:]
    if not suffix:
        digest = _finish(state, tail)
        return digest, digest
    short = _UNPACK_RATE(tail + _padding(len(tail)))
    rest = tail + suffix
    rest += _padding(len(rest))
    long = _UNPACK_RATE(rest)
    # Slot 0 absorbs the shorter message's block, slot 1 the longer one's;
    # the capacity lanes are the shared state in both.
    packed = [(lane ^ a) | (lane ^ b) << 64 for lane, a, b in zip(state, short, long)]
    packed += [lane | lane << 64 for lane in state[_RATE_LANES:]]
    packed = _keccak_f_packed(packed, 2)
    longer = _absorb([lane >> 64 for lane in packed], rest[_RATE_BYTES:])
    return _squeeze(packed), _squeeze(longer)


def keccak256_hex(data: bytes) -> str:
    """Return the keccak-256 digest of ``data`` as a lowercase hex string."""
    return keccak256(data).hex()
