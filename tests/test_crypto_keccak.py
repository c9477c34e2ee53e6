"""Unit tests for the pure-Python keccak-256 implementation."""

import hashlib
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto import keccak
from repro.crypto.keccak import (
    PACKED_CROSSOVER,
    keccak256,
    keccak256_hex,
    keccak256_many,
    keccak256_shared_prefix,
)

# Known-answer vectors for Ethereum's keccak-256 (not NIST SHA3-256).
KNOWN_VECTORS = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
    b"hello": "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8",
    b"testing": "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02",
    b"The quick brown fox jumps over the lazy dog":
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
}


@pytest.mark.parametrize("message,expected", sorted(KNOWN_VECTORS.items()))
def test_known_vectors(message, expected):
    assert keccak256(message).hex() == expected


def test_digest_length_is_32_bytes():
    assert len(keccak256(b"x")) == 32


def test_differs_from_nist_sha3_256():
    # Ethereum keccak uses the original 0x01 padding, so it must NOT match
    # hashlib's NIST SHA3-256 on non-empty input.
    assert keccak256(b"abc") != hashlib.sha3_256(b"abc").digest()


def test_deterministic():
    assert keccak256(b"same input") == keccak256(b"same input")


def test_single_bit_avalanche():
    a = keccak256(b"\x00" * 64)
    b = keccak256(b"\x00" * 63 + b"\x01")
    differing_bits = sum(bin(x ^ y).count("1") for x, y in zip(a, b))
    # Roughly half the 256 output bits should flip.
    assert differing_bits > 80


@pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 135, 136, 137, 272, 1000])
def test_all_block_boundary_lengths(length):
    # Lengths straddling the 136-byte rate must all hash without error and
    # produce distinct digests.
    digest = keccak256(b"a" * length)
    assert len(digest) == 32
    assert digest != keccak256(b"a" * (length + 1))


def test_multiblock_known_vector():
    # 200 'a' characters spans two absorb blocks.
    assert (
        keccak256(b"a" * 200).hex()
        == keccak256_hex(b"a" * 200)
    )
    assert keccak256(b"a" * 200) != keccak256(b"a" * 199)


def test_rejects_non_bytes():
    with pytest.raises(TypeError):
        keccak256("a string")  # type: ignore[arg-type]


def test_accepts_bytearray():
    assert keccak256(bytearray(b"abc")) == keccak256(b"abc")


def test_hex_helper_matches_bytes():
    assert keccak256_hex(b"xyz") == keccak256(b"xyz").hex()


# --- multi-block digests are pinned --------------------------------------------------

# bytes(i % 251 for i in range(length)), digests taken from the sponge as it
# was before it learnt to share a prefix: keccak256(x) must not move for any x.
PINNED_MULTIBLOCK = {
    135: "cbdfd9dee5faad3818d6b06f95a219fd290b0e1706f6a82e5a595b9ce9faca62",
    136: "7ce759f1ab7f9ce437719970c26b0a66ff11fe3e38e17df89cf5d29c7d7f807e",
    137: "ac73d4fae68b8453f764007c1a20ce95994187861f0c3227a3a8e99a73a3b1db",
    271: "27eceb59ebc3dc8a04a5b135be641591a7278540e4556a2ba9f408194e666ec3",
    272: "8e2476e65823b24d96ebe239f2c1534cdf763e689e2410c3b1cb0c74e6177bfc",
    273: "3f02f134370e4debb95140ef49ddd3aed8c65ff1ed83a43f1b269421f179c5f9",
    408: "2fa03dab557315e48395073815c6aefeb1e78b5f750fa85b623ab3a1f1d988a1",
}


@pytest.mark.parametrize("length,expected", sorted(PINNED_MULTIBLOCK.items()))
def test_multiblock_digests_are_pinned(length, expected):
    assert keccak256(bytes(i % 251 for i in range(length))).hex() == expected


# --- the prefix-sharing sponge --------------------------------------------------------

_RATE_EDGES = (0, 1, 135, 136, 137, 271, 272, 273)


@pytest.mark.parametrize("prefix_length", _RATE_EDGES)
@pytest.mark.parametrize("suffix_length", (0, 1, 65, 135, 136, 137))
def test_shared_prefix_pair_at_rate_boundaries(prefix_length, suffix_length):
    prefix = bytes(i % 251 for i in range(prefix_length))
    suffix = bytes(i % 241 for i in range(suffix_length))
    assert keccak256_shared_prefix(prefix, suffix) == (
        keccak256(prefix),
        keccak256(prefix + suffix),
    )


@pytest.mark.slow
@given(message=st.binary(max_size=700), cut=st.integers(min_value=0, max_value=700))
@example(message=b"\x5a" * 273, cut=136)
@example(message=b"\x5a" * 273, cut=272)
@settings(max_examples=200, deadline=None)
def test_any_prefix_suffix_split_matches_plain_keccak(message, cut):
    prefix, suffix = message[:cut], message[cut:]
    assert keccak256_shared_prefix(prefix, suffix) == (
        keccak256(prefix),
        keccak256(message),
    )


def test_shared_prefix_pair_costs_the_longer_message_plus_one_final_block(
    keccak_permutations, packed_permutations
):
    """A transaction-shaped pair: 3 + 4 permutations apart; together the two
    shared blocks, one packed permutation for both messages' next block (the
    shorter one's last) and the longer one's final block."""
    calls, packed = keccak_permutations, packed_permutations
    payload, signature = b"\x11" * 350, b"\x22" * 65
    keccak256(payload), keccak256(payload + signature)
    assert (calls[0], packed[0]) == (7, 0)
    calls[0] = 0
    keccak256_shared_prefix(payload, signature)
    assert (calls[0], packed[0]) == (3, 1)
    # Tails of equal block count finish in the packed permutation alone; an
    # empty suffix is one message.
    calls[0] = packed[0] = 0
    keccak256_shared_prefix(payload, b"\x22")
    assert (calls[0], packed[0]) == (2, 1)
    calls[0] = packed[0] = 0
    keccak256_shared_prefix(payload, b"")
    assert (calls[0], packed[0]) == (3, 0)


# --- hashing by lanes: keccak256_many and the packed permutation ----------------------

_CAP = keccak._PACKED_CAP


def _pack(states):
    return [sum(state[i] << (64 * slot) for slot, state in enumerate(states)) for i in range(25)]


def _unpack(packed, width):
    return [[(lane >> (64 * slot)) & keccak._MASK for lane in packed] for slot in range(width)]


@pytest.mark.parametrize("width", sorted({1, 2, PACKED_CROSSOVER, 32, _CAP}))
def test_packed_permutation_equals_the_scalar_one_slot_by_slot(width):
    rng = random.Random(width)
    states = [[rng.getrandbits(64) for _ in range(25)] for _ in range(width)]
    permuted = keccak._keccak_f_packed(_pack(states), width)
    assert _unpack(permuted, width) == [keccak._keccak_f(state) for state in states]
    assert all(lane < 1 << (64 * width) for lane in permuted)  # nothing leaks past the top slot


def test_packed_permutation_refuses_a_state_wider_than_its_masks():
    with pytest.raises(ValueError):
        keccak._keccak_f_packed([0] * 25, _CAP + 1)


@given(messages=st.lists(st.binary(max_size=700), max_size=70))
@example(messages=[b"\x5a" * 135, b"\x5a" * 136] * 3)
@settings(max_examples=30, deadline=None)
def test_many_equals_the_per_message_hash(messages):
    assert keccak256_many(messages) == [keccak256(message) for message in messages]


def test_known_answers_inside_a_wide_batch():
    filler = [bytes([i]) * (i * 7 % 300) for i in range(_CAP + 9)]
    messages = filler[:20] + [b""] + filler[20:50] + [b"abc"] + filler[50:]
    digests = keccak256_many(messages)
    assert digests[20].hex() == KNOWN_VECTORS[b""]
    assert digests[51].hex() == KNOWN_VECTORS[b"abc"]
    assert digests == [keccak256(message) for message in messages]


def test_many_accepts_mixed_lengths_duplicates_and_bytearrays_without_mutating_them():
    lengths = (0, 135, 136, 137, 271, 272)
    messages = [bytes(i % 251 for i in range(length)) for length in lengths]
    messages += [bytearray(messages[2]), messages[4], bytearray(b"")]
    before = [bytes(message) for message in messages]
    assert keccak256_many(messages) == [keccak256(message) for message in before]
    assert [bytes(message) for message in messages] == before
    assert all(isinstance(m, bytearray) for m in (messages[6], messages[8]))
    assert keccak256_many(iter(messages[:3])) == keccak256_many(tuple(messages[:3]))
    assert keccak256_many([]) == []


def test_many_type_checks_every_element_before_hashing_anything(
    keccak_permutations, packed_permutations
):
    for batch in ([b"a", b"b", b"c"], [b"a" * 300, bytearray(b"b"), b""]):  # equal, ragged
        with pytest.raises(TypeError, match="keccak256 expects bytes, got str"):
            keccak256_many(batch + ["a string"])  # type: ignore[list-item]
    assert (keccak_permutations[0], packed_permutations[0]) == (0, 0)


def test_many_packs_from_the_crossover_up_and_chunks_above_the_cap(
    keccak_permutations, packed_permutations
):
    two_blocks = [bytes([i]) * 200 for i in range(_CAP + 1)]
    keccak256_many(two_blocks[:PACKED_CROSSOVER - 1])
    assert (keccak_permutations[0], packed_permutations[0]) == (2 * (PACKED_CROSSOVER - 1), 0)
    keccak_permutations[0] = 0
    keccak256_many(two_blocks[:PACKED_CROSSOVER])
    assert (keccak_permutations[0], packed_permutations[0]) == (0, 2)
    packed_permutations[0] = 0
    # cap + 1 messages: one full-width chunk, and the straggler goes scalar.
    assert keccak256_many(two_blocks) == [keccak256(message) for message in two_blocks]
    assert packed_permutations[0] == 2
    # 32 one-block and 32 three-block messages are one ragged chunk: as many
    # permutations as the longest message has blocks (it was 1 + 3 while each
    # padded length was hashed as a group of its own).
    keccak_permutations[0] = packed_permutations[0] = 0
    keccak256_many([b"x" * 80] * 32 + [b"y" * 300] * 32)
    assert (keccak_permutations[0], packed_permutations[0]) == (0, 3)


# --- ragged lanes: every slot absorbs its own message ---------------------------------

_BLOCK_EDGES = (0, 1, 135, 136, 137, 271, 272, 273, 983)


@given(
    lengths=st.lists(
        st.one_of(st.sampled_from(_BLOCK_EDGES), st.integers(0, 700)), max_size=140
    ),
    seed=st.integers(0, 2**32),
)
@example(lengths=[983] + [200] * 32, seed=0)  # the session message riding an envelope
@example(lengths=[0] * 70 + [137] * 70, seed=1)  # two chunks, each of one length
@example(lengths=list(range(0, 140 * 7, 7)), seed=2)  # every slot leaves alone
@settings(max_examples=25, deadline=None)
def test_ragged_batches_equal_the_per_message_hash(lengths, seed):
    rng = random.Random(seed)
    messages = [
        (bytearray if rng.random() < 0.25 else bytes)(rng.randbytes(length))
        for length in lengths
    ]
    before = [bytes(message) for message in messages]
    assert keccak256_many(messages) == [keccak256(message) for message in before]
    assert [bytes(message) for message in messages] == before


@pytest.mark.parametrize(
    "blocks, scalar, packed",
    [
        ([1, 1], 0, 1),  # a lone submission: session message + datagram
        ([8] + [2] * 32, 6, 2),  # the session rides the envelope, then finishes alone
        ([3] * 32 + [4] * 32, 0, 4),  # a batch admission: three steps at 64, one at 32
        ([2] * (_CAP + 1), 2, 2),  # equal lengths: a full chunk and a scalar straggler
        ([1] * 5 + [3], 2, 1),  # five leave after the first step, the last goes on alone
        ([5], 5, 0),  # one message never leaves the scalar path
        ([], 0, 0),
    ],
    ids=["pair", "rider", "admission", "cap+1", "survivor", "lone", "empty"],
)
def test_a_chunk_costs_its_longest_message_in_round_trips(
    blocks, scalar, packed, keccak_permutations, packed_permutations
):
    """Exact counts: a chunk is ``max(blocks)`` permutations -- packed while at
    least ``PACKED_CROSSOVER`` slots are live, scalar for the last survivor --
    not one pass per length group."""
    messages = [bytes([i % 256]) * (136 * count - 9) for i, count in enumerate(blocks)]
    keccak_permutations[0] = 0
    digests = keccak256_many(messages)
    assert (keccak_permutations[0], packed_permutations[0]) == (scalar, packed)
    assert digests == [keccak256(message) for message in messages]


def _table_bytes(value) -> int:
    """``sys.getsizeof`` of an integer table, containers and all."""
    if isinstance(value, int):
        return sys.getsizeof(value)
    if isinstance(value, dict):
        value = [x for item in value.items() for x in item]
    elif not isinstance(value, (tuple, list, set, frozenset)):
        return 0
    return sys.getsizeof(value) + sum(_table_bytes(x) for x in value)


def test_kernel_tables_stay_bounded_whatever_widths_were_hashed():
    """Fails if someone caches a mask table per width: every integer table the
    module holds, after batches of every width from 1 to 200, fits in 64 KB."""
    for width in range(1, 201):
        keccak256_many([bytes([width % 256]) * 40] * width)
    total = sum(_table_bytes(value) for value in vars(keccak).values())
    assert total <= 64 * 1024
    assert total >= 48 * 8 * _CAP  # the guard does see the rotation masks
