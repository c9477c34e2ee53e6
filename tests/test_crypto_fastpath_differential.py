"""Differential tests: the curve-math fast path vs the naive reference.

The wNAF/Shamir/GLV/batch machinery in ``repro.crypto.secp256k1`` and
``repro.crypto.ecdsa`` must agree with the naive double-and-add reference
implementation on every input.  Deterministic edge cases (identity, scalars
congruent to 0 mod N, both y parities, r near N) run in the fast lane;
hypothesis sweeps over random scalars run in the slow lane.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import secp256k1
from repro.crypto.ecdsa import (
    Signature,
    SignatureError,
    recover,
    recover_batch,
    recover_reference,
    recovers_to,
    sign,
    verify,
)
from repro.crypto.keccak import keccak256
from repro.crypto.keys import KeyPair, PublicKey, recover_address, recover_address_batch
from repro.crypto.secp256k1 import (
    GENERATOR,
    INFINITY,
    LAMBDA,
    N,
    P,
    Point,
    _glv_split,
    _jacobian_multiply,
    _to_jacobian,
    _wnaf,
    batch_inverse,
    generator_multiply,
    jacobian_to_affine_batch,
    lift_x,
    point_add,
    point_multiply,
    point_multiply_reference,
    prepare_point,
    shamir_multiply,
)

_KEYPAIR = KeyPair.from_seed("fastpath-differential-key")
_OTHER = KeyPair.from_seed("fastpath-differential-other")

scalars = st.integers(min_value=0, max_value=2 * N)
small_scalars = st.integers(min_value=0, max_value=1 << 20)


def _naive_multiply(point: Point, scalar: int) -> Point:
    return secp256k1._from_jacobian_checked(
        _jacobian_multiply(_to_jacobian(point), scalar)
    )


# --- deterministic edge cases (fast lane) ----------------------------------


@pytest.mark.parametrize("scalar", [0, 1, 2, 3, N - 1, N, N + 1, 2 * N, N >> 1])
def test_generator_multiply_edge_scalars(scalar):
    assert generator_multiply(scalar) == _naive_multiply(GENERATOR, scalar)


def _generator_multiply_counting_additions(scalar: int) -> tuple[Point, int]:
    """``generator_multiply(scalar)`` and how many mixed additions it spent."""
    add_mixed = secp256k1._jacobian_add_mixed
    with mock.patch.object(secp256k1, "_jacobian_add_mixed", side_effect=add_mixed) as counted:
        return generator_multiply(scalar), counted.call_count


#: carry chains of the signed base-256 recoding: every byte at, just above and
#: far above the half window (0x80 never borrows, 0x81 borrows in every window,
#: 0xFF rides a carry through every window), N - 1 (fifteen 0xFF bytes on top:
#: the carry leaves the top window into row 32) and each single bit.
_WINDOW_TABLE_SCALARS = (
    [0, 1, 2, N - 1, N, N + 1, (2**256 - 1) % N]
    + [int.from_bytes(bytes([byte]) * 32, "big") for byte in (0x80, 0x81, 0xFF)]
    + [1 << bit for bit in range(256)]
)


def test_generator_window_table_matches_the_reference_in_at_most_33_additions():
    for scalar in _WINDOW_TABLE_SCALARS:
        point, additions = _generator_multiply_counting_additions(scalar)
        assert point == point_multiply_reference(GENERATOR, scalar), hex(scalar)
        assert additions <= 33, (hex(scalar), additions)
    # The bound is reached, not just respected: 0x81 in every byte borrows in
    # all 32 windows and carries out of the top one -- against 64 additions on
    # the 4-bit table this replaced.
    assert _generator_multiply_counting_additions(int.from_bytes(b"\x81" * 32, "big"))[1] == 33


@given(scalar=scalars)
@settings(max_examples=40, deadline=None)
def test_generator_window_table_property(scalar):
    point, additions = _generator_multiply_counting_additions(scalar)
    assert point == point_multiply_reference(GENERATOR, scalar)
    assert additions <= 33


@pytest.mark.parametrize("scalar", [0, 1, 2, N - 1, N, N + 1, 2 * N])
def test_wnaf_multiply_edge_scalars(scalar):
    point = _naive_multiply(GENERATOR, 0xC0FFEE)
    assert point_multiply(point, scalar) == _naive_multiply(point, scalar)


def test_point_multiply_identity_point():
    assert point_multiply(INFINITY, 12345).is_infinity()
    assert point_multiply_reference(INFINITY, 12345).is_infinity()


def test_scalar_zero_mod_n_gives_identity():
    point = _naive_multiply(GENERATOR, 7)
    assert point_multiply(point, N).is_infinity()
    assert shamir_multiply(N, N, point).is_infinity()
    assert shamir_multiply(0, 0, point).is_infinity()


@pytest.mark.parametrize("u1,u2", [(0, 5), (5, 0), (N, 5), (5, N), (1, 1)])
def test_shamir_degenerate_scalars(u1, u2):
    point = _naive_multiply(GENERATOR, 0xDEADBEEF)
    expected = point_add(
        _naive_multiply(GENERATOR, u1), _naive_multiply(point, u2)
    )
    assert shamir_multiply(u1, u2, point) == expected


def test_shamir_with_identity_second_point():
    assert shamir_multiply(42, 99, INFINITY) == _naive_multiply(GENERATOR, 42)


def test_lift_x_parity_both_ways_roundtrip():
    for seed in (5, 6, 7):
        point = _naive_multiply(GENERATOR, seed)
        for parity in (True, False):
            lifted = lift_x(point.x, parity)
            assert lifted.x == point.x
            assert (lifted.y & 1 == 1) == parity
            assert secp256k1.is_on_curve(lifted.x, lifted.y)


def test_recover_r_near_n_is_consistent_across_paths():
    """r values just below N: fast, batch and reference must all agree
    (recover the same point or all fail)."""
    digest = keccak256(b"r-near-n")
    for r in (N - 1, N - 2, N - 3, N - 4):
        for v in (0, 1):
            signature = Signature(r, 12345, v)
            try:
                expected = recover_reference(digest, signature)
            except SignatureError:
                expected = None
            try:
                fast = recover(digest, signature)
            except SignatureError:
                fast = None
            assert fast == expected
            assert recover_batch([(digest, signature)]) == [expected]


def test_batch_mixed_good_bad_and_duplicate_entries():
    digest = keccak256(b"batch-mixed")
    good = _KEYPAIR.sign(digest)
    other = _OTHER.sign(digest)
    bad = Signature(12345, 67890, 1)
    results = recover_batch(
        [(digest, good), (digest, bad), (digest, other), (digest, good)]
    )
    assert results[0] == _KEYPAIR.public.point
    assert results[1] is None or results[1] != _KEYPAIR.public.point
    assert results[2] == _OTHER.public.point
    assert results[3] == _KEYPAIR.public.point


def test_batch_empty_and_malformed_digest():
    assert recover_batch([]) == []
    # A wrong-length digest raises on the single path but yields None in a
    # batch (one bad entry must not poison the block).
    signature = _KEYPAIR.sign(keccak256(b"ok"))
    with pytest.raises(SignatureError):
        recover(b"short", signature)
    assert recover_batch([(b"short", signature)]) == [None]


def test_recover_address_batch_matches_singles():
    digests = [keccak256(b"addr-%d" % i) for i in range(5)]
    pairs = [(d, _KEYPAIR.sign(d)) for d in digests]
    assert recover_address_batch(pairs) == [
        recover_address(d, s) for d, s in pairs
    ]


def test_batch_inverse_matches_pow():
    values = [1, 2, 3, P - 1, 0xDEADBEEF, N % P]
    assert batch_inverse(values, P) == [pow(v, -1, P) for v in values]
    assert batch_inverse([], P) == []


def test_jacobian_to_affine_batch_handles_infinity():
    jacs = [
        _to_jacobian(_naive_multiply(GENERATOR, 9)),
        secp256k1._J_INFINITY,
        secp256k1._jacobian_double(_to_jacobian(GENERATOR)),
    ]
    points = jacobian_to_affine_batch(jacs)
    assert points[0] == _naive_multiply(GENERATOR, 9)
    assert points[1].is_infinity()
    assert points[2] == _naive_multiply(GENERATOR, 2)


def test_glv_split_known_edge_scalars():
    for k in (0, 1, 2, N - 1, N >> 1, LAMBDA, N - LAMBDA):
        k1, k2 = _glv_split(k % N)
        assert (k1 + k2 * LAMBDA) % N == k % N
        assert abs(k1).bit_length() <= 129
        assert abs(k2).bit_length() <= 129


def test_endomorphism_matches_lambda_multiplication():
    point = _naive_multiply(GENERATOR, 0xBADC0DE)
    mapped = secp256k1.apply_endomorphism([(point.x, point.y)])[0]
    expected = _naive_multiply(point, LAMBDA)
    assert mapped == (expected.x, expected.y)


# --- recover / verify on the GLV kernel vs the references (fast lane) --------
#
# Single recovery and verification run the same four-stream ladder as the
# block kernel; these pin them to ``recover_reference`` (three naive scalar
# multiplications) and to a textbook verifier on the edges the ladder's table
# building, GLV split and mixed additions could get wrong.


def _verify_naive(digest: bytes, signature: Signature, public: Point) -> bool:
    """Textbook ECDSA verification on the naive ladder, plus the EIP-2 rule."""
    if public.is_infinity() or signature.s > N >> 1:
        return False
    s_inv = pow(signature.s, -1, N)
    u1 = int.from_bytes(digest, "big") * s_inv % N
    u2 = signature.r * s_inv % N
    point = point_add(_naive_multiply(GENERATOR, u1), _naive_multiply(public, u2))
    return not point.is_infinity() and point.x % N == signature.r


def _recover_or_none(recover_fn, digest, signature):
    try:
        return recover_fn(digest, signature)
    except SignatureError:
        return None


def _assert_recover_paths_agree(digest, signature):
    expected = _recover_or_none(recover_reference, digest, signature)
    assert _recover_or_none(recover, digest, signature) == expected
    assert recover_batch([(digest, signature)]) == [expected]
    return expected


def test_high_s_twin_recovers_the_same_key_and_verify_refuses_it():
    digest = keccak256(b"high-s")
    good = _KEYPAIR.sign(digest)
    mauled = Signature(good.r, N - good.s, good.v ^ 1)
    public = _KEYPAIR.public.point
    assert _assert_recover_paths_agree(digest, good) == public
    assert _assert_recover_paths_agree(digest, mauled) == public
    assert verify(digest, good, public) and _verify_naive(digest, good, public)
    assert not verify(digest, mauled, public)
    assert not _verify_naive(digest, mauled, public)


@pytest.mark.parametrize("offset", [0, 27])
def test_every_recovery_id_encoding_recovers_like_the_reference(offset):
    digest = keccak256(b"v-encodings")
    good = _KEYPAIR.sign(digest)
    for v in (0, 1):  # the right parity and the wrong one
        raw = good.to_bytes()[:64] + bytes([v + offset])
        signature = Signature.from_bytes(raw)
        assert signature.v == v
        recovered = _assert_recover_paths_agree(digest, signature)
        assert (recovered == _KEYPAIR.public.point) == (v == good.v)


def test_r_that_is_no_abscissa_fails_on_every_path():
    digest = keccak256(b"not-on-curve")
    r = next(x for x in range(1, 64) if not _liftable(x))
    for v in (0, 1):
        assert _assert_recover_paths_agree(digest, Signature(r, 12345, v)) is None


def _liftable(x: int) -> bool:
    try:
        lift_x(x, False)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("z", [0, N])
def test_digest_congruent_to_zero_drops_the_generator_streams(z):
    """z = 0 (mod N) makes u1 = 0: only the R / lambda*R streams remain."""
    digest = z.to_bytes(32, "big")
    signature = _KEYPAIR.sign(digest)
    public = _KEYPAIR.public.point
    assert _assert_recover_paths_agree(digest, signature) == public
    assert verify(digest, signature, public)
    assert _verify_naive(digest, signature, public)
    assert not verify(digest, signature, _OTHER.public.point)


def test_recovery_landing_on_infinity_is_refused_on_every_path():
    """s*R = z*G makes Q = r^-1 (s*R - z*G) the identity."""
    digest = keccak256(b"to-infinity")
    z = int.from_bytes(digest, "big")
    k = 0xC0FFEE
    r_point = generator_multiply(k)
    signature = Signature(r_point.x % N, z * pow(k, -1, N) % N, r_point.y & 1)
    assert _assert_recover_paths_agree(digest, signature) is None
    with pytest.raises(SignatureError, match="infinity"):
        recover(digest, signature)


def test_verification_landing_on_infinity_is_false_like_the_naive_verifier():
    """z = -r*d (mod N) makes u1*G + u2*Q the identity for any s."""
    secret = _KEYPAIR.private.secret
    public = _KEYPAIR.public.point
    signature = _KEYPAIR.sign(keccak256(b"any"))
    digest = (-signature.r * secret % N).to_bytes(32, "big")
    assert not verify(digest, signature, public)
    assert not _verify_naive(digest, signature, public)
    assert not verify(digest, signature, INFINITY)


def test_verify_matches_naive_on_right_and_wrong_inputs():
    digest, other_digest = keccak256(b"verify-a"), keccak256(b"verify-b")
    signature = _KEYPAIR.sign(digest)
    for d, public in (
        (digest, _KEYPAIR.public.point),
        (other_digest, _KEYPAIR.public.point),
        (digest, _OTHER.public.point),
    ):
        assert verify(d, signature, public) == _verify_naive(d, signature, public)


# --- known keys: the prepared-point kernel vs its definition (fast lane) ------
#
# ``recovers_to(d, sig, prepare_point(Q))`` is *defined* as
# ``recover(d, sig) == Q`` with every raising input mapped to False, and
# ``shamir_multiply(0, k, table)`` as a scalar multiplication; both are pinned
# to the oracles they replace on the node's hot path.

_PREPARED = prepare_point(_KEYPAIR.public.point)
_CHUNK = 128 // secp256k1._PREPARED_SPLIT


def _agrees(recover_fn, digest, signature, public: Point) -> bool:
    """The oracle: ``recover_fn(digest, signature) == public``, raising = False."""
    try:
        return recover_fn(digest, signature) == public
    except SignatureError:
        return False


def _mutations(digest, signature, other_digest):
    """The signature, its flipped parity, its high-s twin at both parities,
    another digest, and an ``r`` that is no curve abscissa."""
    r, s, v = signature.r, signature.s, signature.v
    no_abscissa = next(x for x in range(r, r + 64) if x < N and not _liftable(x))
    return [
        (digest, signature),
        (digest, Signature(r, s, v ^ 1)),
        (digest, Signature(r, N - s, v ^ 1)),
        (digest, Signature(r, N - s, v)),
        (other_digest, signature),
        (digest, Signature(no_abscissa, s, v)),
    ]


def _assert_known_key_check_is_recover_and_compare(digest, signature, other_digest, key, other):
    tables = {point: prepare_point(point) for point in (key, other)}
    verdicts = []
    for d, sig in _mutations(digest, signature, other_digest):
        for point, table in tables.items():
            expected = _agrees(recover, d, sig, point)
            assert recovers_to(d, sig, table) == expected, (d.hex(), sig, point)
            verdicts.append(expected)
    return verdicts


def test_known_key_check_agrees_with_recovery_on_the_whole_mutation_set():
    digest, other_digest = keccak256(b"known-a"), keccak256(b"known-b")
    verdicts = _assert_known_key_check_is_recover_and_compare(
        digest, _KEYPAIR.sign(digest), other_digest,
        _KEYPAIR.public.point, _OTHER.public.point,
    )
    # The valid signature and its high-s twin (parity flipped with it) are
    # the signer's; nothing else on the list is anybody's.
    assert verdicts == [True, False] + [False, False] + [True, False] + [False] * 6


@given(
    seed=st.binary(min_size=1, max_size=16),
    other_seed=st.binary(min_size=1, max_size=16),
    message=st.binary(max_size=32),
)
@settings(max_examples=20, deadline=None)
def test_known_key_check_agrees_with_recovery_property(seed, other_seed, message):
    keypair, other = KeyPair.from_seed(seed), KeyPair.from_seed(b"other:" + other_seed)
    digest = keccak256(message)
    _assert_known_key_check_is_recover_and_compare(
        digest, keypair.sign(digest), keccak256(message + b"'"),
        keypair.public.point, other.public.point,
    )


@given(
    r=st.integers(min_value=1, max_value=N - 1),
    s=st.integers(min_value=1, max_value=N - 1),
    v=st.integers(min_value=0, max_value=1),
    message=st.binary(max_size=8),
)
@settings(max_examples=20, deadline=None)
def test_known_key_check_on_arbitrary_signatures(r, s, v, message):
    """Garbage in: whatever key the garbage recovers to, the check against
    that key says yes and against another says no; unrecoverable says no."""
    digest = keccak256(message)
    signature = Signature(r, s, v)
    assert recovers_to(digest, signature, _PREPARED) == _agrees(
        recover, digest, signature, _KEYPAIR.public.point
    )
    recovered = _recover_or_none(recover, digest, signature)
    if recovered is not None:
        assert recovers_to(digest, signature, prepare_point(recovered))


@pytest.mark.parametrize("z", [0, N])
def test_known_key_check_with_a_digest_congruent_to_zero(z):
    """u1 = 0: the generator contributes nothing, the table everything."""
    digest = z.to_bytes(32, "big")
    signature = _KEYPAIR.sign(digest)
    assert _agrees(recover, digest, signature, _KEYPAIR.public.point)
    assert recovers_to(digest, signature, _PREPARED)
    assert not recovers_to(digest, signature, prepare_point(_OTHER.public.point))


def test_known_key_check_with_the_nonce_point_at_infinity_is_false():
    """z = -r*d (mod N) makes u1*G = -u2*Q for any s: no point, no match."""
    signature = _KEYPAIR.sign(keccak256(b"any"))
    digest = (-signature.r * _KEYPAIR.private.secret % N).to_bytes(32, "big")
    assert shamir_multiply(
        int.from_bytes(digest, "big"), signature.r, _PREPARED
    ).is_infinity()
    for v in (0, 1):
        forged = Signature(signature.r, signature.s, v)
        assert not _agrees(recover, digest, forged, _KEYPAIR.public.point)
        assert not recovers_to(digest, forged, _PREPARED)


def test_known_key_check_with_r_just_below_n():
    """``x == r`` is exact: r within 2^32 of N is an abscissa like any other
    (and ``r + N`` would not fit the field, so it is the only candidate)."""
    digest = keccak256(b"r-near-n")
    checked = 0
    for r in (N - 1, N - 2, N - 3, N - 4, N - 2**31, N - 2**32 + 1):
        for v in (0, 1):
            signature = Signature(r, 12345, v)
            assert not recovers_to(digest, signature, _PREPARED)
            recovered = _recover_or_none(recover, digest, signature)
            if recovered is not None:
                table = prepare_point(recovered)
                assert recovers_to(digest, signature, table)
                assert not recovers_to(digest, Signature(r, 12345, v ^ 1), table)
                checked += 1
    assert checked  # some of them are on the curve


def test_known_key_check_maps_every_raising_input_to_false():
    signature = _KEYPAIR.sign(keccak256(b"ok"))
    with pytest.raises(SignatureError):
        recover(b"short", signature)
    assert not recovers_to(b"short", signature, _PREPARED)
    # No key is the point at infinity: recover raises before returning it.
    assert prepare_point(INFINITY) == ()
    assert not recovers_to(keccak256(b"ok"), signature, ())
    assert not verify(keccak256(b"ok"), signature, ())


def _prepared_multiply(point: Point, scalar: int, bases: int = secp256k1._PREPARED_SPLIT) -> Point:
    return shamir_multiply(0, scalar, prepare_point(point, bases))


def _scalar_with_halves(k1: int, k2: int) -> int:
    scalar = (k1 + k2 * LAMBDA) % N
    assert _glv_split(scalar) == (k1, k2)
    return scalar


#: every chunk boundary of both GLV halves from below and above, in all four
#: sign combinations (a negative half negates its digits, not its table)
_CHUNK_BOUNDARY_SCALARS = [
    _scalar_with_halves(sign1 * ((1 << (_CHUNK * i)) + d), sign2 * ((1 << (_CHUNK * j)) - d))
    for i in range(1, secp256k1._PREPARED_SPLIT)
    for j in range(1, secp256k1._PREPARED_SPLIT)
    for d in (-1, 1)
    for sign1 in (1, -1)
    for sign2 in (1, -1)
]


def test_prepared_multiply_matches_the_reference_on_edge_scalars():
    point = _KEYPAIR.public.point
    plain = [0, 1, 2, N - 1, N, N + 1, 2 * N, LAMBDA, N - LAMBDA, N >> 1]
    powers = [(1 << (_CHUNK * i)) + d for i in range(1, 9) for d in (-1, 0, 1)]
    for scalar in plain + powers + _CHUNK_BOUNDARY_SCALARS:
        assert _prepared_multiply(point, scalar) == point_multiply_reference(
            point, scalar
        ), hex(scalar)
    assert shamir_multiply(0, 5, ()) == INFINITY


def test_prepared_multiply_of_the_generator_itself():
    for scalar in (1, 2, N - 1, 0xC0FFEE, _CHUNK_BOUNDARY_SCALARS[0]):
        assert _prepared_multiply(GENERATOR, scalar) == generator_multiply(scalar)


def test_prepared_top_chunk_takes_a_half_that_overflows_128_bits(monkeypatch):
    """This lattice basis keeps both halves under 2^128, so the overflow is
    forced: any (k1, k2) with k1 + k2*lambda = k is a valid split, and the
    top chunk's stream must carry whatever lies past position 128.  Both
    table sizes: a known key's four bases and the one base a point seen once
    gets, whose digits are filed by the same code."""
    point = _KEYPAIR.public.point
    scalar = int.from_bytes(keccak256(b"overflow"), "big") % N
    expected = point_multiply_reference(point, scalar)
    wide = (1 << 140) + 12345
    for bases in (1, secp256k1._PREPARED_SPLIT):
        for split in (
            lambda k: (k, 0),
            lambda k: (k - wide * LAMBDA, wide),
            lambda k: (-(N - k), 0),
        ):
            monkeypatch.setattr(secp256k1, "_glv_split", split)
            assert max(abs(half).bit_length() for half in split(scalar)) > 128
            assert _prepared_multiply(point, scalar, bases) == expected, bases


@given(scalar=scalars, base=small_scalars.filter(lambda s: s > 0))
@settings(max_examples=20, deadline=None)
def test_prepared_multiply_matches_the_reference_property(scalar, base):
    point = generator_multiply(base)
    assert _prepared_multiply(point, scalar) == point_multiply_reference(point, scalar)


def test_public_key_verify_is_ecdsa_verify_on_every_call():
    """First call (bare point), second (builds the table), hundredth (uses
    it): the answer is ``ecdsa.verify(..., point)``, high-s refusal included."""
    digest, other_digest = keccak256(b"pk-a"), keccak256(b"pk-b")
    good = _KEYPAIR.sign(digest)
    mauled = Signature(good.r, N - good.s, good.v ^ 1)
    cases = [(digest, good), (digest, mauled), (other_digest, good), (digest, _OTHER.sign(digest))]
    expected = [verify(d, sig, _KEYPAIR.public.point) for d, sig in cases]
    assert expected == [True, False, False, False]
    public = PublicKey(_KEYPAIR.public.point)
    for call in range(100):
        d, sig = cases[call % len(cases)]
        assert public.verify(d, sig) == expected[call % len(cases)], call
    for d, sig in cases:
        assert public.verify(d, sig) == verify(d, sig, _KEYPAIR.public.point)
    assert public == _KEYPAIR.public and hash(public) == hash(_KEYPAIR.public)
    with pytest.raises(SignatureError):
        public.verify(b"short", good)


def test_public_key_builds_its_table_on_the_second_verification(curve_multiplications):
    digest = keccak256(b"pk-counts")
    signature = _KEYPAIR.sign(digest)
    public = PublicKey(_KEYPAIR.public.point)
    curve_multiplications.clear()
    assert public.verify(digest, signature)
    assert curve_multiplications == {"ladders": 1}
    assert public.verify(digest, signature)
    assert curve_multiplications == {"ladders": 1, "builds": 1, "prepared": 1}
    for _ in range(3):
        assert public.verify(digest, signature)
    assert curve_multiplications == {"ladders": 1, "builds": 1, "prepared": 4}


def test_one_ladder_per_check_and_no_general_addition():
    """G's window points are filed at height 0 beside Q's digits, so a
    known-key check and a prepared ``verify`` are one ladder each, with no
    separate G sum to join by a general addition; a recovery is one ladder."""
    digest = keccak256(b"one-ladder")
    signature = _KEYPAIR.sign(digest)
    ladder, add = secp256k1._ladder, secp256k1._jacobian_add

    def counted(check):
        with mock.patch.object(secp256k1, "_ladder", side_effect=ladder) as ladders, \
                mock.patch.object(secp256k1, "_jacobian_add", side_effect=add) as adds:
            assert check()
        return ladders.call_count, adds.call_count

    assert counted(lambda: recovers_to(digest, signature, _PREPARED)) == (1, 0)
    assert counted(lambda: verify(digest, signature, _PREPARED)) == (1, 0)
    assert counted(lambda: recover(digest, signature) == _KEYPAIR.public.point)[0] == 1


# --- batch sites add affine: the level tree behind sign_batch ---------------------

#: the window recoding's corners: digits at, just below and just above the
#: half window in the bottom window and in every other one (a borrow, a carry
#: into a zero digit, a carry out of the top window into row 32), zero digits
#: everywhere else, and the scalars that reduce.
_BATCH_TREE_SCALARS = (
    [0, 1, 2, 127, 128, 129, 255, 256, 257, N - 1, N, N + 1, 2**256 % N]
    + [(1 << (8 * i)) + sign for i in range(1, 32) for sign in (-1, 1)]
    + [129 << (8 * i) for i in range(32)]
)


def test_generator_multiply_batch_matches_singles_on_the_window_corners():
    expected = [generator_multiply(k) for k in _BATCH_TREE_SCALARS]
    assert secp256k1.generator_multiply_batch(_BATCH_TREE_SCALARS) == expected
    assert [p for p, k in zip(expected, _BATCH_TREE_SCALARS) if k % N == 0] == [INFINITY] * 2


def test_generator_multiply_batch_matches_singles_at_every_batch_size():
    import random

    rng = random.Random(19)
    pool = [rng.randrange(2 * N) for _ in range(70)]
    expected = [generator_multiply(k) for k in pool]
    for n in range(71):
        start = n % 7  # not always the same leading scalars
        ks = (pool[start:] + pool[:start])[:n]
        want = (expected[start:] + expected[:start])[:n]
        assert secp256k1.generator_multiply_batch(ks) == want, n


@given(ks=st.lists(scalars, max_size=70))
@settings(max_examples=25, deadline=None)
def test_generator_multiply_batch_property(ks):
    assert secp256k1.generator_multiply_batch(ks) == [generator_multiply(k) for k in ks]


def _xy(point: Point) -> tuple[int, int]:
    return (point.x, point.y)


def _fold(points: list[Point]) -> Point:
    total = INFINITY
    for point in points:
        total = point_add(total, point)
    return total


def test_affine_sum_batch_on_hand_made_lists():
    p, q, r = (_naive_multiply(GENERATOR, k) for k in (5, 11, 1000003))
    neg = secp256k1.point_negate
    lists = [
        [],
        [p],
        [p, q],
        [p, p],  # a doubling: the affine formula cannot
        [p, neg(p)],  # cancels: infinity
        [p, q, neg(point_add(p, q))],  # cancels one level up
        [p, q, r, p, q, r, p],  # an odd element rides up, repeats meet late
        [p, neg(p), q],
        [q, p, neg(p)],
    ]
    sums = secp256k1.affine_sum_batch([[_xy(point) for point in points] for points in lists])
    assert sums == [_fold(points) for points in lists]
    assert sums[0] == sums[4] == sums[5] == INFINITY
    assert secp256k1.affine_sum_batch([]) == []


def test_an_exceptional_list_leaves_the_tree_alone():
    """Its zero denominator never enters the level's running product (which
    would raise, or poison every slope of the level): it is summed by mixed
    additions, the others by the tree, in one call."""
    honest = [secp256k1._generator_window_points(k) for k in (3**150, 5**100, 7**80, 11**60)]
    p = _naive_multiply(GENERATOR, 77)
    exceptional = honest[0][:8] + [_xy(p), _xy(p)] + honest[1][:8]
    lists = honest[:2] + [exceptional] + honest[2:]
    add_mixed = secp256k1._jacobian_add_mixed
    with mock.patch.object(secp256k1, "_jacobian_add_mixed", side_effect=add_mixed) as mixed:
        sums = secp256k1.affine_sum_batch(lists)
    assert sums == [_fold([Point(x, y) for x, y in points]) for points in lists]
    assert sums[:2] + sums[3:] == [generator_multiply(k) for k in (3**150, 5**100, 7**80, 11**60)]
    assert mixed.call_count == len(exceptional)  # that list only, whole


def test_affine_sum_batch_keeps_its_inputs():
    lists = [secp256k1._generator_window_points(k) for k in (12345, 2**200 + 9)]
    before = [list(points) for points in lists]
    secp256k1.affine_sum_batch(lists)
    assert lists == before


def test_a_block_of_k_g_costs_one_inversion_a_level_and_no_mixed_addition():
    import random

    rng = random.Random(7)
    ks = [rng.randrange(1, N) for _ in range(32)]
    inverse, add_mixed = secp256k1.batch_inverse, secp256k1._jacobian_add_mixed
    with mock.patch.object(secp256k1, "batch_inverse", side_effect=inverse) as inversions, \
            mock.patch.object(secp256k1, "_jacobian_add_mixed", side_effect=add_mixed) as mixed:
        points = secp256k1.generator_multiply_batch(ks)
    assert points == [generator_multiply(k) for k in ks]
    # 33 points are six levels: 33 -> 17 -> 9 -> 5 -> 3 -> 2 -> 1.
    assert 0 < inversions.call_count <= 6
    assert mixed.call_count == 0
    # ... and each level's inversion serves every pair of every sum.
    assert sum(len(call.args[0]) for call in inversions.call_args_list) == sum(
        len(secp256k1._generator_window_points(k)) - 1 for k in ks
    )


# --- hypothesis sweeps (slow lane) -----------------------------------------


@pytest.mark.slow
@given(scalar=scalars, width=st.integers(min_value=2, max_value=8))
@settings(max_examples=150, deadline=None)
def test_wnaf_digits_reconstruct_scalar(scalar, width):
    digits = _wnaf(scalar, width)
    assert sum(d << i for i, d in enumerate(digits)) == scalar
    half = 1 << (width - 1)
    for d in digits:
        assert d == 0 or (d % 2 == 1 and -half < d < half)
    if digits:
        assert digits[-1] != 0  # no redundant leading zeros


@pytest.mark.slow
@given(scalar=st.one_of(scalars, small_scalars))
@settings(max_examples=30, deadline=None)
def test_generator_multiply_matches_naive(scalar):
    assert generator_multiply(scalar) == _naive_multiply(GENERATOR, scalar)


@pytest.mark.slow
@given(base=small_scalars.filter(lambda s: s > 0), scalar=scalars)
@settings(max_examples=25, deadline=None)
def test_wnaf_multiply_matches_naive(base, scalar):
    point = _naive_multiply(GENERATOR, base)
    assert point_multiply(point, scalar) == _naive_multiply(point, scalar)


@pytest.mark.slow
@given(u1=scalars, u2=scalars, base=small_scalars.filter(lambda s: s > 0))
@settings(max_examples=25, deadline=None)
def test_shamir_matches_naive_composition(u1, u2, base):
    point = _naive_multiply(GENERATOR, base)
    expected = point_add(
        _naive_multiply(GENERATOR, u1), _naive_multiply(point, u2)
    )
    assert shamir_multiply(u1, u2, point) == expected


@pytest.mark.slow
@given(scalar=st.integers(min_value=0, max_value=N - 1))
@settings(max_examples=150, deadline=None)
def test_glv_split_reconstructs_scalar(scalar):
    k1, k2 = _glv_split(scalar)
    assert (k1 + k2 * LAMBDA) % N == scalar
    assert abs(k1).bit_length() <= 129
    assert abs(k2).bit_length() <= 129


@pytest.mark.slow
@given(u1=scalars, u2=scalars, base=small_scalars.filter(lambda s: s > 0))
@settings(max_examples=20, deadline=None)
def test_glv_kernel_matches_naive_composition(u1, u2, base):
    point = _naive_multiply(GENERATOR, base)
    fast = shamir_multiply(u1, u2, prepare_point(point, 1))
    expected = point_add(
        _naive_multiply(GENERATOR, u1), _naive_multiply(point, u2)
    )
    assert fast == expected


@pytest.mark.slow
@given(seed=st.binary(min_size=1, max_size=16))
@settings(max_examples=15, deadline=None)
def test_recover_paths_agree_on_valid_signatures(seed):
    digest = keccak256(seed)
    keypair = KeyPair.from_seed(seed)
    signature = sign(digest, keypair.private.secret)
    fast = recover(digest, signature)
    assert fast == recover_reference(digest, signature)
    assert fast == keypair.public.point
    assert recover_batch([(digest, signature)]) == [fast]


@pytest.mark.slow
@given(
    r=st.integers(min_value=1, max_value=N - 1),
    s=st.integers(min_value=1, max_value=N - 1),
    v=st.integers(min_value=0, max_value=1),
    seed=st.binary(min_size=0, max_size=8),
)
@settings(max_examples=25, deadline=None)
def test_recover_paths_agree_on_arbitrary_signatures(r, s, v, seed):
    """Forged/garbage signatures: all three paths agree (same point or all
    unrecoverable)."""
    digest = keccak256(seed)
    signature = Signature(r, s, v)
    try:
        expected = recover_reference(digest, signature)
    except SignatureError:
        expected = None
    try:
        fast = recover(digest, signature)
    except SignatureError:
        fast = None
    assert fast == expected
    assert recover_batch([(digest, signature)]) == [expected]


@pytest.mark.slow
@given(values=st.lists(st.integers(min_value=1, max_value=P - 1), max_size=20))
@settings(max_examples=100, deadline=None)
def test_batch_inverse_matches_pow_random(values):
    assert batch_inverse(values, P) == [pow(v, -1, P) for v in values]


@pytest.mark.slow
@given(
    seed=st.binary(min_size=1, max_size=16),
    r=st.integers(min_value=1, max_value=N - 1),
    s=st.integers(min_value=1, max_value=N >> 1),
)
@settings(max_examples=20, deadline=None)
def test_verify_matches_naive_on_valid_and_arbitrary_signatures(seed, r, s):
    digest = keccak256(seed)
    keypair = KeyPair.from_seed(seed)
    public = keypair.public.point
    good = sign(digest, keypair.private.secret)
    assert verify(digest, good, public) and _verify_naive(digest, good, public)
    garbage = Signature(r, s, 0)
    assert verify(digest, garbage, public) == _verify_naive(digest, garbage, public)
