"""The LRU signature-verification cache (repro.crypto.sigcache)."""

import pytest

from repro.core import TokenType
from repro.crypto.ecdsa import Signature, SignatureError
from repro.crypto.keccak import keccak256
from repro.crypto.keys import KeyPair, recover_address
from repro.crypto import sigcache
from repro.crypto.secp256k1 import N
from repro.crypto.sigcache import SignatureCache

KEYPAIR = KeyPair.from_seed("sigcache-key")
DIGEST = keccak256(b"sigcache-digest")


def _signature_for(cache, keypair, digest):
    return cache.signatures_for(keypair, [digest])[0]


def _memoize(cache, key, factory):
    return cache.memoize_many([key], lambda missing: [factory() for _ in missing])[0]


def test_signatures_for_matches_fresh_signing():
    cache = SignatureCache()
    cached = _signature_for(cache, KEYPAIR, DIGEST)
    assert cached == KEYPAIR.sign(DIGEST)  # RFC-6979 determinism
    assert _signature_for(cache, KEYPAIR, DIGEST) == cached
    assert cache.hits == 1 and cache.misses == 1
    # Signing primed the recovery side: no curve math needed to verify it.
    assert cache.peek_recovery(DIGEST, cached) == KEYPAIR.address


def test_signature_memo_is_keyed_by_signer():
    cache = SignatureCache()
    other = KeyPair.from_seed("sigcache-other")
    assert _signature_for(cache, KEYPAIR, DIGEST) != _signature_for(cache, other, DIGEST)


def test_recovery_matches_direct_recovery_and_caches():
    cache = SignatureCache()
    signature = KEYPAIR.sign(DIGEST)
    assert recover_address(DIGEST, signature) == KEYPAIR.address
    assert cache.peek_recovery(DIGEST, signature) is None
    assert cache.recovery_matches(DIGEST, signature, KEYPAIR.address)
    assert cache.peek_recovery(DIGEST, signature) == KEYPAIR.address
    assert cache.recovery_matches(DIGEST, signature, KEYPAIR.address)
    assert (cache.hits, cache.misses) == (1, 1)


def test_unrecoverable_signatures_are_refused_and_the_refusal_is_cached():
    cache = SignatureCache()
    bogus = Signature(r=2**200, s=2**200, v=0)  # r is no curve abscissa mod N
    assert not cache.recovery_matches(DIGEST, bogus, KEYPAIR.address)
    assert not cache.recovery_matches(DIGEST, bogus, KEYPAIR.address)
    assert cache.hits == 1  # the refusal itself was memoised
    assert cache.peek_recovery(DIGEST, bogus) is None  # it names no signer


def test_digest_for_matches_keccak():
    cache = SignatureCache()
    assert cache.digest_for(b"datagram") == keccak256(b"datagram")
    assert cache.digest_for(b"datagram") == keccak256(b"datagram")
    assert cache.hits == 1


def test_memoize_many_calls_the_factory_once():
    cache = SignatureCache()
    calls = []

    def factory(missing):
        calls.append(list(missing))
        return ["token"] * len(missing)

    assert cache.memoize_many([("k",)], factory) == ["token"]
    assert cache.memoize_many([("k",), ("k",)], factory) == ["token", "token"]
    assert calls == [[("k",)]]


def test_lru_eviction_bounds_each_table():
    cache = SignatureCache(maxsize=4)
    for i in range(10):
        cache.digest_for(bytes([i]))
    assert len(cache) == 4
    # The oldest entry was evicted: recomputing it is a miss again.
    misses_before = cache.misses
    cache.digest_for(bytes([0]))
    assert cache.misses == misses_before + 1


def test_stats_of_a_used_and_a_fresh_cache():
    cache = SignatureCache()
    cache.digest_for(b"x")
    cache.digest_for(b"x")
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["hit_rate"] == 0.5
    assert stats["digest_entries"] == 1
    fresh = SignatureCache()
    assert len(fresh) == 0 and fresh.hit_rate == 0.0


def test_known_key_memo_shows_in_stats_and_a_fresh_cache_knows_no_key():
    cache = SignatureCache()
    signature = KEYPAIR.sign(DIGEST)
    for _ in range(3):
        assert cache.signed_by(DIGEST, signature, KEYPAIR.address)
    stats = cache.stats()
    assert (stats["known_keys"], stats["key_checks"], stats["key_builds"]) == (1, 2, 1)
    stats = SignatureCache().stats()
    assert (stats["known_keys"], stats["key_checks"], stats["key_builds"]) == (0, 0, 0)


def test_invalid_maxsize_rejected():
    with pytest.raises(ValueError):
        SignatureCache(maxsize=0)


def test_verifier_path_uses_the_engine_cache(chain, alice, alice_wallet, recorder):
    """A token verified on-chain warms the engine's ecrecover memo."""
    engine_cache = chain.evm.signature_cache
    lookups_before = engine_cache.hits + engine_cache.misses
    token = alice_wallet.request_token(recorder, TokenType.METHOD, "submit")
    first = alice.transact(recorder, "submit", 3, token=token.to_bytes())
    assert first.success, first.error
    assert engine_cache.hits + engine_cache.misses > lookups_before
    hits_before = engine_cache.hits
    second = alice.transact(recorder, "submit", 4, token=token.to_bytes())
    assert second.success, second.error
    assert engine_cache.hits > hits_before  # same signature: recovery memoised


# --- digests_for: the element-wise loop, with the misses hashed by lanes ----------------


def _loop(cache, datagrams):
    return [cache.digest_for(datagram) for datagram in datagrams]


def _books(cache):
    """Counters, stats, and every table's entries in LRU order."""
    return cache.hits, cache.misses, cache.stats(), [
        list(table.items())
        for table in (cache._digests, cache._signatures, cache._recovered, cache._derived)
    ]


@pytest.mark.parametrize(
    "maxsize,warm,batch",
    [
        (64, [], [b"d%d" % i for i in range(40)]),  # cold
        (64, [b"d%d" % i for i in range(0, 40, 3)], [b"d%d" % i for i in range(40)]),  # warm
        (64, [b"d1"], [b"d0", b"d1", b"d0", b"d2", b"d2", b"d0"]),  # in-batch repeats
        (8, [b"d%d" % i for i in range(8)], [b"d%d" % (i % 21) for i in range(50)]),  # > maxsize
    ],
    ids=["cold", "warm", "repeats", "larger-than-maxsize"],
)
def test_digests_for_keeps_the_books_of_the_element_wise_loop(maxsize, warm, batch):
    batched, looped = SignatureCache(maxsize), SignatureCache(maxsize)
    for cache in (batched, looped):
        _loop(cache, warm)
    assert batched.digests_for(batch) == _loop(looped, batch) == [keccak256(d) for d in batch]
    assert _books(batched) == _books(looped)  # counters, stats, entries and LRU order
    assert batched.digests_for([]) == []
    # Riders are hashed and handed back, and the books cannot tell they rode --
    # not even a rider the table holds, or one the batch is about to store.
    riders = [b"rider", batch[0], b"d-unseen"]
    assert batched.digests_for(batch + [b"d-unseen"], riders) == _loop(
        looped, batch + [b"d-unseen"]
    ) + [keccak256(rider) for rider in riders]
    assert _books(batched) == _books(looped)
    assert batched.digests_for([], [b"rider"]) == [keccak256(b"rider")]
    assert _books(batched) == _books(looped)


def test_digests_for_hashes_only_the_misses_and_each_once(keccak_permutations, packed_permutations):
    cache = SignatureCache()
    cache.digest_for(b"held" * 40)
    keccak_permutations[0] = 0
    batch = [b"held" * 40] + [bytes([i]) * 160 for i in range(32)] * 2
    cache.digests_for(batch, riders=[b"rider" * 40])
    # 32 distinct two-block misses in one packed state, the rider its 33rd
    # slot; the repeats and the held datagram are hits.
    assert (keccak_permutations[0], packed_permutations[0]) == (0, 2)
    assert (cache.hits, cache.misses) == (33, 1 + 32)
    assert b"rider" * 40 not in cache._digests


# --- signatures_for / memoize_many: the same contract, the misses signed / built together


_BATCH_CASES = pytest.mark.parametrize(
    "maxsize,warm,batch",
    [
        (64, [], list(range(40))),
        (64, list(range(0, 40, 3)), list(range(40))),
        (64, [1], [0, 1, 0, 2, 2, 0]),
        (8, list(range(8)), [i % 21 for i in range(50)]),
    ],
    ids=["cold", "warm", "repeats", "larger-than-maxsize"],
)


@_BATCH_CASES
def test_signatures_for_keeps_the_books_of_the_element_wise_loop(maxsize, warm, batch):
    digest = lambda i: keccak256(b"sig-%d" % i)  # noqa: E731
    batched, looped = SignatureCache(maxsize), SignatureCache(maxsize)
    for cache in (batched, looped):
        for i in warm:
            _signature_for(cache, KEYPAIR, digest(i))
    digests = [digest(i) for i in batch]
    assert (
        batched.signatures_for(KEYPAIR, digests)
        == [_signature_for(looped, KEYPAIR, d) for d in digests]
        == [KEYPAIR.sign(d) for d in digests]
    )
    assert _books(batched) == _books(looped)  # the primed recoveries too
    assert batched.signatures_for(KEYPAIR, []) == []
    # Riders are signed and handed back; nothing of them is memoized or primed.
    riders = [keccak256(b"rider"), digests[0]]
    assert batched.signatures_for(KEYPAIR, digests, riders) == [
        _signature_for(looped, KEYPAIR, d) for d in digests
    ] + [KEYPAIR.sign(d) for d in riders]
    assert _books(batched) == _books(looped)


@_BATCH_CASES
def test_memoize_many_keeps_the_books_of_the_element_wise_loop(maxsize, warm, batch):
    batched, looped = SignatureCache(maxsize), SignatureCache(maxsize)
    for cache in (batched, looped):
        for i in warm:
            _memoize(cache, ("k", i), lambda: f"value-{i}")
    keys = [("k", i) for i in batch]
    built = []

    def factory(missing):
        built.append(list(missing))
        return [f"value-{i}" for _, i in missing]

    ahead = batched.unmemoized(keys)  # a look ahead moves nothing
    assert _books(batched) == _books(looped)
    assert batched.memoize_many(keys, factory) == [
        _memoize(looped, key, lambda: f"value-{key[1]}") for key in keys
    ]
    assert built[0] == ahead
    assert _books(batched) == _books(looped)
    # One call for every distinct key the memo did not hold, each once; only
    # an entry this very batch evicted is rebuilt alone, as the loop would.
    assert built[0] == list(dict.fromkeys(k for k in keys if k[1] not in warm))
    assert all(len(alone) == 1 for alone in built[1:])
    assert (len(built) > 1) == (maxsize < len(set(batch)))


def test_signatures_for_signs_the_misses_in_one_block(monkeypatch):
    cache = SignatureCache()
    held = keccak256(b"held")
    _signature_for(cache, KEYPAIR, held)
    blocks = []
    sign_batch = KeyPair.sign_batch

    def counting(self, digests):
        blocks.append(list(digests))
        return sign_batch(self, digests)

    monkeypatch.setattr(KeyPair, "sign_batch", counting)
    monkeypatch.setattr(KeyPair, "sign", lambda *_: pytest.fail("a miss signed alone"))
    fresh = [keccak256(b"fresh-%d" % i) for i in range(5)]
    riders = [keccak256(b"rider"), held]
    signatures = cache.signatures_for(KEYPAIR, [held] + fresh + fresh[:2], riders)
    assert blocks == [fresh + riders]  # the riders close the misses' block
    assert (cache.hits, cache.misses) == (1 + 2, 1 + 5)  # held + the repeats; warm-up + fresh
    assert all(KEYPAIR.verify(d, s) for d, s in zip(riders, signatures[-2:]))
    assert cache.peek_recovery(riders[0], signatures[-2]) is None
    # A block that raises (the Token Service's session check does) stores nothing.
    books = _books(cache)
    monkeypatch.setattr(KeyPair, "sign_batch", lambda *_: pytest.fail("refused"))
    with pytest.raises(pytest.fail.Exception):
        cache.signatures_for(KEYPAIR, [keccak256(b"never")], riders)
    assert _books(cache) == books


# --- known senders: signed_by ------------------------------------------------------


def _parent_check(digest, signature, address) -> bool:
    """What admission ran before the memo: ``Transaction.verify_signature``."""
    try:
        return recover_address(digest, signature) == address
    except SignatureError:
        return False


def test_signed_by_costs_a_recovery_then_a_build_then_only_checks(curve_multiplications):
    cache = SignatureCache()
    digests = [keccak256(b"sight-%d" % i) for i in range(5)]
    signatures = [KEYPAIR.sign(d) for d in digests]
    counts = curve_multiplications
    counts.clear()
    assert cache.signed_by(digests[0], signatures[0], KEYPAIR.address)
    assert counts == {"ladders": 1, "lifts": 1}  # the parent's work, nothing built
    counts.clear()
    assert cache.signed_by(digests[1], signatures[1], KEYPAIR.address)
    assert counts == {"builds": 1, "prepared": 1}
    counts.clear()
    for digest, signature in zip(digests[2:], signatures[2:]):
        assert cache.signed_by(digest, signature, KEYPAIR.address)
    assert counts == {"prepared": 3}  # no ladder, no build, no square root
    assert (cache.key_checks, cache.key_builds) == (4, 1)


def test_a_forgery_under_a_known_name_is_refused_by_the_check_alone(curve_multiplications):
    cache = SignatureCache()
    forger = KeyPair.from_seed("sigcache-forger")
    for i in range(2):
        digest = keccak256(b"warm-%d" % i)
        assert cache.signed_by(digest, KEYPAIR.sign(digest), KEYPAIR.address)
    known = dict(cache._keys)
    curve_multiplications.clear()
    assert not cache.signed_by(DIGEST, forger.sign(DIGEST), KEYPAIR.address)
    assert curve_multiplications == {"prepared": 1}  # final: no fallback recovery
    assert dict(cache._keys) == known
    # ... and the real sender is still recognised afterwards.
    assert cache.signed_by(DIGEST, KEYPAIR.sign(DIGEST), KEYPAIR.address)


def test_only_a_signature_that_matched_teaches_the_memo_a_key():
    cache = SignatureCache()
    victim = KeyPair.from_seed("sigcache-victim")
    signature = KEYPAIR.sign(DIGEST)  # valid -- by KEYPAIR, not by the victim
    assert not cache.signed_by(DIGEST, signature, victim.address)
    assert cache.stats()["known_keys"] == 0  # neither key was learned
    assert not cache.signed_by(DIGEST, Signature(2**200, 2**200, 0), victim.address)
    assert cache.stats()["known_keys"] == 0
    assert cache.signed_by(DIGEST, victim.sign(DIGEST), victim.address)
    assert list(cache._keys) == [victim.address]


def test_signed_by_answers_like_the_parent_on_the_mutation_set():
    cache = SignatureCache()
    other = KeyPair.from_seed("sigcache-other")
    digest = keccak256(b"mutations")
    good = KEYPAIR.sign(digest)
    cases = [
        (digest, good, KEYPAIR.address),
        (digest, Signature(good.r, good.s, good.v ^ 1), KEYPAIR.address),
        (digest, Signature(good.r, N - good.s, good.v ^ 1), KEYPAIR.address),  # high-s twin
        (digest, Signature(good.r, N - good.s, good.v), KEYPAIR.address),
        (DIGEST, good, KEYPAIR.address),
        (digest, other.sign(digest), KEYPAIR.address),
        (digest, good, other.address),
        (b"short", good, KEYPAIR.address),
    ]
    expected = [_parent_check(*case) for case in cases]
    # Recovery has no low-s rule, so neither has admission: the twin is the sender's.
    assert expected == [True, False, True, False, False, False, False, False]
    for sight in range(3):  # unknown, known without a table, known with one
        assert [cache.signed_by(*case) for case in cases] == expected, sight


def test_the_memo_is_bounded_and_an_evicted_sender_is_a_first_sight_again(
    monkeypatch, curve_multiplications
):
    monkeypatch.setattr(sigcache, "KNOWN_KEY_CAPACITY", 4)
    cache = SignatureCache()
    senders = [KeyPair.from_seed(f"sigcache-churn-{i}") for i in range(40)]
    for sender in senders:
        assert cache.signed_by(DIGEST, sender.sign(DIGEST), sender.address)
        assert cache.stats()["known_keys"] <= 4
    assert list(cache._keys) == [sender.address for sender in senders[-4:]]
    assert cache.key_builds == 0  # nobody came back: the parent's work, no table
    curve_multiplications.clear()
    assert cache.signed_by(DIGEST, senders[0].sign(DIGEST), senders[0].address)
    assert curve_multiplications == {"ladders": 1, "lifts": 1}
    # Least recently *seen*, not least recently learned, goes first.
    assert cache.signed_by(DIGEST, senders[-3].sign(DIGEST), senders[-3].address)
    newcomer = KeyPair.from_seed("sigcache-churn-new")
    assert cache.signed_by(DIGEST, newcomer.sign(DIGEST), newcomer.address)
    assert senders[-3].address in cache._keys and senders[-2].address not in cache._keys


def test_signed_by_moves_no_lookup_counter_and_no_length():
    """The frozen ledger reads ``hits`` / ``misses`` / ``len()`` for
    ``crypto.sigcache.*``: the key memo is not a lookup of a cached answer."""
    cache = SignatureCache()
    cache.digest_for(b"x")
    cache.digest_for(b"x")
    before = (cache.hits, cache.misses, len(cache))
    for i in range(3):
        digest = keccak256(b"quiet-%d" % i)
        assert cache.signed_by(digest, KEYPAIR.sign(digest), KEYPAIR.address)
    assert not cache.signed_by(DIGEST, KEYPAIR.sign(DIGEST), b"\x11" * 20)
    assert (cache.hits, cache.misses, len(cache)) == before


def _footprint(obj, seen) -> int:
    """``sys.getsizeof`` summed over every distinct object reachable from ``obj``."""
    import sys

    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, (list, tuple)):
        size += sum(_footprint(item, seen) for item in obj)
    return size


def test_a_prepared_key_is_at_most_12_kb_and_a_full_memo_that_times_its_capacity(monkeypatch):
    from repro.crypto.secp256k1 import prepare_point

    per_key = 12 * 1024
    assert _footprint(prepare_point(KEYPAIR.public.point), set()) <= per_key
    assert sigcache.KNOWN_KEY_CAPACITY == 1024  # Fig. 6's whitelist: <= 12 MB when full
    monkeypatch.setattr(sigcache, "KNOWN_KEY_CAPACITY", 6)
    cache = SignatureCache()
    for i in range(8):
        sender = KeyPair.from_seed(f"sigcache-footprint-{i}")
        for _ in range(2):  # twice: every resident key carries its table
            assert cache.signed_by(DIGEST, sender.sign(DIGEST), sender.address)
    assert cache.stats()["known_keys"] == 6
    assert _footprint(list(cache._keys.values()), set()) <= 6 * per_key


# --- recovery_matches: Alg. 1's question of a token signature, memoized ---------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

TRUSTED = KeyPair.from_seed("sigcache-trusted-ts")
RETIRED = KeyPair.from_seed("sigcache-retired-ts")  # the trusted address before / after a change
FORGER = KeyPair.from_seed("sigcache-forger")


def _wire(signature: Signature, v_byte: int) -> Signature:
    """The signature as a token carrying recovery byte ``v_byte`` decodes it."""
    return Signature.from_bytes(signature.to_bytes()[:64] + bytes([v_byte]))


def _no_abscissa() -> int:
    from repro.crypto.secp256k1 import lift_x

    for r in range(2, 64):
        try:
            lift_x(r, False)
        except ValueError:
            return r
    raise AssertionError("no small non-abscissa")


def _token_signatures() -> list:
    """(digest, signature) pairs: genuine, forged, mauled and unrecoverable."""
    pairs = []
    for i in range(3):
        digest = keccak256(b"alg1-%d" % i)
        good = TRUSTED.sign(digest)
        pairs += [
            (digest, good),
            (digest, _wire(good, 27 + good.v)),                       # Ethereum's v
            (digest, _wire(good, 28 - good.v)),                       # ... flipped
            (digest, Signature(good.r, good.s, good.v ^ 1)),
            (digest, Signature(good.r, N - good.s, good.v ^ 1)),      # high-s twin
            (digest, Signature(good.r, N - good.s, good.v)),
            (digest, RETIRED.sign(digest)),
            (digest, FORGER.sign(digest)),                            # forged under the trusted address
            (keccak256(b"alg1-stolen-%d" % i), good),                 # another origin's datagram
            (digest, Signature(_no_abscissa(), good.s, i & 1)),
            (digest, Signature(good.r, 2**200 + i, good.v)),
        ]
    return pairs


TOKEN_SIGNATURES = _token_signatures()
ADDRESSES = [TRUSTED.address, RETIRED.address]


def _recover_or_none(digest, signature):
    try:
        return recover_address(digest, signature)
    except SignatureError:
        return None


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.sampled_from([0, 1, 2, 1024]),
    maxsize=st.sampled_from([2, 4096]),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["matches", "matches", "matches", "signed_by", "peek"]),
            st.integers(0, len(TOKEN_SIGNATURES) - 1),
            st.integers(0, 1),
        ),
        min_size=1,
        max_size=14,
    ),
)
def test_recovery_matches_is_recover_and_compare_on_every_sight(capacity, maxsize, steps):
    """First sight, second, every later one, after the key (capacity) or the
    answer (maxsize) was evicted, after the trusted address changed, and with
    the known-key check / the peeks interleaved: always the parent's verdict."""
    original = sigcache.KNOWN_KEY_CAPACITY
    sigcache.KNOWN_KEY_CAPACITY = capacity
    try:
        cache = SignatureCache(maxsize=maxsize)
        for action, which, trusted in steps:
            digest, signature = TOKEN_SIGNATURES[which]
            address = ADDRESSES[trusted]
            expected = _parent_check(digest, signature, address)
            if action == "matches":
                assert cache.recovery_matches(digest, signature, address) is expected
                assert cache.peek_recovery_matches(digest, signature, address) is expected
            elif action == "signed_by":
                assert cache.signed_by(digest, signature, address) is expected
            else:
                assert cache.peek_recovery_matches(digest, signature, address) in (None, expected)
                assert cache.peek_recovery(digest, signature) in (
                    None, _recover_or_none(digest, signature),
                )
            assert cache.stats()["known_keys"] <= capacity
    finally:
        sigcache.KNOWN_KEY_CAPACITY = original


def test_recovery_matches_costs_a_recovery_a_build_then_only_checks(curve_multiplications):
    """N distinct tokens under one trusted key: 1 plain recovery + 1 table
    build + (N - 1) fixed-base checks; a repeat of any of them costs nothing."""
    cache = SignatureCache()
    digests = [keccak256(b"token-%d" % i) for i in range(6)]
    pairs = [(digest, TRUSTED.sign(digest)) for digest in digests]
    curve_multiplications.clear()
    for digest, signature in pairs:
        assert cache.recovery_matches(digest, signature, TRUSTED.address)
    assert curve_multiplications == {"ladders": 1, "lifts": 1, "builds": 1, "prepared": 5}
    assert (cache.key_builds, cache.key_checks, cache.misses, cache.hits) == (1, 5, 6, 0)
    curve_multiplications.clear()
    for digest, signature in pairs:
        assert cache.recovery_matches(digest, signature, TRUSTED.address)
        assert cache.peek_recovery(digest, signature) == TRUSTED.address  # today's entry
    assert not curve_multiplications
    assert (cache.misses, cache.hits) == (6, 6)


def test_a_match_is_stored_as_the_entry_issuance_would_have_primed():
    primed, learned = SignatureCache(), SignatureCache()
    signature = TRUSTED.sign(DIGEST)
    primed.prime_recovery(DIGEST, signature, TRUSTED.address)
    assert learned.recovery_matches(DIGEST, signature, TRUSTED.address)
    assert learned._recovered == primed._recovered
    assert primed.recovery_matches(DIGEST, signature, TRUSTED.address)  # a hit: no curve math
    assert (primed.hits, primed.misses, primed.stats()["known_keys"]) == (1, 0, 0)


def test_a_refusal_answers_only_its_own_question_and_a_match_overwrites_it(
    curve_multiplications,
):
    cache = SignatureCache()
    forged = FORGER.sign(DIGEST)
    assert not cache.recovery_matches(DIGEST, forged, TRUSTED.address)
    # Cached: asking again costs nothing and says the same.
    curve_multiplications.clear()
    assert not cache.recovery_matches(DIGEST, forged, TRUSTED.address)
    assert cache.peek_recovery_matches(DIGEST, forged, TRUSTED.address) is False
    assert not curve_multiplications
    # "Not the trusted service" names no signer ...
    assert cache.peek_recovery(DIGEST, forged) is None
    # ... and says nothing about any other address, the forger's own included.
    assert cache.peek_recovery_matches(DIGEST, forged, RETIRED.address) is None
    assert cache.peek_recovery_matches(DIGEST, forged, FORGER.address) is None
    before = (cache.hits, cache.misses)
    assert cache.recovery_matches(DIGEST, forged, FORGER.address)
    assert (cache.hits, cache.misses) == (before[0], before[1] + 1)  # a miss: curve math ran
    # The match names the real signer and takes the refusal's entry over ...
    assert cache.peek_recovery(DIGEST, forged) == FORGER.address
    assert len(cache._recovered) == 1  # overwritten in place, not added beside
    # ... which still answers the trusted address's question: no.
    assert cache.peek_recovery_matches(DIGEST, forged, TRUSTED.address) is False
    assert not cache.recovery_matches(DIGEST, forged, TRUSTED.address)


def test_a_forger_never_plants_a_key_under_the_trusted_address():
    """Only a signature that fully recovered to the address teaches the memo
    its key: forgeries, however many, teach nothing and are refused each time."""
    cache = SignatureCache()
    for i in range(6):
        digest = keccak256(b"planted-%d" % i)
        assert not cache.recovery_matches(digest, FORGER.sign(digest), TRUSTED.address)
        assert not cache.recovery_matches(digest, Signature(2**200 + i, 2**200, 0), TRUSTED.address)
        stats = cache.stats()
        assert (stats["known_keys"], stats["key_builds"], stats["key_checks"]) == (0, 0, 0)
    genuine = [keccak256(b"genuine-%d" % i) for i in range(2)]
    for digest in genuine:
        assert cache.recovery_matches(digest, TRUSTED.sign(digest), TRUSTED.address)
    assert list(cache._keys) == [TRUSTED.address] and cache.key_builds == 1
    # Known now: a forgery is refused by the fixed-base check and changes nothing.
    assert not cache.recovery_matches(DIGEST, FORGER.sign(DIGEST), TRUSTED.address)
    assert list(cache._keys) == [TRUSTED.address] and cache.key_builds == 1
