"""The LRU signature-verification cache (repro.crypto.sigcache)."""

import pytest

from repro.core import TokenType
from repro.crypto.ecdsa import Signature
from repro.crypto.keccak import keccak256
from repro.crypto.keys import KeyPair, recover_address
from repro.crypto.sigcache import DEFAULT_SIGNATURE_CACHE, SignatureCache

KEYPAIR = KeyPair.from_seed("sigcache-key")
DIGEST = keccak256(b"sigcache-digest")


def test_signature_for_matches_fresh_signing():
    cache = SignatureCache()
    cached = cache.signature_for(KEYPAIR, DIGEST)
    assert cached == KEYPAIR.sign(DIGEST)  # RFC-6979 determinism
    assert cache.signature_for(KEYPAIR, DIGEST) == cached
    assert cache.hits == 1 and cache.misses == 1


def test_signature_memo_is_keyed_by_signer():
    cache = SignatureCache()
    other = KeyPair.from_seed("sigcache-other")
    assert cache.signature_for(KEYPAIR, DIGEST) != cache.signature_for(other, DIGEST)


def test_recover_matches_direct_recovery_and_caches():
    cache = SignatureCache()
    signature = KEYPAIR.sign(DIGEST)
    expected = recover_address(DIGEST, signature)
    assert cache.recover(DIGEST, signature) == expected == KEYPAIR.address
    assert cache.recover(DIGEST, signature) == expected
    assert cache.hits == 1


def test_unrecoverable_signatures_return_none_and_are_cached():
    cache = SignatureCache()
    # A syntactically valid signature that does not recover for this digest
    # on the flipped parity; brute-force one that actually fails to recover.
    bogus = Signature(r=2**200, s=2**200, v=0)
    first = cache.recover(DIGEST, bogus)
    second = cache.recover(DIGEST, bogus)
    assert first == second
    assert cache.hits == 1  # the failure itself was memoised


def test_digest_for_matches_keccak():
    cache = SignatureCache()
    assert cache.digest_for(b"datagram") == keccak256(b"datagram")
    assert cache.digest_for(b"datagram") == keccak256(b"datagram")
    assert cache.hits == 1


def test_memoize_calls_factory_once():
    cache = SignatureCache()
    calls = []

    def factory():
        calls.append(1)
        return "token"

    assert cache.memoize(("k",), factory) == "token"
    assert cache.memoize(("k",), factory) == "token"
    assert calls == [1]


def test_lru_eviction_bounds_each_table():
    cache = SignatureCache(maxsize=4)
    for i in range(10):
        cache.digest_for(bytes([i]))
    assert len(cache) == 4
    # The oldest entry was evicted: recomputing it is a miss again.
    misses_before = cache.misses
    cache.digest_for(bytes([0]))
    assert cache.misses == misses_before + 1


def test_stats_and_clear():
    cache = SignatureCache()
    cache.digest_for(b"x")
    cache.digest_for(b"x")
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["hit_rate"] == 0.5
    assert stats["digest_entries"] == 1
    cache.clear()
    assert len(cache) == 0 and cache.hit_rate == 0.0


def test_invalid_maxsize_rejected():
    with pytest.raises(ValueError):
        SignatureCache(maxsize=0)


def test_default_cache_is_shared_with_the_execution_engine():
    from repro.chain.evm import ExecutionEngine

    assert ExecutionEngine().signature_cache is DEFAULT_SIGNATURE_CACHE
    private = SignatureCache()
    assert ExecutionEngine(signature_cache=private).signature_cache is private


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


# --- batched recovery ---------------------------------------------------------


def test_recover_batch_matches_singles_and_caches():
    cache = SignatureCache()
    digests = [keccak256(b"batch-%d" % i) for i in range(6)]
    pairs = [(d, KEYPAIR.sign(d)) for d in digests]
    results = cache.recover_batch(pairs)
    assert results == [KEYPAIR.address] * len(pairs)
    # Everything landed in the cache: a second batch is pure hits.
    hits_before = cache.hits
    assert cache.recover_batch(pairs) == results
    assert cache.hits == hits_before + len(pairs)
    # And the single-call path sees the same entries.
    assert cache.recover(*pairs[0]) == KEYPAIR.address


def test_recover_batch_mixes_hits_misses_and_failures():
    cache = SignatureCache()
    good = KEYPAIR.sign(DIGEST)
    cache.recover(DIGEST, good)  # pre-warm one entry
    other_digest = keccak256(b"other")
    bad = Signature(12345, 67890, 1)
    results = cache.recover_batch(
        [(DIGEST, good), (other_digest, KEYPAIR.sign(other_digest)), (DIGEST, bad)]
    )
    assert results[0] == KEYPAIR.address
    assert results[1] == KEYPAIR.address
    assert results[2] != KEYPAIR.address  # forged: None or a different signer
    # Failures are cached too: repeating the bad entry is a hit, not curve work.
    hits_before = cache.hits
    again = cache.recover_batch([(DIGEST, bad)])
    assert again == [results[2]]
    assert cache.hits == hits_before + 1


def test_recover_batch_deduplicates_replayed_pairs():
    cache = SignatureCache()
    signature = KEYPAIR.sign(DIGEST)
    results = cache.recover_batch([(DIGEST, signature)] * 5)
    assert results == [KEYPAIR.address] * 5
    # Same counters as five single recover() calls: one miss, then hits.
    assert (cache.misses, cache.hits) == (1, 4)
    assert cache.recover(DIGEST, signature) == KEYPAIR.address


def test_recover_batch_empty():
    assert SignatureCache().recover_batch([]) == []


# --- digests_for: the element-wise loop, with the misses hashed by lanes ----------------


def _loop(cache, datagrams):
    return [cache.digest_for(datagram) for datagram in datagrams]


def _books(cache):
    return cache.hits, cache.misses, cache.stats(), list(cache._digests.items())


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


def test_digests_for_hashes_only_the_misses_and_each_once(keccak_permutations, packed_permutations):
    cache = SignatureCache()
    cache.digest_for(b"held" * 40)
    keccak_permutations[0] = 0
    batch = [b"held" * 40] + [bytes([i]) * 160 for i in range(32)] * 2
    cache.digests_for(batch)
    # 32 distinct two-block misses in one packed state; the repeats and the
    # held datagram are hits.
    assert (keccak_permutations[0], packed_permutations[0]) == (0, 2)
    assert (cache.hits, cache.misses) == (33, 1 + 32)
