"""The batched, sharded Token Service front end (repro.core.batch_service)."""

import pytest

from repro.api import issue_one
from repro.core import BatchTokenService, ClientWallet, OwnerWallet, TokenType
from repro.core.acr import RuleSet
from repro.core.batch_service import IndexBlockAllocator, ShardCounter
from repro.core.token import Token
from repro.core.token_request import TokenRequest
from repro.core.token_service import TokenService, build_fig6_ruleset
from repro.contracts.protected_target import ProtectedRecorder
from repro.crypto.keys import KeyPair
from repro.crypto.sigcache import SignatureCache

CONTRACT = KeyPair.from_seed("batch-contract").address
CLIENTS = [KeyPair.from_seed(f"batch-client-{i}").address for i in range(6)]


def _service(shards: int = 4, **kwargs) -> BatchTokenService:
    kwargs.setdefault("signature_cache", SignatureCache())
    return BatchTokenService(
        keypair=KeyPair.from_seed("batch-ts"), rules=RuleSet(), shards=shards, **kwargs
    )


def _one_time_requests(count: int) -> list:
    return [
        TokenRequest.method_token(CONTRACT, CLIENTS[i % len(CLIENTS)], "submit",
                                  one_time=True)
        for i in range(count)
    ]


# --- sharded counters ---------------------------------------------------------


def test_block_allocator_leases_disjoint_ranges():
    allocator = IndexBlockAllocator(block_size=8)
    assert allocator.lease() == (0, 8)
    assert allocator.lease() == (8, 16)
    assert allocator.value == 16


def test_block_allocator_restore_never_reuses():
    allocator = IndexBlockAllocator(block_size=8)
    allocator.lease()
    allocator.restore(4)  # stale checkpoint below the live position: ignored
    assert allocator.lease() == (8, 16)
    allocator.restore(100)
    assert allocator.lease() == (100, 108)


def test_shard_counters_issue_globally_unique_indexes():
    allocator = IndexBlockAllocator(block_size=4)
    counters = [ShardCounter(allocator) for _ in range(3)]
    issued = [counters[i % 3].take(1)[0] for i in range(60)]
    assert len(set(issued)) == len(issued)


def test_shard_counter_range_spans_leases_like_single_takes():
    allocator = IndexBlockAllocator(block_size=4)
    a, b = ShardCounter(allocator), ShardCounter(allocator)
    assert a.take(2) == [0, 1]
    assert b.take(6) == [4, 5, 6, 7, 8, 9]
    assert a.take(5) == [2, 3, 12, 13, 14]
    assert b.take(0) == []
    # A range is its single takes, concatenated.
    c, d = ShardCounter(IndexBlockAllocator(block_size=4)), ShardCounter(
        IndexBlockAllocator(block_size=4)
    )
    assert c.take(11) == [d.take(1)[0] for _ in range(11)] == list(range(11))


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError):
        BatchTokenService(shards=0)
    with pytest.raises(ValueError):
        IndexBlockAllocator(block_size=0)


# --- batch issuance -----------------------------------------------------------


def test_batch_issuance_indexes_unique_across_shards_and_batches():
    service = _service(shards=4, index_block_size=8)
    indexes = []
    for _ in range(3):
        results = service.submit(_one_time_requests(40))
        assert all(result.issued for result in results)
        indexes.extend(result.token.index for result in results)
    assert len(set(indexes)) == len(indexes)
    assert service.issued_count == 120


@pytest.mark.parametrize("count", [0, 1, 9])
def test_a_batch_pays_one_session_and_it_rides_the_first_shards_pass(
    count, curve_multiplications
):
    """One session per batch whatever the shard count: the whole batch's
    session message is the last digest of the first shard's ``sign_batch``
    (alone in it when the batch is empty) and the batch's only verification."""
    from unittest import mock

    from repro.core.token_service import session_message
    from repro.crypto.keccak import keccak256

    service = _service(shards=4)
    requests = _one_time_requests(count)
    with mock.patch.object(
        KeyPair, "sign_batch", autospec=True, side_effect=KeyPair.sign_batch
    ) as blocks:
        assert all(result.issued for result in service.submit(requests))
    signed = [call.args[1] for call in blocks.call_args_list]
    dealt = [len(range(shard, count, 4)) + (shard == 0) for shard in range(4)]
    assert [len(digests) for digests in signed] == [size for size in dealt if size]
    assert signed[0][-1] == keccak256(session_message(requests))
    assert sum(curve_multiplications.values()) == 1
    assert service.batches_processed == 1


def test_result_order_matches_request_order():
    service = _service()
    requests = [
        TokenRequest.method_token(CONTRACT, client, "submit") for client in CLIENTS
    ]
    results = service.submit(requests)
    assert [result.request for result in results] == requests


def test_denials_are_reported_in_place_not_raised():
    whitelist = build_fig6_ruleset(CLIENTS[:2])
    service = BatchTokenService(
        keypair=KeyPair.from_seed("batch-ts"), rules=whitelist,
        signature_cache=SignatureCache(),
    )
    requests = [
        TokenRequest.method_token(CONTRACT, client, "submit") for client in CLIENTS[:4]
    ]
    results = service.submit(requests)
    assert [result.issued for result in results] == [True, True, False, False]
    assert service.denied_count == 2


# --- memoised issuance --------------------------------------------------------


def test_duplicate_requests_reuse_the_cached_token():
    cache = SignatureCache()
    service = _service(signature_cache=cache)
    request = TokenRequest.method_token(CONTRACT, CLIENTS[0], "submit")
    first, second = service.submit([request, request])
    assert first.token.to_bytes() == second.token.to_bytes()
    assert cache.hits > 0


def test_memoised_token_is_identical_to_uncached_issuance():
    plain = TokenService(keypair=KeyPair.from_seed("batch-ts"), rules=RuleSet())
    cached = _service(shards=1)
    cached.clock.advance(plain.clock.now() - cached.clock.now())
    request = TokenRequest.method_token(CONTRACT, CLIENTS[0], "submit")
    assert issue_one(plain, request).to_bytes() == issue_one(cached, request).to_bytes()


def test_clock_advance_invalidates_the_token_memo():
    service = _service(shards=1)
    request = TokenRequest.method_token(CONTRACT, CLIENTS[0], "submit")
    before = issue_one(service, request)
    service.clock.advance(60)
    after = issue_one(service, request)
    assert after.expire == before.expire + 60
    assert after.to_bytes() != before.to_bytes()


def test_one_time_duplicates_are_never_memoised():
    service = _service(shards=2)
    request = TokenRequest.method_token(CONTRACT, CLIENTS[0], "submit", one_time=True)
    results = service.submit([request] * 10)
    indexes = {result.token.index for result in results}
    assert len(indexes) == 10


# --- end to end against the chain ---------------------------------------------


def test_batch_issued_tokens_verify_on_chain(chain, owner, alice):
    service = BatchTokenService(
        keypair=KeyPair.from_seed("batch-onchain-ts"), rules=RuleSet(),
        clock=chain.clock, shards=3, signature_cache=SignatureCache(),
    )
    recorder = OwnerWallet(owner, service).deploy_protected(
        ProtectedRecorder, one_time_bitmap_bits=256
    ).return_value
    wallet = ClientWallet(alice, {recorder.this: service})

    token = wallet.request_token(recorder, TokenType.METHOD, "submit", one_time=True)
    assert isinstance(token, Token)
    first = alice.transact(recorder, "submit", 5, token=token.to_bytes())
    assert first.success, first.error
    # The one-time property still holds through the sharded pipeline.
    replay = alice.transact(recorder, "submit", 5, token=token.to_bytes())
    assert not replay.success


def test_whole_one_time_batch_spendable_when_bitmap_covers_dispersion(chain, owner, alice):
    """Shard-interleaved indexes must not be missed by the Alg. 2 window.

    Shards draw from different leased blocks, so a batch's indexes spread
    over up to ``max_index_dispersion`` positions; as long as the contract's
    bitmap covers that spread, every issued token must be accepted on-chain.
    """
    service = BatchTokenService(
        keypair=KeyPair.from_seed("batch-dispersion-ts"), rules=RuleSet(),
        clock=chain.clock, shards=4, signature_cache=SignatureCache(),
    )
    recorder = OwnerWallet(owner, service).deploy_protected(
        ProtectedRecorder, one_time_bitmap_bits=service.max_index_dispersion
    ).return_value
    requests = [
        TokenRequest.method_token(recorder.this, alice.address, "submit", one_time=True)
        for _ in range(20)
    ]
    for result in service.submit(requests):
        receipt = alice.transact(recorder, "submit", 1, token=result.token.to_bytes())
        assert receipt.success, (result.token.index, receipt.error)


def test_batch_issued_duplicate_non_one_time_tokens_all_verify(chain, owner, alice):
    service = BatchTokenService(
        keypair=KeyPair.from_seed("batch-onchain-ts"), rules=RuleSet(),
        clock=chain.clock, shards=2, signature_cache=SignatureCache(),
    )
    recorder = OwnerWallet(owner, service).deploy_protected(
        ProtectedRecorder, one_time_bitmap_bits=256
    ).return_value
    request = TokenRequest.method_token(recorder.this, alice.address, "submit")
    results = service.submit([request] * 3)
    for result in results:  # cached signature, still accepted by Alg. 1
        receipt = alice.transact(recorder, "submit", 7, token=result.token.to_bytes())
        assert receipt.success, receipt.error
