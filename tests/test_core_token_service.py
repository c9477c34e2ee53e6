"""Unit tests for the Token Service (issuance, rules, batching, persistence)."""

import json
from unittest import mock

import pytest

from repro.api import PROFILES, build_service, issue_one, try_issue_one
from repro.chain.clock import SimulatedClock
from repro.contracts.protected_target import ProtectedRecorder
from repro.core.acr import RuleSet, WhitelistRule
from repro.core.errors import ErrorCode, SmacsError
from repro.core.token import ONE_TIME_UNSET, TokenType
from repro.core.token_request import TokenRequest
from repro.core.token_service import (
    AUDIT_LOG_ENTRIES,
    DEFAULT_TOKEN_LIFETIME,
    TokenDenied,
    TokenService,
    _LocalCounter,
    build_fig6_ruleset,
    session_message,
)
from repro.core.wallet import OwnerWallet
from repro.crypto.keccak import keccak256
from repro.crypto.keys import KeyPair
from repro.crypto.sigcache import SignatureCache

ALICE = KeyPair.from_seed("ts-alice").address
EVE = KeyPair.from_seed("ts-eve").address
CONTRACT = KeyPair.from_seed("ts-contract").address


@pytest.fixture
def clock():
    return SimulatedClock(start=1_000_000)


@pytest.fixture
def service(clock):
    return TokenService(keypair=KeyPair.from_seed("ts-key"), clock=clock)


def test_address_is_derived_from_keypair(service):
    assert service.address == KeyPair.from_seed("ts-key").address
    assert service.address_hex.startswith("0x")


def test_issue_super_token_signed_and_timed(service, clock):
    token = issue_one(service, TokenRequest.super_token(CONTRACT, ALICE))
    assert token.token_type is TokenType.SUPER
    assert token.expire == clock.now() + DEFAULT_TOKEN_LIFETIME
    assert token.index == ONE_TIME_UNSET
    digest = token.digest_for(ALICE, CONTRACT)
    assert service.keypair.verify(digest, token.signature)


def test_issue_method_and_argument_tokens_bind_payload(service):
    method_token = issue_one(service, TokenRequest.method_token(CONTRACT, ALICE, "submit"))
    digest = method_token.digest_for(ALICE, CONTRACT, method="submit")
    assert service.keypair.verify(digest, method_token.signature)

    argument_token = issue_one(
        service,
        TokenRequest.argument_token(CONTRACT, ALICE, "submit", {"amount": 5})
    )
    good = argument_token.digest_for(ALICE, CONTRACT, method="submit", arguments={"amount": 5})
    bad = argument_token.digest_for(ALICE, CONTRACT, method="submit", arguments={"amount": 6})
    assert service.keypair.verify(good, argument_token.signature)
    assert not service.keypair.verify(bad, argument_token.signature)


def test_one_time_tokens_get_consecutive_indexes(service):
    indexes = [
        issue_one(service, TokenRequest.method_token(CONTRACT, ALICE, "m", one_time=True)).index
        for _ in range(5)
    ]
    assert indexes == [0, 1, 2, 3, 4]


def test_rules_deny_and_raise_with_reason(clock):
    rules = RuleSet()
    rules.add_rule(WhitelistRule([ALICE], name="sender-whitelist"))
    service = TokenService(keypair=KeyPair.from_seed("k"), rules=rules, clock=clock)
    issue_one(service, TokenRequest.super_token(CONTRACT, ALICE))
    with pytest.raises(TokenDenied) as excinfo:
        issue_one(service, TokenRequest.super_token(CONTRACT, EVE))
    assert "whitelist" in str(excinfo.value)
    assert service.issued_count == 1
    assert service.denied_count == 1


def test_try_issue_reports_instead_of_raising(clock):
    rules = RuleSet()
    rules.add_rule(WhitelistRule([ALICE]))
    service = TokenService(keypair=KeyPair.from_seed("k"), rules=rules, clock=clock)
    ok = try_issue_one(service, TokenRequest.super_token(CONTRACT, ALICE))
    denied = try_issue_one(service, TokenRequest.super_token(CONTRACT, EVE))
    assert ok.issued and ok.token is not None
    assert not denied.issued and denied.token is None
    assert not denied.decision.allowed


def test_submit_processes_batches(service):
    requests = [TokenRequest.method_token(CONTRACT, ALICE, "m") for _ in range(10)]
    results = service.submit(requests)
    assert len(results) == 10
    assert all(r.issued for r in results)
    single = service.submit(TokenRequest.super_token(CONTRACT, ALICE))
    assert len(single) == 1


def test_dynamic_rule_update_changes_decisions(service):
    request = TokenRequest.super_token(CONTRACT, EVE)
    assert try_issue_one(service, request).issued  # no rules yet
    service.update_rules(lambda rules: rules.add_rule(WhitelistRule([ALICE])))
    assert not try_issue_one(service, request).issued
    service.update_rules(lambda rules: rules.remove_rule("whitelist"))
    assert try_issue_one(service, request).issued


def test_token_lifetime_configuration(service, clock):
    service.set_token_lifetime(60)
    token = issue_one(service, TokenRequest.super_token(CONTRACT, ALICE))
    assert token.expire == clock.now() + 60
    with pytest.raises(ValueError):
        service.set_token_lifetime(0)


@pytest.mark.parametrize("lifetime", [0, -60])
def test_a_token_lifetime_that_is_not_positive_is_refused_at_construction(
    clock, tmp_path, lifetime
):
    keypair = KeyPair.from_seed("ts-key")
    with pytest.raises(ValueError, match="token lifetime must be positive"):
        TokenService(keypair=keypair, clock=clock, token_lifetime=lifetime)
    for profile in PROFILES:
        with pytest.raises(ValueError, match="token lifetime must be positive"):
            build_service(profile, keypair=keypair, clock=clock, token_lifetime=lifetime)
    # ... and when a checkpoint carries it.
    path = tmp_path / "ts.json"
    TokenService(keypair=keypair, clock=clock, storage_path=path).update_rules(lambda rules: None)
    state = json.loads(path.read_text())
    path.write_text(json.dumps({**state, "token_lifetime": lifetime}))
    with pytest.raises(ValueError, match="token lifetime must be positive"):
        TokenService(keypair=keypair, clock=clock, storage_path=path)


def test_audit_log_records_outcomes(clock):
    rules = RuleSet()
    rules.add_rule(WhitelistRule([ALICE]))
    service = TokenService(keypair=KeyPair.from_seed("k"), rules=rules, clock=clock)
    try_issue_one(service, TokenRequest.super_token(CONTRACT, ALICE))
    try_issue_one(service, TokenRequest.super_token(CONTRACT, EVE))
    log = service.audit_log()
    assert len(log) == 2
    assert log[0][2] == "issued"
    assert log[1][2].startswith("denied")


def test_audit_log_is_bounded_and_keeps_the_newest_entries_last(service):
    reusable = TokenRequest.method_token(CONTRACT, ALICE, "m")
    for _ in range(AUDIT_LOG_ENTRIES // 64 + 1):
        service.submit([reusable] * 64)
    assert service.issued_count > AUDIT_LOG_ENTRIES
    assert len(service.audit_log()) == AUDIT_LOG_ENTRIES
    service.submit(TokenRequest.super_token(CONTRACT, EVE, one_time=True))
    log = service.audit_log()
    assert len(log) == AUDIT_LOG_ENTRIES
    assert "super token" in log[-1][1] and "one-time" in log[-1][1]
    assert "method token" in log[0][1]


@pytest.mark.parametrize("cache", [None, SignatureCache], ids=["no-cache", "cache"])
def test_single_request_tokens_are_byte_identical_to_the_per_token_path(cache):
    """Pinned from the commit before issuance was staged: fixed key, clock
    and counter start, one request per submission."""
    service = TokenService(
        keypair=KeyPair.from_seed("pinned-token-key"),
        clock=SimulatedClock(start=1_600_000_000),
        counter=_LocalCounter(start=41),
        signature_cache=cache() if cache else None,
    )
    contract, client = bytes(range(20)), bytes(range(20, 40))
    requests = [
        TokenRequest.argument_token(contract, client, "submit", {"amount": 7}, one_time=True),
        TokenRequest.method_token(contract, client, "submit"),
        TokenRequest.super_token(contract, client, one_time=True),
    ]
    tokens = [service.submit(request)[0].token.to_bytes().hex() for request in requests]
    assert tokens == [
        "025f5e1e1000000000000000000000000000000029"
        "a73160f34cce046b6d76267d1438fd4b91fea66d4877b871ce19794bc13feb02"
        "423d824f4b73e797428110b4a15532ca865852e6a113da2e8bfe6881db493acb01",
        "035f5e1e10ffffffffffffffffffffffffffffffff"
        "06cf58a058f87d585bd299e4f02308628576f949c59c56bf4d2e870f81679d9c"
        "4c87f13520f14e6f3bcef8340dc7d2c47a91d4046bd3eaedea451cc41a02145500",
        "015f5e1e100000000000000000000000000000002a"
        "65fcc2e3f3a7ed048f0d62dbe7ec9284c4a44a9cc19e9b0f453a293b855eeb5f"
        "5b125fe2c9855f1b51264fa16759b2a34cef948aedbbacde74c28f1fc1014d8300",
    ]
    # The same three requests in one envelope: same bytes, one take.
    service.counter.restore(41)
    assert [r.token.to_bytes().hex() for r in service.submit(requests)] == tokens
    # A repeated reusable request: with a cache it is the memoised token (a
    # hit), and a memoised token is the uncached bytes above.
    hits = service.signature_cache.hits if cache else 0
    assert service.submit(requests[1])[0].token.to_bytes().hex() == tokens[1]
    if cache:
        assert service.signature_cache.hits == hits + 1


@pytest.mark.parametrize("cache", [None, SignatureCache], ids=["no-cache", "cache"])
def test_envelope_hashes_its_datagrams_by_lanes(cache, keccak_permutations, packed_permutations):
    """32 two-block argument datagrams are two packed permutations, not 64
    scalar ones -- and since the session message rides the same call, its
    first two blocks are the 33rd lane of those two: the scalar sponge sees
    only its last six (it was all eight, (8, 2), while the session was hashed
    ahead of the envelope)."""
    service = TokenService(
        keypair=KeyPair.from_seed("ts-key"),
        clock=SimulatedClock(start=1_000_000),
        signature_cache=cache() if cache else None,
    )
    requests = [
        TokenRequest.argument_token(CONTRACT, ALICE, "submit", {"amount": i}, one_time=True)
        for i in range(1, 33)
    ]
    assert len(session_message(requests)) // 136 + 1 == 8
    keccak_permutations[0] = 0
    results = service.submit(requests)
    assert all(result.issued for result in results)
    assert (keccak_permutations[0], packed_permutations[0]) == (6, 2)
    # One request per submission is a pair of one-block lanes -- the session
    # message and the datagram -- so it is one packed permutation and no
    # scalar one (it was two scalar ones, and "never reaches the packed
    # kernel" was this assertion).
    keccak_permutations[0] = packed_permutations[0] = 0
    assert service.submit(TokenRequest.method_token(CONTRACT, ALICE, "m", one_time=True))[0].issued
    assert (keccak_permutations[0], packed_permutations[0]) == (0, 1)


# --- reusable tokens staged per envelope: the per-request loop is the oracle ---------


def _twin_services(cache):
    def make():
        service = TokenService(
            keypair=KeyPair.from_seed("ts-key"),
            clock=SimulatedClock(start=1_000_000),
            counter=_LocalCounter(start=7),
            signature_cache=cache() if cache else None,
        )
        service.update_rules(lambda rules: rules.add_rule(WhitelistRule([ALICE])))
        return service

    return make(), make()


def _served_one_by_one(service, requests):
    """What the envelope must equal: denials and reusable requests served one
    request at a time in order, then the one-time requests as their block
    (how issuance ran before reusable requests were staged)."""
    results = [None] * len(requests)
    one_time = []
    for position, request in enumerate(requests):
        if request.one_time and service.check_rules(request).allowed:
            one_time.append(position)
        else:
            (results[position],) = service._issue([request])
    for position, result in zip(one_time, service._issue([requests[p] for p in one_time])):
        results[position] = result
    return results


def _outcome(result):
    return (
        result.request,
        result.token.to_bytes() if result.issued else None,
        result.decision,
        result.code,
    )


def _service_books(service):
    cache = service.signature_cache
    return (
        service.issued_count,
        service.denied_count,
        service.counter.value,
        service.audit_log(),
        cache is not None  # an empty cache is falsy
        and (
            cache.hits,
            cache.misses,
            cache.stats(),
            [
                list(table.items())
                for table in (cache._derived, cache._digests, cache._signatures, cache._recovered)
            ],
        ),
    )


def _mixed_envelope():
    method = TokenRequest.method_token(CONTRACT, ALICE, "submit")
    return [
        method,
        TokenRequest.argument_token(CONTRACT, ALICE, "submit", {"amount": 1}),
        TokenRequest.method_token(CONTRACT, EVE, "submit"),  # denied
        TokenRequest.super_token(CONTRACT, ALICE, one_time=True),
        method,  # an in-envelope repeat
        TokenRequest.argument_token(CONTRACT, ALICE, "submit", {"amount": 2}),
        TokenRequest.super_token(CONTRACT, EVE, one_time=True),  # denied
        TokenRequest.argument_token(CONTRACT, ALICE, "submit", {"amount": 1}),  # repeat
        TokenRequest.method_token(CONTRACT, ALICE, "other", one_time=True),
        TokenRequest.super_token(CONTRACT, ALICE),
    ] + [
        TokenRequest.argument_token(CONTRACT, ALICE, "submit", {"amount": i}) for i in range(3, 30)
    ]


@pytest.mark.parametrize("cache", [None, SignatureCache], ids=["no-cache", "cache"])
def test_staged_reusable_tokens_equal_the_per_request_loop(cache):
    staged, looped = _twin_services(cache)
    requests = _mixed_envelope()
    for _ in range(2):  # cold, then with every reusable token memoized
        results = staged._issue(requests)
        assert [_outcome(r) for r in results] == [
            _outcome(r) for r in _served_one_by_one(looped, requests)
        ]
        assert _service_books(staged) == _service_books(looped)
    assert [r.issued for r in results[:10]] == [
        True, True, False, True, True, True, False, True, True, True
    ]
    assert results[0].token == results[4].token and results[1].token == results[7].token
    # A warm envelope that adds three requests builds exactly those.
    requests = requests[5:] + [
        TokenRequest.argument_token(CONTRACT, ALICE, "submit", {"amount": i}) for i in (40, 41, 40)
    ]
    assert [_outcome(r) for r in staged._issue(requests)] == [
        _outcome(r) for r in _served_one_by_one(looped, requests)
    ]
    assert _service_books(staged) == _service_books(looped)


@pytest.mark.parametrize("cache", [None, SignatureCache], ids=["no-cache", "cache"])
def test_a_counter_timeout_fails_the_one_time_requests_and_only_them(cache):
    from repro.consensus.counter import CounterTimeout

    staged, looped = _twin_services(cache)
    for service in (staged, looped):
        service.counter.take = mock.Mock(side_effect=CounterTimeout("no leader"))
    requests = _mixed_envelope()
    results = staged._issue(requests)
    assert [_outcome(r) for r in results] == [
        _outcome(r) for r in _served_one_by_one(looped, requests)
    ]
    assert _service_books(staged) == _service_books(looped)
    assert [r.code.value for r in results if r.request.one_time] == [
        "COUNTER_TIMEOUT", "DENIED", "COUNTER_TIMEOUT"
    ]
    assert all(r.issued for r in results if not r.request.one_time and r.request.client == ALICE)


def test_an_envelope_signs_its_reusable_misses_in_one_block(keccak_permutations, packed_permutations):
    """Counts, not clocks: 32 reusable argument requests are two packed
    permutations and one ``sign_batch``; replayed, one memo hit each."""
    cache = SignatureCache()
    service = TokenService(
        keypair=KeyPair.from_seed("ts-key"),
        clock=SimulatedClock(start=1_000_000),
        signature_cache=cache,
    )
    requests = [
        TokenRequest.argument_token(CONTRACT, ALICE, "submit", {"amount": i}) for i in range(32)
    ]
    with mock.patch.object(KeyPair, "sign_batch", autospec=True, side_effect=KeyPair.sign_batch) as blocks, \
            mock.patch.object(KeyPair, "sign", side_effect=AssertionError("signed alone")):
        keccak_permutations[0] = 0
        tokens = [result.token for result in service._issue(requests)]
        assert (keccak_permutations[0], packed_permutations[0]) == (0, 2)
        assert [len(call.args[1]) for call in blocks.call_args_list] == [32]
        assert (cache.hits, cache.misses) == (0, 3 * 32)
        assert [result.token for result in service._issue(requests)] == tokens
        assert (keccak_permutations[0], packed_permutations[0]) == (0, 2)
        assert len(blocks.call_args_list) == 1
        assert (cache.hits, cache.misses) == (32, 3 * 32)
    for request, token in zip(requests, tokens):
        digest = token.digest_for(ALICE, CONTRACT, method="submit", arguments=request.arguments)
        assert service.keypair.verify(digest, token.signature)
        assert cache.peek_recovery(digest, token.signature) == service.address


def test_duplicate_requests_reuse_the_cached_token(clock):
    cache = SignatureCache()
    service = TokenService(keypair=KeyPair.from_seed("ts-key"), clock=clock, signature_cache=cache)
    request = TokenRequest.method_token(CONTRACT, ALICE, "submit")
    first, second = service.submit([request, request])
    assert first.token.to_bytes() == second.token.to_bytes()
    assert cache.hits > 0


def test_memoised_token_is_identical_to_uncached_issuance(clock):
    plain = TokenService(keypair=KeyPair.from_seed("ts-key"), clock=clock)
    cached = TokenService(
        keypair=KeyPair.from_seed("ts-key"), clock=clock, signature_cache=SignatureCache()
    )
    request = TokenRequest.method_token(CONTRACT, ALICE, "submit")
    issue_one(cached, request)  # the second issuance is served from the memo
    memoised = issue_one(cached, request)
    assert cached.signature_cache.hits == 1
    assert issue_one(plain, request).to_bytes() == memoised.to_bytes()


def test_clock_advance_invalidates_the_token_memo(clock):
    service = TokenService(
        keypair=KeyPair.from_seed("ts-key"), clock=clock, signature_cache=SignatureCache()
    )
    request = TokenRequest.method_token(CONTRACT, ALICE, "submit")
    before = issue_one(service, request)
    clock.advance(60)
    after = issue_one(service, request)
    assert after.expire == before.expire + 60
    assert after.to_bytes() != before.to_bytes()
    assert service.signature_cache.hits == 0


def test_memoised_duplicate_reusable_tokens_all_verify_on_chain(chain, owner, alice):
    service = TokenService(
        keypair=KeyPair.from_seed("ts-onchain"), clock=chain.clock,
        signature_cache=SignatureCache(),
    )
    recorder = OwnerWallet(owner, service).deploy_protected(
        ProtectedRecorder, one_time_bitmap_bits=256
    ).return_value
    request = TokenRequest.method_token(recorder.this, alice.address, "submit")
    results = service.submit([request] * 3) + service.submit(request)
    assert service.signature_cache.hits == 3
    for result in results:  # memoised signatures, still accepted by Alg. 1
        receipt = alice.transact(recorder, "submit", 7, token=result.token.to_bytes())
        assert receipt.success, receipt.error


# --- submit staged into the envelope's kernels: its definition is the oracle ----------


def _by_definition(service, requests):
    """What ``submit`` is defined as: the front end's session overhead, then
    the requests served one at a time -- denials and reusable requests in
    request order, then the one-time ones."""
    service.front_end_session_overhead(requests)
    results = [None] * len(requests)
    later = []
    for position, request in enumerate(requests):
        if request.one_time and service.check_rules(request).allowed:
            later.append(position)
        else:
            (results[position],) = service._issue([request])
    for position in later:
        (results[position],) = service._issue([requests[position]])
    return results


_LONE_REQUESTS = [
    TokenRequest.super_token(CONTRACT, ALICE),
    TokenRequest.super_token(CONTRACT, ALICE, one_time=True),
    TokenRequest.method_token(CONTRACT, ALICE, "submit"),
    TokenRequest.method_token(CONTRACT, ALICE, "submit", one_time=True),
    TokenRequest.argument_token(CONTRACT, ALICE, "submit", {"amount": 7}),
    TokenRequest.argument_token(CONTRACT, ALICE, "submit", {"amount": 7}, one_time=True),
]
_SUBMISSIONS = {
    **{f"lone-{r.token_type.name.lower()}{'-once' * r.one_time}": [r] for r in _LONE_REQUESTS},
    "mixed": _mixed_envelope(),
    "all-denied": [
        TokenRequest.method_token(CONTRACT, EVE, "submit"),
        TokenRequest.super_token(CONTRACT, EVE, one_time=True),
    ],
    "one-time-repeats": [TokenRequest.method_token(CONTRACT, ALICE, "submit", one_time=True)] * 10,
    "empty": [],
}


@pytest.mark.parametrize("cache", [None, SignatureCache], ids=["no-cache", "cache"])
@pytest.mark.parametrize("requests", _SUBMISSIONS.values(), ids=_SUBMISSIONS)
def test_staged_submit_equals_its_definition(cache, requests):
    staged, defined = _twin_services(cache)
    for _ in range(2):  # cold, then with every reusable token memoized
        results = staged.submit(requests)
        assert [_outcome(r) for r in results] == [
            _outcome(r) for r in _by_definition(defined, requests)
        ]
        assert _service_books(staged) == _service_books(defined)
        # One-time duplicates are never memoised: each gets its own index.
        indexes = [r.token.index for r in results if r.issued and r.request.one_time]
        assert len(set(indexes)) == len(indexes)
    if cache:
        # The session rode the envelope's kernels and left nothing behind.
        held = staged.signature_cache
        message = session_message(requests)
        digest = keccak256(message)
        assert message not in held._digests
        assert (staged.address, digest) not in held._signatures
        assert all(key[0] != digest for key in held._recovered)


@pytest.mark.parametrize("cache", [None, SignatureCache], ids=["no-cache", "cache"])
def test_staged_submit_equals_its_definition_through_a_counter_timeout(cache):
    from repro.consensus.counter import CounterTimeout

    staged, defined = _twin_services(cache)
    for service in (staged, defined):
        service.counter.take = mock.Mock(side_effect=CounterTimeout("no leader"))
    requests = _mixed_envelope()
    results = staged.submit(requests)
    assert [_outcome(r) for r in results] == [
        _outcome(r) for r in _by_definition(defined, requests)
    ]
    assert _service_books(staged) == _service_books(defined)
    assert [r.code.value for r in results if r.request.one_time] == [
        "COUNTER_TIMEOUT", "DENIED", "COUNTER_TIMEOUT"
    ]
    staged.counter.take.assert_called_once_with(2)


@pytest.mark.parametrize("cache", [None, SignatureCache], ids=["no-cache", "cache"])
@pytest.mark.parametrize("requests", _SUBMISSIONS.values(), ids=_SUBMISSIONS)
def test_a_submission_signs_once_and_checks_its_session_once(
    cache, requests, curve_multiplications
):
    """Counts, not clocks: whatever the envelope holds -- nothing included --
    one ``sign_batch`` whose last digest is the session's, no lone ``sign``,
    and one known-key check (the service's key is a table from its second
    verification on)."""
    staged, _ = _twin_services(cache)
    for _ in range(2):
        staged.submit([])  # first sight of the key, then its table
    curve_multiplications.clear()
    with mock.patch.object(
        KeyPair, "sign_batch", autospec=True, side_effect=KeyPair.sign_batch
    ) as blocks, mock.patch.object(KeyPair, "sign", side_effect=AssertionError("signed alone")):
        results = staged.submit(requests)
    (block,) = blocks.call_args_list
    issued = [r.token.to_bytes() for r in results if r.issued]
    built = len(set(issued)) if cache else len(issued)  # the memo builds a repeat once
    assert len(block.args[1]) == built + 1
    assert block.args[1][-1] == keccak256(session_message(requests))
    assert dict(curve_multiplications) == {"prepared": 1}


def _mismatched_keypair():
    """``skTS`` with someone else's public half: what it signs, nobody's
    ``pkTS`` verifies."""
    return KeyPair(KeyPair.from_seed("ts-key").private, KeyPair.from_seed("not-ts-key").public)


@pytest.mark.parametrize("cache", [None, SignatureCache], ids=["no-cache", "cache"])
def test_a_key_pair_with_mismatched_halves_issues_nothing(cache):
    """The session check fails closed (its verdict used to be discarded, so
    such a service authenticated every session and issued tokens no contract
    accepts -- and primed the node's cache with recoveries that are false)."""
    service = TokenService(
        keypair=_mismatched_keypair(),
        clock=SimulatedClock(start=1_000_000),
        counter=_LocalCounter(start=7),
        signature_cache=cache() if cache else None,
    )
    one_time = TokenRequest.method_token(CONTRACT, ALICE, "m", one_time=True)
    requests = [TokenRequest.method_token(CONTRACT, ALICE, "m"), one_time, one_time, one_time]
    for attempt in (service.submit, service.front_end_session_overhead):
        with pytest.raises(SmacsError) as failure:
            attempt(requests)
        assert failure.value.code is ErrorCode.INTERNAL
    assert (service.issued_count, service.denied_count, service.audit_log()) == (0, 0, [])
    # The check runs after ``take``: the range is burned, never handed out again.
    assert service.counter.value == 7 + 3
    assert list(service.counter.take(1)) == [10]
    if cache:
        held = service.signature_cache
        assert not (held._derived or held._signatures or held._recovered)


def test_envelope_pays_session_overhead_and_counter_once(
    service, monkeypatch, curve_multiplications
):
    """One session signature, one session verification and one ``take`` per
    envelope.  (This mocked ``front_end_session_overhead`` while ``submit``
    called it; the staged pass performs its three operations inside the
    envelope's own kernels, so they are counted where they run: the session
    digest is the last of the one ``sign_batch``, and the verification is the
    submission's only curve multiplication by a non-generator point.)"""
    take = mock.Mock(wraps=service.counter.take)
    monkeypatch.setattr(service.counter, "take", take)
    service.update_rules(lambda rules: rules.add_rule(WhitelistRule([ALICE])))
    one_time = TokenRequest.method_token(CONTRACT, ALICE, "m", one_time=True)
    requests = [
        one_time,
        TokenRequest.method_token(CONTRACT, EVE, "m", one_time=True),  # denied
        TokenRequest.method_token(CONTRACT, ALICE, "m"),  # reusable
        one_time,
        TokenRequest.super_token(CONTRACT, EVE),  # denied
        one_time,
    ]
    with mock.patch.object(
        KeyPair, "sign_batch", autospec=True, side_effect=KeyPair.sign_batch
    ) as blocks, mock.patch.object(KeyPair, "sign", side_effect=AssertionError("signed alone")):
        results = service.submit(requests)
    (block,) = blocks.call_args_list
    assert len(block.args[1]) == 4 + 1
    assert block.args[1][-1] == keccak256(session_message(requests))
    assert sum(curve_multiplications.values()) == curve_multiplications["ladders"] == 1
    take.assert_called_once_with(3)
    assert [r.issued for r in results] == [True, False, True, True, False, True]
    assert [r.token.index for r in results if r.issued] == [0, ONE_TIME_UNSET, 1, 2]
    assert [r.code.value for r in results if not r.issued] == ["DENIED", "DENIED"]
    assert service.counter.value == 3  # a denied request consumed no index
    assert (service.issued_count, service.denied_count) == (4, 2)
    # An envelope with nothing to take never calls the counter.
    service.submit([TokenRequest.method_token(CONTRACT, EVE, "m", one_time=True)])
    take.assert_called_once_with(3)


def test_persistence_roundtrip(tmp_path, clock):
    path = tmp_path / "ts-state.json"
    rules = build_fig6_ruleset([ALICE])
    service = TokenService(keypair=KeyPair.from_seed("k"), rules=rules, clock=clock,
                           storage_path=path)
    for _ in range(3):
        issue_one(service, TokenRequest.method_token(CONTRACT, ALICE, "m", one_time=True))
    assert path.exists()

    # A restarted service resumes the counter and keeps the whitelist policy.
    restarted = TokenService(keypair=KeyPair.from_seed("k"), clock=clock, storage_path=path)
    token = issue_one(restarted, TokenRequest.method_token(CONTRACT, ALICE, "m", one_time=True))
    assert token.index == 3
    assert not try_issue_one(restarted, TokenRequest.super_token(CONTRACT, EVE)).issued


def test_a_checkpoint_write_that_fails_part_way_leaves_the_previous_one(tmp_path, clock):
    """A disk that fills mid-write must leave the previous checkpoint
    loadable: one truncated in place fails the restart on half a JSON file."""
    import errno
    import json

    path = tmp_path / "ts-state.json"
    service = TokenService(keypair=KeyPair.from_seed("k"), clock=clock, storage_path=path)
    one_time = TokenRequest.method_token(CONTRACT, ALICE, "m", one_time=True)
    for _ in range(3):
        issue_one(service, one_time)

    def disk_full(state, handle, **kwargs):
        handle.write(json.dumps(state)[:20])
        raise OSError(errno.ENOSPC, "No space left on device")

    with mock.patch("repro.core.token_service.json.dump", side_effect=disk_full):
        with pytest.raises(OSError):
            service.submit(one_time)
    restarted = TokenService(keypair=KeyPair.from_seed("k"), clock=clock, storage_path=path)
    assert restarted.counter.value == 3
    assert issue_one(restarted, one_time).index == 3


def test_build_fig6_ruleset_helper():
    rules = build_fig6_ruleset(
        [ALICE],
        method_blacklists={"withdraw": [EVE]},
        argument_whitelists={"amount": [1, 2]},
    )
    service = TokenService(keypair=KeyPair.from_seed("k"), rules=rules)
    assert try_issue_one(service, TokenRequest.super_token(CONTRACT, ALICE)).issued
    assert not try_issue_one(service, TokenRequest.super_token(CONTRACT, EVE)).issued
    assert not try_issue_one(
        service,
        TokenRequest.argument_token(CONTRACT, ALICE, "submit", {"amount": 7})
    ).issued


# --- submissions from two threads are serialized ---------------------------------------


class _GatedCounter:
    """Wraps a counter: ``take`` parks its first caller until released, and
    records how many callers were ever inside ``take`` at once."""

    def __init__(self, counter):
        import threading

        self.counter = counter
        self.entered = threading.Event()
        self.release = threading.Event()
        self.inside = 0
        self.most_inside = 0

    def take(self, count):
        self.inside += 1
        self.most_inside = max(self.most_inside, self.inside)
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(timeout=10)
        try:
            return self.counter.take(count)
        finally:
            self.inside -= 1


def _two_submissions(submit, counter):
    """Run ``submit`` on two threads, the second started while the first is
    parked inside the counter; returns the two result lists."""
    import threading

    results = {}

    def worker(name):
        results[name] = submit(
            [TokenRequest.method_token(CONTRACT, ALICE, "submit", one_time=True) for _ in range(3)]
        )

    first = threading.Thread(target=worker, args=("first",), daemon=True)
    second = threading.Thread(target=worker, args=("second",), daemon=True)
    first.start()
    assert counter.entered.wait(timeout=10)
    second.start()
    second.join(timeout=0.3)  # long enough to reach take() if nothing stopped it
    assert second.is_alive()  # ... it is queued behind the first submission
    assert counter.most_inside == 1
    counter.release.set()
    for thread in (first, second):
        thread.join(timeout=10)
        assert not thread.is_alive()
    return results["first"], results["second"]


def test_a_second_thread_waits_for_the_submission_in_flight(clock):
    counter = _GatedCounter(_LocalCounter())
    service = TokenService(keypair=KeyPair.from_seed("ts-key"), clock=clock, counter=counter)
    first, second = _two_submissions(service.submit, counter)
    assert counter.most_inside == 1
    assert [r.token.index for r in first] == [0, 1, 2]
    assert [r.token.index for r in second] == [3, 4, 5]
    assert service.issued_count == 6 and len(service.audit_log()) == 6


def test_a_second_thread_waits_for_the_replica_in_flight(clock):
    from repro.core.replication import ReplicatedTokenService

    rts = ReplicatedTokenService(
        replica_count=3, keypair=KeyPair.from_seed("ts-key"), clock=clock,
        signature_cache=SignatureCache(),
    )
    # One gate in front of every replica's handle: the second submission goes
    # to replica 1, so only the front end's lock keeps it out of ``take``.
    counter = _GatedCounter(rts.replicas[0].counter)
    for replica in rts.replicas:
        replica.counter = counter
    first, second = _two_submissions(rts.submit, counter)
    assert counter.most_inside == 1
    assert [r.token.index for r in first] == [0, 1, 2]
    assert [r.token.index for r in second] == [3, 4, 5]
    assert rts._next == 2 and rts.transient_failovers == 0
    assert [replica.issued_count for replica in rts.replicas] == [3, 3, 0]
