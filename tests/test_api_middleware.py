"""Composable middleware: each layer alone and the factory-built stacks."""

from __future__ import annotations

import pytest

from repro.api import (
    Audit,
    ErrorCode,
    Metrics,
    RateLimiter,
    RetryFailover,
    build_service,
    unwrap,
)
from repro.core.acr import RuleSet, WhitelistRule
from repro.core.token_request import TokenRequest
from repro.core.token_service import TokenService
from repro.crypto.sigcache import SignatureCache
from repro.crypto.keys import KeyPair


@pytest.fixture
def service(chain, ts_keypair):
    return TokenService(keypair=ts_keypair, rules=RuleSet(), clock=chain.clock)


def _request(recorder, account, one_time=False):
    return TokenRequest.method_token(
        recorder.this, account.address, "submit", one_time=one_time
    )


# --- RateLimiter --------------------------------------------------------------------


def test_rate_limiter_carries_rate_limited_results(chain, service, recorder, alice):
    limited = RateLimiter(service, rate_per_second=2, burst=3, clock=chain.clock)
    results = limited.submit([_request(recorder, alice)] * 5)
    assert [result.issued for result in results] == [True, True, True, False, False]
    for result in results[3:]:
        assert result.code is ErrorCode.RATE_LIMITED
        assert result.error.retryable
    assert limited.layer_stats() == {"admitted": 3, "limited": 2}


def test_rate_limiter_refills_with_the_shared_clock(chain, service, recorder, alice):
    limited = RateLimiter(service, rate_per_second=1, burst=2, clock=chain.clock)
    assert [r.issued for r in limited.submit([_request(recorder, alice)] * 2)] == [True, True]
    assert not limited.submit(_request(recorder, alice))[0].issued
    chain.clock.advance(2)
    assert limited.submit(_request(recorder, alice))[0].issued


def test_rate_limiter_without_clock_refills_on_injected_time(service, recorder, alice):
    # No SimulatedClock: the wall-clock fallback, made deterministic by
    # injecting ``now`` instead of sleeping through a real refill window.
    fake = {"t": 100.0}
    limited = RateLimiter(service, rate_per_second=20, burst=3, now=lambda: fake["t"])
    assert all(r.issued for r in limited.submit([_request(recorder, alice)] * 3))
    assert limited.submit(_request(recorder, alice))[0].code is ErrorCode.RATE_LIMITED
    fake["t"] += 0.2  # ~4 bucket tokens at 20/s
    assert limited.submit(_request(recorder, alice))[0].issued


def test_rate_limiter_partial_grant_preserves_order_and_suffix(chain, service, recorder):
    """``0 < allowed < len(batch)``: the granted prefix is issued in request
    order and the RATE_LIMITED failures are *exactly* the suffix."""
    clients = [chain.create_account(seed=f"pg-{i}") for i in range(5)]
    batch = [_request(recorder, client) for client in clients]
    limited = RateLimiter(service, rate_per_second=1, burst=3, clock=chain.clock)

    results = limited.submit(batch)
    assert len(results) == len(batch)
    # Positional identity: result i answers request i, issued or not.
    assert [result.request for result in results] == batch
    assert [result.issued for result in results] == [True, True, True, False, False]
    for result in results[:3]:
        assert result.token is not None and result.error is None
    for result in results[3:]:
        assert result.token is None
        assert result.code is ErrorCode.RATE_LIMITED
        assert result.error.retryable
    assert limited.layer_stats() == {"admitted": 3, "limited": 2}

    # A partial refill produces another partial grant, same shape.
    chain.clock.advance(2)  # 2 bucket tokens at 1/s
    again = limited.submit(batch[:4])
    assert [result.request for result in again] == batch[:4]
    assert [result.issued for result in again] == [True, True, False, False]
    assert all(result.code is ErrorCode.RATE_LIMITED for result in again[2:])
    assert limited.layer_stats() == {"admitted": 5, "limited": 4}


def test_rate_limiter_validates_parameters(service):
    with pytest.raises(ValueError):
        RateLimiter(service, rate_per_second=0, burst=1)
    with pytest.raises(ValueError):
        RateLimiter(service, rate_per_second=1, burst=0)


# --- TokenBucket (shared by RateLimiter and the wire edge) --------------------------


def test_token_bucket_grants_partially_and_refills():
    from repro.api import TokenBucket

    fake = {"t": 0.0}
    bucket = TokenBucket(rate_per_second=10, burst=5, now=lambda: fake["t"])
    assert bucket.take(3) == 3
    assert bucket.take(4) == 2  # partial grant: only 2 left in the bucket
    assert bucket.take(1) == 0
    fake["t"] += 0.25  # 2.5 bucket tokens accrue
    assert bucket.take(5) == 2
    fake["t"] += 10.0  # refill saturates at the burst capacity
    assert bucket.take(50) == 5


def test_token_bucket_validates_parameters():
    from repro.api import TokenBucket

    with pytest.raises(ValueError):
        TokenBucket(rate_per_second=0, burst=1)
    with pytest.raises(ValueError):
        TokenBucket(rate_per_second=1, burst=0)


# --- Metrics ------------------------------------------------------------------------


def test_metrics_counts_outcomes_by_code(chain, service, recorder, alice, eve):
    service.update_rules(lambda rules: rules.add_rule(WhitelistRule([alice.address])))
    metered = Metrics(service)
    metered.submit([_request(recorder, alice), _request(recorder, eve)])
    metered.submit(_request(recorder, eve))
    stats = metered.layer_stats()
    assert stats["submissions"] == 2
    assert stats["requests"] == 3
    assert stats["issued"] == 1
    assert stats["failed"] == 2
    assert stats["errors_by_code"] == {"DENIED": 2}
    assert stats["largest_batch"] == 2
    # The layer folds into the stack-wide stats dict under its key.
    assert metered.stats()["metrics"]["requests"] == 3


# --- Audit --------------------------------------------------------------------------


def test_audit_records_described_outcomes(chain, service, recorder, alice, eve):
    service.update_rules(lambda rules: rules.add_rule(WhitelistRule([alice.address])))
    seen = []
    audited = Audit(service, sink=lambda desc, outcome: seen.append(outcome))
    audited.submit([_request(recorder, alice), _request(recorder, eve)])
    assert [outcome for _, outcome in audited.entries] == ["issued", "DENIED"]
    assert seen == ["issued", "DENIED"]
    assert audited.layer_stats() == {"entries": 2}


def test_audit_trims_to_max_entries(chain, service, recorder, alice):
    audited = Audit(service, max_entries=3)
    for _ in range(5):
        audited.submit(_request(recorder, alice))
    assert len(audited.entries) == 3


# --- RetryFailover ------------------------------------------------------------------


class _FlakyIssuer:
    """Protocol double whose first ``fail_times`` submissions time out."""

    def __init__(self, inner, fail_times):
        self.inner = inner
        self.remaining = fail_times

    @property
    def address(self):
        return self.inner.address

    def submit(self, requests):
        from repro.consensus.counter import CounterTimeout

        if self.remaining > 0:
            self.remaining -= 1
            raise CounterTimeout("injected transient failure")
        return self.inner.submit(requests)

    def stats(self):
        return self.inner.stats()

    def update_rules(self, mutate):
        self.inner.update_rules(mutate)


def test_retry_failover_recovers_transient_failures(chain, service, recorder, alice):
    stack = RetryFailover(_FlakyIssuer(service, fail_times=2), attempts=3)
    results = stack.submit([_request(recorder, alice, one_time=True)] * 2)
    assert all(result.issued for result in results)
    assert stack.failovers == 2
    assert stack.recovered == 2


def test_retry_failover_exhaustion_carries_the_error(chain, service, recorder, alice):
    stack = RetryFailover(_FlakyIssuer(service, fail_times=99), attempts=2)
    results = stack.submit([_request(recorder, alice)])
    assert results[0].code is ErrorCode.COUNTER_TIMEOUT
    assert not results[0].issued


def test_retry_failover_does_not_retry_denials(chain, service, recorder, alice, eve):
    service.update_rules(lambda rules: rules.add_rule(WhitelistRule([alice.address])))
    stack = RetryFailover(service, attempts=3)
    results = stack.submit([_request(recorder, eve)])
    assert results[0].code is ErrorCode.DENIED
    assert stack.failovers == 0


# --- stacking / factory -------------------------------------------------------------


def test_unwrap_reaches_the_base_service(chain, ts_keypair):
    stack = build_service(
        "serial", keypair=ts_keypair, clock=chain.clock,
        rate_limit=(100, 100), audit=True, metrics=True,
    )
    base = unwrap(stack)
    assert isinstance(base, TokenService)
    assert stack.address == base.address


def test_stacked_stats_fold_every_layer(chain, ts_keypair, recorder, alice):
    stack = build_service(
        "serial", keypair=ts_keypair, clock=chain.clock,
        rate_limit=(100, 100), audit=True, metrics=True,
    )
    stack.submit(_request(recorder, alice))
    stats = stack.stats()
    assert stats["profile"] == "serial"
    for layer in ("rate_limiter", "audit", "metrics"):
        assert layer in stats, layer


def test_factory_validates_inputs(chain):
    with pytest.raises(ValueError):
        build_service("interplanetary")


def test_factory_signature_cache_is_primed_by_issuance(chain, recorder, alice):
    for profile in ("serial", "replicated"):
        cache = SignatureCache()
        stack = build_service(
            profile,
            keypair=KeyPair.from_seed("primer-ts"),
            clock=chain.clock,
            signature_cache=cache,
        )
        token = stack.submit(_request(recorder, alice, one_time=True))[0].token
        digest = token.digest_for(alice.address, recorder.this, method="submit")
        # Issuance knows the recovery result by construction: the mempool
        # pre-checks and the executor's ecrecover find it without curve math.
        assert cache.peek_recovery(digest, token.signature) == stack.address, profile
