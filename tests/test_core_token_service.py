"""Unit tests for the Token Service (issuance, rules, batching, persistence)."""

import pytest

from repro.api import issue_one, try_issue_one
from repro.chain.clock import SimulatedClock
from repro.core.acr import RuleSet, WhitelistRule
from repro.core.token import ONE_TIME_UNSET, TokenType
from repro.core.token_request import TokenRequest
from repro.core.token_service import (
    DEFAULT_TOKEN_LIFETIME,
    TokenDenied,
    TokenService,
    build_fig6_ruleset,
)
from repro.crypto.keys import KeyPair

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
