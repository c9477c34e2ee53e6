"""Tests for the runtime-verification layer: simulation, ECFChecker, Hydra, scanner."""

import pytest

from repro.api import try_issue_one
from repro.contracts import Bank, Attacker
from repro.contracts.protected_target import ProtectedRecorder
from repro.core import OwnerWallet, TokenService, TokenType
from repro.core.acr import RuntimeVerificationRule
from repro.core.token_request import TokenRequest
from repro.crypto.keys import KeyPair
from repro.verification import (
    ECFChecker,
    ECFTokenRule,
    HydraCoordinator,
    HydraUniformityRule,
    StaticScanner,
)
from repro.verification.hydra import (
    AccumulatorHeadA,
    AccumulatorHeadB,
    AccumulatorHeadC,
)

ETHER = 10**18


# --- simulation: a transaction the node rolls back --------------------------------------------


def test_simulation_has_no_persistent_effects(chain, owner, alice):
    bank = owner.deploy(Bank).return_value
    fork = chain.fork()
    receipt = fork.simulate(alice.address, bank, "addBalance", value=ETHER)
    assert receipt.success
    # Neither the fork nor (of course) the main chain retain the deposit.
    assert fork.read(bank, "balanceOf", alice.address) == 0
    assert chain.read(bank, "balanceOf", alice.address) == 0


def test_simulation_reports_reverts_without_raising(chain, owner, alice):
    bank = owner.deploy(Bank).return_value
    receipt = chain.fork().simulate(alice.address, bank, "no_such_method")
    assert not receipt.success
    assert "UnknownMethod" in receipt.error


def test_simulation_records_trace_and_gas(chain, owner, alice):
    bank = owner.deploy(Bank).return_value
    receipt = chain.fork().simulate(alice.address, bank, "addBalance", value=ETHER)
    assert receipt.gas_used > 21_000
    assert receipt.trace is not None
    assert receipt.trace.calls


def test_simulation_bypasses_smacs_verification(chain, owner, alice, token_service):
    protected = OwnerWallet(owner, token_service).deploy_protected(ProtectedRecorder).return_value
    receipt = chain.fork().simulate(alice.address, protected, "submit", kwargs={"amount": 5})
    assert receipt.success  # no token needed inside the TS's own simulation
    # ... but on the real chain the token is still required.
    assert not alice.transact(protected, "submit", 5).success


# --- ECFChecker ----------------------------------------------------------------------------------


@pytest.fixture
def bank_with_attacker(chain, owner, alice, eve):
    bank = owner.deploy(Bank).return_value
    alice.transact(bank, "addBalance", value=10 * ETHER)
    attacker = eve.deploy(Attacker, bank.this, True).return_value
    eve.transact(attacker, "deposit", 2 * ETHER, value=2 * ETHER)
    return bank, attacker


def test_ecf_checker_flags_reentrant_withdraw(chain, alice, bank_with_attacker):
    bank, attacker = bank_with_attacker
    checker = ECFChecker()
    attack = checker.check_simulation(chain.fork().simulate(attacker.this, bank, "withdraw"))
    assert not attack.is_ecf
    assert attack.violations
    assert attack.violations[0].contract == bank.this
    assert "re-entrancy" in attack.violations[0].describe()


def test_ecf_checker_passes_honest_withdraw(chain, alice, bank_with_attacker):
    bank, _ = bank_with_attacker
    checker = ECFChecker()
    honest = checker.check_simulation(chain.fork().simulate(alice.address, bank, "withdraw"))
    assert honest.is_ecf
    assert honest.violations == []


def test_ecf_checker_handles_missing_trace():
    from repro.chain.evm import Receipt

    report = ECFChecker().check_simulation(
        Receipt(b"", success=True, gas_used=0, block_number=1)
    )
    assert report.is_ecf


def test_ecf_token_rule_denies_attacker_allows_victim(chain, owner, alice, eve, token_service):
    from repro.contracts import SMACSAttacker, SMACSBank
    from repro.core import ClientWallet

    sbank = owner.deploy(SMACSBank, ts_address=token_service.address).return_value
    rule = ECFTokenRule(chain, sbank)
    token_service.rules.add_rule(RuntimeVerificationRule(rule), None)

    victim_wallet = ClientWallet(alice, {sbank.this: token_service})
    victim_wallet.call_with_token(sbank, "addBalance", token_type=TokenType.METHOD,
                                  value=10 * ETHER)

    attacker_contract = eve.deploy(SMACSAttacker, sbank.this, True).return_value
    eve_wallet = ClientWallet(eve, {sbank.this: token_service})
    deposit_token = eve_wallet.request_token(sbank, TokenType.METHOD, "addBalance")
    assert eve.transact(attacker_contract, "deposit", 2 * ETHER, deposit_token.to_bytes(),
                        value=2 * ETHER).success

    from repro.core import TokenDenied

    with pytest.raises(TokenDenied) as excinfo:
        eve_wallet.request_token(sbank, TokenType.METHOD, "withdraw")
    assert "ECFChecker" in str(excinfo.value)
    assert rule.checks_performed > 0

    # The honest victim still gets a withdraw token.
    assert victim_wallet.request_token(sbank, TokenType.METHOD, "withdraw")


def test_ecf_rule_ignores_other_contracts_and_rejects_super(chain, owner, alice, recorder):
    rule = ECFTokenRule(chain, recorder)
    other = TokenRequest.method_token(b"\x42" * 20, alice.address, "anything")
    assert rule.check(other).allowed
    super_request = TokenRequest.super_token(recorder.this, alice.address)
    assert not rule.check(super_request).allowed


# --- Hydra -----------------------------------------------------------------------------------------


@pytest.fixture
def hydra_with_buggy_head():
    return HydraCoordinator(
        head_classes=(AccumulatorHeadA, AccumulatorHeadB, AccumulatorHeadC),
        constructor_args=[{}, {}, {"buggy": True}],
    )


def test_hydra_uniform_for_small_payloads(alice, hydra_with_buggy_head):
    report = hydra_with_buggy_head.execute(alice.address, "add", {"amount": 10})
    assert report.uniform
    assert report.divergent_heads() == []


def test_hydra_detects_divergence_on_overflow(alice, hydra_with_buggy_head):
    report = hydra_with_buggy_head.execute(alice.address, "add", {"amount": 70_000})
    assert not report.uniform
    assert report.divergent_heads() == ["AccumulatorHeadC"]


def test_hydra_uniform_when_all_heads_correct(alice):
    coordinator = HydraCoordinator()
    report = coordinator.execute(alice.address, "add", {"amount": 70_000})
    assert report.uniform
    assert coordinator.head_count == 3


def test_hydra_uniform_on_common_failure(alice, hydra_with_buggy_head):
    # All heads reject a non-positive amount identically -> uniform.
    report = hydra_with_buggy_head.execute(alice.address, "add", {"amount": 0})
    assert report.uniform
    assert all(not o.receipt.success for o in report.outcomes)


def test_hydra_requires_at_least_two_heads():
    with pytest.raises(ValueError):
        HydraCoordinator(head_classes=(AccumulatorHeadA,))
    with pytest.raises(ValueError):
        HydraCoordinator(constructor_args=[{}])


def test_hydra_rule_issues_only_argument_tokens(alice, hydra_with_buggy_head):
    rule = HydraUniformityRule(hydra_with_buggy_head)
    contract = b"\x11" * 20
    method_request = TokenRequest.method_token(contract, alice.address, "add")
    assert not rule.check(method_request).allowed

    good = TokenRequest.argument_token(contract, alice.address, "add", {"amount": 3})
    bad = TokenRequest.argument_token(contract, alice.address, "add", {"amount": 99_999})
    assert rule.check(good).allowed
    decision = rule.check(bad)
    assert not decision.allowed
    assert "diverged" in decision.reason


def test_hydra_rule_scoped_to_protected_contract(alice, hydra_with_buggy_head):
    protected = b"\x11" * 20
    rule = HydraUniformityRule(hydra_with_buggy_head, protected_contract=protected)
    unrelated = TokenRequest.method_token(b"\x22" * 20, alice.address, "add")
    assert rule.check(unrelated).allowed


def test_hydra_as_token_service_rule_end_to_end(chain, alice, hydra_with_buggy_head):
    service = TokenService(keypair=KeyPair.from_seed("hydra-ts"), clock=chain.clock)
    service.rules.add_rule(
        RuntimeVerificationRule(HydraUniformityRule(hydra_with_buggy_head)),
        TokenType.ARGUMENT,
    )
    contract = b"\x33" * 20
    ok = try_issue_one(
        service,
        TokenRequest.argument_token(contract, alice.address, "add", {"amount": 4})
    )
    bad = try_issue_one(
        service,
        TokenRequest.argument_token(contract, alice.address, "add", {"amount": 80_000})
    )
    assert ok.issued
    assert not bad.issued


# --- arguments the method cannot take are the caller's error, not the service's ---------------


def _hydra_ruled_service(coordinator):
    service = TokenService(keypair=KeyPair.from_seed("hydra-ts"))
    rule = HydraUniformityRule(coordinator)
    service.rules.add_rule(RuntimeVerificationRule(rule), TokenType.ARGUMENT)
    return service, rule


@pytest.mark.parametrize(
    "arguments", [{"amont": 5}, {"amount": "x"}, {"amount": 5, "extra": 1}],
    ids=["misspelt", "mistyped", "extra"],
)
def test_hydra_rule_issues_when_every_head_refuses_the_arguments(
    alice, hydra_with_buggy_head, arguments
):
    service, rule = _hydra_ruled_service(hydra_with_buggy_head)
    request = TokenRequest.argument_token(b"\x33" * 20, alice.address, "add", arguments)
    [result] = service.submit([request])
    # Every head fails the call the same way, as with amount=0: uniform.
    assert result.issued
    assert rule.last_report.uniform
    assert all(o.receipt.error.startswith("TypeError: ") for o in rule.last_report.outcomes)


def test_ecf_rule_issues_when_withdraw_refuses_the_arguments(chain, owner, alice, token_service):
    from repro.contracts import SMACSBank

    bank = owner.deploy(SMACSBank, ts_address=token_service.address).return_value
    rule = ECFTokenRule(chain, bank)
    token_service.rules.add_rule(RuntimeVerificationRule(rule), None)
    request = TokenRequest.argument_token(bank.this, alice.address, "withdraw", {"bogus": 1})
    [result] = token_service.submit([request])
    assert result.issued
    assert rule.last_report.is_ecf
    assert rule.last_report.receipt.error.startswith("TypeError: ")
    # The chain still refuses the call the token names.
    assert not alice.transact(bank, "withdraw", bogus=1, token=result.token.to_bytes()).success


def test_gateway_answers_every_request_of_an_envelope_with_a_bad_one(
    alice, hydra_with_buggy_head
):
    from repro.api import ServiceGateway

    route = "https://ts.hydra.example"
    gateway = ServiceGateway()
    gateway.register(route, _hydra_ruled_service(hydra_with_buggy_head)[0])
    contract = b"\x33" * 20
    results = gateway.client_for(route).submit([
        TokenRequest.argument_token(contract, alice.address, "add", {"amount": 5}),
        TokenRequest.argument_token(contract, alice.address, "add", {"amont": 5}),
    ])
    assert [r.issued for r in results] == [True, True]


# --- static scanner -----------------------------------------------------------------------------------


def test_scanner_flags_reentrancy_in_bank():
    findings = StaticScanner().scan_contract(Bank)
    assert any(f.category == "reentrancy" and f.method == "withdraw" for f in findings)


def test_scanner_quiet_on_well_guarded_contract():
    from repro.contracts.role_based import RoleBasedVault

    findings = StaticScanner().scan_contract(RoleBasedVault)
    assert not any(f.category == "reentrancy" for f in findings)
    assert not any(f.category == "missing-access-control" for f in findings)


def test_scanner_flags_missing_access_control():
    from repro.chain.contract import Contract, external

    class Careless(Contract):
        @external
        def sweep_funds(self, to: bytes) -> None:
            self.call_value(to, self.balance)

    findings = StaticScanner().scan_contract(Careless)
    assert any(f.category == "missing-access-control" for f in findings)


def test_scanner_scan_many_and_describe():
    findings = StaticScanner().scan_many([Bank, Attacker])
    assert findings
    assert all(isinstance(f.describe(), str) and f.contract for f in findings)
