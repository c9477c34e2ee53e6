"""Tests for the runtime-verification layer: testnet, ECFChecker, Hydra, scanner."""

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
    LocalTestnet,
    StaticScanner,
)
from repro.verification.hydra import (
    AccumulatorHeadA,
    AccumulatorHeadB,
    AccumulatorHeadC,
)

ETHER = 10**18


# --- the local testnet harness ----------------------------------------------------------


def test_simulation_has_no_persistent_effects(chain, owner, alice):
    bank = owner.deploy(Bank).return_value
    testnet = LocalTestnet(fork_of=chain)
    result = testnet.simulate(alice.address, bank, "addBalance", value=ETHER)
    assert result.success
    # Neither the fork nor (of course) the main chain retain the deposit.
    assert testnet.chain.read(bank, "balanceOf", alice.address) == 0
    assert chain.read(bank, "balanceOf", alice.address) == 0


def test_simulation_reports_reverts_without_raising(chain, owner, alice):
    bank = owner.deploy(Bank).return_value
    testnet = LocalTestnet(fork_of=chain)
    result = testnet.simulate(alice.address, bank, "no_such_method")
    assert not result.success
    assert "UnknownMethod" in result.error


def test_simulation_records_trace_and_gas(chain, owner, alice):
    bank = owner.deploy(Bank).return_value
    testnet = LocalTestnet(fork_of=chain)
    result = testnet.simulate(alice.address, bank, "addBalance", value=ETHER)
    assert result.gas_used > 21_000
    assert result.trace is not None
    assert result.trace.calls


def test_simulation_bypasses_smacs_verification(chain, owner, alice, token_service):
    protected = OwnerWallet(owner, token_service).deploy_protected(ProtectedRecorder).return_value
    testnet = LocalTestnet(fork_of=chain)
    result = testnet.simulate(alice.address, protected, "submit", kwargs={"amount": 5})
    assert result.success  # no token needed inside the TS's own simulation
    # ... but on the real chain the token is still required.
    assert not alice.transact(protected, "submit", 5).success


def test_fresh_testnet_and_twin_deployment():
    testnet = LocalTestnet()
    twin = testnet.deploy_twin("deployer", Bank)
    assert testnet.chain.read(twin, "balanceOf", b"\x01" * 20) == 0
    with pytest.raises(RuntimeError):
        testnet.refresh_fork()


def test_forked_testnet_can_refresh(chain, owner):
    bank = owner.deploy(Bank).return_value
    testnet = LocalTestnet(fork_of=chain)
    owner.transact(bank, "addBalance", value=ETHER)
    assert testnet.chain.read(bank, "balanceOf", owner.address) == 0
    testnet.refresh_fork()
    assert testnet.chain.read(bank, "balanceOf", owner.address) == ETHER


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
    testnet = LocalTestnet(fork_of=chain)
    checker = ECFChecker()
    attack = checker.check_simulation(
        testnet.simulate(attacker.this, bank, "withdraw")
    )
    assert not attack.is_ecf
    assert attack.violations
    assert attack.violations[0].contract == bank.this
    assert "re-entrancy" in attack.violations[0].describe()


def test_ecf_checker_passes_honest_withdraw(chain, alice, bank_with_attacker):
    bank, _ = bank_with_attacker
    testnet = LocalTestnet(fork_of=chain)
    checker = ECFChecker()
    honest = checker.check_simulation(testnet.simulate(alice.address, bank, "withdraw"))
    assert honest.is_ecf
    assert honest.violations == []


def test_ecf_checker_handles_missing_trace():
    from repro.verification.testnet import SimulationResult

    report = ECFChecker().check_simulation(SimulationResult(success=True, trace=None))
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
    assert all(not o.result.success for o in report.outcomes)


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
