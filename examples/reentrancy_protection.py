#!/usr/bin/env python3
"""The TheDAO case study (§V-B): protecting a vulnerable Bank after deployment.

The script shows four configurations of the same vulnerable contract:

1. the plain ``Bank`` of Fig. 7 being drained by the re-entrancy attack;
2. ECFChecker flagging the exploiting call in an off-chain simulation;
3. a SMACS-enabled Bank whose Token Service runs the ECFChecker rule -- the
   attacker never obtains a token, innocent users keep withdrawing;
4. the one-time-token defence: even without the ECF rule, a one-time token is
   consumed by the first (outer) call, so the re-entrant inner call fails.

Run with:  python examples/reentrancy_protection.py
"""

from repro.chain import Blockchain
from repro.contracts import Attacker, Bank, SMACSAttacker, SMACSBank
from repro.core import ClientWallet, TokenDenied, TokenService, TokenType
from repro.core.acr import RuntimeVerificationRule
from repro.crypto.keys import KeyPair
from repro.verification import ECFChecker, ECFTokenRule

ETHER = 10**18


def eth(wei: int) -> str:
    return f"{wei / ETHER:.1f} ETH"


def main() -> None:
    chain = Blockchain()
    owner = chain.create_account("owner", seed="dao-owner")
    victim = chain.create_account("victim", seed="dao-victim")
    attacker = chain.create_account("attacker", seed="dao-attacker")

    # --- 1. the unprotected Bank gets drained -----------------------------------
    bank = owner.deploy(Bank).return_value
    victim.transact(bank, "addBalance", value=10 * ETHER)
    exploit = attacker.deploy(Attacker, bank.this, True).return_value
    attacker.transact(exploit, "deposit", 2 * ETHER, value=2 * ETHER)

    # ... but first, let the Token Service's checker look at the pending call.
    report = ECFChecker().check_simulation(
        chain.fork().simulate(exploit.this, bank, "withdraw")
    )
    print("[2] ECFChecker verdict on the attack payload (off-chain simulation):")
    for violation in report.violations:
        print(f"    - {violation.describe()}")

    before = chain.balance_of(exploit)
    attacker.transact(exploit, "withdraw")
    print(f"[1] plain Bank: attacker deposited 2 ETH and withdrew "
          f"{eth(chain.balance_of(exploit) - before)} (victim funds lost)")

    # --- 3. SMACS + ECFChecker rule: the token is never issued -------------------
    service = TokenService(keypair=KeyPair.from_seed("dao-ts"), clock=chain.clock)
    protected_bank = owner.deploy(SMACSBank, ts_address=service.address).return_value
    service.rules.add_rule(
        RuntimeVerificationRule(ECFTokenRule(chain, protected_bank)), None
    )

    victim_wallet = ClientWallet(victim, {protected_bank.this: service})
    victim_wallet.call_with_token(protected_bank, "addBalance",
                                  token_type=TokenType.METHOD, value=10 * ETHER)

    smacs_exploit = attacker.deploy(SMACSAttacker, protected_bank.this, True).return_value
    attacker_wallet = ClientWallet(attacker, {protected_bank.this: service})
    deposit_token = attacker_wallet.request_token(protected_bank, TokenType.METHOD,
                                                  "addBalance")
    attacker.transact(smacs_exploit, "deposit", 2 * ETHER, deposit_token.to_bytes(),
                      value=2 * ETHER)
    try:
        attacker_wallet.request_token(protected_bank, TokenType.METHOD, "withdraw")
        print("[3] ERROR: the attacker obtained a withdraw token")
    except TokenDenied as denied:
        print(f"[3] SMACS + ECF rule: withdraw token denied -> {denied}")

    receipt = victim_wallet.call_with_token(protected_bank, "withdraw",
                                            token_type=TokenType.METHOD)
    print(f"    the honest victim still withdraws normally: success={receipt.success}")

    # --- 4. one-time tokens also stop the re-entrancy ----------------------------
    plain_service = TokenService(keypair=KeyPair.from_seed("dao-ts-2"), clock=chain.clock)
    bank2 = owner.deploy(SMACSBank, ts_address=plain_service.address,
                         one_time_bitmap_bits=1024).return_value
    ClientWallet(victim, {bank2.this: plain_service}).call_with_token(
        bank2, "addBalance", token_type=TokenType.METHOD, value=10 * ETHER
    )
    exploit2 = attacker.deploy(SMACSAttacker, bank2.this, True).return_value
    wallet2 = ClientWallet(attacker, {bank2.this: plain_service})
    deposit_token = wallet2.request_token(bank2, TokenType.METHOD, "addBalance")
    attacker.transact(exploit2, "deposit", 2 * ETHER, deposit_token.to_bytes(),
                      value=2 * ETHER)
    withdraw_token = wallet2.request_token(bank2, TokenType.METHOD, "withdraw",
                                           one_time=True)
    attack = attacker.transact(exploit2, "withdraw", withdraw_token.to_bytes())
    print(f"[4] one-time token defence: attack transaction success={attack.success} "
          f"(the re-entrant call reused a consumed index and the whole call reverted)")
    print(f"    victim balance still intact: "
          f"{eth(chain.read(bank2, 'balanceOf', victim.address))}")


if __name__ == "__main__":
    main()
