"""On-chain token verification (Alg. 1) through SMACS-enabled contracts.

These tests drive the full path: Token Service issuance -> transaction with
embedded token -> contract-side verification -> method body execution, and
check every rejection branch of Alg. 1 plus the gas-category accounting.
"""

import pytest

from repro.api import issue_one
from repro.core import TokenType
from repro.core.token import ONE_TIME_UNSET, Token, signing_digest
from repro.crypto.keys import KeyPair


def submit_with(alice, recorder, token, amount=5):
    """Send recorder.submit with raw token bytes and return the receipt."""
    raw = token.to_bytes() if isinstance(token, Token) else token
    return alice.transact(recorder, "submit", amount, token=raw)


# --- the happy paths -----------------------------------------------------------------


def test_super_token_grants_any_method(chain, alice, alice_wallet, recorder):
    token = alice_wallet.request_token(recorder, TokenType.SUPER)
    assert submit_with(alice, recorder, token).success
    assert alice.transact(recorder, "sensitive_reset", token=token.to_bytes()).success


def test_method_token_grants_only_its_method(chain, alice, alice_wallet, recorder):
    token = alice_wallet.request_token(recorder, TokenType.METHOD, "submit")
    assert submit_with(alice, recorder, token).success
    other = alice.transact(recorder, "sensitive_reset", token=token.to_bytes())
    assert not other.success
    assert "denied" in other.error


def test_argument_token_grants_only_exact_arguments(chain, alice, alice_wallet, recorder):
    token = alice_wallet.request_token(
        recorder, TokenType.ARGUMENT, "submit", arguments={"amount": 9}
    )
    ok = alice.transact(recorder, "submit", amount=9, token=token.to_bytes())
    assert ok.success
    wrong_value = alice.transact(recorder, "submit", amount=10, token=token.to_bytes())
    assert not wrong_value.success


def test_method_token_allows_arbitrary_arguments(chain, alice, alice_wallet, recorder):
    token = alice_wallet.request_token(recorder, TokenType.METHOD, "submit")
    assert submit_with(alice, recorder, token, amount=1).success
    assert submit_with(alice, recorder, token, amount=999).success
    assert chain.read(recorder, "total") == 1000


def test_reusable_token_works_until_expiry(chain, alice, alice_wallet, recorder):
    token = alice_wallet.request_token(recorder, TokenType.METHOD, "submit")
    for _ in range(3):
        assert submit_with(alice, recorder, token).success
    assert chain.read(recorder, "entries") == 3


# --- rejection branches of Alg. 1 ----------------------------------------------------------


def test_missing_token_rejected(alice, recorder):
    receipt = alice.transact(recorder, "submit", 5)
    assert not receipt.success
    assert "denied" in receipt.error


def test_expired_token_rejected(chain, alice, alice_wallet, recorder):
    token = alice_wallet.request_token(recorder, TokenType.METHOD, "submit")
    chain.advance_time(3601)  # default lifetime is one hour
    receipt = submit_with(alice, recorder, token)
    assert not receipt.success


def test_token_valid_just_before_expiry(chain, alice, alice_wallet, recorder):
    token = alice_wallet.request_token(recorder, TokenType.METHOD, "submit")
    chain.advance_time(3500)
    assert submit_with(alice, recorder, token).success


def test_forged_signature_rejected(chain, alice, recorder, token_service):
    # An adversary without skTS signs the correct datagram with its own key.
    mallory = KeyPair.from_seed("mallory")
    expire = chain.timestamp + 3600
    digest = signing_digest(TokenType.METHOD, expire, ONE_TIME_UNSET,
                            alice.address, recorder.this, method="submit")
    forged = Token(TokenType.METHOD, expire, ONE_TIME_UNSET, mallory.sign(digest))
    assert not submit_with(alice, recorder, forged).success


def test_garbage_token_bytes_rejected(alice, recorder):
    receipt = alice.transact(recorder, "submit", 5, token=b"\x00" * 86)
    assert not receipt.success
    receipt = alice.transact(recorder, "submit", 5, token=b"\x01\x02\x03")
    assert not receipt.success


@pytest.mark.parametrize("token", [12345, "not a token", [1, 2, 3]])
def test_a_token_of_the_wrong_type_reverts_and_consumes_the_nonce(
    chain, alice, recorder, token
):
    nonce = chain.state.nonce_of(alice.address)
    receipt = alice.transact(recorder, "submit", amount=1, token=token)
    assert not receipt.success
    assert "SMACS" in receipt.error
    assert receipt.gas_used > 0
    assert chain.state.nonce_of(alice.address) == nonce + 1
    assert chain.read(recorder, "entries") == 0


def test_token_for_wrong_contract_rejected(chain, owner, alice, alice_wallet,
                                            recorder, token_service):
    from repro.contracts.protected_target import ProtectedRecorder
    from repro.core import OwnerWallet

    other = OwnerWallet(owner, token_service).deploy_protected(ProtectedRecorder).return_value
    token = alice_wallet.request_token(recorder, TokenType.METHOD, "submit")
    # The token names `recorder` as cAddr; presenting it to `other` must fail.
    receipt = alice.transact(other, "submit", 5, token=token.to_bytes())
    assert not receipt.success


def test_substitution_attack_token_bound_to_client(chain, alice, bob, alice_wallet, recorder):
    """§VII-A(a): an intercepted token cannot be used from another address."""
    token = alice_wallet.request_token(recorder, TokenType.METHOD, "submit")
    stolen = bob.transact(recorder, "submit", 5, token=token.to_bytes())
    assert not stolen.success
    assert submit_with(alice, recorder, token).success  # still fine for alice


def test_tampered_token_fields_rejected(chain, alice, alice_wallet, recorder):
    token = alice_wallet.request_token(recorder, TokenType.METHOD, "submit")
    raw = bytearray(token.to_bytes())
    raw[1:5] = (2**31).to_bytes(4, "big")  # stretch the expiry
    receipt = alice.transact(recorder, "submit", 5, token=bytes(raw))
    assert not receipt.success


def test_wrong_token_service_key_rejected(chain, owner, alice, recorder):
    # A full, well-formed token from a *different* (attacker-run) TS.
    from repro.core import TokenService, TokenRequest

    rogue = TokenService(keypair=KeyPair.from_seed("rogue"), clock=chain.clock)
    token = issue_one(rogue, TokenRequest.method_token(recorder.this, alice.address, "submit"))
    assert not submit_with(alice, recorder, token).success


# --- one-time tokens on-chain --------------------------------------------------------------------


def test_one_time_token_single_use(chain, alice, alice_wallet, recorder):
    token = alice_wallet.request_token(recorder, TokenType.METHOD, "submit", one_time=True)
    assert token.index == 0
    assert submit_with(alice, recorder, token).success
    replay = submit_with(alice, recorder, token)
    assert not replay.success
    assert chain.read(recorder, "entries") == 1


def test_one_time_tokens_used_out_of_order(chain, alice, alice_wallet, recorder):
    tokens = [
        alice_wallet.request_token(recorder, TokenType.METHOD, "submit", one_time=True)
        for _ in range(4)
    ]
    order = [tokens[2], tokens[0], tokens[3], tokens[1]]
    results = [submit_with(alice, recorder, t).success for t in order]
    assert results == [True, True, True, True]


def test_one_time_token_rejected_if_contract_has_no_bitmap(chain, owner, alice, token_service):
    from repro.contracts.protected_target import ProtectedRecorder
    from repro.core import ClientWallet, OwnerWallet

    bare = OwnerWallet(owner, token_service).deploy_protected(
        ProtectedRecorder, one_time_bitmap_bits=0
    ).return_value
    wallet = ClientWallet(alice, {bare.this: token_service})
    token = wallet.request_token(bare, TokenType.METHOD, "submit", one_time=True)
    assert not alice.transact(bare, "submit", 5, token=token.to_bytes()).success


def test_failed_body_does_not_consume_one_time_token(chain, alice, alice_wallet, recorder):
    token = alice_wallet.request_token(recorder, TokenType.METHOD, "submit", one_time=True)
    # amount=0 fails the body's require AFTER verification; the bitmap update
    # must be rolled back with the rest of the frame.
    failed = alice.transact(recorder, "submit", 0, token=token.to_bytes())
    assert not failed.success
    assert submit_with(alice, recorder, token, amount=3).success


# --- gas accounting --------------------------------------------------------------------------------


def test_gas_breakdown_has_verify_category(chain, alice, alice_wallet, recorder):
    token = alice_wallet.request_token(recorder, TokenType.METHOD, "submit")
    receipt = submit_with(alice, recorder, token)
    assert receipt.breakdown("verify") > 50_000
    assert receipt.misc_gas > 21_000


def test_one_time_adds_bitmap_category(chain, alice, alice_wallet, recorder):
    token = alice_wallet.request_token(recorder, TokenType.METHOD, "submit", one_time=True)
    receipt = submit_with(alice, recorder, token)
    assert receipt.breakdown("bitmap") > 10_000


def test_argument_verification_costs_more_than_method_than_super(chain, alice,
                                                                  alice_wallet, recorder):
    costs = {}
    for token_type in (TokenType.SUPER, TokenType.METHOD, TokenType.ARGUMENT):
        kwargs = {}
        if token_type is TokenType.METHOD:
            kwargs = {"method": "submit"}
        elif token_type is TokenType.ARGUMENT:
            kwargs = {"method": "submit", "arguments": {"amount": 5}}
        token = alice_wallet.request_token(recorder, token_type, **kwargs)
        receipt = alice.transact(recorder, "submit", amount=5, token=token.to_bytes())
        assert receipt.success
        costs[token_type] = receipt.breakdown("verify")
    assert costs[TokenType.SUPER] < costs[TokenType.METHOD] < costs[TokenType.ARGUMENT]


def test_internal_calls_skip_verification(chain, owner, alice, token_service):
    """Fig. 4: a protected public method called internally needs no token."""
    from repro.chain.contract import external
    from repro.core import OwnerWallet
    from repro.core.smacs_contract import SMACSContract, smacs_protected

    class Outer(SMACSContract):
        def constructor(self, ts_address):
            self.init_smacs(ts_address)
            self.storage["hits"] = 0

        @external
        @smacs_protected
        def entry(self):
            return self.helper()

        @external
        @smacs_protected
        def helper(self):
            return self.storage.increment("hits")

    contract = OwnerWallet(owner, token_service).deploy_protected(Outer).return_value
    from repro.core import ClientWallet

    wallet = ClientWallet(alice, {contract.this: token_service})
    token = wallet.request_token(contract, TokenType.METHOD, "entry")
    receipt = alice.transact(contract, "entry", token=token.to_bytes())
    assert receipt.success, receipt.error
    assert receipt.return_value == 1
    # Calling helper() externally with the entry token still fails.
    assert not alice.transact(contract, "helper", token=token.to_bytes()).success
