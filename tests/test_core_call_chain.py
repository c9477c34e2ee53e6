"""Tests for call-chain token bundles (§IV-D, Fig. 5)."""

import pytest

from repro.api import issue_one
from repro.contracts.call_chain_demo import build_call_chain
from repro.core import ClientWallet, TokenBundle, TokenService, TokenType
from repro.core.call_chain import normalise_token_argument
from repro.core.token import TOKEN_SIZE, Token
from repro.crypto.keys import KeyPair


@pytest.fixture
def services(chain):
    return [
        TokenService(keypair=KeyPair.from_seed(f"chain-ts-{i}"), clock=chain.clock,
                     label=f"ts-{i}")
        for i in range(3)
    ]


@pytest.fixture
def chain_contracts(chain, owner, services):
    return build_call_chain(owner, services)


@pytest.fixture
def client_wallet(alice, chain_contracts, services):
    wallet = ClientWallet(alice)
    for contract, service in zip(chain_contracts, services):
        wallet.register_service(contract, service)
    return wallet


def _bundle_for(wallet, contracts):
    return wallet.acquire_bundle(
        [{"contract": c, "method": "invoke", "token_type": TokenType.METHOD} for c in contracts]
    )


# --- TokenBundle unit behaviour -------------------------------------------------------


def test_bundle_roundtrip_and_lookup(chain_contracts, client_wallet):
    bundle = _bundle_for(client_wallet, chain_contracts)
    assert len(bundle) == 3
    raw = bundle.to_bytes()
    assert len(raw) == 3 * (20 + TOKEN_SIZE)
    decoded = TokenBundle.from_bytes(raw)
    for contract in chain_contracts:
        assert decoded.token_for(contract.this) == bundle.token_for(contract.this)
    assert decoded.token_for(b"\x99" * 20) is None


def test_bundle_rejects_malformed_entries():
    with pytest.raises(ValueError):
        TokenBundle().add(b"\x01" * 19, b"\x00" * TOKEN_SIZE)
    with pytest.raises(ValueError):
        TokenBundle().add(b"\x01" * 20, b"\x00" * 10)
    with pytest.raises(ValueError):
        TokenBundle.from_bytes(b"\x00" * 50)


def test_bundle_accepts_token_objects(chain_contracts, client_wallet):
    token = client_wallet.request_token(chain_contracts[0], TokenType.METHOD, "invoke")
    bundle = TokenBundle().add(chain_contracts[0].this, token)
    assert Token.from_bytes(bundle.token_for(chain_contracts[0].this)) == token


def test_normalise_token_argument_variants(chain_contracts, client_wallet):
    token = client_wallet.request_token(chain_contracts[0], TokenType.METHOD, "invoke")
    assert normalise_token_argument(None) is None
    assert normalise_token_argument(token) == token.to_bytes()
    assert normalise_token_argument(token.to_bytes()) == token.to_bytes()
    bundle = TokenBundle().add(chain_contracts[0].this, token)
    assert isinstance(normalise_token_argument(bundle.to_bytes()), TokenBundle)
    with pytest.raises(TypeError):
        normalise_token_argument(12345)


def test_bundle_describe(chain_contracts, client_wallet):
    bundle = _bundle_for(client_wallet, chain_contracts)
    assert bundle.describe().count("||") == 2


# --- end-to-end call chains ----------------------------------------------------------------


def test_depth_three_call_chain_with_full_bundle(chain, alice, chain_contracts, client_wallet):
    bundle = _bundle_for(client_wallet, chain_contracts)
    receipt = client_wallet.call_with_bundle(chain_contracts[0], "invoke", bundle, 1)
    assert receipt.success, receipt.error
    assert receipt.return_value == 3  # depth reached SCC
    for contract in chain_contracts:
        assert chain.read(contract, "invocations") == 1


def test_missing_downstream_token_blocks_the_chain(chain, alice, chain_contracts, client_wallet):
    # Token only for SCA and SCB: SCC must reject and the whole call reverts.
    bundle = _bundle_for(client_wallet, chain_contracts[:2])
    receipt = client_wallet.call_with_bundle(chain_contracts[0], "invoke", bundle, 1)
    assert not receipt.success
    for contract in chain_contracts:
        assert chain.read(contract, "invocations") == 0


def test_single_token_is_enough_for_depth_one(chain, alice, services, owner, client_wallet):
    solo = build_call_chain(owner, services[:1])[0]
    service = services[0]
    wallet = ClientWallet(alice, {solo.this: service})
    receipt = wallet.call_with_token(solo, "invoke", 7, token_type=TokenType.METHOD)
    assert receipt.success
    assert chain_read_invocations(solo) == 1


def chain_read_invocations(contract):
    return contract.storage.peek("invocations", 0)


def test_gas_grows_linearly_with_chain_depth(chain, owner, alice):
    """The Tab. III / Fig. 8 shape: aggregated cost is linear in token count."""
    totals = []
    for depth in (1, 2, 3):
        services = [
            TokenService(keypair=KeyPair.from_seed(f"depth{depth}-ts{i}"), clock=chain.clock)
            for i in range(depth)
        ]
        contracts = build_call_chain(owner, services)
        wallet = ClientWallet(alice)
        for contract, service in zip(contracts, services):
            wallet.register_service(contract, service)
        bundle = wallet.acquire_bundle(
            [{"contract": c, "method": "invoke", "token_type": TokenType.METHOD}
             for c in contracts]
        )
        receipt = wallet.call_with_bundle(contracts[0], "invoke", bundle, 1)
        assert receipt.success
        totals.append(receipt.gas_used)
    assert totals[0] < totals[1] < totals[2]
    increment_1 = totals[1] - totals[0]
    increment_2 = totals[2] - totals[1]
    assert increment_2 == pytest.approx(increment_1, rel=0.35)


def test_parse_gas_category_appears_for_bundles(chain, alice, chain_contracts, client_wallet):
    bundle = _bundle_for(client_wallet, chain_contracts)
    receipt = client_wallet.call_with_bundle(chain_contracts[0], "invoke", bundle, 1)
    assert receipt.breakdown("parse") > 0


def test_per_contract_token_services_can_differ(chain, alice, chain_contracts, services,
                                                client_wallet):
    """Each TS is operated independently; a token from the wrong TS fails."""
    wrong_bundle = TokenBundle()
    # Ask ts-1 (the SCB service) for a token naming SCA as the contract.
    from repro.core.token_request import TokenRequest

    bad_token = issue_one(
        services[1],
        TokenRequest.method_token(chain_contracts[0].this, alice.address, "invoke")
    )
    wrong_bundle.add(chain_contracts[0].this, bad_token)
    receipt = client_wallet.call_with_bundle(chain_contracts[0], "invoke", wrong_bundle, 1)
    assert not receipt.success
