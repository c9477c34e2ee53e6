"""Golden gas rows: what Alg. 1 charges, call by call, pinned from another tree.

``tests/golden/gas_rows.json`` holds, for a fixed Token Service key, clock
and counter start: the receipt (success, error string, gas used, per-category
gas breakdown) of one accepted call per token type -- super / method /
argument, one-time and reusable: the rows of Tab. II -- of a forged token (an
untrusted key's signature under the trusted contract) and a stolen one (a
genuine token presented by another origin), of a genuine token at a contract
whose trusted-signer slot is empty, and of one reusable method token
presented under a sweep of gas limits, so every point at which the call can
run out of gas -- the ``ecrecover`` precompile's charge among them -- is a
row.  It was written by this file, run as a script against the tree of
commit ``97a2e5c`` (the parent of the PR that made Alg. 1's signature check a
known-key check)::

    PYTHONPATH=<that tree>/src python tests/test_golden_gas_rows.py

so the verifier is compared with what the recover-and-compare one charged
then -- never with itself.  Gas is a function of the call alone: the two
node configurations below (tokens primed at issuance, tokens the node has
never seen) must read the same rows.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.chain import Blockchain
from repro.chain.clock import SimulatedClock
from repro.contracts.protected_target import ProtectedRecorder
from repro.core import ClientWallet, OwnerWallet, TokenType
from repro.core.acr import RuleSet
from repro.core.token_service import TokenService, _LocalCounter
from repro.core.verifier import TS_ADDRESS_SLOT
from repro.crypto.keys import KeyPair

GOLDEN = Path(__file__).parent / "golden" / "gas_rows.json"

FLAVOURS = [
    (f"{name}{'-one-time' if one_time else ''}", token_type, one_time)
    for one_time in (False, True)
    for name, token_type in (
        ("super", TokenType.SUPER),
        ("method", TokenType.METHOD),
        ("argument", TokenType.ARGUMENT),
    )
]
ARGUMENTS = {"amount": 5, "memo": "golden"}
#: gas limits of the out-of-gas sweep: one just short of each charge a
#: reusable method token's call makes on its way to 171,840 -- 137,500 dies at
#: the precompile, 138,500 at the trusted-address SLOAD right behind it -- and
#: one that lets it through
SWEEP = (
    20_000, 22_500, 50_000, 80_000, 125_000, 132_500, 137_500, 138_500,
    140_000, 160_000, 171_000, 175_000,
)


def _row(receipt) -> dict:
    return {
        "success": receipt.success,
        "error": receipt.error,
        "gas_used": receipt.gas_used,
        "gas_breakdown": dict(sorted(receipt.gas_breakdown.items())),
    }


def build(node: str) -> dict:
    """Every row, on a node that is ``primed`` (issuer and chain share one
    cache) or ``foreign`` (the chain's cache never saw an issuance)."""
    chain = Blockchain(clock=SimulatedClock(start=1_600_000_000))
    cache = chain.evm.signature_cache
    owner = chain.create_account("owner", seed="golden-gas-owner")
    client = chain.create_account("client", seed="golden-gas-client")
    thief = chain.create_account("thief", seed="golden-gas-thief")

    def service(seed: str) -> TokenService:
        return TokenService(
            keypair=KeyPair.from_seed(seed),
            rules=RuleSet(),
            clock=chain.clock,
            counter=_LocalCounter(start=7),
            signature_cache=cache if node == "primed" else None,
        )

    trusted = service("golden-gas-ts")
    recorder = (
        OwnerWallet(owner, trusted)
        .deploy_protected(ProtectedRecorder, one_time_bitmap_bits=1024)
        .return_value
    )
    wallet = ClientWallet(client, {recorder.this: trusted})
    forger = ClientWallet(client, {recorder.this: service("golden-gas-forger")})

    def call(account, token, **options):
        return _row(
            account.transact(recorder, "submit", token=token.to_bytes(), **ARGUMENTS, **options)
        )

    def request(source, token_type, one_time=False):
        return source.request_token(
            recorder, token_type, method="submit", arguments=ARGUMENTS, one_time=one_time
        )

    rows = {
        label: call(client, request(wallet, token_type, one_time))
        for label, token_type, one_time in FLAVOURS
    }
    rows["forged"] = call(client, request(forger, TokenType.METHOD))
    rows["forged-one-time"] = call(client, request(forger, TokenType.METHOD, one_time=True))
    rows["stolen"] = call(thief, request(wallet, TokenType.METHOD))
    reusable = request(wallet, TokenType.METHOD)
    rows["gas-limit-sweep"] = {
        str(gas_limit): call(client, reusable, gas_limit=gas_limit) for gas_limit in SWEEP
    }
    # A contract that stores no trusted signer verifies nothing -- and is
    # charged for the precompile all the same.
    chain.state.storage_delete(recorder.this, TS_ADDRESS_SLOT)
    rows["no-trusted-signer"] = call(client, reusable)
    return rows


@pytest.mark.parametrize("node", ["primed", "foreign"])
def test_gas_rows_match_the_golden_file(node):
    golden = json.loads(GOLDEN.read_text())
    rows = build(node)
    assert rows == golden
    # The fixture is worth its name only if it holds what it claims to.
    assert all(rows[label]["success"] for label, _, _ in FLAVOURS)
    for refused in ("forged", "forged-one-time", "stolen", "no-trusted-signer"):
        assert not rows[refused]["success"] and "SMACS" in rows[refused]["error"]
    sweep = rows["gas-limit-sweep"]
    assert [row["success"] for row in sweep.values()] == [False] * (len(SWEEP) - 1) + [True]
    assert len({row["error"] for row in sweep.values()}) == len(SWEEP)


if __name__ == "__main__":
    vectors = build("primed")
    assert vectors == build("foreign")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(vectors, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
