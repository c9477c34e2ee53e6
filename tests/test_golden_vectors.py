"""Golden vectors: the bytes one Fig. 6 argument envelope must always produce.

``tests/golden/argument_envelope_32.json`` holds, for a fixed Token Service
key, clock and counter start: the 32 token byte strings and datagram digests
of one 32-request argument envelope, the signing digest and hash of the 32
signed transactions that carry those tokens, the hash and gas of the block
that executes them and the v2 state root after it, then one reusable method
token and the §IV-D array of a two-contract call chain.  It was written by
this file, run as a script against the tree of commit ``6a4f6be`` (the parent
of the PR that taught the sponge to hash by lanes; the state root, the
reusable token and the array against ``97e01ad``, whose bytes for the older
items are the same)::

    PYTHONPATH=<that tree>/src python tests/test_golden_vectors.py

so whatever batches, packs or memoizes the hashing today is compared against
what the scalar per-message path produced then -- never against itself.

Three values are redefinitions, each made once and on purpose, and each is
held by a test that recomputes it from an independent reference instead:

* ``block_hash`` moved when the header began to commit to a lane-hashed
  transactions root instead of the flat concatenation of transaction hashes
  (5ff7b338... before): :func:`test_the_block_hashes_are_the_scalar_reference`
  recomputes root and hash with the scalar ``keccak256`` alone;
* ``tx_signing_digests`` and ``tx_hashes`` (and with them ``block_hash``
  again) moved when the signature began to cover the transaction's
  canonical encoding instead of a fixed header plus padded ABI calldata:
  :func:`test_the_transaction_digests_are_the_reference_encoding` rebuilds
  each payload with the recursive reference codec and hashes it with the
  scalar ``keccak256``.  Those three fields were written by this file
  against the tree that made that change; every other field is unchanged.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.chain import Blockchain
from repro.chain.clock import SimulatedClock
from repro.chain.transaction import Transaction
from repro.crypto.keccak import keccak256
from repro.contracts.protected_target import ProtectedRecorder
from repro.core import OwnerWallet
from repro.core.call_chain import TokenBundle
from repro.core.token import signing_datagram
from repro.core.token_request import TokenRequest
from repro.core.token_service import TokenService, _LocalCounter, build_fig6_ruleset
from repro.crypto.keys import KeyPair
from repro.crypto.sigcache import SignatureCache
from repro.pipeline import ExecutionPipeline
from repro.pipeline.load import DEFAULT_CALL_GAS_LIMIT
from repro.storage.codec import state_root

import storage_codec_reference as reference  # the recursive codec, as the oracle
from test_chain_transaction_block import scalar_block_hash

GOLDEN = Path(__file__).parent / "golden" / "argument_envelope_32.json"
ENVELOPE = 32
#: the array's second entry names a contract that need not exist: the Token
#: Service signs for the address it is asked about
SECOND_CONTRACT = bytes.fromhex("5c" * 20)


def run(batched: bool) -> "tuple[dict, Blockchain]":
    """Issue, sign, admit and execute one envelope; every byte that came out,
    and the chain it happened on.

    ``batched`` sends the 32 requests as one submission and the 32
    transactions as one ``ingest``; otherwise each goes alone.
    """
    cache = SignatureCache()
    chain = Blockchain(auto_mine=True, clock=SimulatedClock(start=1_600_000_000))
    chain.evm.signature_cache = cache
    owner = chain.create_account("owner", seed="golden-owner")
    clients = [
        chain.create_account(f"client-{i}", seed=f"golden-client-{i}") for i in range(ENVELOPE)
    ]
    service = TokenService(
        keypair=KeyPair.from_seed("golden-ts"),
        rules=build_fig6_ruleset(
            [client.address for client in clients],
            method_blacklists={"submit": [owner.address]},
            argument_whitelists={"amount": range(1, ENVELOPE + 1)},
        ),
        clock=chain.clock,
        counter=_LocalCounter(start=41),
        signature_cache=cache,
    )
    receipt = OwnerWallet(owner, service).deploy_protected(
        ProtectedRecorder, one_time_bitmap_bits=1024
    )
    assert receipt.success, receipt.error
    contract = receipt.return_value.this
    chain.auto_mine = False
    pipeline = ExecutionPipeline(chain, signature_cache=cache)

    requests = [
        TokenRequest.argument_token(
            contract, client.address, "submit", {"amount": i + 1}, one_time=True
        )
        for i, client in enumerate(clients)
    ]
    if batched:
        results = service.submit(requests)
    else:
        results = [service.submit(request)[0] for request in requests]
    tokens = [result.token for result in results]
    digests = [
        cache.digest_for(
            signing_datagram(
                token.token_type,
                token.expire,
                token.index,
                client.address,
                contract,
                method="submit",
                arguments={"amount": i + 1},
            )
        )
        for i, (token, client) in enumerate(zip(tokens, clients))
    ]

    txs = [
        Transaction(
            sender=client.address,
            to=contract,
            nonce=client.nonce,
            method="submit",
            kwargs={"amount": i + 1, "token": token.to_bytes()},
            gas_limit=DEFAULT_CALL_GAS_LIMIT,
        ).sign_with(client.keypair)
        for i, (token, client) in enumerate(zip(tokens, clients))
    ]
    if batched:
        decisions = pipeline.ingest(txs)
    else:
        decisions = [pipeline.mempool.admit(tx) for tx in txs]
    assert all(decision.admitted for decision in decisions), decisions
    block = pipeline.run_block()
    assert block is not None and block.succeeded == ENVELOPE
    root = state_root(chain.state)

    # Issued after the block, so nothing above depends on them.
    reusable, second = (
        result.token
        for result in service.submit(
            [
                TokenRequest.method_token(contract, clients[0].address, "submit"),
                TokenRequest.super_token(SECOND_CONTRACT, clients[0].address),
            ]
        )
    )
    bundle = TokenBundle().add(contract, reusable).add(SECOND_CONTRACT, second)

    vectors = {
        "tokens": [token.to_bytes().hex() for token in tokens],
        "datagram_digests": [digest.hex() for digest in digests],
        "tx_signing_digests": [tx.signing_digest().hex() for tx in txs],
        "tx_hashes": [tx.hash().hex() for tx in txs],
        "block_hash": chain.latest_block.hash().hex(),
        "block_gas_used": chain.latest_block.gas_used,
        "state_root_v2": root.hex(),
        "reusable_token": reusable.to_bytes().hex(),
        "token_bundle": bundle.to_bytes().hex(),
    }
    return vectors, chain


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "one-by-one"])
def test_envelope_bytes_match_the_golden_file(batched):
    assert run(batched)[0] == json.loads(GOLDEN.read_text())


def test_the_block_hashes_are_the_scalar_reference(packed_permutations):
    vectors, chain = run(batched=True)
    packed_permutations[0] = 0
    for parent, block in zip(chain.blocks, chain.blocks[1:]):
        assert block.parent_hash == scalar_block_hash(parent)
    assert scalar_block_hash(chain.latest_block).hex() == vectors["block_hash"]
    assert packed_permutations[0] == 0  # the reference never touched the lanes
    assert vectors["block_hash"] == json.loads(GOLDEN.read_text())["block_hash"]


def test_the_transaction_digests_are_the_reference_encoding(packed_permutations):
    """Each golden transaction's payload is its fields as the recursive
    reference codec writes them, and its digest and hash are the scalar
    ``keccak256`` of that payload and of payload ‖ signature."""
    vectors, chain = run(batched=True)
    golden = json.loads(GOLDEN.read_text())
    txs = chain.latest_block.transactions
    assert len(txs) == ENVELOPE
    packed_permutations[0] = 0
    for i, tx in enumerate(txs):
        payload = reference.encode_value(
            {
                "s": tx.sender,
                "t": tx.to,
                "n": tx.nonce,
                "m": "submit",
                "a": (),
                "k": {"amount": i + 1, "token": bytes.fromhex(golden["tokens"][i])},
                "v": 0,
                "g": DEFAULT_CALL_GAS_LIMIT,
                "p": 1,
            }
        )
        assert tx.signing_payload() == payload
        assert keccak256(payload).hex() == golden["tx_signing_digests"][i]
        assert keccak256(payload + tx.signature.to_bytes()).hex() == golden["tx_hashes"][i]
    assert packed_permutations[0] == 0  # the reference never touched the lanes


if __name__ == "__main__":
    vectors = run(batched=False)[0]
    assert vectors == run(batched=True)[0]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(vectors, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
