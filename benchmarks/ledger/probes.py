"""Micro-probes of the two leaf layers no span can split from outside.

``api.codec`` runs on the workload's own envelope and lane, so it bounds
what the self time of ``api.gateway`` / ``api.client`` can ever save;
``crypto`` gives the curve and hash rates every other layer is built on.
Both run in the traced run only, before its segments.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.api import codec
from repro.core.token_request import TokenRequest
from repro.crypto.keccak import keccak256
from repro.crypto.keys import KeyPair, recover_address, recover_address_batch

from benchmarks.ledger.harness import METHOD
from benchmarks.ledger.stack import ROUTE, Stack
from benchmarks.ledger.workloads import Workload

CODEC_PROBE_SECONDS = 1.0
CRYPTO_PROBE_SECONDS = 2.0


def calls_per_second(call: Callable[[], object], budget: float) -> float:
    """Repeat ``call`` for ``budget`` seconds; its completed calls per second."""
    clock = time.perf_counter
    calls = 0
    started = clock()
    deadline = started + budget
    while True:
        call()
        calls += 1
        now = clock()
        if now >= deadline:
            return calls / (now - started)


def codec_probe(stack: Stack, workload: Workload) -> "dict[str, float]":
    """Microseconds per envelope for the four codec directions."""
    lane = workload.wire_codec
    clients = stack.node.clients
    contract = stack.node.recorder.this
    requests = [
        TokenRequest.argument_token(
            contract, clients[i].address, METHOD, {"amount": i + 1}, one_time=True
        )
        if workload.token == "argument"
        else TokenRequest.method_token(contract, clients[i].address, METHOD, one_time=True)
        for i in range(workload.batch)
    ]
    # Real results to encode; the one-time indexes they burn are never spent.
    results = stack.issuer.submit(requests)

    def encode_request() -> bytes:
        body = {"requests": [codec.encode_token_request(r) for r in requests]}
        return codec.encode_request_envelope("submit", ROUTE, body, codec=lane)

    def encode_response() -> bytes:
        body = {"results": [codec.encode_issuance_result(r) for r in results]}
        return codec.encode_response_envelope(body, codec=lane)

    raw_request, raw_response = encode_request(), encode_response()

    def decode_request() -> object:
        body = codec.decode_request_full(raw_request)[2]
        return [codec.decode_token_request(item) for item in body["requests"]]

    def decode_response() -> object:
        body = codec.decode_response_envelope(raw_response)
        return [codec.decode_issuance_result(item) for item in body["results"]]

    budget = CODEC_PROBE_SECONDS / 4
    return {
        f"api.codec.{name}_us": 1e6 / calls_per_second(call, budget)
        for name, call in (
            ("encode_request", encode_request),
            ("decode_request", decode_request),
            ("encode_response", encode_response),
            ("decode_response", decode_response),
        )
    }


def crypto_probe() -> "dict[str, float]":
    """Operations per second of the curve and hash primitives."""
    keypair = KeyPair.from_seed("ledger-probe")
    digests = [keccak256(b"ledger-probe-%d" % i) for i in range(64)]
    pairs = [(digest, keypair.sign(digest)) for digest in digests]
    datagram = bytes(range(86))
    cursor = [0]

    def recover() -> object:
        cursor[0] = (cursor[0] + 1) % len(pairs)
        return recover_address(*pairs[cursor[0]])

    def sign() -> object:
        cursor[0] = (cursor[0] + 1) % len(digests)
        return keypair.sign(digests[cursor[0]])

    budget = CRYPTO_PROBE_SECONDS / 4
    return {
        "crypto.ecdsa.recover_ops_per_s": calls_per_second(recover, budget),
        "crypto.ecdsa.sign_ops_per_s": calls_per_second(sign, budget),
        "crypto.ecdsa.recover_batch64_ops_per_s": len(pairs)
        * calls_per_second(lambda: recover_address_batch(pairs), budget),
        "crypto.keccak.short_ops_per_s": calls_per_second(lambda: keccak256(datagram), budget),
    }
