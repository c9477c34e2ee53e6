"""Fig. 9 -- throughput of the Token Service.

The paper submits 10^0 .. 10^5 token requests per batch for each token type
(super, method, argument, one-time argument) against a TS configured with the
Fig. 6 blacklist/whitelist rules, and reports requests processed per second.
Throughput rises with the batch size (per-connection overhead amortises) and
stabilises around a few hundred requests per second (~5 ms per token).

By default the sweep stops at 10^3 requests per batch so the harness stays
fast; set ``SMACS_FIG9_MAX_EXP=5`` to reproduce the full 10^5 sweep.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import env_int, report
from repro.core import TokenService, TokenType
from repro.core.token_service import build_fig6_ruleset
from repro.crypto.keys import KeyPair
from repro.workloads import TokenRequestWorkload, WorkloadConfig
from repro.workloads.generator import batch_size_sweep

MAX_EXPONENT = env_int("SMACS_FIG9_MAX_EXP", 3)
SERIES = [
    ("super", TokenType.SUPER, False),
    ("method", TokenType.METHOD, False),
    ("argument", TokenType.ARGUMENT, False),
    ("argument-one-time", TokenType.ARGUMENT, True),
]
CONTRACT = KeyPair.from_seed("fig9-contract").address
CLIENTS = [KeyPair.from_seed(f"fig9-client-{i}").address for i in range(8)]


def _service() -> TokenService:
    rules = build_fig6_ruleset(
        CLIENTS,
        method_blacklists={"blockedMethod": [KeyPair.from_seed("banned").address]},
        argument_whitelists={"amount": list(range(0, 1001))},
    )
    return TokenService(keypair=KeyPair.from_seed("fig9-ts"), rules=rules)


def _workload(token_type: TokenType, one_time: bool) -> TokenRequestWorkload:
    return TokenRequestWorkload(
        WorkloadConfig(
            contract=CONTRACT,
            clients=CLIENTS,
            token_type=token_type,
            method="submit",
            argument_space={"amount": list(range(1, 1000))},
            one_time=one_time,
            seed=9,
        )
    )


def _throughput(service: TokenService, requests) -> float:
    """Requests per second through one submission; the best of a few for the
    batches short enough (a 100-request batch is ~20 ms) that one scheduler
    hiccup would otherwise decide the saturation check."""
    best = 0.0
    for _ in range(max(1, min(5, 300 // len(requests)))):
        start = time.perf_counter()
        results = service.submit(requests)
        elapsed = time.perf_counter() - start
        assert all(r.issued for r in results)
        best = max(best, len(results) / elapsed)
    return best


@pytest.mark.parametrize("label,token_type,one_time", SERIES)
def test_fig9_throughput_rises_with_batch_size(benchmark, label, token_type, one_time):
    service = _service()
    workload = _workload(token_type, one_time)
    batch_sizes = batch_size_sweep(MAX_EXPONENT)
    throughputs = {}

    def sweep():
        for size in batch_sizes:
            throughputs[size] = _throughput(service, workload.batch(size))

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {f"rps_batch_{size}": round(rps, 1) for size, rps in throughputs.items()}
    )

    # Throughput improves from single requests to large batches and saturates
    # at a rate that could absorb Ethereum's peak load (~35-48 tx/s, §VI-B).
    assert throughputs[batch_sizes[-1]] > throughputs[1]
    assert throughputs[batch_sizes[-1]] > 48


def test_fig9_full_figure(benchmark):
    batch_sizes = batch_size_sweep(MAX_EXPONENT)
    table: dict[str, dict[int, float]] = {}

    def sweep_all():
        for label, token_type, one_time in SERIES:
            service = _service()
            workload = _workload(token_type, one_time)
            table[label] = {
                size: _throughput(service, workload.batch(size)) for size in batch_sizes
            }

    benchmark.pedantic(sweep_all, rounds=1, iterations=1)

    lines = ["Fig. 9 -- Token Service throughput (requests processed per second)",
             f"{'batch':<10}" + "".join(f"{label:>20}" for label, _, _ in SERIES)]
    for size in batch_sizes:
        lines.append(
            f"{size:<10}" + "".join(f"{table[label][size]:>20.1f}" for label, _, _ in SERIES)
        )
    report("fig9_ts_throughput", lines)

    # The paper's shape, not its absolute height (it saturates near 200 req/s
    # on a Node.js server; this curve's height is whatever the crypto kernels
    # reach): every series rises with the batch size, absorbs Ethereum's peak
    # load (48 tx/s, SVI-B), and has flattened by batch 1,000 ...
    for label, _, _ in SERIES:
        series = table[label]
        assert series[batch_sizes[-1]] > series[1] > 48
        if 1000 in series:
            assert series[1000] < 1.25 * series[100], f"{label} has not saturated"
    # ... and the one-time series carries the surcharge (a counter round on
    # top of the same signature), so no reusable series may sit below it
    # (10 % for noise) once batches amortise the session overhead.
    for size in batch_sizes:
        if size >= 100:
            floor = 0.9 * table["argument-one-time"][size]
            for label, _, one_time in SERIES:
                assert one_time or table[label][size] >= floor, (label, size)


def test_fig9_denied_requests_do_not_crash_batches(benchmark):
    service = _service()
    outsider = KeyPair.from_seed("outsider").address
    from repro.core.token_request import TokenRequest

    mixed = [TokenRequest.method_token(CONTRACT, CLIENTS[0], "submit"),
             TokenRequest.method_token(CONTRACT, outsider, "submit")]
    results = benchmark(service.submit, mixed)
    assert results[0].issued
    assert not results[1].issued
