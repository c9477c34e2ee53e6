"""Token-pipeline throughput: serial vs batched vs cached issuance.

The Fig. 9 harness measures one Token Service against uniform batches; this
harness measures the *pipeline* against the named scenario mixes
(flash-sale bursts, adversarial replay storm, multi-contract fan-out) in
three configurations over the same request stream:

* ``serial``  -- one request per submission (per-request session overhead);
* ``batched`` -- one submission per scenario batch (amortised overhead);
* ``cached``  -- the same batches through a service that issues through a
  :class:`~repro.crypto.sigcache.SignatureCache`, so a replayed reusable
  request is one memo lookup instead of a hash and a signature.

Set ``SMACS_PIPELINE_BURST`` to scale the workloads (CI runs a quick
configuration).
"""

from __future__ import annotations

import time

from benchmarks.conftest import env_int, report
from repro.api import TokenIssuer, build_service
from repro.core.acr import RuleSet
from repro.crypto.keys import KeyPair
from repro.crypto.sigcache import SignatureCache
from repro.workloads import (
    ScenarioMix,
    flash_sale_bursts,
    multi_contract_fanout,
    replay_storm,
    submit_mix,
)

BURST = env_int("SMACS_PIPELINE_BURST", 48)

TS_KEYPAIR = KeyPair.from_seed("pipeline-ts")
CONTRACTS = [KeyPair.from_seed(f"pipeline-contract-{i}").address for i in range(4)]
CLIENTS = [KeyPair.from_seed(f"pipeline-client-{i}").address for i in range(12)]


def _scenarios() -> list[ScenarioMix]:
    flash = flash_sale_bursts(
        CONTRACTS[0], CLIENTS, bursts=4, burst_size=BURST, seed=11
    )
    storm = replay_storm(
        CONTRACTS[0], CLIENTS,
        unique_requests=max(BURST // 4, 4), replays_per_request=12,
        batch_size=BURST, seed=12,
    )
    fanout = multi_contract_fanout(
        CONTRACTS, CLIENTS,
        requests_per_contract=max(BURST // 2, 8), batch_size=BURST, seed=13,
    )
    combined = ScenarioMix(
        name="combined",
        batches=flash.batches + storm.batches + fanout.batches,
        description="flash-sale + replay-storm + fan-out, interleaved by batch",
    )
    return [flash, storm, fanout, combined]


def _fresh_service(signature_cache: "SignatureCache | None" = None) -> TokenIssuer:
    return build_service(
        "serial", keypair=TS_KEYPAIR, rules=RuleSet(), signature_cache=signature_cache
    )


def _run_serial(mix: ScenarioMix) -> float:
    service = _fresh_service()
    requests = mix.flattened()
    start = time.perf_counter()
    for request in requests:
        results = service.submit(request)
        assert results[0].issued
    return len(requests) / (time.perf_counter() - start)


def _run_batched(mix: ScenarioMix, signature_cache: "SignatureCache | None" = None) -> float:
    service = _fresh_service(signature_cache)
    start = time.perf_counter()
    results = submit_mix(service, mix)
    elapsed = time.perf_counter() - start
    assert all(result.issued for result in results)
    return len(results) / elapsed


def test_pipeline_throughput_serial_vs_batched_vs_cached(benchmark):
    table: dict[str, dict[str, float]] = {}
    stats: dict[str, dict] = {}

    def run():
        for mix in _scenarios():
            cache = SignatureCache()
            serial = _run_serial(mix)
            batched = _run_batched(mix)
            cached = _run_batched(mix, cache)
            table[mix.name] = {"serial": serial, "batched": batched, "cached": cached}
            stats[mix.name] = cache.stats()

    benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        "Pipeline throughput (tokens issued per second, same request stream)",
        f"{'scenario':<24}{'serial':>12}{'batched':>12}{'cached':>12}"
        f"{'batch x':>10}{'cache x':>10}",
    ]
    data: dict[str, dict] = {}
    for name, row in table.items():
        batch_speedup = row["batched"] / row["serial"]
        cache_speedup = row["cached"] / row["serial"]
        lines.append(
            f"{name:<24}{row['serial']:>12.1f}{row['batched']:>12.1f}"
            f"{row['cached']:>12.1f}{batch_speedup:>10.2f}{cache_speedup:>10.2f}"
        )
        data[name] = {
            **{k: round(v, 1) for k, v in row.items()},
            "batched_speedup": round(batch_speedup, 2),
            "cached_speedup": round(cache_speedup, 2),
            "signature_cache": stats[name],
        }
    report("pipeline_throughput", lines, data=data)
    benchmark.extra_info.update(
        {f"{name}_cached_speedup": data[name]["cached_speedup"] for name in data}
    )

    for name, row in table.items():
        # Amortising the session overhead must always pay.
        assert row["batched"] > row["serial"], name
        assert row["cached"] > row["serial"], name
    # Acceptance: the batched, cached pipeline sustains >= 3x serial issuance
    # on the same workload; the replay storm (where the signature cache bites
    # hardest) carries the hard bound, the mixed stream a conservative one.
    assert table["replay-storm"]["cached"] >= 3.0 * table["replay-storm"]["serial"]
    assert table["combined"]["cached"] >= 2.5 * table["combined"]["serial"]
    # The deterministic-signature cache must actually be hitting under replay.
    assert stats["replay-storm"]["hit_rate"] > 0.5


def test_cached_issuance_matches_serial_decisions(benchmark):
    """Same workload, same accept/deny decisions -- speed must not change policy."""
    mix = _scenarios()[1]  # replay storm
    serial_service = _fresh_service()
    cached_service = _fresh_service(SignatureCache())

    def run():
        requests = mix.flattened()
        serial = serial_service.submit(requests)
        cached = submit_mix(cached_service, mix)
        return serial, cached

    serial, cached = benchmark.pedantic(run, rounds=1, iterations=1)
    assert [r.issued for r in serial] == [r.issued for r in cached]
