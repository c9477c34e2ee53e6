"""End-to-end block execution: serial-execute vs the pipelined ingest path.

The full client -> TS -> contract loop of the paper, driven by the §VI-A
diurnal traces: one-time tokens are issued by the Raft-backed
:class:`~repro.core.replication.ReplicatedTokenService` (whose counter
leader is crashed and restarted mid-issuance to prove the loop survives it),
embedded into signed transactions, and executed against a SMACS-protected
contract three ways over the identical transaction set:

* ``serial``            -- the pre-pipeline baseline: every transaction is
  validated and executed one at a time into its own block, against a cold
  private signature cache (the TS is a remote box);
* ``pipelined e2e``     -- mempool admission + gas-limit block packing +
  pre-warmed execution, all charged to the same single-threaded wall clock;
* ``block production``  -- the pipelined steady state: the mempool is full
  (admission runs concurrently with execution in a real node) and the
  measured path is exactly the ISSUE's "pre-warm + pack" block loop.

A second harness pushes the PR-1 scenario mixes (flash-sale bursts, replay
storm, multi-contract fan-out) through the same pipeline.

Set ``SMACS_E2E_WINDOW`` (seconds of the CryptoKitties peak window) and
``SMACS_E2E_SCENARIO_BURST`` to scale the workloads; CI runs a quick
configuration with identical assertions.
"""

from __future__ import annotations

import statistics
import time

from benchmarks.conftest import env_int, report
from repro.api import ServiceGateway
from repro.chain import Blockchain
from repro.contracts.protected_target import ProtectedRecorder
from repro.core import OwnerWallet
from repro.core.acr import RuleSet
from repro.core.bitmap import required_bitmap_bits
from repro.core.replication import ReplicatedTokenService
from repro.crypto.keys import KeyPair
from repro.crypto.sigcache import SignatureCache
from repro.pipeline import ExecutionPipeline, SmacsLoadGenerator
from repro.workloads import (
    flash_sale_bursts,
    multi_contract_fanout,
    peak_window,
    replay_storm,
    trace_named,
)

WINDOW_SECONDS = env_int("SMACS_E2E_WINDOW", 8)
SCENARIO_BURST = env_int("SMACS_E2E_SCENARIO_BURST", 24)
CLIENTS = 12

#: ``SMACS_OBS=0`` turns the overhead harness into a noise-floor measurement:
#: both lanes run on the shared dormant handle (an A/A of one code path),
#: which is what the CI gate holds to within 2%.  The default run instruments
#: the second lane with full tracing + metrics and holds it to within 10%.
OBS_ENABLED = env_int("SMACS_OBS", 1) == 1
#: alternating rounds per lane of the overhead harness (median reported)
OBS_ROUNDS = 3

#: Tokens live long enough that the *serial* baseline's clock drift (one
#: 13-second block per transaction) cannot expire them mid-run; the bitmap is
#: still sized by the paper's rule for the paper's one-hour lifetime.
TOKEN_LIFETIME = 86_400
PAPER_LIFETIME = 3_600
KITTIES_PEAK = 48.0


TS_ROUTE = "https://ts.smacs.example"


def _setup(shared_cache: "SignatureCache | None"):
    """A chain with a funded client pool, a replicated TS and a recorder.

    The replicated service sits behind a :class:`ServiceGateway`; every token
    request the load generators make crosses the versioned wire envelopes of
    ``repro.api`` through the returned gateway client (``endpoint``), exactly
    as a remote deployment would.  Both measurement chains are built from
    identical seeds, so contract and account addresses match and one
    transaction set executes on either.
    """
    chain = Blockchain()
    if shared_cache is not None:
        chain.evm.signature_cache = shared_cache
    owner = chain.create_account("owner", seed="e2e-owner")
    clients = [chain.create_account(f"c{i}", seed=f"e2e-client-{i}") for i in range(CLIENTS)]
    service = ReplicatedTokenService(
        replica_count=3,
        keypair=KeyPair.from_seed("e2e-bench-ts"),
        rules=RuleSet(),
        clock=chain.clock,
        token_lifetime=TOKEN_LIFETIME,
        seed=37,
        signature_cache=shared_cache,
    )
    gateway = ServiceGateway()
    gateway.register(TS_ROUTE, service)
    endpoint = gateway.client_for(TS_ROUTE)
    bitmap_bits = required_bitmap_bits(PAPER_LIFETIME, KITTIES_PEAK)
    recorder = OwnerWallet(owner, endpoint).deploy_protected(
        ProtectedRecorder, one_time_bitmap_bits=bitmap_bits, ts_url=TS_ROUTE
    ).return_value
    return chain, clients, service, endpoint, recorder


def _issue_trace_load(service, endpoint, recorder, clients, arrivals):
    """Issue tokens + build signed transactions, crashing the Raft counter
    leader mid-run (and healing it) to prove issuance survives.

    Requests travel through the gateway ``endpoint`` (the TokenIssuer
    protocol over wire envelopes); ``service`` is the registered replicated
    stack, kept only for the fault injection."""
    generator = SmacsLoadGenerator(endpoint, recorder, clients)
    half = len(arrivals) // 2
    txs = generator.from_arrivals(arrivals[:half])
    crashed = service.counter_cluster.crash_leader()
    txs += generator.from_arrivals(arrivals[half:])
    service.counter_cluster.restart(crashed)
    # Error-carrying results never raise mid-batch, so a lossy crash window
    # would otherwise just shrink the transaction set and every downstream
    # count assertion would vacuously pass -- fail loudly instead.
    assert generator.requests_failed == 0, (
        f"{generator.requests_failed} issuance requests failed during the "
        "leader-crash window (fail-over did not absorb the outage)"
    )
    assert len(txs) == sum(arrivals)
    return txs, crashed


def test_end_to_end_trace_throughput(benchmark):
    # A full diurnal hour guarantees the window lands on a genuine burst
    # (the §VI-A ≈48 tx/s CryptoKitties peak), not a quiet stretch.
    trace = trace_named("CryptoKitties", duration_seconds=3_600, seed=2019)
    start_second, window = peak_window(trace, WINDOW_SECONDS)
    arrival_rate = sum(window) / max(len(window), 1)
    measured = {}

    def run():
        # --- serial baseline: cold cache, one block per transaction -----------
        serial_chain, serial_clients, serial_service, serial_endpoint, serial_recorder = (
            _setup(None)
        )
        serial_txs, _ = _issue_trace_load(
            serial_service, serial_endpoint, serial_recorder, serial_clients, window
        )
        t0 = time.perf_counter()
        serial_ok = sum(serial_chain.send_transaction(tx).success for tx in serial_txs)
        serial_elapsed = time.perf_counter() - t0

        # --- pipelined: shared issuance-primed cache --------------------------
        cache = SignatureCache(maxsize=1 << 17)
        pipe_chain, pipe_clients, pipe_service, pipe_endpoint, pipe_recorder = _setup(cache)
        pipe_txs, crashed = _issue_trace_load(
            pipe_service, pipe_endpoint, pipe_recorder, pipe_clients, window
        )
        pipeline = ExecutionPipeline(pipe_chain, signature_cache=cache)

        t0 = time.perf_counter()
        decisions = pipeline.ingest(pipe_txs)
        e2e_results = pipeline.drain()
        e2e_elapsed = time.perf_counter() - t0

        # --- block production steady state: full mempool, fresh chain --------
        cache2 = SignatureCache(maxsize=1 << 17)
        bp_chain, bp_clients, bp_service, bp_endpoint, bp_recorder = _setup(cache2)
        bp_txs, _ = _issue_trace_load(
            bp_service, bp_endpoint, bp_recorder, bp_clients, window
        )
        bp_pipeline = ExecutionPipeline(bp_chain, signature_cache=cache2)
        bp_pipeline.ingest(bp_txs)
        t0 = time.perf_counter()
        bp_results = bp_pipeline.drain()
        bp_elapsed = time.perf_counter() - t0

        measured.update(
            serial_txs=len(serial_txs), serial_ok=serial_ok,
            serial_elapsed=serial_elapsed,
            decisions=decisions, e2e_results=e2e_results, e2e_elapsed=e2e_elapsed,
            bp_results=bp_results, bp_elapsed=bp_elapsed,
            pipeline=pipeline, pipe_service=pipe_service, crashed=crashed,
            pipe_chain=pipe_chain, pipe_recorder=pipe_recorder,
        )

    benchmark.pedantic(run, rounds=1, iterations=1)

    n = measured["serial_txs"]
    serial_rate = n / measured["serial_elapsed"]
    e2e_total = sum(r.executed for r in measured["e2e_results"])
    e2e_ok = sum(r.succeeded for r in measured["e2e_results"])
    e2e_rate = e2e_total / measured["e2e_elapsed"]
    bp_total = sum(r.executed for r in measured["bp_results"])
    bp_rate = bp_total / measured["bp_elapsed"]
    denied = sum(r.smacs_denied for r in measured["e2e_results"])
    prewarm_hits = sum(r.prewarm_hits for r in measured["e2e_results"])
    prewarm_misses = sum(r.prewarm_misses for r in measured["e2e_results"])
    blocks = len(measured["e2e_results"])
    stats = measured["pipeline"].stats()

    lines = [
        "End-to-end block execution on the CryptoKitties trace peak "
        f"({WINDOW_SECONDS}s window at second {start_second}, {n} transactions, "
        f"{arrival_rate:.1f} tx/s arriving)",
        f"{'path':<28}{'tx/s':>10}{'vs serial':>12}",
        f"{'serial-execute':<28}{serial_rate:>10.1f}{1.0:>12.2f}",
        f"{'pipelined end-to-end':<28}{e2e_rate:>10.1f}{e2e_rate / serial_rate:>12.2f}",
        f"{'block production':<28}{bp_rate:>10.1f}{bp_rate / serial_rate:>12.2f}",
        f"blocks: {blocks}; pre-warm hits/misses: {prewarm_hits}/{prewarm_misses}; "
        f"bitmap misses: {denied}; counter leader crashed mid-issuance: "
        f"{measured['crashed']}",
    ]
    data = {
        "window_seconds": WINDOW_SECONDS,
        "window_start_second": start_second,
        "window_arrival_tx_per_s": round(arrival_rate, 1),
        "transactions": n,
        "serial_tx_per_s": round(serial_rate, 1),
        "pipelined_e2e_tx_per_s": round(e2e_rate, 1),
        "block_production_tx_per_s": round(bp_rate, 1),
        "e2e_speedup": round(e2e_rate / serial_rate, 2),
        "block_production_speedup": round(bp_rate / serial_rate, 2),
        "blocks": blocks,
        "prewarm_hits": prewarm_hits,
        "prewarm_misses": prewarm_misses,
        "bitmap_misses": denied,
        "mempool_rejections": stats["mempool"]["rejected"],
        "transient_failovers": measured["pipe_service"].transient_failovers,
    }
    report("end_to_end", lines, data=data)
    benchmark.extra_info.update(
        {k: data[k] for k in ("serial_tx_per_s", "pipelined_e2e_tx_per_s",
                              "block_production_tx_per_s")}
    )

    # --- acceptance -----------------------------------------------------------
    # Everything the trace generated was admitted, executed, and accepted:
    # the bitmap (sized by the paper's rule) produced zero misses.
    assert all(d.admitted for d in measured["decisions"])
    assert measured["serial_ok"] == n
    assert e2e_ok == e2e_total == n
    assert denied == 0
    assert stats["mempool"]["rejected"] == {}
    assert measured["pipe_chain"].read(measured["pipe_recorder"], "entries") == n
    # Issuance survived the mid-run leader crash with unique indexes.
    assert measured["pipe_service"].issued_indexes_are_unique()
    # The paper's peak must flow through the full loop end to end...
    assert e2e_rate >= 35.0
    # ...the pre-warm+pack block path must at least double serial execution...
    assert bp_rate >= 2.0 * serial_rate
    # ...and even charging admission to the same wall clock must still win.
    assert e2e_rate >= 1.2 * serial_rate


def _observability_lane(window, workdir, obs):
    """One full client -> TS -> pipeline -> durable-store pass; returns tx/s.

    The lane mirrors the pipelined leg of the trace benchmark plus a
    :class:`~repro.storage.DurableStore`, so an instrumented run exercises
    every profiled stage: gateway decode and issuance during load generation,
    admission/build/pre-warm/execute in the pipeline, and the WAL fsync at
    block commit.  Only ingest+drain are on the measured clock, matching the
    throughput numbers the other harnesses report.
    """
    from repro.storage import DurableStore

    cache = SignatureCache(maxsize=1 << 17)
    chain, clients, service, endpoint, recorder = _setup(cache)
    pipeline = ExecutionPipeline(chain, signature_cache=cache)
    store = DurableStore(str(workdir), "sqlite")
    store.attach(pipeline)
    obs.instrument_pipeline(pipeline)
    endpoint.transport.gateway.observability = obs
    endpoint.observability = obs  # client-side spans + wire trace context
    txs, _ = _issue_trace_load(service, endpoint, recorder, clients, window)
    t0 = time.perf_counter()
    pipeline.ingest(txs)
    results = pipeline.drain()
    elapsed = time.perf_counter() - t0
    store.close()
    total = sum(r.executed for r in results)
    assert sum(r.succeeded for r in results) == total == len(txs)
    return total / elapsed


def test_end_to_end_observability_overhead(benchmark, tmp_path):
    """Per-stage latency breakdown + the cost of carrying it (BENCH_obs)."""
    from repro.obs import DORMANT, STAGES, Observability

    trace = trace_named("CryptoKitties", duration_seconds=3_600, seed=2019)
    _, window = peak_window(trace, WINDOW_SECONDS)
    measured = {}

    def run():
        obs = Observability() if OBS_ENABLED else DORMANT
        lanes = {"baseline": DORMANT, "candidate": obs}
        samples = {name: [] for name in lanes}
        # The ledger's paired shape: the lanes alternate, the side that goes
        # first alternates too, and each lane reports its median -- the
        # dormant lane is an A/A, and best-of-two read host noise (a GC
        # pause, a scheduler slice in one lane) as a 2 % overhead.
        for attempt in range(OBS_ROUNDS):
            for name in sorted(lanes, reverse=attempt % 2 == 1):
                samples[name].append(
                    _observability_lane(window, tmp_path / f"{name}-{attempt}", lanes[name])
                )
        rates = {name: statistics.median(values) for name, values in samples.items()}
        measured.update(rates=rates, obs=obs)

    benchmark.pedantic(run, rounds=1, iterations=1)

    baseline = measured["rates"]["baseline"]
    candidate = measured["rates"]["candidate"]
    relative = candidate / baseline
    obs = measured["obs"]
    stages = obs.stage_breakdown()

    mode = "tracing + metrics on" if OBS_ENABLED else "dormant A/A (noise floor)"
    lines = [
        f"Observability overhead on the CryptoKitties peak ({mode}, "
        f"{WINDOW_SECONDS}s window, median of {OBS_ROUNDS} alternating runs per lane)",
        f"{'lane':<28}{'tx/s':>10}{'relative':>12}",
        f"{'uninstrumented':<28}{baseline:>10.1f}{1.0:>12.3f}",
        f"{'instrumented':<28}{candidate:>10.1f}{relative:>12.3f}",
    ]
    if stages:
        lines.append(f"{'stage':<16}{'count':>8}{'p50 ms':>10}{'p99 ms':>10}")
        for name, row in stages.items():
            p50 = "-" if row["p50_ms"] is None else f"{row['p50_ms']:.3f}"
            p99 = "-" if row["p99_ms"] is None else f"{row['p99_ms']:.3f}"
            lines.append(f"{name:<16}{row['count']:>8}{p50:>10}{p99:>10}")
    data = {
        "enabled": OBS_ENABLED,
        "window_seconds": WINDOW_SECONDS,
        "baseline_tx_per_s": round(baseline, 1),
        "instrumented_tx_per_s": round(candidate, 1),
        "instrumented_relative": round(relative, 3),
        "stages": stages,
        "spans_finished": obs.tracer.finished_total,
    }
    report("obs", lines, data=data)
    benchmark.extra_info["instrumented_relative"] = data["instrumented_relative"]

    # --- acceptance -----------------------------------------------------------
    if OBS_ENABLED:
        # Every profiled stage of the token pipeline produced samples.
        for stage in STAGES:
            assert stage in stages and stages[stage]["count"] >= 1, stage
        assert obs.tracer.finished_total > 0
        # The CI artifact gate (check_obs_overhead.py) holds 0.90; the
        # in-harness floor is looser so one noisy local run doesn't fail.
        assert relative >= 0.80, f"instrumented lane at {relative:.3f}x baseline"
    else:
        # Both lanes hold the dormant handle, so anything below this is
        # machine noise.  The artifact gate holds 0.98.
        assert stages == {} and obs.tracer.finished_total == 0
        assert relative >= 0.85, f"dormant lanes diverged: {relative:.3f}x"


def test_end_to_end_scenario_mixes(benchmark):
    cache = SignatureCache(maxsize=1 << 17)
    chain, clients, service, endpoint, recorder = _setup(cache)

    # Two extra protected contracts for the fan-out mix, with a disjoint
    # account pool per contract so one ingest carries all three streams.
    owner2 = chain.create_account("owner2", seed="e2e-owner-2")
    extra = [
        OwnerWallet(owner2, endpoint).deploy_protected(
            ProtectedRecorder, one_time_bitmap_bits=4096
        ).return_value
        for _ in range(2)
    ]
    pipeline = ExecutionPipeline(chain, signature_cache=cache)
    contracts = [recorder, *extra]
    pools = [clients[i::len(contracts)] for i in range(len(contracts))]
    measured = {}

    def run():
        rows = {}
        # Flash sale: one-time argument tokens against one method.
        flash = flash_sale_bursts(
            recorder.this, [c.address for c in pools[0]],
            bursts=4, burst_size=SCENARIO_BURST, method="submit", seed=21,
        )
        generator = SmacsLoadGenerator(endpoint, recorder, pools[0])
        txs = generator.from_scenario(flash)
        t0 = time.perf_counter()
        pipeline.ingest(txs)
        results = pipeline.drain()
        rows["flash-sale"] = (len(txs), sum(r.succeeded for r in results),
                              len(txs) / (time.perf_counter() - t0))

        # Replay storm: a handful of identical (non-one-time) requests.
        storm = replay_storm(
            recorder.this, [c.address for c in pools[0]],
            unique_requests=max(SCENARIO_BURST // 4, 4), replays_per_request=8,
            method="submit", batch_size=SCENARIO_BURST, seed=22,
        )
        generator = SmacsLoadGenerator(endpoint, recorder, pools[0])
        txs = generator.from_scenario(storm)
        t0 = time.perf_counter()
        pipeline.ingest(txs)
        results = pipeline.drain()
        rows["replay-storm"] = (len(txs), sum(r.succeeded for r in results),
                                len(txs) / (time.perf_counter() - t0))

        # Multi-contract fan-out: three protected contracts, one ingest.
        fanout = multi_contract_fanout(
            [c.this for c in contracts],
            [c.address for c in clients],
            requests_per_contract=max(SCENARIO_BURST // 2, 8),
            batch_size=SCENARIO_BURST, method="submit", one_time=True, seed=23,
        )
        txs = []
        for contract, pool in zip(contracts, pools):
            txs += SmacsLoadGenerator(endpoint, contract, pool).from_scenario(fanout)
        t0 = time.perf_counter()
        pipeline.ingest(txs)
        results = pipeline.drain()
        rows["fan-out"] = (len(txs), sum(r.succeeded for r in results),
                           len(txs) / (time.perf_counter() - t0))
        measured["rows"] = rows

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = measured["rows"]
    lines = [
        "Scenario mixes through the execution pipeline (full loop)",
        f"{'scenario':<18}{'txs':>6}{'ok':>6}{'tx/s':>10}",
    ]
    data = {}
    for name, (total, ok, rate) in rows.items():
        lines.append(f"{name:<18}{total:>6}{ok:>6}{rate:>10.1f}")
        data[name] = {"transactions": total, "succeeded": ok, "tx_per_s": round(rate, 1)}
    data["signature_cache"] = cache.stats()
    report("end_to_end_scenarios", lines, data=data)

    for name, (total, ok, rate) in rows.items():
        assert total > 0, name
        assert ok == total, name
    # The replay storm is where the deterministic-signature memo bites.
    assert cache.stats()["hit_rate"] > 0.3
