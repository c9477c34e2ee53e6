"""The named scenario mixes of the workload generator."""

from repro.core.token import TokenType
from repro.crypto.keys import KeyPair
from repro.workloads import (
    ScenarioMix,
    flash_sale_bursts,
    multi_contract_fanout,
    replay_storm,
    submit_mix,
)

CONTRACTS = [KeyPair.from_seed(f"scenario-contract-{i}").address for i in range(3)]
CLIENTS = [KeyPair.from_seed(f"scenario-client-{i}").address for i in range(8)]


def test_scenarios_are_deterministic_in_their_seed():
    for build in (
        lambda seed: flash_sale_bursts(CONTRACTS[0], CLIENTS, seed=seed),
        lambda seed: replay_storm(CONTRACTS[0], CLIENTS, seed=seed),
        lambda seed: multi_contract_fanout(CONTRACTS, CLIENTS, seed=seed),
    ):
        same_a, same_b, different = build(1), build(1), build(2)
        assert same_a.flattened() == same_b.flattened()
        assert different.flattened() != same_a.flattened()


def test_flash_sale_shape():
    mix = flash_sale_bursts(
        CONTRACTS[0], CLIENTS, bursts=5, burst_size=20,
        price_points=(10, 20), seed=3,
    )
    assert mix.name == "flash-sale"
    assert len(mix.batches) == 5
    assert mix.total_requests == 100
    for request in mix.flattened():
        assert request.token_type is TokenType.ARGUMENT
        assert request.one_time
        assert request.contract == CONTRACTS[0]
        assert request.arguments["amount"] in (10, 20)
        assert request.client in CLIENTS


def test_flash_sale_client_popularity_is_skewed():
    mix = flash_sale_bursts(CONTRACTS[0], CLIENTS, bursts=8, burst_size=64, seed=4)
    per_client = {}
    for request in mix.flattened():
        per_client[request.client] = per_client.get(request.client, 0) + 1
    counts = sorted(per_client.values(), reverse=True)
    assert counts[0] > mix.total_requests // len(CLIENTS)  # a dominant bot


def test_replay_storm_replays_a_small_distinct_set():
    mix = replay_storm(
        CONTRACTS[0], CLIENTS, unique_requests=6, replays_per_request=10,
        batch_size=16, seed=5,
    )
    requests = mix.flattened()
    assert len(requests) == 60
    assert len({request.encode() for request in requests}) <= 6
    assert all(not request.one_time for request in requests)
    assert all(len(batch) <= 16 for batch in mix.batches)


def test_multi_contract_fanout_covers_every_contract():
    mix = multi_contract_fanout(
        CONTRACTS, CLIENTS, requests_per_contract=10, batch_size=8, seed=6
    )
    assert mix.total_requests == 30
    touched = {request.contract for request in mix.flattened()}
    assert touched == set(CONTRACTS)


def test_scenario_mix_accounting():
    mix = ScenarioMix(name="x", batches=[[], [], []])
    assert mix.total_requests == 0
    assert mix.flattened() == []


def test_submit_mix_drives_any_issuer_stack():
    """Scenario mixes flow through the TokenIssuer protocol batch-by-batch."""
    from repro.api import build_service

    mix = replay_storm(
        CONTRACTS[0], CLIENTS, unique_requests=4, replays_per_request=4,
        batch_size=8, seed=9,
    )
    for profile in ("serial", "replicated"):
        issuer = build_service(profile, keypair=KeyPair.from_seed("scenario-ts"))
        results = submit_mix(issuer, mix)
        assert len(results) == mix.total_requests
        assert all(result.issued for result in results)
        assert [r.request for r in results] == mix.flattened()


def test_state_stress_scenario_is_deterministic_and_exercises_reverts():
    """The state-stress burst: Fig. 8 depth, Tab. IV window, revert mix."""
    from repro.workloads import (
        StateStressConfig,
        build_stress_engine,
        run_state_stress,
        state_fingerprint,
    )

    config = StateStressConfig(
        accounts=24, prefill_slots=2, bitmap_bits=1024, call_depth=4,
        transactions=9, revert_every=3,
    )
    runs = []
    for _ in range(2):
        engine, entry, clients = build_stress_engine(config)
        stats = run_state_stress(engine, entry, clients, config)
        runs.append((stats, state_fingerprint(engine.state)))
        # Tab. IV window words + bookkeeping live on the entry contract.
        assert engine.state.storage_slot_count(entry) > config.bitmap_words
        # Depth-4 chain means each success touched all four relays.
        assert stats["executed"] == 9
        assert stats["reverted"] == 3
        assert stats["succeeded"] == 6
    assert runs[0] == runs[1]
