"""The adversarial scenario matrix: smoke cells inline, the full grid slow.

Every cell is a (workload x fault) pairing run end-to-end through the
issuance stack, the mempool and the chain, with the SMACS safety invariants
(no one-time index accepted twice, no token from an untrusted signer,
per-tenant fairness, clean mempool books) asserted inside ``run_cell`` --
a cell that returns at all has already survived them.  These tests pin the
matrix's shape, determinism and the fault signal each plan must produce.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import DiskCrashPlan, FaultPlan
from repro.workloads.matrix import (
    SMOKE_CELLS,
    CellSpec,
    InvariantViolation,
    default_cells,
    main,
    run_cell,
    run_matrix,
)


def _cells_by_name():
    return {spec.name: spec for spec in default_cells()}


# --- matrix shape -------------------------------------------------------------------


def test_default_matrix_is_wide_enough():
    specs = default_cells()
    names = [spec.name for spec in specs]
    assert len(names) == len(set(names))  # cell names are unique
    assert len(specs) >= 20
    byzantine = [spec for spec in specs if spec.fault().byzantine]
    assert len(byzantine) >= 3
    workloads = {spec.workload for spec in specs}
    assert {"flash-sale", "replay-storm", "fan-out", "state-stress",
            "expiry-avalanche", "rule-churn", "multi-tenant"} <= workloads
    assert set(SMOKE_CELLS) <= set(names)


def test_every_workload_has_a_no_fault_baseline():
    specs = default_cells()
    workloads = {spec.workload for spec in specs}
    baselines = {spec.workload for spec in specs if spec.fault_name == "none"}
    assert baselines == workloads


# --- smoke cells (one per workload family, the CI lane) -----------------------------


def test_smoke_flash_sale_baseline_runs_clean():
    record = run_cell(_cells_by_name()["flash-sale/none"])
    assert record["invariants"]["no_duplicate_one_time_index"]
    assert record["invariants"]["trusted_signer_only"]
    assert record["token_txs_succeeded"] > 0
    assert record["forged_attempted"] >= 1  # the canary rode along
    assert record["mempool_accounting"]["accounting_underflows"] == 0


def test_smoke_corrupt_frames_cell_resends_and_survives():
    record = run_cell(_cells_by_name()["replay-storm/corrupt-frames"])
    assert record["fault_observations"]["frames_corrupted"] > 0
    assert record["frame_resends"] > 0  # damaged frames were re-sent, not lost
    assert record["token_txs_succeeded"] > 0


def test_smoke_stale_leader_cell_proves_zombie_answers_inert():
    record = run_cell(_cells_by_name()["fan-out/stale-leader"])
    observed = record["fault_observations"]
    assert observed["zombie_answers"] > 0  # the deposed leader kept talking
    assert observed["zombie_results"] == 0  # and none of it ever committed
    assert record["token_txs_succeeded"] > 0


def test_smoke_equivocation_cell_screens_duplicate_indexes():
    record = run_cell(_cells_by_name()["state-stress/equivocating-counter"])
    observed = record["fault_observations"]
    assert observed["duplicates_injected"] > 0
    # The invariant held *because* the duplicates were screened before the
    # chain: the pool's reservation table rejected them at admission.
    assert record["invariants"]["no_duplicate_one_time_index"]
    assert "duplicate one-time index in pool" in record["rejected"]


def test_smoke_untrusted_signer_cell_rejects_every_forgery():
    spec = _cells_by_name()["multi-tenant/untrusted-signer"]
    record = run_cell(spec)
    # the plan's two forgeries a batch, plus the runner's one canary
    forged = spec.fault().forgeries_per_batch * record["batches"]
    assert record["fault_observations"]["forged_txs"] == forged
    assert record["forged_attempted"] == forged + 1
    assert record["invariants"]["trusted_signer_only"]
    fairness = record["fairness"]
    assert max(fairness["admitted"]) - min(fairness["admitted"]) <= 1
    assert sum(fairness["limited"]) > 0


def test_smoke_crash_restart_cell_recovers_and_resumes():
    """The tentpole cell: kill the node at a commit fsync, recover, resume."""
    record = run_cell(_cells_by_name()["flash-sale/crash-restart"])
    assert record["fault_kind"] == "disk"
    assert record["fault_observations"]["crashes"] == 1
    recovery = record["recovery"]
    assert recovery["blocks_recovered"] >= 1  # a durable pre-crash prefix
    assert recovery["readmitted"] > 0  # the crashed batch came back from disk
    assert recovery["signatures_primed"] > 0  # sigcache re-primed on restart
    assert recovery["max_one_time_index"] >= 0
    # invariants held ACROSS the restart boundary (asserted inside run_cell)
    assert record["invariants"]["no_duplicate_one_time_index"]
    assert record["invariants"]["crash_recovered"]
    assert record["invariants"]["state_root_matches_recomputation"]
    # no work was lost: every issued token landed exactly once
    assert record["one_time_accepted"] == record["tokens_issued"]


def test_smoke_torn_wal_cell_truncates_and_recovers():
    record = run_cell(_cells_by_name()["state-stress/torn-wal-restart"])
    assert record["fault_observations"]["disk_fault_mode"] == "torn-write"
    assert record["recovery"]["wal_torn_tail"]  # replay repaired a torn tail
    assert record["recovery"]["wal_truncated_bytes"] > 0
    assert record["invariants"]["crash_recovered"]
    assert record["invariants"]["state_root_matches_recomputation"]


def test_crash_restart_cells_are_deterministic():
    spec = _cells_by_name()["flash-sale/crash-restart"]
    assert run_cell(spec) == run_cell(spec)


# --- restart is a phase of the one runner ---------------------------------------------


class _CrashWithForgeries(DiskCrashPlan):
    """A disk crash sharing its cell with another fault's knob and hooks."""

    forgeries_per_batch = 2

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.hooks_seen = []

    def setup(self, env):
        self.hooks_seen.append("setup")

    def between_batches(self, env, batch_no):
        self.hooks_seen.append(batch_no)

    def teardown(self, env):
        self.hooks_seen.append("teardown")


def _restart_spec(fault):
    return CellSpec(
        workload="flash-sale",
        fault=fault,
        fault_name="crash-restart",
        batches=3,
        batch_size=6,
        seed=41,
    )


def _assert_nothing_lost(record):
    # one record builder: restart cells carry the keys every cell carries
    assert record["invariants"]["crash_recovered"]
    assert record["invariants"]["state_root_matches_recomputation"]
    assert record["one_time_accepted"] == record["tokens_issued"] == 18
    assert record["txs_executed"] == record["txs_admitted"]


def test_restart_cell_crashing_on_the_first_batch():
    spec = _restart_spec(lambda: DiskCrashPlan(crash_after_batch=0))
    record = run_cell(spec)
    assert record == run_cell(spec)
    assert record["crashed_at_batch"] == 0
    assert record["recovery"]["blocks_recovered"] == 0  # nothing durable but the base
    assert record["recovery"]["readmitted"] == spec.batch_size
    assert record["txs_admitted"] == record["txs_built"] == 19 and record["rejected"] == {}
    _assert_nothing_lost(record)


def test_restart_cell_crashing_on_the_last_batch_still_sends_the_canary():
    spec = _restart_spec(lambda: DiskCrashPlan(crash_after_batch=2))
    record = run_cell(spec)
    assert record == run_cell(spec)
    assert record["crashed_at_batch"] == spec.batches - 1  # nothing left to resume
    assert record["recovery"]["blocks_recovered"] == spec.batches - 1
    assert record["forged_attempted"] == 1
    assert record["token_txs_failed_onchain"] == 1  # the canary, on the recovered node
    _assert_nothing_lost(record)


def test_restart_cell_runs_the_plan_hooks_and_forgeries_across_the_restart():
    plans = []

    def fault():
        plans.append(_CrashWithForgeries(crash_after_batch=1))
        return plans[-1]

    spec = _restart_spec(fault)
    record = run_cell(spec)
    assert record == run_cell(spec)
    assert plans[0].hooks_seen == ["setup", 0, 1, 2, "teardown"]
    assert record["forged_attempted"] == 2 * spec.batches + 1  # before, across and after
    assert record["recovery"]["txs_recovered"] == spec.batch_size + 2  # durable forgeries too
    # every forgery was refused: at admission by the recovered node's primed
    # cache (which strands the canary's later nonces), else on-chain
    refused = record["token_txs_failed_onchain"] + sum(record["rejected"].values())
    assert refused == record["forged_attempted"]
    assert record["invariants"]["trusted_signer_only"]
    _assert_nothing_lost(record)


def test_block_timestamps_and_token_expiries_go_on_across_a_restart(tmp_path):
    """A recovered node's clock starts at its own genesis; ``recover_into``
    brings it up to the last durable block, so a post-restart block never
    predates a pre-crash one and fresh tokens never repeat an ``expire``."""
    from repro.core.token import Token
    from repro.faults.disk import SimulatedCrash
    from repro.storage import DurableStore
    from repro.workloads import matrix

    spec = CellSpec(
        workload="flash-sale", fault=lambda: DiskCrashPlan(crash_after_batch=2),
        fault_name="clock", batches=4, batch_size=4, seed=43,
    )
    plan = spec.fault()
    env = matrix._build_env(spec, plan)
    DurableStore(
        str(tmp_path / "n"), "sqlite", fsync_on_admit=True, hooks=plan.disk_hooks()
    ).attach(env.pipeline)
    try:
        thunks = matrix.WORKLOADS[spec.workload](env)
        for batch_no in range(spec.batches):
            env.pipeline.ingest(thunks[batch_no]())
            plan.before_block(env, batch_no)
            try:
                env.pipeline.run_block()
            except SimulatedCrash:
                env = matrix._restart(env, batch_no)
                thunks = matrix.WORKLOADS[spec.workload](env)
    finally:
        env.pipeline.durability.close()
    before = env.recovery.blocks
    after = env.chain.blocks[env.recovery.base_height + 1:]
    assert len(before) == 2 and len(after) == 2  # the crashed batch re-mined, then batch 3
    stamps = [block.timestamp for block in [*before, *after]]
    assert stamps == sorted(set(stamps))
    expiries = [
        max(Token.from_bytes(tx.kwargs["token"]).expire for tx in block.transactions)
        for block in (before[-1], after[-1])
    ]
    assert expiries[0] < expiries[1]


# --- the known-key memo is protocol-invisible ----------------------------------------


def _memo_scenario(capacity, monkeypatch):
    """One seeded run -- reusable, one-time, remote (trusted key, never primed),
    forged, stolen and mauled tokens, five senders, a disk crash committing
    batch 1 -- on a node whose known-key memo holds ``capacity`` keys.

    Returns ``(trace, cache stats)``: the trace is everything a client or a
    peer can observe, batch by batch, across the restart.
    """
    import shutil
    import tempfile

    from repro.api import issue_one
    from repro.core.token import Token
    from repro.core.token_request import TokenRequest
    from repro.core.token_service import TokenService, _LocalCounter
    from repro.crypto import sigcache
    from repro.crypto.ecdsa import Signature
    from repro.crypto.secp256k1 import N
    from repro.faults.disk import SimulatedCrash
    from repro.pipeline.load import DEFAULT_CALL_GAS_LIMIT
    from repro.chain.transaction import Transaction
    from repro.storage import DurableStore
    from repro.workloads import matrix

    monkeypatch.setattr(sigcache, "KNOWN_KEY_CAPACITY", capacity)
    spec = CellSpec(
        workload="replay-storm", fault=lambda: DiskCrashPlan(crash_after_batch=1),
        fault_name="memo", accounts_per_tenant=5, seed=97,
    )
    plan = spec.fault()
    env = matrix._build_env(spec, plan)
    directory = tempfile.mkdtemp(prefix="smacs-memo-")
    DurableStore(directory, "sqlite", fsync_on_admit=True, hooks=plan.disk_hooks()).attach(
        env.pipeline
    )
    contract = env.contracts[0]
    tokens: dict = {}  # the reusable tokens clients hold on to, across the restart

    def send(trace, pending, client, token, amount):
        tx = Transaction(
            sender=client.address, to=contract.this,
            nonce=client.nonce + pending.get(client.address, 0), method="submit",
            kwargs={"amount": amount, "token": token.to_bytes()},
            gas_limit=DEFAULT_CALL_GAS_LIMIT,
        ).sign_with(client.keypair)
        (decision,) = env.pipeline.ingest([tx])
        pending[client.address] = pending.get(client.address, 0) + decision.admitted
        trace.append(["admission", tx.hash().hex(), decision.admitted, str(decision.reason)])
        return tx

    def batch(batch_no, trace, env):
        clients = env.tenant_accounts[0]
        issuer = env.service
        # The trusted key in another box: its tokens reach this node unprimed.
        remote = TokenService(
            keypair=env.extra["base_service"].keypair, clock=env.chain.clock,
            counter=_LocalCounter(start=3000 + 10 * batch_no),
        )
        env.twin.counter = _LocalCounter(start=3500 + 10 * batch_no)  # clear of both
        def method(service, client, one_time=False):
            return issue_one(service, TokenRequest.method_token(
                contract.this, client.address, "submit", one_time=one_time))
        if not tokens:
            tokens["reusable"] = [method(issuer, client) for client in clients]
            tokens["forged"] = method(env.twin, clients[4])
        pending: dict = {}
        sent = []
        for i, client in enumerate(clients):
            sent.append(send(trace, pending, client, tokens["reusable"][i], batch_no + 1))
        for client in clients[:2]:
            sent.append(send(trace, pending, client, method(issuer, client, True), 7))
        for client in clients[2:4]:
            request = TokenRequest.argument_token(
                contract.this, client.address, "submit", {"amount": 20 + batch_no})
            sent.append(send(trace, pending, client, issue_one(remote, request), 20 + batch_no))
            sent.append(send(trace, pending, client, method(remote, client, True), 8))
        sent.append(send(trace, pending, clients[4], tokens["forged"], 9))  # replayed each batch
        sent.append(send(trace, pending, clients[4], method(env.twin, clients[4], True), 9))
        sent.append(send(trace, pending, clients[3], tokens["reusable"][0], 9))  # stolen
        good = tokens["reusable"][1]
        twin = Signature(good.signature.r, N - good.signature.s, good.signature.v ^ 1)
        mauled = Signature(good.signature.r, good.signature.s, good.signature.v ^ 1)
        for signature in (twin, mauled):  # the high-s twin recovers to skTS; the flip does not
            sent.append(send(trace, pending, clients[1],
                             Token(good.token_type, good.expire, good.index, signature), 9))
        return sent

    try:
        trace: list = []
        for batch_no in range(4):
            sent = batch(batch_no, trace, env)
            plan.before_block(env, batch_no)
            try:
                env.pipeline.run_block()
            except SimulatedCrash:
                env = matrix._restart(env, batch_no)
                trace.append(["recovery", env.recovery.describe()])
            for tx in sent:
                receipt = env.chain.receipts.get(tx.hash())
                trace.append(["receipt", tx.hash().hex()] + (
                    [None] if receipt is None else
                    [receipt.success, receipt.error, receipt.gas_used,
                     sorted(receipt.gas_breakdown.items())]
                ))
            head = env.chain.latest_block
            trace.append(["block", head.number, head.hash().hex(), head.state_root.hex()])
        assert env.recovery is not None and env.crashed_at_batch == 1
        return trace, env.pipeline.signature_cache.stats()
    finally:
        env.pipeline.durability.close()
        shutil.rmtree(directory, ignore_errors=True)


def test_the_known_key_memo_is_protocol_invisible(monkeypatch):
    """The same scenario on three nodes -- the default memo, none at all (plain
    recovery every time) and one two keys wide (constant eviction under five
    senders and a Token Service): identical admission decisions and reject
    reasons, receipts with their per-category gas, block hashes and state
    roots, before and after the restart."""
    default, stats = _memo_scenario(1024, monkeypatch)
    without, stats_without = _memo_scenario(0, monkeypatch)
    evicting, stats_evicting = _memo_scenario(2, monkeypatch)
    assert default == without == evicting
    # The scenario is the one described: every path was taken ...
    reasons = {entry[3] for entry in default if entry[0] == "admission"}
    assert {"admitted", "token not signed by the trusted Token Service"} <= reasons
    receipts = [entry for entry in default if entry[0] == "receipt" and entry[2] is not None]
    assert any(entry[2] for entry in receipts) and any(not entry[2] for entry in receipts)
    assert any(entry[0] == "recovery" for entry in default)
    # ... and the three nodes really did answer in three different ways.
    assert (stats_without["known_keys"], stats_without["key_checks"]) == (0, 0)
    assert stats["key_checks"] > 0 and stats["known_keys"] == 6  # five senders and the TS
    assert stats_evicting["known_keys"] == 2
    assert stats_evicting["key_builds"] > stats["key_builds"] == 6


def test_a_disk_fault_that_never_fires_is_a_violation():
    spec = _restart_spec(lambda: DiskCrashPlan(crash_after_batch=7))
    with pytest.raises(InvariantViolation, match="never fired"):
        run_cell(spec)


def test_expiry_avalanche_slides_the_bitmap_window():
    record = run_cell(_cells_by_name()["expiry-avalanche/none"])
    assert record["bitmap_window"]["start"] > 0  # the whole window moved
    assert record["token_txs_failed_onchain"] > 0  # TOCTOU casualties
    assert record["token_txs_succeeded"] > 0  # long-lived traffic unharmed


# --- determinism and the CLI --------------------------------------------------------


def test_cells_are_deterministic():
    spec = _cells_by_name()["flash-sale/none"]
    assert run_cell(spec) == run_cell(spec)


def test_cli_writes_the_selected_cells(tmp_path):
    out = tmp_path / "scenarios.json"
    code = main(["--cells", "flash-sale/none", "--out", str(out), "--quiet"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["benchmark"] == "scenarios"
    assert [cell["cell"] for cell in payload["cells"]] == ["flash-sale/none"]
    assert payload["summary"]["forged_accepted"] == 0


def test_cli_rejects_unknown_cells():
    with pytest.raises(KeyError):
        main(["--cells", "no-such/cell", "--quiet"])


def test_custom_cell_spec_runs_outside_the_default_grid():
    spec = CellSpec(
        workload="flash-sale",
        fault=FaultPlan,
        fault_name="none",
        batches=2,
        batch_size=4,
        seed=99,
    )
    record = run_cell(spec)
    assert record["cell"] == "flash-sale/none"
    assert record["batches"] == 2


# --- the full grid (slow lane; CI runs it separately) -------------------------------


@pytest.mark.slow
def test_full_matrix_all_invariants_hold():
    report = run_matrix()
    summary = report["summary"]
    assert summary["cells_run"] >= 20
    assert summary["byzantine_cells"] >= 3
    assert summary["forged_accepted"] == 0
    for record in report["cells"]:
        for invariant, held in record["invariants"].items():
            assert held, f"{record['cell']}: invariant {invariant} failed"
        assert record["mempool_accounting"]["accounting_underflows"] == 0


@pytest.mark.slow
def test_full_matrix_matches_committed_baseline():
    committed = json.loads(
        open("benchmarks/baselines/BENCH_scenarios.json").read()
    )
    fresh = run_matrix()
    assert fresh == committed
