"""Stage timers through the full pipeline + durable store, and the exporters.

The profiling hooks must (a) attribute a real workload's time to the named
stages (admission, build, pre_warm, execute, commit_fsync), (b) leave the
shared dormant handle untouched when nothing is instrumented, and (c)
export through every path -- ``Observability.snapshot``, the stage
breakdown, and the ``python -m repro.obs.dump`` CLI.
"""

from __future__ import annotations

import ast
import collections
import json
import pathlib
import time

import pytest

from repro.chain import Blockchain
from repro.contracts.protected_target import ProtectedRecorder
from repro.core import OwnerWallet
from repro.core.acr import RuleSet
from repro.core.replication import ReplicatedTokenService
from repro.crypto.keys import KeyPair
from repro.crypto.sigcache import SignatureCache
from repro.obs import DORMANT, STAGES, Observability
from repro.obs.dump import load_snapshot, main as dump_main, render_text
from repro.pipeline import ExecutionPipeline, SmacsLoadGenerator
from repro.storage import DurableStore


@pytest.fixture
def cache():
    return SignatureCache(maxsize=65536)


@pytest.fixture
def env(cache):
    chain = Blockchain(auto_mine=False)
    chain.evm.signature_cache = cache
    chain.auto_mine = True
    owner = chain.create_account("owner", seed="obs-owner")
    clients = [
        chain.create_account(f"client-{i}", seed=f"obs-client-{i}") for i in range(4)
    ]
    service = ReplicatedTokenService(
        replica_count=3,
        keypair=KeyPair.from_seed("obs-ts"),
        rules=RuleSet(),
        clock=chain.clock,
        seed=29,
        signature_cache=cache,
    )
    recorder = OwnerWallet(owner, service.replicas[0]).deploy_protected(
        ProtectedRecorder, one_time_bitmap_bits=4096
    ).return_value
    chain.auto_mine = False
    return {"chain": chain, "clients": clients, "service": service, "recorder": recorder}


def _run_workload(env, cache, obs: "Observability | None", tmp_path=None):
    pipeline = ExecutionPipeline(env["chain"], signature_cache=cache)
    store = None
    if tmp_path is not None:
        store = DurableStore(str(tmp_path), "sqlite")
        store.attach(pipeline)
    if obs is not None:
        obs.instrument_pipeline(pipeline)
    generator = SmacsLoadGenerator(env["service"], env["recorder"], env["clients"])
    txs = generator.from_arrivals([3, 4, 3])
    decisions = pipeline.ingest(txs)
    results = pipeline.drain()
    if store is not None:
        store.close()
    return pipeline, decisions, results


def test_stage_timers_attribute_a_durable_workload(env, cache, tmp_path):
    """All five pipeline stages (plus the WAL fsync) populate histograms."""
    obs = Observability()
    pipeline, decisions, results = _run_workload(env, cache, obs, tmp_path)
    assert all(d.admitted for d in decisions)
    assert sum(r.executed for r in results) == 10

    breakdown = obs.stage_breakdown()
    assert breakdown["admission"]["count"] == 10  # one sample per transaction
    blocks = pipeline.blocks_executed
    assert breakdown["build"]["count"] >= blocks
    assert breakdown["pre_warm"]["count"] == blocks
    assert breakdown["execute"]["count"] == blocks
    # Block commits fsync the WAL; admission records append unsynced.
    assert breakdown["commit_fsync"]["count"] >= blocks
    for stage, row in breakdown.items():
        assert row["p50_ms"] is None or row["p50_ms"] >= 0.0, stage

    # Tracing was on: block spans nest the stage spans.
    spans = obs.tracer.finished_spans()
    roots = [s for s in spans if s.name == "pipeline.run_block"]
    assert len(roots) == blocks
    children = [s for s in spans if s.parent_id == roots[0].span_id]
    assert {"stage.build", "stage.pre_warm", "stage.execute"} <= {
        s.name for s in children
    }


def test_metrics_without_tracing_records_stages_only(env, cache):
    obs = Observability(tracing=False)
    _run_workload(env, cache, obs)
    assert obs.stage_breakdown()["admission"]["count"] == 10
    assert obs.tracer.finished_spans() == []
    assert obs.snapshot()["tracing"] is False


def test_disabled_path_is_untouched(env, cache, tmp_path):
    """Nothing instrumented: every hook holds the dormant handle, and the
    decisions are the instrumented run's (all admitted, all succeeded)."""
    pipeline, decisions, results = _run_workload(env, cache, None, tmp_path)
    assert pipeline.obs is DORMANT
    assert pipeline.mempool.obs is DORMANT
    assert pipeline.builder.obs is DORMANT
    assert pipeline.executor.obs is DORMANT
    assert pipeline.durability.wal.obs is DORMANT
    assert all(d.admitted for d in decisions)
    assert sum(r.succeeded for r in results) == 10
    assert sum(r.prewarm_hits for r in results) == 10


def test_instrumented_run_matches_uninstrumented_decisions(env, cache):
    """Instrumentation is observation only: same admissions, same receipts."""
    obs = Observability()
    _, decisions, results = _run_workload(env, cache, obs)
    assert all(d.admitted for d in decisions)
    assert sum(r.succeeded for r in results) == 10
    assert sum(r.prewarm_hits for r in results) == 10


def test_attach_after_instrument_still_times_the_wal(env, cache, tmp_path):
    """Either order of instrument_pipeline() / DurableStore.attach() works."""
    pipeline = ExecutionPipeline(env["chain"], signature_cache=cache)
    obs = Observability()
    obs.instrument_pipeline(pipeline)  # before attach: no durability yet
    store = DurableStore(str(tmp_path), "sqlite")
    store.attach(pipeline)  # attach propagates pipeline.obs to the WAL
    assert store.wal.obs is obs
    generator = SmacsLoadGenerator(env["service"], env["recorder"], env["clients"])
    pipeline.ingest(generator.from_arrivals([4]))
    pipeline.drain()
    store.close()
    assert obs.stage_breakdown()["commit_fsync"]["count"] >= 1


def test_stage_breakdown_orders_canonical_stages_first():
    obs = Observability()
    obs.record_stage("custom_stage", 0.001)
    obs.record_stage("execute", 0.002)
    obs.record_stage("admission", 0.003)
    names = list(obs.stage_breakdown())
    assert names == ["admission", "execute", "custom_stage"]
    assert set(STAGES) == {
        "gateway_decode", "issuance", "admission", "build",
        "pre_warm", "execute", "commit_fsync",
    }


# --- the dump CLI -------------------------------------------------------------------


def _snapshot_fixture() -> dict:
    obs = Observability()
    obs.registry.counter("gateway.requests").inc(3)
    obs.record_stage("admission", 0.002)
    with obs.tracer.span("pipeline.run_block"):
        pass
    return obs.snapshot()


def test_dump_renders_text_and_json(tmp_path, capsys):
    snapshot = _snapshot_fixture()
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(snapshot))

    assert dump_main([str(path)]) == 0
    text = capsys.readouterr().out
    assert "admission" in text
    assert "gateway.requests" in text
    assert "tracing on" in text

    assert dump_main([str(path), "--format", "json"]) == 0
    reparsed = json.loads(capsys.readouterr().out)
    assert reparsed["stages"]["admission"]["count"] == 1


def test_dump_accepts_wire_response_bodies(tmp_path):
    """The CLI unwraps a saved ``{"metrics": {...}}`` response body."""
    snapshot = _snapshot_fixture()
    path = tmp_path / "resp.json"
    path.write_text(json.dumps({"metrics": snapshot}))
    loaded = load_snapshot(str(path))
    assert loaded["enabled"] is True
    assert loaded["stages"]["admission"]["count"] == 1


def test_render_text_handles_disabled_and_empty():
    assert "disabled" in render_text({"enabled": False})
    assert render_text({}) == "observability: empty snapshot"


def test_dump_fetches_a_live_gateway_over_tcp():
    from repro.api import ServiceGateway, build_service, connect, serve
    from repro.chain.address import to_address
    from repro.core.token_request import TokenRequest
    from repro.obs.dump import load_snapshot

    gateway = ServiceGateway(observability=Observability())
    gateway.register("https://ts.dump.example", build_service("serial", seed=5))
    with serve(gateway) as server:
        client = connect(server.url, route="https://ts.dump.example")
        try:
            client.submit(
                TokenRequest.method_token(to_address(1), to_address(2), "submit")
            )
        finally:
            client.close()
        snapshot = load_snapshot(server.url)  # tcp:// dispatches to fetch_snapshot
    assert snapshot["enabled"] is True
    assert snapshot["stages"]["issuance"]["count"] == 1
    assert "issuance" in render_text(snapshot)


# --- one instrumentation path -------------------------------------------------------

_ROUTE = "https://ts.dormant.example"
_HANDLES = {"obs", "observability"}


def _one_tcp_submit(gateway) -> None:
    from repro.api import connect, serve
    from repro.chain.address import to_address
    from repro.core.token_request import TokenRequest

    with serve(gateway) as server:
        client = connect(server.url, route=_ROUTE)
        try:
            request = TokenRequest.method_token(to_address(1), to_address(2), "submit")
            assert client.submit(request)[0].issued
        finally:
            client.close()


def _serial_gateway():
    from repro.api import ServiceGateway, build_service

    gateway = ServiceGateway()
    gateway.register(_ROUTE, build_service("serial", seed=5))
    return gateway


def test_the_dormant_handle_stays_empty(env, cache, tmp_path):
    """Count guard: blocks through a durable pipeline, a TCP submit and a
    deadline shed through an uninstrumented gateway leave the shared dormant
    handle with zero metrics and zero spans."""
    from repro.api import InProcessTransport, codec

    _, _, results = _run_workload(env, cache, None, tmp_path)
    assert results
    gateway = _serial_gateway()
    assert gateway.observability is DORMANT
    _one_tcp_submit(gateway)
    expired = codec.encode_request_envelope(
        "submit", _ROUTE, {"requests": []}, deadline=time.time() - 1.0
    )
    InProcessTransport(gateway).send(expired)
    assert gateway.shed["deadline"] == 1

    assert DORMANT.registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
    assert DORMANT.stage_breakdown() == {}
    assert DORMANT.tracer.finished_total == 0
    assert DORMANT.tracer.finished_spans() == []
    assert DORMANT.snapshot() == {"enabled": False}


def _names_a_handle(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _HANDLES
    if isinstance(node, ast.Attribute):
        return node.attr in _HANDLES
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
        return any(isinstance(arg, ast.Constant) and arg.value in _HANDLES for arg in node.args)
    return False


def test_no_module_under_src_compares_a_handle_with_none():
    """Every hook has one path: no ``obs`` / ``observability`` value is ever
    compared with ``None`` (the dormant handle stands in for "off")."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(map(_names_a_handle, operands)) and any(
                isinstance(operand, ast.Constant) and operand.value is None
                for operand in operands
            ):
                offenders.append(f"{path.relative_to(src)}:{node.lineno}")
    assert offenders == []


def test_the_ledger_seams_fire_once_per_block_and_frame(env, cache, tmp_path):
    """The performance ledger wraps these public methods on their instances;
    each must still be reached through the instance, once per block (or per
    frame), so a fold that calls a private helper directly fails here."""
    pipeline = ExecutionPipeline(env["chain"], signature_cache=cache)
    store = DurableStore(str(tmp_path), "sqlite")
    store.attach(pipeline)
    gateway = _serial_gateway()
    calls: collections.Counter = collections.Counter()

    def count(target, name: str) -> None:
        inner = getattr(target, name)

        def counted(*args, **kwargs):
            calls[f"{type(target).__name__}.{name}"] += 1
            return inner(*args, **kwargs)

        setattr(target, name, counted)

    count(pipeline, "run_block")
    count(pipeline.builder, "build")
    count(pipeline.executor, "pre_warm")
    count(pipeline.executor, "execute")
    count(store.wal, "sync")
    count(gateway, "handle")

    generator = SmacsLoadGenerator(env["service"], env["recorder"], env["clients"])
    pipeline.ingest(generator.from_arrivals([4]))
    assert pipeline.run_block().executed == 4
    _one_tcp_submit(gateway)
    store.close()
    assert calls == {
        "ExecutionPipeline.run_block": 1,
        "BlockBuilder.build": 1,
        "BlockExecutor.pre_warm": 1,
        "BlockExecutor.execute": 1,
        "WriteAheadLog.sync": 1,
        "ServiceGateway.handle": 1,
    }
