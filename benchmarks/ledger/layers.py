"""Per-layer metrics: where the spans go, and what is derived from them.

Layers are this repository's modules.  ``instrument`` wraps the public call
at each layer boundary on the instances of one :class:`Stack`;
``layer_metrics`` turns the recorded spans plus counter deltas into the
``per_layer`` metrics of ``BENCHMARK.json``.  Per-op and per-tx figures are
exact ``sum / count`` -- no histogram buckets.
"""

from __future__ import annotations

from typing import Any

from benchmarks.ledger.harness import Segment
from benchmarks.ledger.stack import Stack
from benchmarks.ledger.stats import percentile
from benchmarks.ledger.trace import StageTable, Tracer

# Span names (one per wrapped call).
CLIENT = "api.client.submit"
SEND = "api.transport.send"
HANDLE = "api.gateway.handle"
ISSUE = "core.token_service.submit"
COUNTER = "consensus.counter.increment"
SIGN = "chain.transaction.sign"
INGEST = "pipeline.mempool.ingest"
REMOVE = "pipeline.mempool.remove"
RUN_BLOCK = "pipeline.pipeline.run_block"
BUILD = "pipeline.builder.build"
EXECUTE = "pipeline.executor.execute"
PRE_WARM = "pipeline.executor.pre_warm"
NOTE_ADMITTED = "storage.durable.note_admitted"
BEGIN = "storage.durable.begin_block"
SEAL = "storage.durable.seal_block"
COMMIT = "storage.durable.commit_block"
WAL_APPEND = "storage.wal.append"
WAL_SYNC = "storage.wal.sync"

#: span name -> the layer whose self time it counts towards
LAYER_OF = {
    CLIENT: "api.client",
    SEND: "api.transport",
    HANDLE: "api.gateway",
    ISSUE: "core.token_service",
    COUNTER: "consensus.counter",
    SIGN: "chain.transaction",
    INGEST: "pipeline.mempool",
    REMOVE: "pipeline.mempool",
    RUN_BLOCK: "pipeline.pipeline",
    BUILD: "pipeline.builder",
    EXECUTE: "pipeline.executor",
    PRE_WARM: "pipeline.executor",
    NOTE_ADMITTED: "storage.durable",
    BEGIN: "storage.durable",
    SEAL: "storage.durable",
    COMMIT: "storage.durable",
    WAL_APPEND: "storage.wal",
    WAL_SYNC: "storage.wal",
}
WIRE_ISSUER_LAYERS = (
    "api.client", "api.transport", "api.gateway", "core.token_service", "consensus.counter",
)
GAS_PARTS = ("verify", "bitmap", "parse")


def instrument(tracer: Tracer, stack: Stack) -> None:
    """Prepare a span around each layer's public entry point, on this stack's
    own instances; ``tracer.enable()`` installs them."""
    pipeline = stack.node.pipeline
    store = stack.store
    tracer.wrap(stack.client, "submit", CLIENT)
    tracer.wrap(stack.client.transport, "send", SEND, bridge=True)
    tracer.wrap(stack.gateway, "handle", HANDLE)
    tracer.wrap(stack.issuer, "submit", ISSUE)
    tracer.wrap(stack.service.counter_cluster, "increment", COUNTER)
    tracer.wrap(pipeline, "ingest", INGEST)
    tracer.wrap(pipeline.mempool, "admission_listener", NOTE_ADMITTED)
    tracer.wrap(pipeline, "run_block", RUN_BLOCK)
    tracer.wrap(pipeline.builder, "build", BUILD)
    tracer.wrap(store, "begin_block", BEGIN)
    tracer.wrap(pipeline.executor, "execute", EXECUTE)
    tracer.wrap(pipeline.executor, "pre_warm", PRE_WARM)
    tracer.wrap(pipeline.chain, "state_root_provider", SEAL)
    tracer.wrap(pipeline.mempool, "remove", REMOVE)
    tracer.wrap(store, "commit_block", COMMIT)
    tracer.wrap(store.wal, "append", WAL_APPEND)
    tracer.wrap(store.wal, "sync", WAL_SYNC)


def counters(stack: Stack) -> "dict[str, float]":
    """Monotonic counters read from the program's own introspection."""
    server = stack.server.stats()
    mempool = stack.node.pipeline.mempool
    cache = stack.node.cache
    return {
        "retries": stack.client.retries_performed,
        "frames": server["frames_served"],
        "bytes_in": server["bytes_received"],
        "bytes_out": server["bytes_sent"],
        "shed": sum(stack.gateway.shed.values()) + server["frames_shed"],
        "issued": stack.service.issued_count,
        "denied": stack.service.denied_count,
        "increments": max(stack.service.counter_cluster.committed_values().values()),
        "messages": stack.service.counter_cluster.network.delivered_messages,
        "failovers": stack.service.transient_failovers + stack.issuer.failovers,
        "admitted": mempool.admitted_count,
        "rejected": sum(mempool.rejected.values()),
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "wal_bytes": stack.store.wal.size,
    }


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def gas_parts(receipts: "list[Any]") -> "dict[str, float]":
    """Mean gas per successful transaction, split the way Tab. II splits it."""
    successful = [receipt for receipt in receipts if receipt.success]
    parts = {
        part: _per(sum(r.breakdown(part) for r in successful), len(successful))
        for part in GAS_PARTS
    }
    total = _per(sum(r.gas_used for r in successful), len(successful))
    parts["misc"] = total - sum(parts.values())
    parts["total"] = total
    return parts


def layer_metrics(
    table: StageTable,
    segments: "list[Segment]",
    delta: "dict[str, float]",
    stack: Stack,
) -> "dict[str, float]":
    """Every span- and counter-derived ``per_layer`` metric.

    Span sums come from the traced ops and blocks only and are divided by
    the harness's own counts over that same subset; counters and receipts
    cover every measured op (tracing does not change what they count).
    """
    count, total, own = table.count, table.total, table.self_time
    ops = [record for segment in segments for record in segment.ops]
    blocks = [block for segment in segments for block in segment.blocks]
    traced_ops = [record for record in ops if record.traced]
    traced_blocks = [block for block in blocks if block.traced]
    busy = traced_busy(segments)
    receipts = [receipt for block in blocks for receipt in block.result.receipts]
    executed = len(receipts)
    traced_executed = sum(block.result.executed for block in traced_blocks)
    traced_ingested = sum(len(record.txs) for record in traced_ops)
    traced_tokens = sum(len(r.txs) for r in traced_ops if r.token_at is not None)
    hits = sum(block.result.prewarm_hits for block in blocks)
    misses = sum(block.result.prewarm_misses for block in blocks)
    lookups = delta["cache_hits"] + delta["cache_misses"]
    gas = gas_parts(receipts)
    share: "dict[str, float]" = {}
    for name, seconds in own.items():
        layer = LAYER_OF[name]
        share[layer] = share.get(layer, 0.0) + _per(seconds, busy)

    def ms(seconds: float, per: float) -> float:
        return 1e3 * _per(seconds, per)

    n_blocks = len(traced_blocks)
    return {
        "api.client.self_ms_per_op": ms(own.get(CLIENT, 0.0), count.get(CLIENT, 0)),
        "api.client.retries": delta["retries"],
        "api.transport.self_ms_per_op": ms(own.get(SEND, 0.0), count.get(SEND, 0)),
        "api.transport.frames": delta["frames"],
        "api.transport.bytes_in_per_op": _per(delta["bytes_in"], delta["frames"]),
        "api.transport.bytes_out_per_op": _per(delta["bytes_out"], delta["frames"]),
        "api.transport.connections": stack.server.stats()["connections_accepted"],
        "api.gateway.self_ms_per_op": ms(own.get(HANDLE, 0.0), count.get(HANDLE, 0)),
        "api.gateway.shed": delta["shed"],
        "core.token_service.self_ms_per_token": ms(own.get(ISSUE, 0.0), traced_tokens),
        "core.token_service.issued": delta["issued"],
        "core.token_service.denied": delta["denied"],
        "consensus.counter.ms_per_increment": ms(total.get(COUNTER, 0.0), count.get(COUNTER, 0)),
        "consensus.counter.messages_per_increment": _per(delta["messages"], delta["increments"]),
        "consensus.counter.failovers": delta["failovers"],
        "chain.transaction.sign_ms_per_tx": ms(total.get(SIGN, 0.0), count.get(SIGN, 0)),
        "pipeline.mempool.self_ms_per_tx": ms(own.get(INGEST, 0.0), traced_ingested),
        "pipeline.mempool.admitted": delta["admitted"],
        "pipeline.mempool.rejected": delta["rejected"],
        "pipeline.mempool.batch_size_mean": _per(traced_ingested, count.get(INGEST, 0)),
        "pipeline.builder.ms_per_block": ms(total.get(BUILD, 0.0), n_blocks),
        "pipeline.builder.txs_per_block": _per(executed, len(blocks)),
        "pipeline.executor.self_ms_per_tx": ms(own.get(EXECUTE, 0.0), traced_executed),
        "pipeline.executor.pre_warm_ms_per_block": ms(total.get(PRE_WARM, 0.0), n_blocks),
        "pipeline.executor.prewarm_hit_ratio": _per(hits, hits + misses),
        "pipeline.executor.smacs_denied": sum(block.result.smacs_denied for block in blocks),
        "chain.gas.verify_per_tx": gas["verify"],
        "chain.gas.bitmap_per_tx": gas["bitmap"],
        "chain.gas.parse_per_tx": gas["parse"],
        "chain.gas.misc_per_tx": gas["misc"],
        "crypto.sigcache.hit_ratio": _per(delta["cache_hits"], lookups),
        "crypto.sigcache.misses_per_tx": _per(delta["cache_misses"], executed),
        "crypto.sigcache.entries": len(stack.node.cache),
        "storage.durable.self_ms_per_block": ms(
            own.get(BEGIN, 0.0) + own.get(SEAL, 0.0) + own.get(COMMIT, 0.0), n_blocks
        ),
        "storage.durable.note_admitted_us_per_tx": 1e3
        * ms(total.get(NOTE_ADMITTED, 0.0), count.get(NOTE_ADMITTED, 0)),
        "storage.wal.append_sync_ms_per_block": ms(
            table.under.get((WAL_APPEND, COMMIT), 0.0), n_blocks
        ),
        "storage.wal.bytes_per_tx": _per(delta["wal_bytes"], executed),
        "storage.wal.fsyncs_per_block": _per(count.get(WAL_SYNC, 0), n_blocks),
        "pipeline.pipeline.glue_ms_per_block": ms(own.get(RUN_BLOCK, 0.0), n_blocks),
        "ledger.unattributed_share": _per(busy - table.root_total, busy),
        "ledger.wire_issuer_share": sum(share.get(layer, 0.0) for layer in WIRE_ISSUER_LAYERS),
        "ledger.sign_share": share.get("chain.transaction", 0.0),
        "ledger.mempool_share": share.get("pipeline.mempool", 0.0),
        "ledger.executor_share": share.get("pipeline.executor", 0.0),
        "ledger.storage_share": share.get("storage.durable", 0.0) + share.get("storage.wal", 0.0),
    }


def traced_busy(segments: "list[Segment]") -> float:
    """Seconds of traced op service (start -> verdict) plus traced blocks.

    This is the wall the stage table reconciles against: idle waits of the
    open loop and the harness's between-op bookkeeping are on neither side.
    """
    return sum(
        r.verdict_at - r.started for s in segments for r in s.ops if r.traced
    ) + sum(b.ended - b.started for s in segments for b in s.blocks if b.traced)


def harness_metrics(segments: "list[Segment]") -> "dict[str, float]":
    """Generator lateness and the pooled, ungated p99s (validity, not speed)."""
    ops = [record for segment in segments for record in segment.ops]
    late = [1e3 * (record.started - record.due) for record in ops]
    token = [1e3 * (r.token_at - r.due) for r in ops if r.token_at is not None]
    return {
        "ledger.generator_late_p50_ms": percentile(late, 50),
        "ledger.generator_late_p90_ms": percentile(late, 90),
        "ledger.op_p99_ms_pooled": percentile([1e3 * (r.verdict_at - r.due) for r in ops], 99),
        "ledger.token_p99_ms_pooled": percentile(token, 99) if token else 0.0,
    }


def stage_lines(table: StageTable, wall: float) -> "list[str]":
    """The stage table: exact sums, one row per wrapped call."""
    lines = [
        f"{'span':<34}{'count':>8}{'sum ms':>12}{'self ms':>12}{'self ms/call':>14}{'share':>8}"
    ]
    for name in sorted(table.count, key=lambda n: -table.self_time[n]):
        lines.append(
            f"{name:<34}{table.count[name]:>8}{1e3 * table.total[name]:>12.2f}"
            f"{1e3 * table.self_time[name]:>12.2f}"
            f"{1e3 * table.self_time[name] / table.count[name]:>14.4f}"
            f"{table.self_time[name] / wall:>8.3f}"
        )
    attributed = sum(table.self_time.values())
    lines.append(
        f"{'(unattributed: harness, inside ops)':<34}{'':>8}{'':>12}"
        f"{1e3 * (wall - attributed):>12.2f}{'':>14}{(wall - attributed) / wall:>8.3f}"
    )
    lines.append(f"{'traced ops + blocks, wall':<34}{'':>8}{1e3 * wall:>12.2f}")
    return lines
