"""One run of one workload: set-up, timed segments, checks, recovery, metrics.

An untraced run (``--trace 0``) yields the end-to-end metrics, each the
median of per-segment values.  A traced run (``--trace 1``) spends the same
measuring time on the two probes and on the same segments, in which a
seeded coin decides op by op whether the layer wrappers are installed:
traced and untraced ops interleave, so the tracing overhead is read from
neighbours that saw the same host noise, not from two runs minutes apart.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import time
from typing import Any, Callable

from repro.storage import DurableStore

from benchmarks.ledger import calibration, layers, probes, spec
from benchmarks.ledger.checks import CheckFailed, verify_run
from benchmarks.ledger.harness import Driver, LedgerError, Segment
from benchmarks.ledger.stack import Stack, build_node, build_stack
from benchmarks.ledger.stats import segment_median, segmented_percentile
from benchmarks.ledger.trace import StageTable, Tracer
from benchmarks.ledger.workloads import BLOCK_TXS, OPEN_LOOP_RATE, WORKLOADS, Workload

#: the stack is built and warmed this many times; ``setup_s`` is the median
SETUP_REPEATS = 3
#: equal timed segments of an untraced run; gated metrics are their median
SEGMENTS = 6
#: recoveries timed on copies of the final on-disk image
RECOVERY_REPEATS = 3
#: validity gates of the traced run (ROADMAP's residual bound; ISSUE 11)
MAX_UNATTRIBUTED_SHARE = 0.10
MIN_TRACE_OVERHEAD_RATIO = 0.95
#: an open-loop run that commits less than this share of the offered rate
#: had a growing backlog: its latencies measure the segment length
MIN_OPEN_LOOP_ACHIEVED = 0.9


def _set_up(workdir: str, workload: Workload, seed: int, tracer: Tracer) -> "tuple[Stack, Driver]":
    stack = build_stack(workdir, ruleset=workload.ruleset, wire_codec=workload.wire_codec)
    try:
        driver = Driver(stack, workload, seed, tracer)
        driver.warm_up()
    except BaseException:
        stack.close()
        raise
    return stack, driver


def _run_segments(
    driver: Driver, seconds: float
) -> "tuple[list[Segment], dict[str, float], float]":
    """``SEGMENTS`` equal segments; the clock stops between them.

    Returns the segments, the program's counter deltas summed over them, and
    how long the compaction before the last segment took (stopped clock: the
    final on-disk image is a backend snapshot plus a one-segment WAL suffix).
    """
    stack = driver.stack
    each = seconds / SEGMENTS
    segments: "list[Segment]" = []
    delta: "dict[str, float]" = {}
    flush_ms = 0.0
    for index in range(SEGMENTS):
        if index == SEGMENTS - 1:
            tracer = driver.tracer
            traced = tracer.enabled
            if traced:
                tracer.disable()  # the compaction is no op's work: no spans
            started = time.perf_counter()
            stack.store.flush()
            flush_ms = 1e3 * (time.perf_counter() - started)
            if traced:
                tracer.enable()
        before = layers.counters(stack)
        if driver.workload.loop == "open":
            # Whole blocks per segment, so every segment ends with an empty pool.
            arrivals = max(1, round(OPEN_LOOP_RATE * each / BLOCK_TXS)) * BLOCK_TXS
            segments.append(driver.open_segment(arrivals, arrivals / OPEN_LOOP_RATE))
        else:
            segments.append(driver.closed_segment(each))
        for name, value in layers.counters(stack).items():
            delta[name] = delta.get(name, 0) + value - before[name]
    return segments, delta, flush_ms


def _timed(work: "Callable[[], Any]") -> "tuple[Any, float, float]":
    """Run ``work``; its result, its wall seconds and the host-speed factor
    sampled around it (seconds / factor = reference-speed seconds)."""
    samples = [calibration.sample() for _ in range(3)]
    started = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - started
    samples += [calibration.sample() for _ in range(3)]
    return result, elapsed, calibration.speed_factor(samples)


def _committed(segment: Segment) -> int:
    """Expected-success transactions this segment fsync-committed."""
    return sum(block.result.succeeded for block in segment.blocks)


def _recover(stack: Stack, workdir: str, tag: str) -> "tuple[float, float, int]":
    """Time one ``recover_into`` on a copy of the live directory.

    Returns wall seconds, the host-speed factor and the transactions replayed."""
    source = stack.store.directory
    copy = os.path.join(workdir, f"recover-{tag}")
    shutil.copytree(source, copy)
    node = build_node()
    store = DurableStore(copy, "sqlite")
    try:
        report, elapsed, factor = _timed(lambda: store.recover_into(node.pipeline))
    finally:
        store.close()
    if report.state_root != stack.store.tracker.root:
        raise CheckFailed("recovered state root differs from the live root")
    shutil.rmtree(copy)
    return elapsed, factor, sum(len(block.transactions) for block in report.blocks)


def _require(name: str, value: "float | None") -> float:
    if value is None:
        raise LedgerError(f"{name}: too few samples in this run to report it; run longer")
    return value


def _check_open_loop(driver: Driver, segments: "list[Segment]") -> None:
    if driver.workload.loop != "open":
        return
    achieved = segment_median([_committed(s) / s.wall for s in segments])
    if achieved < MIN_OPEN_LOOP_ACHIEVED * OPEN_LOOP_RATE:
        raise LedgerError(
            f"committed {achieved:.1f} tx/s of {OPEN_LOOP_RATE:g} offered: the backlog grew "
            "for whole segments, so latencies measure the segment length, not the system"
        )


def run_untraced(workload: Workload, seed: int, seconds: float, workdir: str) -> "dict[str, Any]":
    tracer = Tracer()
    setups = []
    stack = driver = None
    for attempt in range(SETUP_REPEATS):
        if stack is not None:
            stack.close()
        directory = os.path.join(workdir, f"setup-{attempt}")
        (stack, driver), elapsed, factor = _timed(
            lambda: _set_up(directory, workload, seed, tracer)
        )
        setups.append(elapsed / factor)
    assert stack is not None and driver is not None
    try:
        segments, _, _ = _run_segments(driver, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _check_open_loop(driver, segments)
        verify_run(stack, [driver.warmup, *segments], seed)
        recoveries = [_recover(stack, workdir, str(i)) for i in range(RECOVERY_REPEATS)]
    finally:
        stack.close()

    # Reference-speed milliseconds, one list per segment; latencies count
    # from the due time.  Each segment is scaled by its own host-speed factor.
    open_loop = workload.loop == "open"
    scale = [1e3 / s.speed_factor for s in segments]
    op = [[k * (r.verdict_at - r.due) for r in s.ops] for s, k in zip(segments, scale)]
    token = [
        [k * (r.token_at - r.due) for r in s.ops if r.token_at is not None]
        for s, k in zip(segments, scale)
    ]
    block = [[k * (b.ended - b.started) for b in s.blocks] for s, k in zip(segments, scale)]
    receipts = [r for s in segments for b in s.blocks for r in b.result.receipts]
    values = {
        "setup_s": segment_median(setups),
        "tx_per_s": segment_median(
            # An open loop commits what is offered, at any host speed.
            [_committed(s) / s.wall * (1.0 if open_loop else s.speed_factor) for s in segments]
        ),
        "op_p50_ms": _require("op_p50_ms", segmented_percentile(op, 50, min_beyond=5)),
        "op_p90_ms": _require("op_p90_ms", segmented_percentile(op, 90)),
        "token_p50_ms": _require("token_p50_ms", segmented_percentile(token, 50, min_beyond=5)),
        "token_p90_ms": _require("token_p90_ms", segmented_percentile(token, 90)),
        "block_p50_ms": _require("block_p50_ms", segmented_percentile(block, 50, min_beyond=2)),
        "recovery_tx_per_s": recoveries[0][2]
        / segment_median([elapsed / factor for elapsed, factor, _ in recoveries]),
        "peak_rss_mb": peak_rss_mb,
        "gas_per_tx": layers.gas_parts(receipts)["total"],
    }
    return {"attempted": sum(len(s.ops) for s in segments), "values": values, "report": []}


def run_traced(workload: Workload, seed: int, seconds: float, workdir: str) -> "dict[str, Any]":
    tracer = Tracer()
    stack, driver = _set_up(os.path.join(workdir, "setup"), workload, seed, tracer)
    try:
        values = {**probes.codec_probe(stack, workload), **probes.crypto_probe()}
        budget = max(seconds - probes.CODEC_PROBE_SECONDS - probes.CRYPTO_PROBE_SECONDS, 1.0)
        layers.instrument(tracer, stack)
        driver.trace_coin = random.Random(f"ledger:trace:{seed}")
        try:
            segments, delta, flush_ms = _run_segments(driver, budget)
        finally:
            driver.trace_coin = None
            if tracer.enabled:
                tracer.disable()
        _check_open_loop(driver, segments)
        verify_run(stack, [driver.warmup, *segments], seed)
        recover_s, _, _ = _recover(stack, workdir, "traced")
        table = StageTable(tracer.spans)
        values.update(layers.layer_metrics(table, segments, delta, stack))
    finally:
        stack.close()

    # Untraced / traced median op service time (start -> verdict).  The two
    # groups interleave op by op, a thousand or so a side.
    def op_service(traced: bool) -> float:
        return statistics.median(
            r.verdict_at - r.started for s in segments for r in s.ops if r.traced == traced
        )

    values.update(layers.harness_metrics(segments))
    values["ledger.host_speed_factor"] = segment_median([s.speed_factor for s in segments])
    values["ledger.trace_overhead_ratio"] = op_service(False) / op_service(True)
    values["storage.durable.flush_ms"] = flush_ms
    values["storage.durable.recover_s"] = recover_s

    busy = layers.traced_busy(segments)
    lines = layers.stage_lines(table, busy)
    if abs(sum(table.self_time.values()) - table.root_total) > 1e-6 * busy:
        raise CheckFailed("span self times do not sum to the root spans: a child left its parent")
    if values["ledger.unattributed_share"] > MAX_UNATTRIBUTED_SHARE:
        raise CheckFailed(
            f"unattributed share {values['ledger.unattributed_share']:.3f} exceeds "
            f"{MAX_UNATTRIBUTED_SHARE}\n" + "\n".join(lines)
        )
    if values["ledger.trace_overhead_ratio"] < MIN_TRACE_OVERHEAD_RATIO:
        raise CheckFailed(
            f"traced ops ran at {values['ledger.trace_overhead_ratio']:.3f} of the untraced "
            f"ones' speed (floor {MIN_TRACE_OVERHEAD_RATIO}): tracing has become the workload"
        )
    trace_path = spec.RESULTS_DIR / f"TRACE_{workload.name}.json"
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"workload": workload.name, "seed": seed, "traced_busy_s": busy,
             "stage_table": lines, "spans": tracer.export()},
            handle,
        )
    return {"attempted": sum(len(s.ops) for s in segments), "values": values, "report": lines}


def pin_to_one_cpu() -> None:
    """Keep the driver and the gateway's loop thread on one CPU.

    The two threads never compute at the same time (one op in flight, one
    GIL), but left to the scheduler they wake each other across CPUs: on the
    2-vCPU box this was measured on, that cost ~20 % of throughput and smeared
    a 7.0-7.8 ms op into 8-11 ms, two-humped -- medians then flip between
    humps from run to run.  Threads started later inherit the mask.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> "dict[str, Any]":
    """Run one workload in a scratch directory under ``results/``.

    Returns ``attempted`` (measured ops), ``values`` (metric name -> number)
    and ``report`` (lines for a human: the stage table of a traced run).
    """
    workload = WORKLOADS[workload_name]
    pin_to_one_cpu()
    spec.RESULTS_DIR.mkdir(exist_ok=True)
    workdir = str(spec.RESULTS_DIR / f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return (run_traced if trace else run_untraced)(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
