"""Unit tests for the ledger's own arithmetic (no sockets, well under 3 s).

The benchmark's numbers are only as good as its estimators, its span
algebra, its open-loop clock and its nonce books; these pin each of them
with hand-checkable inputs.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import build_service

from benchmarks.ledger import calibration, spec
from benchmarks.ledger.harness import Driver, NonceBook, Segment, open_loop_schedule
from benchmarks.ledger.stack import FIG6_AMOUNTS, Stack, build_node, ts_keypair
from benchmarks.ledger.stats import (
    percentile,
    samples_beyond,
    segment_median,
    segmented_percentile,
)
from benchmarks.ledger.trace import StageTable, Tracer, covered, self_times
from benchmarks.ledger.workloads import (
    FRESH,
    MIX_PER_HUNDRED,
    REPLAY,
    WORKLOADS,
    Op,
    arrival_offsets,
    op_stream,
)


# -- estimators --------------------------------------------------------------------


def test_nearest_rank_percentile():
    values = [15, 20, 35, 40, 50]
    assert percentile(values, 30) == 20      # ceil(0.3 * 5) = 2nd smallest
    assert percentile(values, 50) == 35
    assert percentile(values, 100) == 50
    assert percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError):
        percentile([], 50)


def test_samples_beyond_counts_the_tail():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(96, 90) == 9
    assert samples_beyond(20, 50) == 10
    assert samples_beyond(0, 90) == 0


def test_segment_median_ignores_one_stalled_segment():
    assert segment_median([100.0, 101.0, 99.0, 100.5, 31.0]) == 100.0


def test_segmented_percentile_prefers_segments_then_pools_then_refuses():
    big = [list(range(1, 101)) for _ in range(3)]          # 10 beyond p90 each
    assert segmented_percentile(big, 90) == 90
    small = [list(range(1, 21)) for _ in range(5)]         # 2 beyond each, 10 pooled
    assert segmented_percentile(small, 90) == percentile(sum(small, []), 90)
    tiny = [[1.0, 2.0, 3.0]] * 2                           # 0 beyond pooled: too few
    assert segmented_percentile(tiny, 90) is None
    assert segmented_percentile([[], []], 50) is None


def test_speed_factor_is_median_kernel_time_over_reference():
    reference = calibration.REFERENCE_MS
    assert calibration.speed_factor([reference] * 3) == 1.0
    # One stalled sample does not move it; a uniformly 25 % slower host does.
    assert calibration.speed_factor([reference, reference, 9.0]) == 1.0
    assert calibration.speed_factor([1.25 * reference] * 5) == pytest.approx(1.25)
    segment = Segment(speed_samples=[1.25 * reference] * 4)
    assert 10.0 / segment.speed_factor == pytest.approx(8.0)   # 10 ms measured on a slow host


def test_calibration_kernel_is_deterministic_and_sampled_in_milliseconds():
    assert calibration.kernel() == calibration.kernel()
    assert 0.05 < calibration.sample() < 50.0


# -- span algebra ------------------------------------------------------------------


class _Ticks:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_takes_the_union_clipped_to_the_parent():
    assert covered([(1, 3), (2, 4), (6, 9)], 0, 8) == pytest.approx(5.0)
    assert covered([], 0, 8) == 0.0


def test_self_time_with_nested_children():
    clock = _Ticks()
    tracer = Tracer(clock)
    tracer.enabled = True
    outer = tracer.start("outer")
    clock.now = 1.0
    with tracer.span("child"):
        clock.now = 2.0
        with tracer.span("grandchild"):
            clock.now = 5.0
        clock.now = 6.0
    clock.now = 10.0
    tracer.finish(outer)
    own = dict(zip([span[1] for span in tracer.spans], self_times(tracer.spans)))
    assert own == {"outer": 5.0, "child": 2.0, "grandchild": 3.0}
    table = StageTable(tracer.spans)
    assert table.root_total == 10.0
    assert sum(table.self_time.values()) == pytest.approx(table.root_total)
    assert table.under[("grandchild", "child")] == 3.0


def test_cross_thread_span_is_parented_to_the_bridge():
    clock = _Ticks()
    tracer = Tracer(clock)
    send = tracer.start("send", bridge=True)
    clock.now = 1.0

    def server():
        handle = tracer.start("handle")
        clock.now = 4.0
        tracer.finish(handle)

    thread = threading.Thread(target=server)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    clock.now = 5.0
    tracer.finish(send)
    exported = tracer.export()
    assert [(s["name"], s["parent"]) for s in exported] == [("send", None), ("handle", 0)]
    assert self_times(sorted(tracer.spans)) == [2.0, 3.0]
    # With the bridge closed, another thread's span is a root again.
    late = threading.Thread(target=lambda: tracer.finish(tracer.start("stray")))
    late.start()
    late.join(timeout=5)
    assert tracer.export()[-1]["parent"] is None


def test_wrap_records_calls_and_disable_restores():
    class Layer:
        def __init__(self):
            self.callback = None

        def work(self, x):
            return x + 1

    layer = Layer()
    layer.callback = layer.work
    tracer = Tracer(_Ticks())
    tracer.wrap(layer, "work", "layer.work")
    tracer.wrap(layer, "callback", "layer.callback")
    layer.work(0)
    assert tracer.spans == []                 # prepared, not installed
    tracer.enable()
    assert layer.work(1) == 2 and layer.callback(2) == 3
    assert [span[1] for span in tracer.spans] == ["layer.work", "layer.callback"]
    tracer.disable()
    assert "work" not in vars(layer) and layer.callback == layer.work
    layer.work(1)
    assert len(tracer.spans) == 2
    tracer.enable()
    layer.work(1)
    assert len(tracer.spans) == 3             # and can be switched on again


# -- open-loop clock ---------------------------------------------------------------


def test_open_loop_counts_latency_from_due_and_reports_lateness():
    clock = _Ticks()
    slept = []

    def sleep(seconds):
        slept.append(seconds)
        clock.now += seconds

    schedule = open_loop_schedule([0.0, 0.010, 0.020, 0.100], clock, sleep)
    arrivals = []
    for started, due in schedule:
        arrivals.append((started, due))
        clock.now += 0.025          # every op takes 25 ms: the driver falls behind
    assert [due for _, due in arrivals] == pytest.approx([0.0, 0.010, 0.020, 0.100])
    # Arrivals 2 and 3 found the driver busy: they start late, and are not
    # re-timed; arrival 4 is early, so the driver waits for its due time.
    assert [started - due for started, due in arrivals] == pytest.approx([0.0, 0.015, 0.030, 0.0])
    assert slept == pytest.approx([0.025])


def test_arrival_offsets_are_seeded_sorted_and_inside_the_span():
    workload = WORKLOADS["onetime_open48"]
    first = arrival_offsets(workload, 7, 0, 192, 4.0)
    assert first == arrival_offsets(workload, 7, 0, 192, 4.0)
    assert first != arrival_offsets(workload, 7, 1, 192, 4.0)
    assert first != arrival_offsets(workload, 8, 0, 192, 4.0)
    assert first == sorted(first) and len(first) == 192
    assert 0.0 <= first[0] and first[-1] < 4.0


# -- op streams ----------------------------------------------------------------------


def _take(name, seed, count):
    stream = op_stream(WORKLOADS[name], seed, 64, amounts=FIG6_AMOUNTS)
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_op_sequence(name):
    assert _take(name, 2019, 300) == _take(name, 2019, 300)
    assert _take(name, 2019, 300) != _take(name, 7919, 300)


def test_batch_ops_use_distinct_accounts_and_whitelisted_amounts():
    for op in _take("argument_batch32", 2019, 50):
        assert len(set(op.clients)) == len(op.clients) == 32
        assert all(1 <= amount <= FIG6_AMOUNTS for amount in op.amounts)


def test_mix_is_exact_per_hundred_ops():
    ops = _take("reuse_replay_mix", 2019, 300)
    for start in range(0, 300, 100):
        kinds = [op.kind for op in ops[start:start + 100]]
        assert {kind: kinds.count(kind) for kind in set(kinds)} == dict(MIX_PER_HUNDRED)
    assert all(op.pick != op.clients[0] for op in ops if op.kind == "stolen")


# -- nonce books -----------------------------------------------------------------------


def test_nonce_book_advances_only_on_admission():
    book = NonceBook({b"a": 3})
    assert book.peek(b"a") == 3 and book.peek(b"a") == 3
    book.admitted(b"a")
    assert book.peek(b"a") == 4


def test_nonce_survives_an_expected_rejection():
    """A refused replay must not burn the sender's nonce (or the run wedges)."""
    node = build_node()
    issuer = build_service(
        "replicated", keypair=ts_keypair(), clock=node.chain.clock, signature_cache=node.cache
    )
    # The issuer stands in for the wire client: same TokenIssuer protocol.
    stack = Stack(node, issuer, None, None, None, issuer, None, ts_keypair())
    driver = Driver(stack, WORKLOADS["reuse_replay_mix"], 1, Tracer())
    segment = Segment()
    sender = driver.addresses[5]
    for index, kind in enumerate((FRESH, REPLAY, FRESH)):
        driver.run_op(Op(index, kind, (5,), (index + 1,)), segment, 0.0, 0.0)
    first, replay, second = segment.ops
    assert first.decisions[0].admitted
    assert not replay.decisions[0].admitted
    assert replay.decisions[0].reason == "duplicate one-time index in pool"
    assert replay.txs[0].nonce == 1           # it *tried* the next nonce...
    assert second.decisions[0].admitted, second.decisions[0].reason
    assert second.txs[0].nonce == 1           # ...which the refusal did not consume
    assert driver.book.peek(sender) == 2 and driver.pending == 2


# -- the contract file -------------------------------------------------------------------


def test_benchmark_json_declares_the_workloads_and_setup_metric():
    contract = spec.load()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec.workload_names(contract) == list(WORKLOADS)
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    assert len(json.dumps(contract)) < 64 * 1024


def test_emit_refuses_metrics_that_drift_from_the_contract():
    contract = {"end_to_end": [{"name": "a", "unit": "ms"}, {"name": "b", "unit": "s"}]}
    assert spec.emit(contract, "end_to_end", {"a": 1.5, "b": 2.0}) == {
        "a": {"value": 1.5, "unit": "ms"},
        "b": {"value": 2.0, "unit": "s"},
    }
    with pytest.raises(ValueError, match="missing \\['b'\\]"):
        spec.emit(contract, "end_to_end", {"a": 1.5})
    with pytest.raises(ValueError, match="extra \\['c'\\]"):
        spec.emit(contract, "end_to_end", {"a": 1.5, "b": 2.0, "c": 0.0})
