#!/usr/bin/env python
"""The CI benchmark gates: one table, one comparison.

Usage::

    python benchmarks/regression_gate.py <gate> [baseline fresh] [--tolerance T]

Each gate loads a committed ``BENCH_*.json`` baseline and a freshly produced
one (by default ``benchmarks/baselines/<file>`` and
``benchmarks/results/<file>``), prints a metric table and exits non-zero
when a gated metric moved the wrong way by more than the tolerance --
dropped, for higher-is-better metrics (throughput, speedups), or grew, for
lower-is-better ones (latency percentiles, ratios of them).  :data:`GATES`
declares, per gate, which metrics are gated in which direction, which are
printed for context only, and which workload knobs must match for the
comparison to be apples-to-apples.  Ratios within one run (speedups,
``durable_relative``, the overload ratios) are machine-independent: a slower
runner moves both sides together, so a ratio regression is a code regression
even when raw rates merely reflect different hardware.  When reference
hardware legitimately changes, refresh a baseline by copying the new result
file over the committed one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent

GATES: "dict[str, dict[str, Any]]" = {
    "end_to_end": {
        "file": "BENCH_end_to_end.json",
        "title": "end-to-end throughput regression",
        "higher": (
            "pipelined_e2e_tx_per_s",
            "block_production_tx_per_s",
            "e2e_speedup",
            "block_production_speedup",
        ),
        "context": ("serial_tx_per_s",),
        "workload": ("window_seconds",),
    },
    "crypto": {
        # Batch vs looped recovery is not a ratio worth gating: one kernel.
        "file": "BENCH_crypto_hotpath.json",
        "title": "crypto hot-path regression",
        "higher": (
            "sign_ops_per_sec",
            "sign_batch_ops_per_sec",
            "generator_multiply_batch_ops_per_sec",
            "verify_ops_per_sec",
            "recover_ops_per_sec",
            "recover_batch_ops_per_sec",
            "recovers_to_ops_per_sec",
            "prepare_point_ops_per_sec",
            "cold_senders_ops_per_sec",
            "keccak_mb_per_sec",
            "keccak_short_ops_per_sec",
            "keccak_many_short_ops_per_sec",
            "keccak_ragged_pair_ops_per_sec",
            "ragged_pair_speedup_vs_two_hashes",
            "session_rider_speedup_vs_separate",
            "recover_speedup_vs_reference",
            "known_key_speedup_vs_recover",
            "token_check_ops_per_sec",
            "token_check_speedup_vs_recover",
            "sign_batch_speedup_vs_sign",
            "block_hash_64_ops_per_sec",
            "block_hash_tree_speedup_vs_flat",
        ),
        "context": (
            "sign_pair_vs_two_signs",
            "recover_reference_ops_per_sec",
            "second_sight_cost_vs_recover",
            "cold_senders_vs_parent",
        ),
        "workload": ("ops", "block_size"),
    },
    "state": {
        "file": "BENCH_state_hotpath.json",
        "title": "state hot-path regression",
        "higher": ("journal_speedup", "journal_tx_per_s"),
        "context": ("reference_tx_per_s",),
        "workload": ("accounts", "call_depth", "bitmap_bits", "transactions"),
    },
    "durability": {
        "file": "BENCH_durability.json",
        "title": "durability regression",
        "higher": ("durable_relative", "durable_tx_per_s", "recovery_tx_per_s"),
        "context": ("memory_tx_per_s", "wal_bytes_per_tx"),
        "workload": ("clients", "blocks", "batch", "transactions", "history_slots"),
    },
    "latency": {
        # Deliberately generous: shared CI runners jitter tail latency far
        # more than throughput ratios, so a failure means the wire path got
        # materially slower, not that the machine had a bad day.
        "file": "BENCH_latency.json",
        "title": "wire latency regression",
        "higher": ("success_rate",),
        "lower": ("issuance_p50_ms", "issuance_p99_ms", "e2e_p50_ms", "e2e_p99_ms"),
        "context": (
            "issuance_p999_ms",
            "e2e_p999_ms",
            "achieved_rate_per_s",
            "error_rate",
            "json_request_bytes",
            "binary_request_bytes",
        ),
        "workload": ("rate_per_s", "arrivals", "workers"),
        "tolerance": 1.50,
    },
    "overload": {
        # bench_overload itself hard-asserts the SLO floors (goodput ratio
        # >= 0.7, accepted p99 ratio <= 3.0); this pins the committed numbers
        # much tighter so a slow drift toward those cliffs is caught early.
        # Absolute goodputs are ~rate x completion by construction (capacity
        # is pinned by a fixed per-submit sleep), so they are gated too.
        "file": "BENCH_overload.json",
        "title": "overload resilience regression",
        "higher": ("goodput_ratio_4x", "goodput_1x_per_s", "goodput_4x_per_s"),
        "lower": ("accepted_p99_ratio_4x",),
        "context": (
            "goodput_2x_per_s",
            "shed_rate_1x",
            "shed_rate_4x",
            "overloaded_4x",
            "accepted_p99_ms_1x",
            "accepted_p99_ms_4x",
            "shed_p99_ms_4x",
        ),
        "workload": (
            "base_rate_per_s",
            "base_arrivals",
            "workers",
            "service_time_ms",
            "target_delay_ms",
        ),
        "tolerance": 0.35,
    },
}


def run_gate(argv: "list[str] | None" = None) -> int:
    """Compare fresh numbers against the committed baseline; 0 = OK."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("gate", choices=sorted(GATES))
    parser.add_argument("paths", nargs="*", metavar="baseline fresh",
                        help="override both BENCH_*.json paths")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="maximum allowed fractional regression (default: the gate's own)")
    args = parser.parse_args(argv)
    gate = GATES[args.gate]
    if len(args.paths) not in (0, 2):
        parser.error("pass both a baseline and a fresh result, or neither")
    baseline_path, fresh_path = args.paths or (
        HERE / "baselines" / gate["file"], HERE / "results" / gate["file"]
    )
    tolerance = args.tolerance if args.tolerance is not None else gate.get("tolerance", 0.30)
    higher, lower = gate["higher"], gate.get("lower", ())

    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)["data"]
    with open(fresh_path, encoding="utf-8") as handle:
        fresh = json.load(handle)["data"]

    for knob in gate["workload"]:
        if baseline.get(knob) != fresh.get(knob):
            print(
                f"note: {knob} differs (baseline {baseline.get(knob)} vs "
                f"fresh {fresh.get(knob)}) -- comparing different workload sizes",
            )

    failures = []
    print(f"{'metric':<36}{'baseline':>12}{'fresh':>12}{'change':>10}")
    for metric in higher + lower + gate["context"]:
        base, now = baseline.get(metric), fresh.get(metric)
        if base is None or now is None:
            print(f"{metric:<36}{'?':>12}{'?':>12}{'n/a':>10}")
            continue
        change = (now - base) / base if base else 0.0
        print(f"{metric:<36}{base:>12.2f}{now:>12.2f}{change:>+9.1%}")
        if metric in higher and change < -tolerance:
            failures.append(
                f"{metric} regressed {-change:.1%} (> {tolerance:.0%} tolerance): {base} -> {now}"
            )
        if metric in lower and change > tolerance:
            failures.append(
                f"{metric} grew {change:.1%} (> {tolerance:.0%} tolerance): {base} -> {now}"
            )

    if failures:
        print(f"\nFAIL: {gate['title']}", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        print(
            "\nIf this is an intentional change (or new reference hardware), "
            f"refresh benchmarks/baselines/{gate['file']}.",
            file=sys.stderr,
        )
        return 1
    print("\nOK: within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(run_gate())
