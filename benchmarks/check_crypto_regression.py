#!/usr/bin/env python
"""Fail CI when the crypto hot-path regresses against the committed baseline.

Usage::

    python benchmarks/check_crypto_regression.py \
        benchmarks/baselines/BENCH_crypto_hotpath.json \
        benchmarks/results/BENCH_crypto_hotpath.json \
        [--tolerance 0.30]

Compares the freshly measured sign / verify / recover / recover_batch
ops-per-second and keccak throughput against the committed baseline: a drop
larger than the tolerance on any metric exits non-zero.  The speedup ratio
of ``recover`` over the reference implementation is gated as well -- it is
machine-independent, so a ratio regression is a code regression even when
raw ops/s merely reflects slower CI hardware.  (Batch vs looped recovery is
no longer a ratio worth gating: both run the same ladder.)  When a hardware
change legitimately moves the absolute numbers, refresh the baseline by
copying the new ``BENCH_crypto_hotpath.json`` over the committed one.
"""

from __future__ import annotations

try:  # invoked as `python benchmarks/check_crypto_regression.py`
    from regression_gate import run_gate
except ImportError:  # imported as part of the benchmarks package
    from benchmarks.regression_gate import run_gate

#: Absolute kernel throughput plus the machine-independent speedup ratio.
GATED_METRICS = (
    "sign_ops_per_sec",
    "verify_ops_per_sec",
    "recover_ops_per_sec",
    "recover_batch_ops_per_sec",
    "keccak_mb_per_sec",
    "keccak_short_ops_per_sec",
    "recover_speedup_vs_reference",
)
CONTEXT_METRICS = ("recover_reference_ops_per_sec",)


def main() -> int:
    return run_gate(
        description=__doc__,
        gated_metrics=GATED_METRICS,
        context_metrics=CONTEXT_METRICS,
        workload_keys=("ops", "block_size"),
        failure_title="crypto hot-path regression",
        baseline_path_hint="benchmarks/baselines/BENCH_crypto_hotpath.json",
    )


if __name__ == "__main__":
    raise SystemExit(main())
