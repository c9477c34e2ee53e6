#!/usr/bin/env python
"""Fail CI when observability instrumentation costs more than it may.

Usage::

    python benchmarks/check_obs_overhead.py \
        benchmarks/results/BENCH_obs_off.json \
        benchmarks/results/BENCH_obs.json \
        [--off-floor 0.98] [--on-floor 0.90]

Takes the two artifacts the bench-smoke job produces from
``bench_end_to_end.py::test_end_to_end_observability_overhead``:

* ``BENCH_obs_off.json`` -- a ``SMACS_OBS=0`` run where both lanes hold
  the shared dormant handle: an A/A of the one uninstrumented code path,
  so its ratio is the machine's run-to-run noise floor; it must stay
  within 2%.
* ``BENCH_obs.json`` -- the default run with full tracing + metrics on the
  second lane; the instrumented lane must stay within 10% of baseline.

Both runs alternate their lanes for three rounds and report each lane's
median, so a single scheduler hiccup does not read as an instrumentation
regression.  The gate also demands that the
instrumented run produced samples for every profiled stage of the token
pipeline -- an empty breakdown means the hooks silently detached, which is
a worse failure than slow ones.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Every stage the instrumented run must have timed at least once.  Kept as a
#: literal (rather than imported from repro.obs) so the gate can run without
#: PYTHONPATH gymnastics and fails loudly if the stage set drifts.
REQUIRED_STAGES = (
    "gateway_decode",
    "issuance",
    "admission",
    "build",
    "pre_warm",
    "execute",
    "commit_fsync",
)


def _load(path: str, *, expect_enabled: bool) -> dict:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    data = document.get("data", {})
    if data.get("enabled") is not expect_enabled:
        raise SystemExit(
            f"{path}: expected an artifact with enabled={expect_enabled} "
            f"(got {data.get('enabled')!r}) -- were the SMACS_OBS runs swapped?"
        )
    return data


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("off_artifact", help="BENCH_obs json from a SMACS_OBS=0 run")
    parser.add_argument("on_artifact", help="BENCH_obs json from a SMACS_OBS=1 run")
    parser.add_argument("--off-floor", type=float, default=0.98,
                        help="minimum lane ratio with instrumentation off")
    parser.add_argument("--on-floor", type=float, default=0.90,
                        help="minimum instrumented/baseline throughput ratio")
    args = parser.parse_args(argv)

    off = _load(args.off_artifact, expect_enabled=False)
    on = _load(args.on_artifact, expect_enabled=True)

    failures = []
    off_ratio = off["instrumented_relative"]
    on_ratio = on["instrumented_relative"]
    print("observability overhead gate")
    print(f"{'run':<24}{'baseline tx/s':>15}{'candidate tx/s':>16}{'ratio':>8}{'floor':>8}")
    print(f"{'off (dormant A/A)':<24}{off['baseline_tx_per_s']:>15.1f}"
          f"{off['instrumented_tx_per_s']:>16.1f}{off_ratio:>8.3f}{args.off_floor:>8.2f}")
    print(f"{'on (traced+metrics)':<24}{on['baseline_tx_per_s']:>15.1f}"
          f"{on['instrumented_tx_per_s']:>16.1f}{on_ratio:>8.3f}{args.on_floor:>8.2f}")

    if off_ratio < args.off_floor:
        failures.append(
            f"disabled-path overhead: lane ratio {off_ratio:.3f} < {args.off_floor:.2f}"
        )
    if on_ratio < args.on_floor:
        failures.append(
            f"instrumented overhead: lane ratio {on_ratio:.3f} < {args.on_floor:.2f}"
        )

    stages = on.get("stages", {})
    missing = [s for s in REQUIRED_STAGES if stages.get(s, {}).get("count", 0) < 1]
    if missing:
        failures.append(f"stages with no samples in the instrumented run: {missing}")
    else:
        print(f"{'stage':<16}{'count':>8}{'p50 ms':>10}{'p99 ms':>10}")
        for name in REQUIRED_STAGES:
            row = stages[name]
            p50 = "-" if row["p50_ms"] is None else f"{row['p50_ms']:.3f}"
            p99 = "-" if row["p99_ms"] is None else f"{row['p99_ms']:.3f}"
            print(f"{name:<16}{row['count']:>8}{p50:>10}{p99:>10}")
    if on.get("spans_finished", 0) < 1:
        failures.append("instrumented run finished zero spans (tracer detached?)")

    if failures:
        print("\nFAIL: observability overhead gate", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nOK: observability stays inside its overhead budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
