"""Command line: the single-run contract, ``all`` and the A/A check.

``--workload W --seed N --seconds S --trace 0|1`` is one run; its last
stdout line is the result object.  Without ``--workload`` every workload of
``BENCHMARK.json`` is run that way, each in a fresh subprocess (isolating
``peak_rss_mb`` and the process-wide caches), and ``results/LEDGER.json`` is
written.  ``aa`` does that several times on the same code and fails when
two sets disagree by more than a metric's own bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Any

from benchmarks.ledger import spec

DEFAULT_SEED = 2019


def _single(args: argparse.Namespace, contract: "dict[str, Any]") -> int:
    # Imported here so ``all``/``aa`` (which only spawn) stay light.
    from benchmarks.ledger.checks import CheckFailed
    from benchmarks.ledger.harness import LedgerError
    from benchmarks.ledger.runner import run

    kind = "per_layer" if args.trace else "end_to_end"
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
        metrics = spec.emit(contract, kind, outcome["values"])
    except (CheckFailed, LedgerError) as error:
        print(f"ledger: {args.workload}: {error}", file=sys.stderr)
        return 1
    for line in outcome["report"]:
        print(line)
    for name, metric in metrics.items():
        print(f"{name:<44}{metric['value']:>16.6f} {metric['unit']}")
    # verify_run raised unless every op met the generator's expectation.
    print(json.dumps({"correct": True, "attempted": outcome["attempted"], "failed": 0,
                      "metrics": metrics}))
    return 0


def _spawn(workload: str, seed: int, seconds: int, trace: int) -> "dict[str, Any]":
    command = [
        sys.executable, str(spec.PACKAGE_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"ledger: {workload} (trace {trace}) exited {done.returncode}")
    *report, result = done.stdout.splitlines()
    print("\n".join(report))
    return json.loads(result)


def run_all(contract: "dict[str, Any]", seed: int, seconds: int, traced: bool) -> "dict[str, Any]":
    ledger: "dict[str, Any]" = {"seed": seed, "seconds": seconds, "workloads": {}}
    for workload in spec.workload_names(contract):
        print(f"== {workload} (seed {seed}, {seconds} s)")
        result = _spawn(workload, seed, seconds, 0)
        entry = {"attempted": result["attempted"], "failed": result["failed"],
                 "end_to_end": result["metrics"]}
        if traced:
            print(f"== {workload}, traced")
            entry["per_layer"] = _spawn(workload, seed, seconds, 1)["metrics"]
        ledger["workloads"][workload] = entry
    return ledger


def _all(args: argparse.Namespace, contract: "dict[str, Any]") -> int:
    ledger = run_all(contract, args.seed, args.seconds, args.traced)
    spec.RESULTS_DIR.mkdir(exist_ok=True)
    path = spec.RESULTS_DIR / "LEDGER.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
    return 0


def _aa(args: argparse.Namespace, contract: "dict[str, Any]") -> int:
    """Same code, same seed, ``--sets`` times: does each set agree with the first?"""
    sets = [run_all(contract, args.seed, args.seconds, False) for _ in range(args.sets)]
    status = 0
    print(f"{'workload':<20}{'metric':<20}{'set':>4}{'first':>14}{'this':>14}"
          f"{'ratio':>9}{'bound':>8}")
    for workload in spec.workload_names(contract):
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = sets[0]["workloads"][workload]["end_to_end"][name]["value"]
            for number, later in enumerate(sets[1:], start=2):
                value = later["workloads"][workload]["end_to_end"][name]["value"]
                ratio = value / first
                worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
                verdict = ""
                if abs(worse) > bound:
                    verdict, status = "  <-- differs by more than its bound", 1
                print(f"{workload:<20}{name:<20}{number:>4}{first:>14.4f}{value:>14.4f}"
                      f"{ratio:>9.4f}{bound:>8.3f}{verdict}")
    return status


def main(argv: "list[str] | None" = None) -> int:
    contract = spec.load()
    parser = argparse.ArgumentParser(prog="ledger", description=__doc__.splitlines()[0])
    parser.add_argument("command", nargs="?", choices=("aa",),
                        help="aa: run the whole ledger --sets times and compare")
    parser.add_argument("--workload", choices=spec.workload_names(contract))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all: also make the traced run of every workload")
    parser.add_argument("--sets", type=int, default=2, help="aa: how many sets to compare")
    args = parser.parse_args(argv)
    if args.command == "aa":
        return _aa(args, contract)
    if args.workload is None:
        return _all(args, contract)
    return _single(args, contract)
