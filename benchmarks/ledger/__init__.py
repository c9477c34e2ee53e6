"""The performance ledger: one wire-to-fsync benchmark for the SMACS stack.

``python3 benchmarks/ledger/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` drives wallet -> TCP -> gateway -> issuer -> signed tx ->
mempool -> block -> WAL fsync on one wall clock and prints every metric by
name.  ``BENCHMARK.json`` at the repository root is the contract (workloads,
metric names, units, bounds); ``README.md`` here explains how to read it.
"""
