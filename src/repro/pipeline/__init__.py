"""The production-shaped ingest path: mempool -> block builder -> executor.

PR 1 made token *issuance* fast; this package makes the chain side keep up.
It wires the existing pieces -- SMACS tokens, the packed Alg. 2 bitmap, the
shared signature cache, the Raft-replicated Token Service -- into one
block-oriented execution pipeline:

* :mod:`repro.pipeline.mempool` -- admission with cheap SMACS pre-checks
  (expiry, cached datagram digest, read-only bitmap screening of one-time
  indexes);
* :mod:`repro.pipeline.builder` -- gas-limit block packing with per-sender
  nonce ordering;
* :mod:`repro.pipeline.executor` -- batched ``ecrecover``/digest pre-warming
  of the node's cache, then block execution through the EVM verifier;
* :mod:`repro.pipeline.pipeline` -- :class:`ExecutionPipeline`, the wired
  loop with per-reason rejection accounting;
* :mod:`repro.pipeline.load` -- trace- and scenario-driven clients that
  request tokens (typically from a
  :class:`~repro.core.replication.ReplicatedTokenService`) and sign the
  transactions the pipeline ingests;
* :mod:`repro.pipeline.openloop` -- fixed-rate open-loop arrival generation
  with p50/p99/p999 service and end-to-end latency accounting (the honest
  model of a million independent wallets, driven over the real wire by
  ``benchmarks/bench_latency.py``).

``benchmarks/bench_end_to_end.py`` drives the whole loop from the §VI-A
diurnal traces and asserts the paper's ≥35 tx/s peak survives the full
client -> TS -> contract path.
"""

from repro.pipeline.builder import BlockBuilder, BlockPlan, DEFAULT_BLOCK_GAS_LIMIT
from repro.pipeline.executor import BlockExecutor, BlockResult
from repro.pipeline.load import SmacsLoadGenerator
from repro.pipeline.mempool import AdmissionDecision, Mempool, RejectReason
from repro.pipeline.openloop import (
    LatencySummary,
    OpenLoopReport,
    arrival_offsets,
    percentile,
    run_open_loop,
)
from repro.pipeline.pipeline import ExecutionPipeline

__all__ = [
    "AdmissionDecision",
    "BlockBuilder",
    "BlockExecutor",
    "BlockPlan",
    "BlockResult",
    "DEFAULT_BLOCK_GAS_LIMIT",
    "ExecutionPipeline",
    "LatencySummary",
    "Mempool",
    "OpenLoopReport",
    "RejectReason",
    "SmacsLoadGenerator",
    "arrival_offsets",
    "percentile",
    "run_open_loop",
]
