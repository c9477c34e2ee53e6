"""Durability engine cost: WAL flush overhead and crash-recovery speed.

Drives the identical deterministic token workload through two otherwise
identical nodes:

* ``memory``  -- the plain in-process pipeline (no durability, the ceiling);
* ``durable`` -- the same pipeline with a :class:`~repro.storage.DurableStore`
  attached: every admission is WAL-logged, every block commit writes a
  checksummed delta record and fsyncs (SQLite backend, ``synchronous=FULL``).

Both lanes must end on the *same* block-stamped state root (same seeds, same
tokens, same chain), so the measured gap is purely the durability tax.  The
durable image is then recovered into a third, fresh node and the replay is
timed; recovery must land exactly on the durable lane's final root.

The recorder does not start empty: ``HISTORY_SLOTS`` record slots are
written into its storage before any lane is timed, the state a node that has
served traffic for a while carries.  Block commit and recovery must cost
O(what the 192 transactions change), not O(that history); on an empty
contract the bench could not tell the two apart.

The committed baseline gates ``durable_relative`` (machine-independent: a
slow runner moves both lanes together), the absolute durable throughput and
the recovery replay rate.  Set ``SMACS_DUR_BLOCKS`` / ``SMACS_DUR_BATCH`` /
``SMACS_DUR_CLIENTS`` to scale locally; CI runs the default size, which is
what the committed baseline measures.
"""

from __future__ import annotations

import shutil
import tempfile
import time

from benchmarks.conftest import env_int, report
from repro.chain import Blockchain
from repro.contracts.protected_target import ProtectedRecorder
from repro.core import OwnerWallet
from repro.core.acr import RuleSet
from repro.core.replication import ReplicatedTokenService
from repro.crypto.keys import KeyPair
from repro.pipeline import ExecutionPipeline, SmacsLoadGenerator
from repro.storage import DurableStore, state_root

BLOCKS = env_int("SMACS_DUR_BLOCKS", 8)
BATCH = env_int("SMACS_DUR_BATCH", 24)
CLIENTS = env_int("SMACS_DUR_CLIENTS", 6)
#: ``("record", i)`` slots the recorder already holds when the lanes start
HISTORY_SLOTS = 4096


def _node():
    """One deterministic node: same seeds -> same accounts, tokens, blocks."""
    chain = Blockchain()
    pipeline = ExecutionPipeline(chain)
    owner = chain.create_account("owner", seed="durb-owner")
    clients = [
        chain.create_account(f"c{i}", seed=f"durb-client-{i}") for i in range(CLIENTS)
    ]
    service = ReplicatedTokenService(
        replica_count=3,
        keypair=KeyPair.from_seed("durb-ts"),
        rules=RuleSet(),
        clock=chain.clock,
        seed=77,
        signature_cache=pipeline.signature_cache,
    )
    recorder = OwnerWallet(owner, service.replicas[0]).deploy_protected(
        ProtectedRecorder, one_time_bitmap_bits=8192
    ).return_value
    for entry in range(1, HISTORY_SLOTS + 1):
        chain.state.storage_set(recorder.this, ("record", entry), (owner.address, entry, ""))
    chain.state.storage_set(recorder.this, "entries", HISTORY_SLOTS)
    # History belongs to blocks already mined: close the one it was written
    # in, so it is part of the base image and of no timed block's delta.
    chain.mine_block()
    generator = SmacsLoadGenerator(service, recorder, clients)
    return chain, pipeline, generator


def _drive(pipeline, generator) -> int:
    executed = 0
    for _ in range(BLOCKS):
        pipeline.ingest(generator.from_arrivals([BATCH]))
        result = pipeline.run_block()
        executed += result.executed
    return executed


def test_durability_flush_and_recovery_cost(benchmark):
    measured = {}

    def run():
        # memory lane: the undurable ceiling
        chain_m, pipeline_m, generator_m = _node()
        t0 = time.perf_counter()
        executed_m = _drive(pipeline_m, generator_m)
        memory_elapsed = time.perf_counter() - t0

        # durable lane: identical workload, WAL + fsync at every commit
        workdir = tempfile.mkdtemp(prefix="smacs-bench-dur-")
        try:
            chain_d, pipeline_d, generator_d = _node()
            store = DurableStore(workdir, "sqlite", fsync_on_admit=True)
            store.attach(pipeline_d)
            t0 = time.perf_counter()
            executed_d = _drive(pipeline_d, generator_d)
            durable_elapsed = time.perf_counter() - t0
            wal_bytes = store.wal.size
            durable_root = chain_d.latest_block.state_root
            store.close()

            # recovery lane: replay the image into a fresh node
            chain_r, pipeline_r, _ = _node()
            store_r = DurableStore(workdir, "sqlite")
            t0 = time.perf_counter()
            rec = store_r.recover_into(pipeline_r)
            recovery_elapsed = time.perf_counter() - t0
            store_r.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

        measured.update(
            memory_elapsed=memory_elapsed,
            durable_elapsed=durable_elapsed,
            recovery_elapsed=recovery_elapsed,
            executed_m=executed_m,
            executed_d=executed_d,
            wal_bytes=wal_bytes,
            memory_root=state_root(chain_m.state),
            durable_root=durable_root,
            recovered_root=rec.state_root,
            recovered_chain_root=state_root(chain_r.state),
            blocks_recovered=len(rec.blocks),
            txs_recovered=sum(len(b.transactions) for b in rec.blocks),
            readmitted=rec.readmitted,
        )

    benchmark.pedantic(run, rounds=1, iterations=1)

    transactions = BLOCKS * BATCH
    memory_rate = measured["executed_m"] / measured["memory_elapsed"]
    durable_rate = measured["executed_d"] / measured["durable_elapsed"]
    recovery_rate = measured["txs_recovered"] / measured["recovery_elapsed"]
    relative = durable_rate / memory_rate
    wal_per_tx = measured["wal_bytes"] / measured["executed_d"]

    lines = [
        "Durability tax and recovery speed "
        f"({BLOCKS} blocks x {BATCH} txs, {CLIENTS} clients, {HISTORY_SLOTS} record "
        f"slots of history, SQLite backend, fsync at every admission and commit)",
        f"{'lane':<22}{'tx/s':>12}{'vs memory':>12}",
        f"{'memory (no WAL)':<22}{memory_rate:>12.1f}{1.0:>12.2f}",
        f"{'durable (WAL+fsync)':<22}{durable_rate:>12.1f}{relative:>12.2f}",
        f"{'recovery replay':<22}{recovery_rate:>12.1f}{'':>12}",
        f"WAL appetite: {measured['wal_bytes']} bytes "
        f"for {measured['executed_d']} txs ({wal_per_tx:.0f} B/tx)",
    ]
    data = {
        "clients": CLIENTS,
        "blocks": BLOCKS,
        "batch": BATCH,
        "transactions": transactions,
        "history_slots": HISTORY_SLOTS,
        "memory_tx_per_s": round(memory_rate, 1),
        "durable_tx_per_s": round(durable_rate, 1),
        "durable_relative": round(relative, 3),
        "recovery_tx_per_s": round(recovery_rate, 1),
        "wal_bytes_per_tx": round(wal_per_tx, 1),
    }
    report("durability", lines, data=data)
    benchmark.extra_info.update(
        {k: data[k] for k in ("durable_tx_per_s", "durable_relative", "recovery_tx_per_s")}
    )

    # --- acceptance -----------------------------------------------------------
    # Same seeds, same workload: both lanes end on the identical state root
    # (computed for the memory lane, block-stamped for the durable lane).
    assert measured["executed_m"] == measured["executed_d"] == transactions
    assert measured["memory_root"] == measured["durable_root"]
    # Recovery replays every block and lands exactly on the durable root.
    assert measured["blocks_recovered"] == BLOCKS
    assert measured["txs_recovered"] == transactions
    assert measured["recovered_root"] == measured["durable_root"]
    assert measured["recovered_chain_root"] == measured["durable_root"]
    assert measured["readmitted"] == 0  # clean shutdown left no backlog
    # Durability must stay a tax, not a cliff.
    assert relative > 0.1, f"durable lane at {relative:.2f}x of memory (< 0.1x)"
