"""Integration tests for the durability engine: WAL commits, crash recovery.

Each test builds a full node (chain + pipeline + replicated TS + deployed
recorder), attaches a :class:`~repro.storage.DurableStore`, drives real
token-carrying load through it, and then exercises one leg of the crash
model: clean restarts, page-cache loss at the commit fsync, torn and
bit-flipped tails, compaction into the backend, stale/partial WAL images.
Recovery is always checked against *block-derived* ground truth: the state
root stamped into the last durable block.
"""

from types import SimpleNamespace

import pytest

from repro.chain import Blockchain
from repro.contracts.protected_target import ProtectedRecorder
from repro.core import OwnerWallet, TokenType
from repro.core.acr import RuleSet
from repro.core.replication import ReplicatedTokenService
from repro.crypto.keys import KeyPair
from repro.crypto.sigcache import SignatureCache
from repro.faults.disk import DiskFaultInjector, SimulatedCrash
from repro.core.token import Token
from repro.core.token_request import TokenRequest
from repro.pipeline import ExecutionPipeline, SmacsLoadGenerator
from repro.pipeline.executor import reconstruct_datagram
from repro.storage import (
    DurabilityError,
    DurableStore,
    RecoveryError,
    StateRootTracker,
    WriteAheadLog,
    state_root,
)
from repro.storage.codec import (
    COMMITMENT_VERSION,
    decode_account,
    decode_value,
    encode_account,
    encode_transaction,
    encode_value,
)
from repro.storage.durable import ACCOUNT_PREFIX


def _node():
    """One deterministic node: same seeds -> same accounts, contract, tokens."""
    chain = Blockchain(auto_mine=False)
    pipeline = ExecutionPipeline(chain, signature_cache=SignatureCache())
    chain.auto_mine = True
    owner = chain.create_account("owner", seed="dur-owner")
    clients = [chain.create_account(f"c{i}", seed=f"dur-client-{i}") for i in range(4)]
    service = ReplicatedTokenService(
        replica_count=3,
        keypair=KeyPair.from_seed("dur-ts"),
        rules=RuleSet(),
        clock=chain.clock,
        seed=77,
        signature_cache=pipeline.signature_cache,
    )
    recorder = OwnerWallet(owner, service.replicas[0]).deploy_protected(
        ProtectedRecorder, one_time_bitmap_bits=4096
    ).return_value
    chain.auto_mine = False
    generator = SmacsLoadGenerator(service, recorder, clients)
    return SimpleNamespace(
        chain=chain,
        pipeline=pipeline,
        service=service,
        recorder=recorder,
        clients=clients,
        generator=generator,
    )


def _run_batch(node, count):
    txs = node.generator.from_arrivals([count])
    decisions = node.pipeline.ingest(txs)
    assert all(d.admitted for d in decisions)
    node.pipeline.run_block()


# --- root stamping ------------------------------------------------------------------


def test_blocks_carry_verifiable_state_roots(tmp_path):
    node = _node()
    store = DurableStore(str(tmp_path / "n"), "memory")
    store.attach(node.pipeline)
    _run_batch(node, 5)
    first = node.chain.latest_block
    _run_batch(node, 5)
    second = node.chain.latest_block
    assert first.state_root and second.state_root
    assert first.state_root != second.state_root
    assert second.state_root == state_root(node.chain.state)
    assert store.blocks_committed == 2
    # the state root participates in the block hash
    assert first.hash() != second.hash()
    store.close()


def test_admissions_are_logged_and_rejections_are_not(tmp_path):
    node = _node()
    store = DurableStore(str(tmp_path / "n"), "memory")
    store.attach(node.pipeline)
    txs = node.generator.from_arrivals([4])
    node.pipeline.ingest(txs)
    assert store.admissions_logged == 4
    node.pipeline.ingest([txs[0]])  # duplicate: refused at admission
    assert store.admissions_logged == 4
    store.close()


def test_commit_protocol_misuse_is_loud(tmp_path):
    node = _node()
    store = DurableStore(str(tmp_path / "n"), "memory")
    store.attach(node.pipeline)
    with pytest.raises(DurabilityError):
        store.commit_block(node.chain.latest_block, None)
    with pytest.raises(DurabilityError):
        store._seal_block(node.chain.state)  # no begin_block() checkpoint
    store.close()


def test_writes_between_blocks_reach_the_durable_image(tmp_path):
    """A faucet top-up after ``attach`` and outside ``run_block`` is in the
    next block's delta: the store reads the chain's own per-block fork point,
    which spans everything since the previous block."""
    workdir = str(tmp_path / "n")
    node1 = _node()
    store1 = DurableStore(workdir, "sqlite")
    store1.attach(node1.pipeline)
    _run_batch(node1, 3)
    late = node1.chain.create_account("late", seed="dur-late")  # 10**21 wei, no block
    _run_batch(node1, 3)
    assert store1.tracker.root == state_root(node1.chain.state)
    assert node1.chain.latest_block.state_root == state_root(node1.chain.state)
    store1.close()

    node2 = _node()
    store2 = DurableStore(workdir, "sqlite")
    report = store2.recover_into(node2.pipeline)
    assert report.state_root == state_root(node1.chain.state)
    assert node2.chain.balance_of(late.address) == 10**21
    store2.close()


# --- clean restart and crash-before-fsync -------------------------------------------


def test_clean_restart_recovers_everything(tmp_path):
    workdir = str(tmp_path / "n")
    node1 = _node()
    store1 = DurableStore(workdir, "sqlite")
    store1.attach(node1.pipeline)
    _run_batch(node1, 6)
    _run_batch(node1, 6)
    final_root = node1.chain.latest_block.state_root
    entries = node1.chain.read(node1.recorder, "entries")
    store1.close()

    node2 = _node()
    store2 = DurableStore(workdir, "sqlite")
    report = store2.recover_into(node2.pipeline)
    assert report.recovered_height == node1.chain.height
    assert report.state_root == final_root
    assert state_root(node2.chain.state) == final_root
    assert node2.chain.read(node2.recorder, "entries") == entries
    assert [len(b.transactions) for b in report.blocks] == [6, 6]
    store2.close()


def test_crash_before_fsync_loses_only_the_inflight_block(tmp_path):
    workdir = str(tmp_path / "n")
    node1 = _node()
    injector = DiskFaultInjector("crash-before-fsync")
    store1 = DurableStore(workdir, "sqlite", fsync_on_admit=True, hooks=injector)
    store1.attach(node1.pipeline)
    _run_batch(node1, 6)
    durable_root = node1.chain.latest_block.state_root

    doomed = node1.generator.from_arrivals([5])
    node1.pipeline.ingest(doomed)
    injector.arm()
    with pytest.raises(SimulatedCrash):
        node1.pipeline.run_block()
    store1.close()

    node2 = _node()
    store2 = DurableStore(workdir, "sqlite", fsync_on_admit=True)
    report = store2.recover_into(node2.pipeline)
    # the durable prefix: exactly the first block, root-verified
    assert len(report.blocks) == 1
    assert report.state_root == durable_root
    assert state_root(node2.chain.state) == durable_root
    # the doomed batch was fsync'd at admission and comes back as mempool
    assert report.mempool_seen == 5
    assert report.readmitted == 5
    assert report.readmission_refused == 0
    # recovery re-primed the signature cache: the drain pre-warm is all hits
    assert report.signatures_primed > 0
    store2.attach(node2.pipeline)
    results = node2.pipeline.drain()
    assert sum(r.executed for r in results) == 5
    assert sum(r.prewarm_hits for r in results) == 5
    assert sum(r.prewarm_misses for r in results) == 0
    assert node2.chain.read(node2.recorder, "entries") == 11
    assert node2.chain.latest_block.state_root == state_root(node2.chain.state)
    store2.close()


def test_unsynced_admissions_die_with_the_page_cache(tmp_path):
    """Without fsync_on_admit, pooled admissions ride the next block's fsync."""
    workdir = str(tmp_path / "n")
    node1 = _node()
    injector = DiskFaultInjector("crash-before-fsync")
    store1 = DurableStore(workdir, "sqlite", fsync_on_admit=False, hooks=injector)
    store1.attach(node1.pipeline)
    _run_batch(node1, 6)
    node1.pipeline.ingest(node1.generator.from_arrivals([5]))
    injector.arm()
    with pytest.raises(SimulatedCrash):
        node1.pipeline.run_block()
    store1.close()

    node2 = _node()
    store2 = DurableStore(workdir, "sqlite")
    report = store2.recover_into(node2.pipeline)
    assert len(report.blocks) == 1  # the durable block survived
    assert report.mempool_seen == 0  # the unsynced admissions did not
    store2.close()


@pytest.mark.parametrize("mode", ["torn-write", "bit-flip"])
def test_torn_and_bitflipped_tails_recover_the_durable_prefix(tmp_path, mode):
    workdir = str(tmp_path / "n")
    node1 = _node()
    injector = DiskFaultInjector(mode)
    store1 = DurableStore(workdir, "sqlite", fsync_on_admit=True, hooks=injector)
    store1.attach(node1.pipeline)
    _run_batch(node1, 6)
    durable_root = node1.chain.latest_block.state_root
    node1.pipeline.ingest(node1.generator.from_arrivals([5]))
    injector.arm()
    with pytest.raises(SimulatedCrash):
        node1.pipeline.run_block()
    store1.close()

    node2 = _node()
    store2 = DurableStore(workdir, "sqlite")
    report = store2.recover_into(node2.pipeline)
    assert report.wal is not None and report.wal.torn_tail
    assert report.wal.truncated_bytes > 0
    assert len(report.blocks) == 1
    assert report.state_root == durable_root
    assert state_root(node2.chain.state) == durable_root
    store2.close()


def test_stale_wal_cut_recovers_a_strict_consistent_prefix(tmp_path):
    """A frame-aligned stale cut looks like an earlier crash: prefix recovery.

    (A stale WAL *conflicting with the backend snapshot* is the detectable
    case -- see ``test_wal_gap_behind_a_backend_snapshot_is_loud``.)
    """
    workdir = str(tmp_path / "n")
    node1 = _node()
    injector = DiskFaultInjector("stale-wal")
    store1 = DurableStore(workdir, "sqlite", hooks=injector)
    store1.attach(node1.pipeline)
    _run_batch(node1, 4)
    _run_batch(node1, 4)
    first_root = node1.chain.blocks[-2].state_root
    node1.pipeline.ingest(node1.generator.from_arrivals([4]))
    injector.arm()
    with pytest.raises(SimulatedCrash):
        node1.pipeline.run_block()
    store1.close()

    node2 = _node()
    store2 = DurableStore(workdir, "sqlite")
    report = store2.recover_into(node2.pipeline)
    # the cut landed on the fsync boundary before block 2: one block survives
    assert len(report.blocks) == 1
    assert report.state_root == first_root
    assert state_root(node2.chain.state) == first_root
    store2.close()


# --- compaction ---------------------------------------------------------------------


def test_flush_compacts_into_backend_and_recovery_uses_it(tmp_path):
    workdir = str(tmp_path / "n")
    node1 = _node()
    store1 = DurableStore(workdir, "sqlite")
    store1.attach(node1.pipeline)
    _run_batch(node1, 6)
    _run_batch(node1, 6)
    store1.flush()
    assert store1.wal.size < 100  # the log was truncated to (near) empty
    _run_batch(node1, 6)
    final_root = node1.chain.latest_block.state_root
    store1.close()

    node2 = _node()
    store2 = DurableStore(workdir, "sqlite")
    report = store2.recover_into(node2.pipeline)
    assert report.sources == ["backend"]
    assert len(report.blocks) == 1  # only the post-compaction block replays
    assert report.state_root == final_root
    assert node2.chain.read(node2.recorder, "entries") == 18
    store2.close()


def test_flush_relogs_surviving_mempool_transactions(tmp_path):
    workdir = str(tmp_path / "n")
    node1 = _node()
    store1 = DurableStore(workdir, "sqlite")
    store1.attach(node1.pipeline)
    _run_batch(node1, 4)
    node1.pipeline.ingest(node1.generator.from_arrivals([3]))  # pooled, not mined
    store1.flush()
    store1.close()

    node2 = _node()
    store2 = DurableStore(workdir, "sqlite")
    report = store2.recover_into(node2.pipeline)
    assert report.mempool_seen == 3
    assert report.readmitted == 3
    store2.close()


def test_a_compacted_image_carries_the_clock_and_an_older_one_leaves_it(tmp_path):
    from repro.storage.durable import META_KEY

    workdir = str(tmp_path / "n")
    node1 = _node()
    store1 = DurableStore(workdir, "sqlite")
    store1.attach(node1.pipeline)
    _run_batch(node1, 3)
    _run_batch(node1, 3)
    store1.flush()  # no block record left on the WAL to read a timestamp from
    head = node1.chain.latest_block.timestamp
    store1.close()

    node2 = _node()
    fresh = node2.chain.clock.now()
    store2 = DurableStore(workdir, "sqlite")
    assert store2.recover_into(node2.pipeline).blocks == []
    assert fresh < head == node2.chain.clock.now()
    # An image flushed before the meta record carried a timestamp.
    meta = decode_value(store2.backend.get(META_KEY))
    del meta["timestamp"]
    store2.backend.put(META_KEY, encode_value(meta))
    store2.backend.flush()
    store2.close()

    node3 = _node()
    store3 = DurableStore(workdir, "sqlite")
    assert store3.recover_into(node3.pipeline).recovered_height == node1.chain.height
    assert node3.chain.clock.now() == fresh
    store3.close()


# --- images that must be refused ----------------------------------------------------


def test_recovering_an_empty_directory_is_loud(tmp_path):
    node = _node()
    store = DurableStore(str(tmp_path / "fresh"), "sqlite")
    with pytest.raises(RecoveryError, match="nothing to recover"):
        store.recover_into(node.pipeline)
    store.close()


def test_wal_gap_is_loud(tmp_path):
    workdir = tmp_path / "n"
    workdir.mkdir()
    wal = WriteAheadLog(str(workdir / "wal.log"))
    empty_root = StateRootTracker().root
    wal.append(
        encode_value(
            {
                "kind": "base",
                "commitment": COMMITMENT_VERSION,
                "height": 0,
                "root": empty_root,
                "accounts": {},
            }
        ),
        sync=True,
    )
    # block 2 with no block 1 before it: a stale or partial WAL image
    wal.append(encode_value({"kind": "block", "number": 2}), sync=True)
    wal.close()

    node = _node()
    store = DurableStore(str(workdir), "memory")
    with pytest.raises(RecoveryError, match="WAL gap"):
        store.recover_into(node.pipeline)
    store.close()


def test_unknown_wal_record_kind_is_loud(tmp_path):
    workdir = tmp_path / "n"
    workdir.mkdir()
    wal = WriteAheadLog(str(workdir / "wal.log"))
    wal.append(encode_value({"kind": "gossip"}), sync=True)
    wal.close()
    node = _node()
    store = DurableStore(str(workdir), "memory")
    with pytest.raises(RecoveryError, match="unknown WAL record kind"):
        store.recover_into(node.pipeline)
    store.close()


def test_tampered_base_snapshot_fails_its_root_check(tmp_path):
    workdir = tmp_path / "n"
    workdir.mkdir()
    wal = WriteAheadLog(str(workdir / "wal.log"))
    wal.append(
        encode_value(
            {
                "kind": "base",
                "commitment": COMMITMENT_VERSION,
                "height": 0,
                "root": b"\x00" * 32,  # wrong on purpose
                "accounts": {},
            }
        ),
        sync=True,
    )
    wal.close()
    node = _node()
    store = DurableStore(str(workdir), "memory")
    with pytest.raises(RecoveryError, match="does not hash to its state root"):
        store.recover_into(node.pipeline)
    store.close()


def test_image_from_the_previous_commitment_is_refused_by_version(tmp_path):
    """A v1 image (no ``commitment`` field, whole-account digests) must not
    read as corruption: its roots are right, this node just cannot check them."""
    workdir = tmp_path / "n"
    workdir.mkdir()
    wal = WriteAheadLog(str(workdir / "wal.log"))
    wal.append(
        encode_value({"kind": "base", "height": 0, "root": b"\x5a" * 32, "accounts": {}}),
        sync=True,
    )
    wal.close()
    node = _node()
    store = DurableStore(str(workdir), "memory")
    with pytest.raises(RecoveryError, match=r"commitment v1.*computes v2"):
        store.recover_into(node.pipeline)
    store.close()

    # the backend meta record is versioned the same way
    store = DurableStore(str(tmp_path / "m"), "memory")
    store.backend.put(b"meta", encode_value({"height": 0, "root": b"\x5a" * 32}))
    with pytest.raises(RecoveryError, match=r"backend snapshot.*commitment v1"):
        store.recover_into(node.pipeline)
    store.close()


# --- what replay costs and what it primes -------------------------------------------


def test_replaying_spent_one_time_tokens_hashes_nothing_and_multiplies_nothing(
    tmp_path, keccak_permutations, curve_multiplications
):
    """An image of committed one-time-token blocks and no survivors replays
    without one keccak permutation (admissions are matched to committed
    transactions by their encoded bytes) and without one curve ladder (a
    spent one-time token can never be presented again, so it is not primed)."""
    workdir = str(tmp_path / "n")
    node1 = _node()
    store1 = DurableStore(workdir, "sqlite")
    store1.attach(node1.pipeline)
    _run_batch(node1, 6)
    _run_batch(node1, 6)
    final_root = node1.chain.latest_block.state_root
    store1.close()

    node2 = _node()
    store2 = DurableStore(workdir, "sqlite")
    keccak_permutations[0] = 0
    curve_multiplications.clear()
    report = store2.recover_into(node2.pipeline)
    assert (keccak_permutations[0], sum(curve_multiplications.values())) == (0, 0)
    assert report.state_root == final_root
    assert sum(len(block.transactions) for block in report.blocks) == 12
    assert (report.mempool_seen, report.signatures_primed) == (0, 0)
    assert report.max_one_time_index == max(
        _index(tx) for block in report.blocks for tx in block.transactions
    )
    store2.close()


def _cached(node, tx) -> bool:
    """Is the recovery of ``tx``'s token already in the node's signature cache?"""
    token = Token.from_bytes(tx.kwargs["token"])
    cache = node.pipeline.signature_cache
    datagram = reconstruct_datagram(tx, node.recorder, token)
    return cache.peek_recovery(cache.digest_for(datagram), token.signature) is not None


def _index(tx) -> int:
    return Token.from_bytes(tx.kwargs["token"]).index


def test_recovery_primes_what_can_still_be_presented(tmp_path):
    workdir = str(tmp_path / "n")
    node1 = _node()
    store1 = DurableStore(workdir, "sqlite", fsync_on_admit=True)
    store1.attach(node1.pipeline)
    pooled = node1.generator.from_arrivals([2])  # clients 0, 1: the lowest indexes
    spent = node1.generator.from_arrivals([2])  # clients 2, 3: higher ones
    client = node1.clients[2]
    request = TokenRequest.method_token(
        node1.recorder.this, client.address, "submit", one_time=False
    )
    (issued,) = node1.service.submit([request])
    reusable = node1.generator._build_tx(client, issued.token.to_bytes(), (), {"amount": 5})
    assert all(d.admitted for d in node1.pipeline.ingest(spent + [reusable]))
    result = node1.pipeline.run_block()
    assert result.succeeded == 3
    assert all(d.admitted for d in node1.pipeline.ingest(pooled))  # never mined
    store1.close()

    node2 = _node()
    store2 = DurableStore(workdir, "sqlite")
    report = store2.recover_into(node2.pipeline)
    assert report.readmitted == 2
    assert report.signatures_primed == 3  # the reusable token + two survivors
    assert _cached(node2, reusable)
    assert all(_cached(node2, tx) for tx in pooled)
    assert not any(_cached(node2, tx) for tx in spent)
    # the counter restore ranges over every durable index, and here the
    # highest one belongs to a spent token that was not primed
    assert max(map(_index, spent)) > max(map(_index, pooled))
    assert report.max_one_time_index == max(map(_index, spent))
    store2.close()


def test_recovery_primes_n_reusable_tokens_with_one_recovery_one_build_and_n_minus_1_checks(
    tmp_path, curve_multiplications
):
    """A restarted node meets its Token Service's tokens as foreign ones: the
    re-prime asks Alg. 1's question of the trusted key -- one plain recovery,
    one table build, then a fixed-base check per token -- and the resumed
    node's next block runs no curve math for any of them."""
    workdir = str(tmp_path / "n")
    node1 = _node()
    store1 = DurableStore(workdir, "sqlite")
    store1.attach(node1.pipeline)
    requests = [
        factory(node1.recorder.this, client.address, "submit", *extra, one_time=False)
        for client in node1.clients
        for factory, extra in (
            (TokenRequest.method_token, ()),
            (TokenRequest.argument_token, ({"amount": 5},)),
        )
    ]
    tokens = [result.token for result in node1.service.submit(requests)]
    reusable = [
        node1.generator._build_tx(node1.generator._account_for(request.client),
                                  token.to_bytes(), (), {"amount": 5})
        for request, token in zip(requests, tokens)
    ]
    spent = node1.generator.from_arrivals([4])  # one-time: nothing to re-prime
    for batch in (reusable[:5], reusable[5:] + spent):
        assert all(d.admitted for d in node1.pipeline.ingest(batch))
        assert node1.pipeline.run_block().succeeded == len(batch)
    store1.close()

    node2 = _node()
    cache = node2.pipeline.signature_cache
    store2 = DurableStore(workdir, "sqlite")
    curve_multiplications.clear()
    report = store2.recover_into(node2.pipeline)
    tokens_primed = len(reusable)
    assert report.signatures_primed == tokens_primed == 8
    assert curve_multiplications == {
        "ladders": 1, "lifts": 1, "builds": 1, "prepared": tokens_primed - 1,
    }
    stats = cache.stats()
    assert (stats["known_keys"], stats["key_builds"], stats["key_checks"]) == (1, 1, 7)
    assert all(_cached(node2, tx) for tx in reusable)
    assert not any(_cached(node2, tx) for tx in spent)
    store2.close()


def test_an_admission_is_counted_once_however_often_it_was_logged(tmp_path):
    workdir = str(tmp_path / "n")
    node1 = _node()
    store1 = DurableStore(workdir, "sqlite", fsync_on_admit=True)
    store1.attach(node1.pipeline)
    mined = node1.generator.from_arrivals([3])
    node1.pipeline.ingest(mined)
    node1.pipeline.run_block()  # logged at admission *and* inside the block
    pooled = node1.generator.from_arrivals([2])
    node1.pipeline.ingest(pooled)
    for tx in pooled:  # the same records again, as a flush() re-log writes them
        store1.note_admitted(tx)
    store1.wal.sync()
    store1.close()

    node2 = _node()
    store2 = DurableStore(workdir, "sqlite")
    report = store2.recover_into(node2.pipeline)
    assert [len(block.transactions) for block in report.blocks] == [3]
    assert report.mempool_seen == 2  # not 3 + 2 + 2
    assert report.readmitted == 2
    assert report.readmission_refused == 0
    assert {tx.hash() for tx in node2.pipeline.mempool.transactions()} == {
        tx.hash() for tx in pooled
    }
    store2.close()


# --- a transaction is encoded once ---------------------------------------------------


def _wal_records(store):
    frames, _ = store.wal.replay()
    return [decode_value(frame) for frame in frames]


def test_a_block_record_repeats_its_admission_blobs_without_encoding_again(
    tmp_path, monkeypatch
):
    from repro.storage import durable

    node = _node()
    store = DurableStore(str(tmp_path / "n"), "memory")
    store.attach(node.pipeline)
    decisions = node.pipeline.ingest(node.generator.from_arrivals([64]))
    assert all(d.admitted for d in decisions) and len(store._encoded) == 64
    calls = []
    monkeypatch.setattr(
        durable, "encode_transaction", lambda tx: calls.append(tx) or encode_transaction(tx)
    )
    assert node.pipeline.run_block().executed == 64
    assert calls == [] and store._encoded == {}
    records = _wal_records(store)
    admitted = [record["tx"] for record in records if record["kind"] == "tx"]
    (block,) = [record for record in records if record["kind"] == "block"]
    assert list(block["txs"]) == admitted and len(admitted) == 64
    assert admitted == [encode_transaction(tx) for tx in node.chain.latest_block.transactions]
    store.close()


def test_a_block_derives_each_transaction_once(tmp_path, monkeypatch, token_decodes):
    """Calldata is encoded once a transaction, no call binds through
    ``inspect``, and each token is decoded once from admission to commit."""
    import inspect
    from collections import Counter

    from repro.chain import abi

    node = _node()
    store = DurableStore(str(tmp_path / "n"), "memory")
    store.attach(node.pipeline)
    txs = node.generator.from_arrivals([64], token_type=TokenType.ARGUMENT)
    token_decodes.clear()
    reflections = []
    signature, bind_partial = inspect.signature, inspect.Signature.bind_partial
    monkeypatch.setattr(
        inspect, "signature", lambda *a, **k: reflections.append(a) or signature(*a, **k)
    )
    monkeypatch.setattr(
        inspect.Signature,
        "bind_partial",
        lambda *a, **k: reflections.append(a) or bind_partial(*a, **k),
    )
    assert all(d.admitted for d in node.pipeline.ingest(txs))
    encodes = []
    encode_call = abi.encode_call
    monkeypatch.setattr(
        abi, "encode_call", lambda *a, **k: encodes.append(a) or encode_call(*a, **k)
    )
    result = node.pipeline.run_block()
    assert result.executed == result.succeeded == 64
    assert len(encodes) == 64
    assert reflections == []
    assert token_decodes == Counter(tx.kwargs["token"] for tx in txs)
    assert len(token_decodes) == 64
    store.close()


def test_the_encoding_memo_holds_one_pool_at_most(tmp_path):
    node = _node()
    store = DurableStore(str(tmp_path / "n"), "memory")
    store.attach(node.pipeline)
    _run_batch(node, 5)
    assert store._encoded == {}  # popped by the block that took them
    pooled = node.generator.from_arrivals([3])
    node.pipeline.ingest(pooled)
    store._encoded[b"gone"] = b"an admission that left the pool some other way"
    store.flush()  # forgets everything, then re-logs the pool
    assert set(store._encoded) == {tx.hash() for tx in pooled}
    node.pipeline.run_block()
    store.flush()
    assert store._encoded == {} and len(node.pipeline.mempool) == 0
    store.close()


def test_transactions_admitted_before_attach_still_commit_and_recover(tmp_path):
    """The listener never saw them: ``commit_block`` encodes them itself."""
    workdir = str(tmp_path / "n")
    node1 = _node()
    early = node1.generator.from_arrivals([4])
    node1.pipeline.ingest(early)
    store1 = DurableStore(workdir, "sqlite")
    store1.attach(node1.pipeline)
    late = node1.generator.from_arrivals([2])
    node1.pipeline.ingest(late)
    assert set(store1._encoded) == {tx.hash() for tx in late}
    node1.pipeline.run_block()
    assert store1._encoded == {}
    (block,) = [record for record in _wal_records(store1) if record["kind"] == "block"]
    assert list(block["txs"]) == [encode_transaction(tx) for tx in early + late]
    root = node1.chain.latest_block.state_root
    store1.close()

    node2 = _node()
    store2 = DurableStore(workdir, "sqlite")
    report = store2.recover_into(node2.pipeline)
    assert [tx.hash() for tx in report.blocks[0].transactions] == [
        tx.hash() for tx in early + late
    ]
    assert report.state_root == root and report.mempool_seen == 0
    store2.close()


# --- resuming after recovery --------------------------------------------------------


def test_recovered_node_resumes_issuance_without_index_reuse(tmp_path):
    """The full restart loop: recover, fast-forward the counter, keep going."""
    workdir = str(tmp_path / "n")
    node1 = _node()
    injector = DiskFaultInjector("crash-before-fsync")
    store1 = DurableStore(workdir, "sqlite", fsync_on_admit=True, hooks=injector)
    store1.attach(node1.pipeline)
    _run_batch(node1, 6)
    node1.pipeline.ingest(node1.generator.from_arrivals([5]))
    injector.arm()
    with pytest.raises(SimulatedCrash):
        node1.pipeline.run_block()
    store1.close()

    node2 = _node()
    store2 = DurableStore(workdir, "sqlite", fsync_on_admit=True)
    report = store2.recover_into(node2.pipeline)
    store2.attach(node2.pipeline)
    node2.pipeline.drain()  # the re-admitted batch
    node2.service.replicas[0].counter.restore(report.max_one_time_index + 1)
    node2.generator.refresh_nonces()
    _run_batch(node2, 6)  # fresh post-restart traffic

    # block-derived one-time uniqueness across the restart boundary
    from repro.core.token import Token

    seen = set()
    sources = [
        (tx, ok)
        for block in report.blocks
        for tx, ok in zip(block.transactions, block.statuses)
    ] + [
        (tx, node2.chain.receipts[tx.hash()].success)
        for block in node2.chain.blocks
        for tx in block.transactions
    ]
    accepted = 0
    for tx, ok in sources:
        raw = tx.kwargs.get("token")
        if not ok or not isinstance(raw, (bytes, bytearray)):
            continue
        token = Token.from_bytes(bytes(raw))
        if not token.is_one_time:
            continue
        accepted += 1
        key = (bytes(tx.to), token.index)
        assert key not in seen, f"one-time index {token.index} accepted twice"
        seen.add(key)
    assert accepted == 17  # 6 durable + 5 re-admitted + 6 post-restart
    assert node2.chain.read(node2.recorder, "entries") == 17
    assert node2.chain.latest_block.state_root == state_root(node2.chain.state)
    store2.close()


def _resume(node, report):
    """What a restarted node does before it takes fresh traffic."""
    node.pipeline.drain()
    node.service.replicas[0].counter.restore(report.max_one_time_index + 1)
    node.generator.refresh_nonces()


def _crash_committing(node, injector, count):
    node.pipeline.ingest(node.generator.from_arrivals([count]))
    injector.arm()
    with pytest.raises(SimulatedCrash):
        node.pipeline.run_block()
    node.pipeline.durability.close()


def test_a_recovered_chain_continues_the_durable_chain(tmp_path):
    """Crash, recover, resume two blocks, crash, recover: the second image
    is one chain -- numbered without a gap across both restarts, each block
    naming the real hash of the one before it -- and recovers to the live root."""
    workdir = str(tmp_path / "n")
    node1 = _node()
    injector = DiskFaultInjector("crash-before-fsync")
    DurableStore(workdir, "sqlite", fsync_on_admit=True, hooks=injector).attach(node1.pipeline)
    _run_batch(node1, 4)
    _run_batch(node1, 4)
    durable_head = node1.chain.latest_block
    _crash_committing(node1, injector, 3)

    node2 = _node()
    injector = DiskFaultInjector("crash-before-fsync")
    store2 = DurableStore(workdir, "sqlite", fsync_on_admit=True, hooks=injector)
    fresh_head = node2.chain.latest_block  # the recipe's own head: replaced
    report = store2.recover_into(node2.pipeline)
    assert node2.chain.height == report.recovered_height == durable_head.number
    assert node2.chain.latest_block.hash() == durable_head.hash() != fresh_head.hash()
    assert node2.chain.latest_block.transactions == []  # its body ran on node1
    store2.attach(node2.pipeline)
    _resume(node2, report)  # the re-admitted batch: the first block after the restart
    _run_batch(node2, 4)
    resumed = node2.chain.blocks[-2:]
    assert [block.number for block in resumed] == [durable_head.number + 1, durable_head.number + 2]
    assert resumed[0].parent_hash == durable_head.hash()
    assert resumed[1].parent_hash == resumed[0].hash()
    live = node2.chain.latest_block
    _crash_committing(node2, injector, 2)

    node3 = _node()
    store3 = DurableStore(workdir, "sqlite")
    again = store3.recover_into(node3.pipeline)
    assert again.state_root == live.state_root
    assert state_root(node3.chain.state) == live.state_root
    numbers = [block.number for block in again.blocks]
    assert numbers == list(range(again.base_height + 1, live.number + 1))
    assert node3.chain.latest_block.hash() == live.hash()
    store3.close()


def test_a_compacted_image_resumes_numbering_from_a_stand_in_head(tmp_path):
    """``flush()`` keeps state, height, root and timestamp, not a header: the
    head a node recovers from it has the recorded number and a parent hash of
    32 zero bytes, so its hash is not the crashed node's -- and the chain
    after it is still gapless."""
    workdir = str(tmp_path / "n")
    node1 = _node()
    store1 = DurableStore(workdir, "sqlite")
    store1.attach(node1.pipeline)
    _run_batch(node1, 3)
    store1.flush()
    crashed_head = node1.chain.latest_block
    store1.close()

    node2 = _node()
    store2 = DurableStore(workdir, "sqlite")
    report = store2.recover_into(node2.pipeline)
    stand_in = node2.chain.latest_block
    assert (report.blocks, report.sources) == ([], ["backend"])
    assert (stand_in.number, stand_in.parent_hash) == (crashed_head.number, bytes(32))
    assert stand_in.state_root == crashed_head.state_root
    assert stand_in.timestamp == crashed_head.timestamp
    assert stand_in.hash() != crashed_head.hash()
    store2.attach(node2.pipeline)
    # No block record holds a spent index: the issuer's counter comes over.
    node2.service.replicas[0].counter.restore(node1.service.replicas[0].counter.value)
    node2.generator.refresh_nonces()
    _run_batch(node2, 3)
    assert node2.chain.latest_block.number == crashed_head.number + 1
    assert node2.chain.latest_block.parent_hash == stand_in.hash()
    live = node2.chain.latest_block.state_root
    store2.close()
    # A reorg on the recovered chain finds blocks by position above the gap.
    resumed = node2.chain.latest_block.transactions
    node2.chain.revert_to_block(crashed_head.number)
    assert node2.chain.latest_block is stand_in
    assert not any(tx.hash() in node2.chain.receipts for tx in resumed)

    node3 = _node()
    store3 = DurableStore(workdir, "sqlite")
    again = store3.recover_into(node3.pipeline)
    assert [block.number for block in again.blocks] == [crashed_head.number + 1]
    assert again.state_root == live
    store3.close()


# --- a snapshot is verified from its stored bytes ------------------------------------


SNAPSHOT_REFUSED = "backend snapshot does not hash to its recorded state root"


def _compacted_image(workdir):
    """A flushed image whose recorder account holds a few record slots."""
    node = _node()
    store = DurableStore(workdir, "sqlite")
    store.attach(node.pipeline)
    _run_batch(node, 4)
    store.flush()
    store.close()
    key = ACCOUNT_PREFIX + bytes(node.recorder.this)
    return node, key


def _recover_tampered(workdir, key, tamper):
    store = DurableStore(workdir, "sqlite")
    store.backend.put(key, tamper(store.backend.get(key)))
    store.backend.flush()
    node = _node()
    try:
        return store.recover_into(node.pipeline)
    finally:
        store.close()


def test_a_backend_record_with_one_slot_value_altered_fails_the_snapshot_root(tmp_path):
    workdir = str(tmp_path / "n")
    _, key = _compacted_image(workdir)

    def alter(raw):
        record = decode_account(raw)
        slot = next(slot for slot in record.storage if slot[:1] == ("record",))
        sender, amount, memo = record.storage[slot]
        record.storage[slot] = (sender, amount + 1, memo)
        return encode_account(record)

    with pytest.raises(RecoveryError, match=SNAPSHOT_REFUSED):
        _recover_tampered(workdir, key, alter)


def test_a_backend_record_with_its_entries_reordered_is_refused(tmp_path):
    """Equivalent, and every entry canonical, but not the canonical record:
    the snapshot is verified from the bytes it was read from, so these bytes
    are refused (a full re-encode would have accepted them)."""
    workdir = str(tmp_path / "n")
    _, key = _compacted_image(workdir)

    def reorder(raw):
        storage = decode_account(raw).storage
        entries = sorted(encode_value(slot) + encode_value(item) for slot, item in storage.items())
        assert len(entries) > 2 and raw.count(b"".join(entries)) == 1
        return raw.replace(b"".join(entries), b"".join(entries[1:] + entries[:1]))

    _recover_tampered(workdir, key, lambda raw: raw)  # untouched, the image recovers
    with pytest.raises(RecoveryError, match=SNAPSHOT_REFUSED):
        _recover_tampered(workdir, key, reorder)


def test_recovery_encodes_no_snapshot_slot(tmp_path, monkeypatch):
    """An image of S snapshot slots, T slot writes across its WAL blocks and
    F slots in the final state runs ``slot_digest`` exactly T + F times: the
    snapshot is hashed from its stored spans, and only the blocks' writes
    and the closing cross-check encode a slot."""
    from repro.storage import codec

    workdir = str(tmp_path / "n")
    node1 = _node()
    store1 = DurableStore(workdir, "sqlite")
    store1.attach(node1.pipeline)
    _run_batch(node1, 4)
    store1.flush()
    _run_batch(node1, 5)
    _run_batch(node1, 3)
    snapshot = [decode_account(raw) for key, raw in store1.backend.items() if key != b"meta"]
    blocks = [record for record in _wal_records(store1) if record["kind"] == "block"]
    store1.close()
    s = sum(len(record.storage) for record in snapshot)
    t = sum(len(entry.get("w", ())) for block in blocks for entry in block["delta"])
    f = sum(len(node1.chain.state.account(a).storage) for a in node1.chain.state.addresses())
    assert s > 20 and t > 0 and len(blocks) == 2

    calls = []
    original = codec.slot_digest
    monkeypatch.setattr(codec, "slot_digest", lambda *args: calls.append(args) or original(*args))
    node2 = _node()
    store2 = DurableStore(workdir, "sqlite")
    report = store2.recover_into(node2.pipeline)
    assert report.state_root == node1.chain.latest_block.state_root
    assert len(calls) == t + f
    store2.close()
