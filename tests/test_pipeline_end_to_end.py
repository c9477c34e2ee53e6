"""End-to-end tests for the execution pipeline (client -> TS -> contract).

The pipeline must be a pure performance layer: every accept/reject decision
it produces must match what the serial, one-transaction-per-block path
produces for the same transactions.
"""

import ast
import pathlib

import pytest

from repro.chain import Blockchain
from repro.contracts.protected_target import ProtectedRecorder
from repro.core import OwnerWallet
from repro.core.acr import RuleSet
from repro.core.replication import ReplicatedTokenService
from repro.core.token import TokenType
from repro.crypto.keys import KeyPair
from repro.crypto.sigcache import SignatureCache
from repro.pipeline import ExecutionPipeline, SmacsLoadGenerator
from repro.storage.codec import state_root
from repro.workloads import flash_sale_bursts, peak_window, trace_named

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def cache():
    return SignatureCache(maxsize=65536)


@pytest.fixture
def env(cache):
    """Chain + replicated TS + deployed recorder + client accounts."""
    chain = Blockchain()
    chain.evm.signature_cache = cache
    owner = chain.create_account("owner", seed="e2e-owner")
    clients = [chain.create_account(f"client-{i}", seed=f"e2e-client-{i}") for i in range(6)]
    service = ReplicatedTokenService(
        replica_count=3,
        keypair=KeyPair.from_seed("e2e-ts"),
        rules=RuleSet(),
        clock=chain.clock,
        seed=29,
        signature_cache=cache,
    )
    recorder = OwnerWallet(owner, service.replicas[0]).deploy_protected(
        ProtectedRecorder, one_time_bitmap_bits=16384
    ).return_value
    return {"chain": chain, "clients": clients, "service": service, "recorder": recorder}


def _pipeline(env, cache):
    return ExecutionPipeline(env["chain"], signature_cache=cache)


def test_trace_driven_loop_executes_cleanly(env, cache):
    pipeline = _pipeline(env, cache)
    generator = SmacsLoadGenerator(env["service"], env["recorder"], env["clients"])
    txs = generator.from_arrivals([4, 7, 0, 5, 9])
    assert len(txs) == 25
    decisions = pipeline.ingest(txs)
    assert all(d.admitted for d in decisions)
    results = pipeline.drain()
    assert sum(r.executed for r in results) == 25
    assert sum(r.succeeded for r in results) == 25
    assert sum(r.smacs_denied for r in results) == 0
    assert env["chain"].read(env["recorder"], "entries") == 25
    stats = pipeline.stats()
    assert stats["mempool"]["rejected"] == {}
    # The known-sender memo is visible where the cache's other books are:
    # every sender learned once, every later transaction a key check.
    memo = stats["signature_cache"]
    senders = len({tx.sender for tx in txs})
    assert (memo["known_keys"], memo["key_checks"]) == (senders, 25 - senders)
    assert 1 <= memo["key_builds"] <= senders


def test_prewarm_hits_for_issuance_primed_tokens(env, cache):
    """Tokens issued by the cache-sharing replicated TS pre-warm for free."""
    pipeline = _pipeline(env, cache)
    generator = SmacsLoadGenerator(env["service"], env["recorder"], env["clients"])
    txs = generator.from_arrivals([6, 6])
    pipeline.ingest(txs)
    results = pipeline.drain()
    assert sum(r.prewarm_hits for r in results) == 12
    assert sum(r.prewarm_misses for r in results) == 0


def test_prewarm_computes_foreign_tokens_once(env, cache):
    """Tokens from a non-cache-sharing TS miss once in the pre-warm pass and
    are still verified correctly by the EVM (as cache hits)."""
    foreign_cacheless = ReplicatedTokenService(
        replica_count=1,
        keypair=KeyPair.from_seed("e2e-ts"),  # same trusted key, separate box
        rules=RuleSet(),
        clock=env["chain"].clock,
        seed=31,
        signature_cache=None,
    )
    # Skip the indexes the shared cluster would collide on: this TS has its
    # own counter, so push it past any index the main service ever issued.
    pipeline = _pipeline(env, cache)
    generator = SmacsLoadGenerator(foreign_cacheless, env["recorder"], env["clients"])
    txs = generator.from_arrivals([5])
    pipeline.ingest(txs)
    results = pipeline.drain()
    assert sum(r.prewarm_misses for r in results) == 5
    assert sum(r.succeeded for r in results) == 5


def test_pipeline_decisions_match_serial_execution(env, cache):
    """Same transactions, same verdicts: the pipeline may not change policy."""
    generator = SmacsLoadGenerator(env["service"], env["recorder"], env["clients"])
    txs = generator.from_arrivals([3, 4, 3])
    # Append a replayed one-time token (a guaranteed SMACS reject downstream).
    replay = txs[0]

    serial_chain = env["chain"].fork()
    serial_outcomes = [serial_chain.send_transaction(tx).success for tx in txs]
    # The replay is rejected at validation on the serial path (nonce reuse).
    from repro.chain.errors import InvalidTransaction

    with pytest.raises(InvalidTransaction):
        serial_chain.send_transaction(replay)

    pipeline = _pipeline(env, cache)
    decisions = pipeline.ingest(txs)
    assert all(d.admitted for d in decisions)
    assert not pipeline.ingest([replay])[0].admitted
    results = pipeline.drain()
    pipeline_outcomes = [r.success for block in results for r in block.receipts]
    assert pipeline_outcomes == serial_outcomes


def test_flash_sale_scenario_through_pipeline(env, cache):
    """PR-1's flash-sale mix (one-time argument tokens) over the full loop."""
    pipeline = _pipeline(env, cache)
    mix = flash_sale_bursts(
        env["recorder"].this,
        [c.address for c in env["clients"]],
        bursts=2,
        burst_size=8,
        method="submit",
        seed=17,
    )
    generator = SmacsLoadGenerator(env["service"], env["recorder"], env["clients"])
    txs = generator.from_scenario(mix)
    assert len(txs) == 16
    decisions = pipeline.ingest(txs)
    assert all(d.admitted for d in decisions), [d.reason for d in decisions]
    results = pipeline.drain()
    assert sum(r.succeeded for r in results) == 16
    # Argument tokens were pre-warmed too (argument binding reconstructed).
    assert sum(r.prewarm_hits for r in results) == 16


def test_blocks_respect_gas_limit(env, cache):
    from repro.pipeline.load import DEFAULT_CALL_GAS_LIMIT

    pipeline = ExecutionPipeline(
        env["chain"], signature_cache=cache, block_gas_limit=5 * DEFAULT_CALL_GAS_LIMIT
    )
    generator = SmacsLoadGenerator(env["service"], env["recorder"], env["clients"])
    txs = generator.from_arrivals([12])
    pipeline.ingest(txs)
    results = pipeline.drain()
    assert len(results) == 3  # 12 calls at 5 per block
    assert all(len(r.receipts) <= 5 for r in results)
    assert sum(r.succeeded for r in results) == 12


def test_trace_peak_window_feeds_pipeline(env, cache):
    """The §VI-A CryptoKitties trace peak drives the loop end to end."""
    trace = trace_named("CryptoKitties", duration_seconds=240, seed=2019)
    start, window = peak_window(trace, 3)
    assert len(window) == 3
    assert sum(window) > 0
    pipeline = _pipeline(env, cache)
    generator = SmacsLoadGenerator(env["service"], env["recorder"], env["clients"])
    txs = generator.from_arrivals(window, token_type=TokenType.METHOD)
    pipeline.ingest(txs)
    results = pipeline.drain()
    assert sum(r.succeeded for r in results) == len(txs) == sum(window)
    assert sum(r.smacs_denied for r in results) == 0


# --- one way into a block: the plan goes straight to ``mine_block`` ---------------------


def test_a_pipeline_over_an_auto_mine_chain_runs_blocks(env, cache):
    chain = env["chain"]
    assert chain.auto_mine
    pipeline = _pipeline(env, cache)
    generator = SmacsLoadGenerator(env["service"], env["recorder"], env["clients"])
    txs = generator.from_arrivals([6, 6])
    assert all(d.admitted for d in pipeline.ingest(txs))
    height = chain.height
    results = pipeline.drain()
    assert chain.height == height + len(results)
    assert [tx for block in chain.blocks[height + 1:] for tx in block.transactions] == txs
    assert sum(r.succeeded for r in results) == len(txs)
    assert chain.pending == [] and len(pipeline.mempool) == 0


def test_only_the_chain_touches_its_queue_and_mining_mode():
    """An AST scan of ``src/``: outside ``chain/chain.py`` nothing reads or
    writes ``.pending`` or ``auto_mine`` (attribute, keyword, parameter or
    ``getattr`` name), and no module anywhere defines, imports or calls an
    ``enqueue*`` handoff."""
    queue_and_mode = {"pending", "auto_mine"}
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, (ast.keyword, ast.arg)):
                name = node.arg or ""
            elif isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)):
                name = node.name
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name.startswith("enqueue") or (
                name in queue_and_mode and module != "repro/chain/chain.py"
            ):
                sites.append((module, node.lineno, name))
    assert sites == []


def _queue_then_plan(env, cache):
    """A batch chain holding one queued transfer from ``clients[0]``, and a
    pipeline whose mempool holds a plan that includes that sender's next nonce."""
    chain = env["chain"]
    chain.auto_mine = False  # batch mode: send_transaction queues
    sender, receiver = env["clients"][:2]
    queued = sender.build_transaction(to=receiver.address, value=1)
    assert chain.send_transaction(queued) is None
    pipeline = _pipeline(env, cache)
    generator = SmacsLoadGenerator(env["service"], env["recorder"], env["clients"])
    plan = generator.from_arrivals([6])
    assert plan[0].sender == sender.address and plan[0].nonce == queued.nonce + 1
    assert all(d.admitted for d in pipeline.ingest(plan))
    return chain, pipeline, queued, plan


def test_a_queued_transaction_is_mined_before_the_plan_in_the_same_block(env, cache):
    chain, pipeline, queued, plan = _queue_then_plan(env, cache)
    height = chain.height
    result = pipeline.run_block()
    assert chain.height == height + 1
    assert chain.latest_block.transactions == [queued, *plan]
    assert [r.tx_hash for r in result.receipts] == [tx.hash() for tx in [queued, *plan]]
    assert result.succeeded == result.executed == 1 + len(plan)
    assert chain.pending == [] and len(pipeline.mempool) == 0


def test_a_raising_mine_block_leaves_pending_the_pool_receipts_and_state(env, cache):
    chain, pipeline, queued, plan = _queue_then_plan(env, cache)

    def seal(state):
        raise OSError("disk gone while sealing the block")

    chain.state_root_provider = seal
    before = (
        list(chain.pending),
        pipeline.mempool.transactions(),
        dict(chain.receipts),
        state_root(chain.state),
        chain.height,
    )
    with pytest.raises(OSError):
        pipeline.run_block()
    after = (
        list(chain.pending),
        pipeline.mempool.transactions(),
        dict(chain.receipts),
        state_root(chain.state),
        chain.height,
    )
    assert after == before and chain.pending == [queued]

    chain.state_root_provider = None
    result = pipeline.run_block()
    assert chain.latest_block.transactions == [queued, *plan]
    assert result.succeeded == 1 + len(plan)
    assert chain.pending == [] and len(pipeline.mempool) == 0
