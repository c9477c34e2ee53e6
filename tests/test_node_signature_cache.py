"""One signature cache per node: each chain's execution engine owns its cache.

The cache may skip curve math but must never change what a node decides, so
nothing node-level may live at module scope: two identical nodes built one
after the other in one process decide the same transaction the same way.
"""

import ast
import inspect
from pathlib import Path

import pytest

from repro.chain import Blockchain
from repro.chain.evm import ExecutionEngine
from repro.chain.transaction import Transaction
from repro.contracts.protected_target import ProtectedRecorder
from repro.core import ClientWallet, OwnerWallet, TokenType
from repro.core.acr import RuleSet
from repro.core.token_service import TokenService
from repro.crypto.keys import KeyPair
from repro.crypto.sigcache import SignatureCache
from repro.pipeline import BlockExecutor, ExecutionPipeline, Mempool

SRC = Path(__file__).resolve().parents[1] / "src"


def _forged_token_outcome() -> tuple:
    """A fresh node meets one transaction whose token a key its contract does
    not trust signed: ``((admitted, reason), (success, error, gas_used))``."""
    chain = Blockchain()
    owner = chain.create_account("owner", seed="node-cache-owner")
    client = chain.create_account("client", seed="node-cache-client")

    def service(seed: str) -> TokenService:
        return TokenService(keypair=KeyPair.from_seed(seed), rules=RuleSet(), clock=chain.clock)

    recorder = (
        OwnerWallet(owner, service("node-cache-ts"))
        .deploy_protected(ProtectedRecorder, one_time_bitmap_bits=64)
        .return_value
    )
    token = ClientWallet(client, {recorder.this: service("node-cache-forger")}).request_token(
        recorder, TokenType.METHOD, method="submit"
    )
    pipeline = ExecutionPipeline(chain)
    tx = Transaction(
        sender=client.address,
        to=recorder.this,
        nonce=client.nonce,
        method="submit",
        args=(1,),
        kwargs={"token": token.to_bytes()},
        gas_limit=300_000,
    ).sign_with(client.keypair)
    decision = pipeline.ingest(tx)[0]
    pipeline.drain()
    receipt = chain.receipts.get(tx.hash())
    row = None if receipt is None else (receipt.success, receipt.error, receipt.gas_used)
    return (decision.admitted, str(decision.reason)), row


def test_two_fresh_nodes_in_one_process_decide_a_forged_token_alike():
    first = _forged_token_outcome()
    assert _forged_token_outcome() == first
    # A cold node cannot know the verdict at admission: it admits the
    # transaction and the contract refuses it on-chain.
    (admitted, _), row = first
    assert admitted
    assert row is not None and not row[0] and "SMACS" in row[1]


def test_a_fork_shares_its_parents_cache_and_fresh_chains_share_none():
    chain = Blockchain()
    private = SignatureCache()
    chain.evm.signature_cache = private
    assert chain.fork().evm.signature_cache is private
    assert Blockchain().evm.signature_cache is not Blockchain().evm.signature_cache
    assert ExecutionEngine().signature_cache is not ExecutionEngine().signature_cache


def test_the_engine_attribute_is_the_nodes_only_reference():
    chain = Blockchain()
    pipeline = ExecutionPipeline(chain)
    replacement = SignatureCache()
    chain.evm.signature_cache = replacement
    assert pipeline.signature_cache is replacement
    for stage in (pipeline.mempool, pipeline.executor):
        assert not [value for value in vars(stage).values() if isinstance(value, SignatureCache)]
    for stage in (ExecutionEngine, Mempool, BlockExecutor):
        assert "signature_cache" not in inspect.signature(stage).parameters


def _callee(call: ast.Call) -> "str | None":
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _run_at_import(tree: ast.Module) -> "list[ast.Call]":
    """The calls a module makes when it is imported: every call outside a
    function or lambda body (default values and decorators included)."""
    deferred = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            deferred.update(id(inner) for stmt in node.body for inner in ast.walk(stmt))
        elif isinstance(node, ast.Lambda):
            deferred.update(id(inner) for inner in ast.walk(node.body))
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call) and id(node) not in deferred]


def test_no_module_builds_a_shared_cache_or_looks_one_up_optionally():
    """A module-level ``SignatureCache()`` is a process-wide cache whatever
    it is named, and ``getattr(..., "signature_cache", ...)`` is a fallback
    for a node without one, which no longer exists."""
    offences = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        where = path.relative_to(SRC)
        offences += [
            f"{where}:{call.lineno}: SignatureCache() at import time"
            for call in _run_at_import(tree)
            if _callee(call) == "SignatureCache"
        ]
        offences += [
            f"{where}:{call.lineno}: getattr(..., 'signature_cache', ...)"
            for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and _callee(call) == "getattr"
            and any(
                isinstance(arg, ast.Constant) and arg.value == "signature_cache"
                for arg in call.args
            )
        ]
    assert offences == []


@pytest.mark.parametrize(
    "source",
    [
        "CACHE = SignatureCache()",
        "class Node:\n    cache = SignatureCache()",
        "def node(cache=SignatureCache()):\n    return cache",
    ],
)
def test_the_guard_sees_a_cache_built_at_import_time(source):
    calls = _run_at_import(ast.parse(source))
    assert [_callee(call) for call in calls] == ["SignatureCache"]
    assert _run_at_import(ast.parse("def node():\n    return SignatureCache()")) == []
