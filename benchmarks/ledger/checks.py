"""Output checks run at the end of every run, traced or not.

A failed check raises :class:`CheckFailed`; the command then exits non-zero
and prints no metrics -- a number measured on wrong outputs is not a number.
The SMACS invariants are read off the mined blocks themselves, not off the
harness's own bookkeeping.
"""

from __future__ import annotations

import random
from typing import Any, Iterable

from repro.core.token import Token
from repro.crypto.keccak import keccak256
from repro.crypto.keys import recover_address_batch
from repro.pipeline.executor import reconstruct_datagram

from benchmarks.ledger.harness import METHOD, OpRecord, Segment
from benchmarks.ledger.stack import Stack
from benchmarks.ledger.workloads import FORGED, REPLAY, STOLEN

#: accepted tokens re-verified with full curve math, independent of any cache
RECOVERY_SAMPLE = 128

_UNTRUSTED = "token not signed by the trusted Token Service"
#: admission verdicts that count as the expected refusal of an adversarial op
EXPECTED_REFUSALS = {
    REPLAY: {"duplicate one-time index in pool", "one-time index already consumed on-chain"},
    FORGED: {_UNTRUSTED},
    STOLEN: {_UNTRUSTED},
}


class CheckFailed(AssertionError):
    """An output check did not hold; the run reports nothing."""


def op_problem(record: OpRecord, receipts: "dict[bytes, Any]") -> "str | None":
    """Why this op's outcome differs from the generator's expectation."""
    op = record.op
    for tx, decision in zip(record.txs, record.decisions):
        receipt = receipts.get(tx.hash()) if decision.admitted else None
        if op.expect_success:
            if not decision.admitted:
                return f"op {op.index} ({op.kind}) refused at admission: {decision.reason}"
            if receipt is None:
                return f"op {op.index} ({op.kind}) admitted but never executed"
            if not receipt.success:
                return f"op {op.index} ({op.kind}) failed on-chain: {receipt.error}"
        elif not decision.admitted:
            if decision.reason not in EXPECTED_REFUSALS[op.kind]:
                return f"op {op.index} ({op.kind}) refused for the wrong reason: {decision.reason}"
        elif receipt is None:
            return f"op {op.index} ({op.kind}) admitted but never executed"
        elif receipt.success:
            return f"op {op.index} ({op.kind}) SUCCEEDED -- access control bypassed"
        elif "SMACS" not in (receipt.error or ""):
            return f"op {op.index} ({op.kind}) failed, but not by SMACS denial: {receipt.error}"
    return None


def failed_ops(segments: "Iterable[Segment]", receipts: "dict[bytes, Any]") -> "list[str]":
    problems = []
    for segment in segments:
        for record in segment.ops:
            problem = op_problem(record, receipts)
            if problem is not None:
                problems.append(problem)
    return problems


def check_blocks(stack: Stack, seed: int) -> "list[str]":
    """Alg. 1 / Alg. 2 and gas accounting, from the mined blocks."""
    node = stack.node
    chain, recorder, cache = node.chain, node.recorder, node.cache
    trusted = stack.ts_keypair.address
    problems: "list[str]" = []
    seen_indexes: "set[int]" = set()
    accepted: "list[tuple[bytes, Any]]" = []
    successes = 0
    for block in chain.blocks:
        for tx in block.transactions:
            if tx.method != METHOD or tx.to != recorder.this:
                continue
            receipt = chain.receipts[tx.hash()]
            if not receipt.success:
                continue
            successes += 1
            if sum(receipt.gas_breakdown.values()) != receipt.gas_used:
                problems.append(f"gas breakdown in block {block.number} does not sum to gas_used")
            token = Token.from_bytes(tx.kwargs["token"])
            if token.is_one_time:
                if token.index in seen_indexes:
                    problems.append(f"one-time index {token.index} accepted twice (Alg. 2)")
                seen_indexes.add(token.index)
            datagram = reconstruct_datagram(tx, recorder, token)
            if datagram is None:
                problems.append(f"accepted token in block {block.number} has no datagram")
                continue
            accepted.append((datagram, token.signature))
            known = cache.peek_recovery(cache.digest_for(datagram), token.signature)
            if known is not None and known != trusted:
                problems.append(f"accepted token in block {block.number} recovers to a foreign key")
    sample = random.Random(f"ledger:checks:{seed}").sample(
        accepted, min(RECOVERY_SAMPLE, len(accepted))
    )
    signers = recover_address_batch([(keccak256(d), signature) for d, signature in sample])
    if any(signer != trusted for signer in signers):
        problems.append("an accepted token does not ecrecover to the TS address (Alg. 1)")
    entries = chain.read(recorder, "entries")
    if entries != successes:
        problems.append(f"recorder.entries is {entries}; blocks hold {successes} successes")
    return problems


def check_books(stack: Stack) -> "list[str]":
    problems = []
    mempool = stack.node.pipeline.mempool
    if len(mempool) or mempool.accounting_underflows:
        problems.append(f"mempool books are not clean: {mempool.stats()}")
    if not stack.service.issued_indexes_are_unique():
        problems.append("replicated counter replicas disagree: an index may repeat")
    return problems


def verify_run(stack: Stack, segments: "list[Segment]", seed: int) -> None:
    """Every check; raises :class:`CheckFailed` listing what did not hold."""
    problems = (
        failed_ops(segments, stack.node.chain.receipts)
        + check_blocks(stack, seed)
        + check_books(stack)
    )
    if problems:
        shown = "\n  ".join(problems[:10])
        raise CheckFailed(f"{len(problems)} output check(s) failed:\n  {shown}")
