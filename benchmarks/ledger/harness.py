"""The load generator: one driver thread playing wallet and node in turn.

Per op the driver requests token(s) over the one pooled TCP connection,
builds and signs the transaction(s), hands them to ``pipeline.ingest`` and,
after every 64 admitted transactions, calls ``pipeline.run_block()`` (build,
pre-warm, execute, WAL append + fsync).  The ``GatewayServer`` loop thread
is the system under test, not a generator.

Nonces are the harness's own books and advance only on admission: a wallet
that bumped its nonce for a transaction the mempool refused (an expected
refusal in ``reuse_replay_mix``) would wedge that account for the rest of
the run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.chain.transaction import Transaction
from repro.core.token import ONE_TIME_UNSET, Token, TokenType, signing_datagram
from repro.core.token_request import TokenRequest
from repro.crypto.keccak import keccak256
from repro.crypto.keys import KeyPair
from repro.pipeline.load import DEFAULT_CALL_GAS_LIMIT

from benchmarks.ledger import calibration
from benchmarks.ledger.stack import FIG6_AMOUNTS, Stack
from benchmarks.ledger.trace import Tracer
from benchmarks.ledger.workloads import (
    BLOCK_TXS,
    FORGED,
    FRESH,
    REPLAY,
    REUSE,
    REUSE_EPOCH_OPS,
    STOLEN,
    Op,
    Workload,
    arrival_offsets,
    op_stream,
)

METHOD = "submit"
#: calibration samples taken just before and just after every segment
EDGE_SAMPLES = 3


class LedgerError(RuntimeError):
    """The run cannot produce a valid measurement."""


class NonceBook:
    """Per-account next nonce; advanced only when a transaction is admitted."""

    def __init__(self, nonces: "dict[bytes, int]") -> None:
        self._next = dict(nonces)

    def peek(self, address: bytes) -> int:
        return self._next[address]

    def admitted(self, address: bytes) -> None:
        self._next[address] += 1


@dataclass
class OpRecord:
    op: Op
    traced: bool
    due: float                  # open loop: scheduled arrival; closed loop: start
    started: float
    token_at: "float | None"    # token(s) in hand; None when the op fetched none
    verdict_at: float           # admission verdict on its transaction(s)
    txs: "list[Transaction]"
    decisions: "list[Any]"


@dataclass
class BlockRecord:
    traced: bool
    started: float
    ended: float
    result: Any                 # repro.pipeline.executor.BlockResult


@dataclass
class Segment:
    started: float = 0.0
    ended: float = 0.0
    ops: "list[OpRecord]" = field(default_factory=list)
    blocks: "list[BlockRecord]" = field(default_factory=list)
    #: calibration-kernel times (ms) taken around the segment and after each block
    speed_samples: "list[float]" = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.ended - self.started

    @property
    def speed_factor(self) -> float:
        """Host slowness during this segment relative to reference speed."""
        return calibration.speed_factor(self.speed_samples)


def spin_wait(seconds: float) -> None:
    """Wait without idling the CPU.

    A sleeping vCPU is descheduled and wakes late and cache-cold, which adds
    a host artefact to every open-loop op (they all start after a wait).
    Nothing else needs the CPU meanwhile: the server thread is parked in its
    selector until the next frame arrives.
    """
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def open_loop_schedule(
    offsets: "list[float]", clock: Callable[[], float], wait: Callable[[float], None]
) -> "Iterator[tuple[float, float]]":
    """Yield ``(started, due)`` per arrival, waiting only when early.

    Latency is counted from ``due``: an arrival that finds the driver still
    busy starts late, and that wait is part of what its user felt.
    """
    origin = clock()
    for offset in offsets:
        due = origin + offset
        now = clock()
        if now < due:
            wait(due - now)
            now = clock()
        yield now, due


class Driver:
    """Runs a workload's op stream against one :class:`Stack`."""

    def __init__(
        self,
        stack: Stack,
        workload: Workload,
        seed: int,
        tracer: Tracer,
    ) -> None:
        self.stack = stack
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.clock = time.perf_counter
        node = stack.node
        self.accounts = node.clients
        # KeyPair.address hashes the public key on every read (~0.2 ms of
        # pure-Python keccak): a wallet knows its own address.
        self.addresses = [account.address for account in self.accounts]
        self.contract = node.recorder.this
        self.book = NonceBook(
            {address: account.nonce for address, account in zip(self.addresses, self.accounts)}
        )
        self.pending = 0
        self.open_segments = 0
        #: when set, each op is traced with probability 1/2 (a seeded coin),
        #: so traced and untraced ops interleave and see the same host noise
        self.trace_coin: "random.Random | None" = None
        self.warmup: "Segment | None" = None
        self._stream = op_stream(workload, seed, len(self.accounts), amounts=FIG6_AMOUNTS)
        #: (account index, token bytes) of one-time tokens already admitted
        self._spent: "list[tuple[int, bytes]]" = []
        self._reusable: "dict[int, tuple[int, bytes]]" = {}
        self._forged: "dict[int, tuple[int, bytes]]" = {}
        self._rogue = KeyPair.from_seed("ledger-rogue-signer")

    # -- the wallet side ----------------------------------------------------------

    def _fetch(self, requests: "list[TokenRequest]") -> "list[bytes]":
        results = self.stack.client.submit(requests)
        for result in results:
            if not result.issued:
                raise LedgerError(f"token request failed: {result.code}: {result.error}")
        return [result.token.to_bytes() for result in results]

    def _one_time_request(self, account: int, amount: int) -> TokenRequest:
        address = self.addresses[account]
        if self.workload.token == "argument":
            return TokenRequest.argument_token(
                self.contract, address, METHOD, {"amount": amount}, one_time=True
            )
        return TokenRequest.method_token(self.contract, address, METHOD, one_time=True)

    def _reusable_token(self, account: int, op_index: int) -> "tuple[bytes, bool]":
        """The account's non-one-time method token; fetched once per epoch."""
        epoch = op_index // REUSE_EPOCH_OPS
        cached = self._reusable.get(account)
        if cached is not None and cached[0] == epoch:
            return cached[1], False
        request = TokenRequest.method_token(self.contract, self.addresses[account], METHOD)
        token = self._fetch([request])[0]
        self._reusable[account] = (epoch, token)
        return token, True

    def _forged_token(self, account: int, op_index: int) -> bytes:
        """A well-formed method token signed by a key that is not the TS's."""
        epoch = op_index // REUSE_EPOCH_OPS
        cached = self._forged.get(account)
        if cached is not None and cached[0] == epoch:
            return cached[1]
        expire = self.stack.node.chain.clock.now() + 3_600
        datagram = signing_datagram(
            TokenType.METHOD,
            expire,
            ONE_TIME_UNSET,
            self.addresses[account],
            self.contract,
            method=METHOD,
        )
        signature = self._rogue.sign(keccak256(datagram))
        token = Token(TokenType.METHOD, expire, ONE_TIME_UNSET, signature).to_bytes()
        self._forged[account] = (epoch, token)
        return token

    def _tokens_for(self, op: Op) -> "tuple[tuple[int, ...], list[bytes], bool]":
        """(sender account indexes, their token bytes, whether the wire was used)."""
        kind = op.kind
        if kind == FRESH:
            requests = [
                self._one_time_request(account, amount)
                for account, amount in zip(op.clients, op.amounts)
            ]
            return op.clients, self._fetch(requests), True
        account = op.clients[0]
        if kind == REUSE:
            token, fetched = self._reusable_token(account, op.index)
            return op.clients, [token], fetched
        if kind == FORGED:
            return op.clients, [self._forged_token(account, op.index)], False
        if kind == STOLEN:
            token, fetched = self._reusable_token(op.pick, op.index)
            return op.clients, [token], fetched
        if kind == REPLAY:
            if not self._spent:
                raise LedgerError("replay op before any one-time token was spent")
            owner, token = self._spent[op.pick % len(self._spent)]
            return (owner,), [token], False
        raise LedgerError(f"unknown op kind {kind!r}")

    def run_op(self, op: Op, segment: Segment, started: float, due: float) -> None:
        tracer = self.tracer
        tracer.op_id = op.index
        senders, tokens, fetched = self._tokens_for(op)
        token_at = self.clock() if fetched else None
        txs = []
        for account, token, amount in zip(senders, tokens, op.amounts):
            address = self.addresses[account]
            tx = Transaction(
                sender=address,
                to=self.contract,
                nonce=self.book.peek(address),
                method=METHOD,
                kwargs={"amount": amount, "token": token},
                gas_limit=DEFAULT_CALL_GAS_LIMIT,
            )
            with tracer.span("chain.transaction.sign"):
                tx.sign_with(self.accounts[account].keypair)
            txs.append(tx)
        decisions = self.stack.node.pipeline.ingest(txs)
        verdict_at = self.clock()
        for account, tx, token, decision in zip(senders, txs, tokens, decisions):
            if decision.admitted:
                self.book.admitted(tx.sender)
                self.pending += 1
                if self.workload.mixed and op.kind == FRESH:
                    self._spent.append((account, token))
        segment.ops.append(
            OpRecord(op, tracer.enabled, due, started, token_at, verdict_at, txs, decisions)
        )
        if self.pending >= BLOCK_TXS:
            self.cut_block(segment)
        if self.trace_coin is not None and (self.trace_coin.random() < 0.5) != tracer.enabled:
            # Between ops, so switching is on no op's or block's clock.
            (tracer.disable if tracer.enabled else tracer.enable)()

    # -- the node side ------------------------------------------------------------

    def cut_block(self, segment: Segment) -> None:
        started = self.clock()
        result = self.stack.node.pipeline.run_block()
        ended = self.clock()
        if result is None:
            raise LedgerError("run_block() found an empty mempool")
        self.pending -= result.executed
        segment.blocks.append(BlockRecord(self.tracer.enabled, started, ended, result))
        # On no op's or block's clock; ~1.6 ms per ~0.5 s block period.
        segment.speed_samples.append(calibration.sample())

    # -- segments -----------------------------------------------------------------

    def warm_up(self) -> None:
        """64 transactions and one block before any clock starts.

        Elects the Raft leader, pools the connection, creates the SQLite file
        and -- for ``reuse_replay_mix`` -- spends one-time tokens so the first
        replay has something to replay.
        """
        workload = self.workload
        segment = Segment(started=self.clock())
        stream = op_stream(
            workload, self.seed, len(self.accounts), amounts=FIG6_AMOUNTS, lane="warmup"
        )
        index = 0
        while not segment.blocks:
            op = next(stream)
            kind = (FRESH if index % 2 == 0 else REUSE) if workload.mixed else FRESH
            now = self.clock()
            self.run_op(Op(-1 - index, kind, op.clients, op.amounts), segment, now, now)
            index += 1
        segment.ended = self.clock()
        self.warmup = segment

    def _begin_segment(self) -> Segment:
        samples = [calibration.sample() for _ in range(EDGE_SAMPLES)]
        return Segment(started=self.clock(), speed_samples=samples)

    def _end_segment(self, segment: Segment) -> Segment:
        segment.ended = self.clock()
        segment.speed_samples += [calibration.sample() for _ in range(EDGE_SAMPLES)]
        return segment

    def closed_segment(self, seconds: float) -> Segment:
        """Ops back to back for ~``seconds``, ending on a block boundary.

        The segment stops at the block boundary nearest to ``seconds`` (not
        the first one past it), so run length does not grow by half a block
        per segment.
        """
        segment = self._begin_segment()
        run_op, stream, clock = self.run_op, self._stream, self.clock
        while True:
            blocks = len(segment.blocks)
            now = clock()
            run_op(next(stream), segment, now, now)
            if len(segment.blocks) > blocks:
                elapsed = clock() - segment.started
                if elapsed + elapsed / len(segment.blocks) / 2 >= seconds:
                    break
        return self._end_segment(segment)

    def open_segment(self, arrivals: int, span: float) -> Segment:
        """``arrivals`` ops due at seeded Poisson times within ``span`` seconds."""
        offsets = arrival_offsets(self.workload, self.seed, self.open_segments, arrivals, span)
        self.open_segments += 1
        segment = self._begin_segment()
        for started, due in open_loop_schedule(offsets, self.clock, spin_wait):
            self.run_op(next(self._stream), segment, started, due)
        if self.pending:
            self.cut_block(segment)
        return self._end_segment(segment)
