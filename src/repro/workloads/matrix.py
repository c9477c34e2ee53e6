"""The adversarial scenario matrix: workloads x faults, invariants per cell.

Every cell of the matrix crosses one *workload axis* (flash-sale stampedes,
replay storms, multi-contract fan-out, one-time state stress with mid-batch
reverts, a token-expiry avalanche that also slides the whole Alg. 2 bitmap
window, rule-churn storms against the epoch-guarded gateway update path,
multi-tenant mixes sharing one TS fleet) with one *fault axis* (the
crash/partition/timeout plans plus the Byzantine harnesses of
:mod:`repro.faults`).  Each cell drives the full production loop -- token
issuance through the (possibly faulted) stack the product ships
(:class:`~repro.api.middleware.RetryFailover` around the replicated front
end is the only fail-over, :class:`~repro.api.gateway.GatewayClient`'s own
retry the only frame re-send), signed transactions through
:class:`~repro.pipeline.SmacsLoadGenerator`, admission + block production
through :class:`~repro.pipeline.ExecutionPipeline` -- and then asserts the
SMACS safety invariants on the chain that came out.  One loop
(:func:`run_cell`) runs every cell; a disk fault that kills the node is a
phase of it (:func:`_restart`: a fresh node recovered from the disk image,
the workload resumed at the next batch), and the invariants below are then
asserted over the durable pre-crash blocks and the post-restart ones alike:

* **no-duplicate-one-time-index** -- across every successful transaction in
  every block, each ``(contract, index)`` one-time pair was accepted at most
  once (the Alg. 2 property, checked from the blocks themselves, not from
  any component's own bookkeeping);
* **trusted-signer-only** -- every accepted token recovers to the trusted TS
  address over its reconstructed datagram, and every forged transaction from
  the untrusted twin signer (one canary per cell, more under the
  ``untrusted-signer`` fault) failed;
* **counter-agreement** -- all live counter replicas converged on one
  committed value (issuance-side uniqueness);
* **mempool-accounting** -- after the drain the mempool's per-sender
  reservation tables are empty and no underflow was masked (the satellite
  fixes of this PR, kept honest under every fault);
* **rate-limit-fairness** -- multi-tenant cells only: identically provisioned
  tenants were granted identical admission counts.

A violated invariant raises :class:`InvariantViolation` -- the matrix is a
bug hunt, not a dashboard.  Each cell also emits a JSON record (committed as
``benchmarks/baselines/BENCH_scenarios.json``, refreshed by the CI smoke
lane) so drift in *expected* failure counts is visible too.

Run it::

    PYTHONPATH=src python -m repro.workloads.matrix --list
    PYTHONPATH=src python -m repro.workloads.matrix --cells flash-sale/none,fan-out/stale-leader
    PYTHONPATH=src python -m repro.workloads.matrix --out benchmarks/results/BENCH_scenarios.json
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.api.gateway import Backoff, GatewayClient, InProcessTransport, ServiceGateway
from repro.api.middleware import RateLimiter, RetryFailover
from repro.api.protocol import issue_one
from repro.chain.account import ExternallyOwnedAccount
from repro.chain.chain import Blockchain
from repro.chain.transaction import Transaction
from repro.consensus.counter import CounterCluster, ReplicatedCounter
from repro.contracts.protected_target import ProtectedRecorder
from repro.core.acr import BlacklistRule, RuleSet
from repro.core.replication import ReplicatedTokenService
from repro.core.token import Token, TokenType
from repro.core.token_request import TokenRequest
from repro.core.token_service import TokenService
from repro.core.wallet import OwnerWallet
from repro.crypto.keys import KeyPair, recover_address
from repro.crypto.sigcache import SignatureCache
from repro.faults.byzantine import untrusted_twin_service
from repro.faults.disk import SimulatedCrash
from repro.faults.injectors import (
    CorruptFramesPlan,
    DiskCrashPlan,
    EquivocationPlan,
    FaultPlan,
    LeaderCrashPlan,
    NetemPlan,
    PartitionPlan,
    StaleLeaderPlan,
    TransientTimeoutPlan,
    UntrustedSignerPlan,
)
from repro.pipeline.load import DEFAULT_CALL_GAS_LIMIT, SmacsLoadGenerator
from repro.pipeline.mempool import AdmissionDecision
from repro.pipeline.pipeline import ExecutionPipeline
from repro.storage import DurableStore, RecoveryReport
from repro.storage.codec import state_root
from repro.workloads.generator import ScenarioMix, flash_sale_bursts, replay_storm


class InvariantViolation(AssertionError):
    """A SMACS safety invariant failed inside a matrix cell."""


# ---------------------------------------------------------------------------
# cell specification
# ---------------------------------------------------------------------------


@dataclass
class CellSpec:
    """One (workload, fault) cell with its sizing knobs."""

    workload: str
    fault: Callable[[], FaultPlan]
    fault_name: str
    tenants: int = 1
    accounts_per_tenant: int = 4
    batches: int = 4
    batch_size: int = 12
    bitmap_bits: int = 4096
    token_lifetime: int = 3600
    seed: int = 0
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.workload}/{self.fault_name}"


@dataclass
class CellEnv:
    """Everything one cell assembles; fault plans see ``cluster``/``rts``/``notes``."""

    spec: CellSpec
    plan: FaultPlan
    chain: Blockchain
    pipeline: ExecutionPipeline
    service: Any  # the issuer the generators talk to (possibly wrapped)
    rts: "ReplicatedTokenService | None"
    cluster: "CounterCluster | None"
    trusted_address: bytes
    contracts: list[Any]
    tenant_accounts: list[list[ExternallyOwnedAccount]]
    generators: list[SmacsLoadGenerator]
    twin: TokenService
    canary: ExternallyOwnedAccount
    notes: dict[str, Any] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)
    forged_hashes: list[bytes] = field(default_factory=list)
    #: set by :func:`_restart`: the batch whose commit killed the previous
    #: node, what recovery found on its disk, and the dead nodes' generators
    #: (their tallies are the cell's too)
    crashed_at_batch: "int | None" = None
    recovery: "RecoveryReport | None" = None
    retired: list[SmacsLoadGenerator] = field(default_factory=list)

    def forge_tx(self, tenant: int = 0, amount: int = 1) -> Transaction:
        """A structurally valid transaction carrying a wrong-``skTS`` token."""
        contract = self.contracts[tenant % len(self.contracts)]
        request = TokenRequest.method_token(
            contract.this, self.canary.address, "submit", one_time=False
        )
        forged = issue_one(self.twin, request)
        tx = Transaction(
            sender=self.canary.address,
            to=contract.this,
            nonce=len(self.forged_hashes),  # the canary sends nothing else
            method="submit",
            args=(),
            kwargs={"amount": amount, "token": forged.to_bytes()},
            gas_limit=DEFAULT_CALL_GAS_LIMIT,
        ).sign_with(self.canary.keypair)
        self.forged_hashes.append(tx.hash())
        return tx

    def set_token_lifetime(self, seconds: int) -> None:
        services = self.rts.replicas if self.rts is not None else [self.extra["base_service"]]
        for service in services:
            service.token_lifetime = seconds


# ---------------------------------------------------------------------------
# environment assembly
# ---------------------------------------------------------------------------


def _build_env(spec: CellSpec, plan: FaultPlan) -> CellEnv:
    chain = Blockchain(auto_mine=False)
    # A private signature cache isolates cells from each other AND from the
    # process-global DEFAULT_SIGNATURE_CACHE: a recovery cached by an earlier
    # cell (or an earlier matrix run in the same process -- cells are
    # deterministic, so digests repeat) would let the mempool screen a forged
    # token at admission that a fresh node would only reject on-chain,
    # changing the record.
    pipeline = ExecutionPipeline(chain, signature_cache=SignatureCache())
    keypair = KeyPair.from_seed(f"matrix-ts-{spec.workload}")

    rts: "ReplicatedTokenService | None" = None
    cluster: "CounterCluster | None" = None
    base_service: TokenService
    if plan.needs_counter_seam:
        cluster = CounterCluster(size=3, seed=100 + spec.seed)
        counter = plan.wrap_counter(ReplicatedCounter(cluster=cluster), cluster)
        base_service = TokenService(
            keypair=keypair,
            rules=RuleSet(),
            clock=chain.clock,
            token_lifetime=spec.token_lifetime,
            counter=counter,
            signature_cache=pipeline.signature_cache,
            label=f"matrix-{spec.name}",
        )
        issuer: Any = base_service
    else:
        rts = ReplicatedTokenService(
            replica_count=3,
            keypair=keypair,
            rules=RuleSet(),
            clock=chain.clock,
            token_lifetime=spec.token_lifetime,
            seed=100 + spec.seed,
            signature_cache=pipeline.signature_cache,
        )
        cluster = rts.counter_cluster
        base_service = rts.replicas[0]
        # The §VII-B fail-over: one try per replica.
        issuer = RetryFailover(rts, attempts=len(rts.replicas) - 1)

    # The transport seam: rule-churn cells always speak the gateway protocol;
    # corrupt-frame plans wrap whatever transport the cell dials through, and
    # the client re-sends (without sleeping) a frame the plan damaged or
    # dropped -- the plan's ``retry_codes`` are the backoff's whole code set,
    # so a cell cannot paper over an unexpected failure.
    service: Any = issuer
    extra: dict[str, Any] = {"base_service": base_service}
    if plan.needs_transport_seam or spec.workload == "rule-churn":
        gateway = ServiceGateway()
        gateway.register("ts", issuer)
        service = GatewayClient(
            plan.wrap_transport(InProcessTransport(gateway)),
            "ts",
            backoff=(
                Backoff(retries=5, codes=plan.retry_codes, sleep=lambda _delay: None)
                if plan.needs_transport_seam
                else None
            ),
        )
        if spec.workload == "rule-churn":
            # A second, independent client for the conflicting updater.
            extra["churn_rival"] = GatewayClient(InProcessTransport(gateway), "ts")

    # Deploy one SMACS-protected contract per tenant (trusted TS address is
    # baked into storage at deployment) and fund disjoint client pools.
    chain.auto_mine = True
    owner = chain.create_account("owner", seed=f"matrix-owner-{spec.name}")
    contracts = []
    for tenant in range(spec.tenants):
        receipt = OwnerWallet(owner, base_service).deploy_protected(
            ProtectedRecorder, one_time_bitmap_bits=spec.bitmap_bits
        )
        if not receipt.success:  # pragma: no cover - deployment is infallible here
            raise RuntimeError(f"tenant {tenant} deployment failed: {receipt.error}")
        contracts.append(receipt.return_value)
    chain.auto_mine = False

    tenant_accounts = [
        [
            chain.create_account(
                f"client-{tenant}-{i}", seed=f"matrix-{spec.name}-{tenant}-{i}"
            )
            for i in range(spec.accounts_per_tenant)
        ]
        for tenant in range(spec.tenants)
    ]
    canary = chain.create_account("canary", seed=f"matrix-canary-{spec.name}")

    # Per-tenant issuance path: multi-tenant cells interpose one identically
    # provisioned rate limiter per tenant (fairness is an invariant there).
    limiters: list[RateLimiter] = []
    if spec.workload == "multi-tenant":
        limiters = [
            RateLimiter(
                issuer,
                rate_per_second=spec.params.get("rate_per_second", 0.5),
                burst=spec.params.get("burst", 8),
                now=chain.clock.now,
            )
            for _ in range(spec.tenants)
        ]
    extra["limiters"] = limiters
    tenant_services = limiters or [service] * spec.tenants

    generators = [
        SmacsLoadGenerator(tenant_services[t], contracts[t], tenant_accounts[t])
        for t in range(spec.tenants)
    ]

    return CellEnv(
        spec=spec,
        plan=plan,
        chain=chain,
        pipeline=pipeline,
        service=service,
        rts=rts,
        cluster=cluster,
        trusted_address=keypair.address,
        contracts=contracts,
        tenant_accounts=tenant_accounts,
        generators=generators,
        twin=untrusted_twin_service(base_service, seed=f"twin-{spec.name}"),
        canary=canary,
        extra=extra,
    )


# ---------------------------------------------------------------------------
# workload axis: each builder returns one thunk per batch
# ---------------------------------------------------------------------------


def _single_batch(generator: SmacsLoadGenerator, batch: list[TokenRequest]) -> list[Transaction]:
    return generator.from_scenario(ScenarioMix("cell-batch", [batch]))


def _mix_batches(
    env: CellEnv, batches: list[list[TokenRequest]]
) -> list[Callable[[], list[Transaction]]]:
    return [(lambda batch=batch: _single_batch(env.generators[0], batch)) for batch in batches]


def _wl_flash_sale(env: CellEnv) -> list[Callable[[], list[Transaction]]]:
    spec = env.spec
    mix = flash_sale_bursts(
        env.contracts[0].this,
        [account.address for account in env.tenant_accounts[0]],
        bursts=spec.batches,
        burst_size=spec.batch_size,
        method="submit",
        seed=spec.seed,
    )
    return _mix_batches(env, mix.batches)


def _wl_replay_storm(env: CellEnv) -> list[Callable[[], list[Transaction]]]:
    spec = env.spec
    mix = replay_storm(
        env.contracts[0].this,
        [account.address for account in env.tenant_accounts[0]],
        unique_requests=max(2, spec.batch_size // 3),
        replays_per_request=max(1, spec.batches * spec.batch_size // max(2, spec.batch_size // 3)),
        method="submit",
        batch_size=spec.batch_size,
        seed=spec.seed,
    )
    return _mix_batches(env, mix.batches[: spec.batches])


def _per_tenant_batches(
    env: CellEnv, per_tenant: int, one_time: Callable[[int], bool]
) -> list[Callable[[], list[Transaction]]]:
    """Every batch asks ``per_tenant`` method tokens of every tenant's contract."""
    rng = random.Random(env.spec.seed)

    def make_batch() -> list[Transaction]:
        txs: list[Transaction] = []
        for tenant, generator in enumerate(env.generators):
            pool = env.tenant_accounts[tenant]
            requests = [
                TokenRequest.method_token(
                    env.contracts[tenant].this,
                    rng.choice(pool).address,
                    "submit",
                    one_time=one_time(tenant),
                )
                for _ in range(per_tenant)
            ]
            txs.extend(_single_batch(generator, requests))
        return txs

    return [make_batch for _ in range(env.spec.batches)]


def _wl_fan_out(env: CellEnv) -> list[Callable[[], list[Transaction]]]:
    per_tenant = max(1, env.spec.batch_size // env.spec.tenants)
    return _per_tenant_batches(env, per_tenant, lambda tenant: tenant % 2 == 0)


def _wl_multi_tenant(env: CellEnv) -> list[Callable[[], list[Transaction]]]:
    # Identical per-tenant demand against identically provisioned limiters
    # sharing one clock: admission counts must come out equal.
    per_tenant = env.spec.params.get("demand_per_tenant", env.spec.batch_size)
    return _per_tenant_batches(env, per_tenant, lambda tenant: False)


def _wl_state_stress(env: CellEnv) -> list[Callable[[], list[Transaction]]]:
    spec = env.spec
    rng = random.Random(spec.seed)
    zero_every = spec.params.get("zero_every", 6)
    serial = {"n": 0}

    def make_batch() -> list[Transaction]:
        requests = []
        for _ in range(spec.batch_size):
            serial["n"] += 1
            # Every zero_every-th call carries amount=0: the method body
            # reverts AFTER token verification, so the bitmap mark must be
            # rolled back with the frame (correct EVM semantics under load).
            amount = 0 if serial["n"] % zero_every == 0 else serial["n"]
            account = rng.choice(env.tenant_accounts[0])
            requests.append(
                TokenRequest.argument_token(
                    env.contracts[0].this,
                    account.address,
                    "submit",
                    {"amount": amount},
                    one_time=True,
                )
            )
        return _single_batch(env.generators[0], requests)

    return [make_batch for _ in range(spec.batches)]


def _wl_expiry_avalanche(env: CellEnv) -> list[Callable[[], list[Transaction]]]:
    spec = env.spec
    short = spec.params.get("short_lifetime", 5)  # < 13s block interval: TOCTOU

    def make_batch(batch_no: int) -> list[Transaction]:
        # Even batches issue tokens that expire between admission and
        # execution (the documented clock.now()/block.timestamp TOCTOU);
        # odd batches issue long-lived one-time tokens whose indexes march
        # the small bitmap window forward -- whole-window slides included.
        env.set_token_lifetime(short if batch_no % 2 == 0 else 3600)
        return env.generators[0].from_arrivals([spec.batch_size], token_type=TokenType.METHOD)

    return [
        (lambda batch_no=batch_no: make_batch(batch_no))
        for batch_no in range(spec.batches)
    ]


def _wl_rule_churn(env: CellEnv) -> list[Callable[[], list[Transaction]]]:
    spec = env.spec
    rng = random.Random(spec.seed)
    churn_client = env.service
    rival: GatewayClient = env.extra["churn_rival"]
    env.notes.setdefault("rule_conflicts", 0)
    env.notes.setdefault("rule_updates", 0)
    decoys = [KeyPair.from_seed(f"decoy-{i}").address for i in range(4)]

    def churn() -> None:
        # The rival lands a full read-modify-write inside our read/replace
        # window, so our replace hits a stale epoch (EXPIRED_RULESET) and the
        # client must re-read and retry -- the race the epoch guard exists for.
        attempts = {"n": 0}

        def rival_update(rules: RuleSet) -> None:
            rules.add_rule(
                BlacklistRule([rng.choice(decoys)], method="maintenance"),
                TokenType.METHOD,
            )

        def conflicted_update(rules: RuleSet) -> None:
            attempts["n"] += 1
            if attempts["n"] == 1:
                rival.update_rules(rival_update)
            rules.add_rule(
                BlacklistRule([rng.choice(decoys)], method="maintenance"),
                TokenType.METHOD,
            )

        churn_client.update_rules(conflicted_update)
        env.notes["rule_updates"] += 2
        env.notes["rule_conflicts"] += attempts["n"] - 1

    def make_batch() -> list[Transaction]:
        churn()
        requests = [
            TokenRequest.method_token(
                env.contracts[0].this,
                rng.choice(env.tenant_accounts[0]).address,
                "submit",
                one_time=False,
            )
            for _ in range(spec.batch_size)
        ]
        return _single_batch(env.generators[0], requests)

    return [make_batch for _ in range(spec.batches)]


WORKLOADS: dict[str, Callable[[CellEnv], list[Callable[[], list[Transaction]]]]] = {
    "flash-sale": _wl_flash_sale,
    "replay-storm": _wl_replay_storm,
    "fan-out": _wl_fan_out,
    "state-stress": _wl_state_stress,
    "expiry-avalanche": _wl_expiry_avalanche,
    "rule-churn": _wl_rule_churn,
    "multi-tenant": _wl_multi_tenant,
}


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def _token_calls(env: CellEnv) -> list[tuple[Transaction, bool]]:
    """``(transaction, succeeded)`` for every token-carrying call in a block:
    the durable blocks a restart recovered from disk, then the live chain's."""
    executed: list[tuple[Transaction, bool]] = []
    if env.recovery is not None:
        for recovered in env.recovery.blocks:
            executed.extend(zip(recovered.transactions, recovered.statuses))
    for block in env.chain.blocks:
        executed.extend((tx, env.chain.receipts[tx.hash()].success) for tx in block.transactions)
    return [
        (tx, ok) for tx, ok in executed if isinstance(tx.kwargs.get("token"), (bytes, bytearray))
    ]


def _check_no_duplicate_one_time(env: CellEnv, accepted: list[tuple[Transaction, Token]]) -> int:
    seen: set[tuple[bytes, int]] = set()
    one_time = 0
    for tx, token in accepted:
        if not token.is_one_time:
            continue
        one_time += 1
        key = (bytes(tx.to), token.index)
        if key in seen:
            raise InvariantViolation(
                f"[{env.spec.name}] one-time index {token.index} accepted twice "
                f"on contract 0x{bytes(tx.to).hex()}"
            )
        seen.add(key)
    return one_time


def _check_trusted_signer(
    env: CellEnv,
    calls: list[tuple[Transaction, bool]],
    accepted: list[tuple[Transaction, Token]],
) -> None:
    for tx, token in accepted:
        arguments = None
        if token.token_type is TokenType.ARGUMENT:
            arguments = {k: v for k, v in tx.kwargs.items() if k != "token"}
        method = None if token.token_type is TokenType.SUPER else tx.method
        digest = token.digest_for(tx.sender, tx.to, method=method, arguments=arguments)
        try:
            recovered = recover_address(digest, token.signature)
        except Exception as exc:
            raise InvariantViolation(
                f"[{env.spec.name}] accepted token signature does not recover: {exc}"
            ) from exc
        if recovered != env.trusted_address:
            raise InvariantViolation(
                f"[{env.spec.name}] accepted token recovers to untrusted signer "
                f"0x{recovered.hex()} (trusted 0x{env.trusted_address.hex()})"
            )
    forged = set(env.forged_hashes)
    for tx, ok in calls:
        if ok and tx.hash() in forged:
            raise InvariantViolation(
                f"[{env.spec.name}] forged transaction {tx.hash().hex()} from the "
                "untrusted twin signer was accepted on-chain"
            )


def _check_counter_agreement(env: CellEnv) -> None:
    if env.cluster is not None and not env.cluster.replicas_agree():
        raise InvariantViolation(
            f"[{env.spec.name}] counter replicas diverged: {env.cluster.committed_values()}"
        )


def _check_recovered_root(env: CellEnv) -> None:
    if env.chain.latest_block.state_root != state_root(env.chain.state):
        raise InvariantViolation(
            f"[{env.spec.name}] the recovered node's last committed state root is "
            "missing or does not match a full recomputation over the live state"
        )


def _check_mempool_accounting(env: CellEnv) -> dict[str, int]:
    stats = env.pipeline.mempool.stats()
    accounting = {
        "accounting_underflows": stats["accounting_underflows"],
        "tracked_nonce_senders": stats["tracked_nonce_senders"],
        "tracked_spend_senders": stats["tracked_spend_senders"],
    }
    if stats["accounting_underflows"]:
        raise InvariantViolation(
            f"[{env.spec.name}] mempool masked {stats['accounting_underflows']} "
            "accounting underflow(s)"
        )
    if stats["tracked_nonce_senders"] or stats["tracked_spend_senders"]:
        raise InvariantViolation(
            f"[{env.spec.name}] mempool reservation tables leak after drain: "
            f"{accounting}"
        )
    return accounting


def _check_fairness(env: CellEnv) -> "dict[str, Any] | None":
    limiters: list[RateLimiter] = env.extra.get("limiters") or []
    if not limiters:
        return None
    admitted = [limiter.admitted for limiter in limiters]
    limited = [limiter.limited for limiter in limiters]
    slack = env.spec.params.get("fairness_slack", 1)
    if max(admitted) - min(admitted) > slack:
        raise InvariantViolation(
            f"[{env.spec.name}] identically provisioned tenants admitted unevenly: "
            f"{admitted}"
        )
    if sum(limited) == 0:
        raise InvariantViolation(
            f"[{env.spec.name}] fairness cell never hit the rate limit "
            "(demand too low to test anything)"
        )
    return {"admitted": admitted, "limited": limited}


# ---------------------------------------------------------------------------
# cell + matrix runners
# ---------------------------------------------------------------------------


def _restart(dead: CellEnv, batch_no: int) -> CellEnv:
    """The node died committing batch ``batch_no``: recover a fresh one from its disk.

    The fresh node is built by the same deployment recipe, recovered from the
    crash image and given a clean disk.  The crashed batch was fsync'd at
    admission, so recovery re-admitted it and the drain executes it exactly
    once; the TS fleet recovers its issuance counter the same way the node
    recovered its state -- from the durable record (highest one-time index
    on disk), so fresh tokens can never reuse an accepted index.  What only
    the dead node knew (its generators' tallies, the forgeries sent so far,
    the workload's notes) rides over on the new environment.
    """
    dead.pipeline.durability.close()
    env = _build_env(dead.spec, dead.plan)
    store = DurableStore(dead.pipeline.durability.directory, "sqlite", fsync_on_admit=True)
    env.recovery = store.recover_into(env.pipeline)
    store.attach(env.pipeline)
    env.pipeline.drain()
    env.extra["base_service"].counter.restore(env.recovery.max_one_time_index + 1)
    for generator in env.generators:
        generator.refresh_nonces()
    env.forged_hashes = dead.forged_hashes
    env.notes = dead.notes
    env.crashed_at_batch = batch_no
    env.retired = dead.retired + dead.generators
    return env


def run_cell(spec: CellSpec) -> dict[str, Any]:
    """Run one (workload, fault) cell and return its benchmark record."""
    plan = spec.fault()
    env = _build_env(spec, plan)
    forgeries_per_batch = getattr(plan, "forgeries_per_batch", 0)
    decisions: list[AdmissionDecision] = []  # one per transaction the cell built
    try:
        if plan.needs_durability:
            DurableStore(
                tempfile.mkdtemp(prefix="smacs-wal-"),
                "sqlite",
                fsync_on_admit=True,
                hooks=plan.disk_hooks(),
            ).attach(env.pipeline)
        thunks = WORKLOADS[spec.workload](env)
        plan.setup(env)
        for batch_no in range(len(thunks)):
            plan.between_batches(env, batch_no)
            txs = thunks[batch_no]()
            txs.extend(env.forge_tx(tenant=batch_no) for _ in range(forgeries_per_batch))
            decisions += env.pipeline.ingest(txs)
            plan.before_block(env, batch_no)
            try:
                env.pipeline.run_block()
            except SimulatedCrash:
                # Restart is a phase, not a second program: the same loop
                # goes on over the recovered node, its workload thunks
                # rebuilt and resumed at the next batch.
                env = _restart(env, batch_no)
                thunks = WORKLOADS[spec.workload](env)
        # One forged canary rides through EVERY cell so the trusted-signer
        # invariant is exercised, not just vacuously true.
        decisions += env.pipeline.ingest([env.forge_tx()])
        env.pipeline.drain()
    finally:
        plan.teardown(env)
        store = env.pipeline.durability  # whichever node is live now
        if store is not None:
            store.close()
            shutil.rmtree(store.directory, ignore_errors=True)
    if plan.needs_durability and env.recovery is None:
        raise InvariantViolation(
            f"[{spec.name}] disk fault never fired: no block commit reached the "
            "WAL fsync boundary with the injector armed"
        )

    calls = _token_calls(env)
    accepted = [(tx, Token.from_bytes(bytes(tx.kwargs["token"]))) for tx, ok in calls if ok]
    one_time_accepted = _check_no_duplicate_one_time(env, accepted)
    _check_trusted_signer(env, calls, accepted)
    _check_counter_agreement(env)
    accounting = _check_mempool_accounting(env)
    fairness = _check_fairness(env)

    recovered = env.recovery.blocks if env.recovery is not None else []
    generators = env.retired + env.generators
    record: dict[str, Any] = {
        "cell": spec.name,
        "workload": spec.workload,
        "fault": plan.name,
        "fault_kind": plan.kind,
        "byzantine": plan.byzantine,
        "tenants": spec.tenants,
        "batches": spec.batches,
        "batch_size": spec.batch_size,
        "tokens_issued": sum(g.tokens_issued for g in generators),
        "requests_failed": sum(g.requests_failed for g in generators),
        "txs_built": len(decisions),
        "txs_admitted": sum(decision.admitted for decision in decisions),
        "rejected": dict(
            Counter(str(decision.reason) for decision in decisions if not decision.admitted)
        ),
        "blocks_executed": len(recovered) + env.pipeline.blocks_executed,
        "txs_executed": sum(len(block.transactions) for block in recovered)
        + env.pipeline.transactions_executed,
        "token_txs_succeeded": len(accepted),
        "token_txs_failed_onchain": len(calls) - len(accepted),
        "accepted_token_calls": len(accepted),
        "one_time_accepted": one_time_accepted,
        "forged_attempted": len(env.forged_hashes),
        "invariants": {
            "no_duplicate_one_time_index": True,
            "trusted_signer_only": True,
            "counter_agreement": True,
            "mempool_accounting_clean": True,
            **({"rate_limit_fairness": True} if fairness else {}),
        },
        "mempool_accounting": accounting,
        "fault_observations": plan.observations(env),
    }
    if env.recovery is not None:
        _check_recovered_root(env)
        record["crashed_at_batch"] = env.crashed_at_batch
        record["recovery"] = env.recovery.describe()
        record["invariants"].update(
            crash_recovered=True, state_root_matches_recomputation=True
        )
    if fairness:
        record["fairness"] = fairness
    window = env.contracts[0].bitmap_state()
    if window.get("size"):
        # ``start`` > 0 on the entry contract proves the Alg. 2 window slid.
        record["bitmap_window"] = {"size": window["size"], "start": window["start"]}
    if plan.needs_transport_seam:
        record["frame_resends"] = env.service.retries_performed
    if env.notes:
        record["notes"] = dict(env.notes)
    return record


def default_cells() -> list[CellSpec]:
    """The curated matrix: every workload under representative faults."""

    def spec(workload: str, fault_name: str, fault: Callable[[], FaultPlan], **kw: Any) -> CellSpec:
        return CellSpec(workload=workload, fault=fault, fault_name=fault_name, **kw)

    none = lambda: FaultPlan()  # noqa: E731
    crash = lambda: LeaderCrashPlan(crash_at=1, restart_after=1)  # noqa: E731
    part = lambda: PartitionPlan(cut_at=1, heal_after=1)  # noqa: E731
    timeouts = lambda: TransientTimeoutPlan(every=4)  # noqa: E731
    stale = lambda: StaleLeaderPlan(induce_at=1, heal_after=2)  # noqa: E731
    equiv = lambda: EquivocationPlan(duplicate_every=4, skip_every=7)  # noqa: E731
    corrupt = lambda: CorruptFramesPlan(corrupt_every=2)  # noqa: E731
    # Odd stride for multi-frame operations (read-modify-write rule updates
    # are two frames each): an even stride would corrupt the same frame of
    # the operation on every client retry and never converge.
    corrupt_rmw = lambda: CorruptFramesPlan(corrupt_every=3)  # noqa: E731
    untrusted = lambda: UntrustedSignerPlan(forgeries_per_batch=2)  # noqa: E731
    # Lossy-path plans: count-based drops keep the record deterministic.
    # Odd stride for the rule-churn cell (two frames per read-modify-write
    # update, same reasoning as ``corrupt_rmw``).
    netem_loss = lambda: NetemPlan(drop_every=4, name="netem-loss")  # noqa: E731
    netem_dup = lambda: NetemPlan(duplicate_every=3, name="netem-dup")  # noqa: E731
    netem_slow_loss = lambda: NetemPlan(  # noqa: E731
        latency_s=0.0002, jitter_s=0.0003, drop_every=5, seed=7, name="netem-slow-loss"
    )
    disk_crash = lambda: DiskCrashPlan(mode="crash-before-fsync", crash_after_batch=1)  # noqa: E731
    torn_wal = lambda: DiskCrashPlan(  # noqa: E731
        mode="torn-write", crash_after_batch=1, name="torn-wal-restart"
    )

    # A 16-bit window with 16-token batches: each expired (unmarked) batch
    # leaves an index gap wider than the whole window, so the marked batch
    # after it slides the entire Alg. 2 window at once (the reset path).
    tiny_window: dict[str, Any] = {"bitmap_bits": 16, "batch_size": 16}
    multi = {"tenants": 3, "batch_size": 6, "params": {"demand_per_tenant": 10}}

    return [
        # flash-sale stampede (one-time argument tokens, zipf-skewed bots)
        spec("flash-sale", "none", none, seed=1),
        spec("flash-sale", "leader-crash", crash, seed=2),
        spec("flash-sale", "leader-partition", part, seed=3),
        spec("flash-sale", "equivocating-counter", equiv, seed=4),
        spec("flash-sale", "untrusted-signer", untrusted, seed=5),
        spec("flash-sale", "crash-restart", disk_crash, seed=27),
        spec("flash-sale", "netem-loss", netem_loss, seed=30),
        # replay storm (non-one-time: issuance-side replay pressure)
        spec("replay-storm", "none", none, seed=6),
        spec("replay-storm", "transient-timeouts", timeouts, seed=7),
        spec("replay-storm", "corrupt-frames", corrupt, seed=8),
        spec("replay-storm", "untrusted-signer", untrusted, seed=9),
        spec("replay-storm", "netem-dup", netem_dup, seed=31),
        # multi-contract fan-out sharing one TS fleet
        spec("fan-out", "none", none, tenants=3, seed=10),
        spec("fan-out", "leader-crash", crash, tenants=3, seed=11),
        spec("fan-out", "transient-timeouts", timeouts, tenants=3, seed=12),
        spec("fan-out", "stale-leader", stale, tenants=2, seed=13),
        spec("fan-out", "crash-restart", disk_crash, tenants=3, seed=28),
        # one-time state stress with mid-batch reverts
        spec("state-stress", "none", none, accounts_per_tenant=8, seed=14),
        spec("state-stress", "leader-partition", part, accounts_per_tenant=8, seed=15),
        spec("state-stress", "equivocating-counter", equiv, accounts_per_tenant=8, seed=16),
        spec("state-stress", "torn-wal-restart", torn_wal, accounts_per_tenant=8, seed=29),
        # token-expiry avalanche + whole-window bitmap slides
        spec("expiry-avalanche", "none", none, batches=6, **tiny_window, seed=17),
        spec("expiry-avalanche", "leader-crash", crash, batches=6, **tiny_window, seed=18),
        spec("expiry-avalanche", "stale-leader", stale, batches=6, **tiny_window, seed=19),
        # rule-churn storms against the epoch-guarded update path
        spec("rule-churn", "none", none, seed=20),
        spec("rule-churn", "transient-timeouts", timeouts, seed=21),
        spec("rule-churn", "corrupt-frames", corrupt_rmw, seed=22),
        spec("rule-churn", "netem-slow-loss", netem_slow_loss, seed=32),
        # multi-tenant fairness under one TS fleet
        spec("multi-tenant", "none", none, seed=23, **multi),
        spec("multi-tenant", "leader-crash", crash, seed=24, **multi),
        spec("multi-tenant", "leader-partition", part, seed=25, **multi),
        spec("multi-tenant", "untrusted-signer", untrusted, seed=26, **multi),
    ]


#: the small, fast subset the CI smoke lane runs on every push
SMOKE_CELLS = [
    "flash-sale/none",
    "flash-sale/netem-loss",
    "replay-storm/corrupt-frames",
    "fan-out/stale-leader",
    "state-stress/equivocating-counter",
    "multi-tenant/untrusted-signer",
]


def run_matrix(
    cells: "Sequence[str] | None" = None,
    progress: "Callable[[str], None] | None" = None,
) -> dict[str, Any]:
    """Run the selected cells (all by default); raises on any violated invariant."""
    specs = default_cells()
    if cells is not None:
        wanted = list(cells)
        by_name = {spec.name: spec for spec in specs}
        missing = [name for name in wanted if name not in by_name]
        if missing:
            raise KeyError(f"unknown cells {missing}; see --list for the matrix")
        specs = [by_name[name] for name in wanted]

    records = []
    for spec in specs:
        if progress is not None:
            progress(spec.name)
        records.append(run_cell(spec))

    return {
        "benchmark": "scenarios",
        "cells": records,
        "summary": {
            "cells_run": len(records),
            "byzantine_cells": sum(1 for r in records if r["byzantine"]),
            "workloads": sorted({r["workload"] for r in records}),
            "faults": sorted({r["fault"] for r in records}),
            "tokens_issued": sum(r["tokens_issued"] for r in records),
            "txs_executed": sum(r["txs_executed"] for r in records),
            "forged_attempted": sum(r["forged_attempted"] for r in records),
            "forged_accepted": 0,  # the trusted-signer invariant enforces this
            "invariants_checked": sum(len(r["invariants"]) for r in records),
        },
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.matrix",
        description="Run the adversarial scenario matrix (workloads x faults).",
    )
    parser.add_argument(
        "--cells",
        help="comma-separated cell names (default: the full matrix)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help=f"run the CI smoke subset {SMOKE_CELLS}"
    )
    parser.add_argument("--list", action="store_true", help="list cells and exit")
    parser.add_argument("--out", help="write the JSON report to this path")
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    args = parser.parse_args(argv)

    if args.list:
        for spec in default_cells():
            plan = spec.fault()
            marker = " [byzantine]" if plan.byzantine else ""
            print(f"{spec.name}{marker}")
        return 0

    cells: "list[str] | None" = None
    if args.smoke:
        cells = list(SMOKE_CELLS)
    if args.cells:
        cells = (cells or []) + [name.strip() for name in args.cells.split(",") if name.strip()]

    progress = None if args.quiet else (lambda name: print(f"cell {name} ...", flush=True))
    report = run_matrix(cells=cells, progress=progress)

    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    if not args.quiet:
        summary = report["summary"]
        print(
            f"{summary['cells_run']} cells ({summary['byzantine_cells']} byzantine), "
            f"{summary['tokens_issued']} tokens issued, "
            f"{summary['txs_executed']} txs executed, "
            f"{summary['forged_attempted']} forgeries all rejected"
        )
    if not args.out and args.quiet:
        print(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
