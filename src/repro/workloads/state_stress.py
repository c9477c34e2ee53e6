"""The state-stress scenario: deep call chains over a production-sized state.

The paper's on-chain design makes world state *large* on purpose: every
SMACS-enabled contract stores a one-time bitmap of ``token_lifetime x
max_tx_per_second`` bits (Alg. 2, Tab. IV), and production traffic means
thousands of funded accounts.  Combined with the call chains of Fig. 8 (one
EVM frame -- and therefore one state snapshot -- per link), this is exactly
the workload where copy-on-snapshot state collapses: each frame used to pay
O(total accounts x total storage slots), so cost grew with the *world*, not
with the *writes*.

This module builds that scenario deterministically against any state
implementation (the journaled :class:`~repro.chain.state.WorldState` or the
copy-on-snapshot :class:`~repro.chain.state.ReferenceWorldState`), so the
``bench_state_hotpath`` harness can time them head to head and the
differential tests can prove they end in identical states:

* thousands of funded externally-owned accounts with a few storage slots of
  background weight each (``prefill_slots``);
* a relay-contract chain of Fig. 8 depth whose entry contract hosts a
  Tab. IV-sized packed bitmap window (one 256-bit word per storage slot,
  laid out with the :mod:`repro.core.smacs_contract` slot naming);
* a burst of transactions driving the full chain depth, every frame writing
  scratch slots and the entry frame flipping bitmap-window bits, with a
  configurable fraction reverting at the *bottom* of the chain so the
  whole-depth rollback path is exercised too.

Everything is pure state/EVM work -- no token issuance, no signatures -- so
the measured cost isolates the state layer the journal optimises.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.chain.address import Address
from repro.chain.contract import Contract, external
from repro.chain.evm import BlockContext, ExecutionEngine, Receipt
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.core.bitmap import (
    BITMAP_SIZE_SLOT,
    BITMAP_WORD_SLOT,
    bitmap_storage_slots,
    required_bitmap_bits,
)

#: Tab. IV / §VI-A sizing: one-hour token lifetime at the observed ≈35 tx/s
#: popular-contract peak.
TAB4_BITMAP_BITS = required_bitmap_bits(3_600, 35.0)


@dataclass(slots=True)
class StateStressConfig:
    """Deterministic parameters of one state-stress run."""

    accounts: int = 2_000            # funded EOAs in the world state
    prefill_slots: int = 4           # background storage slots per account
    bitmap_bits: int = TAB4_BITMAP_BITS  # Tab. IV window on the entry contract
    call_depth: int = 8              # Fig. 8-style chain length (frames per tx)
    transactions: int = 48           # churn transactions in the burst
    revert_every: int = 7            # every k-th transaction reverts at depth
    funding_wei: int = 10**18
    seed: int = 0

    @property
    def bitmap_words(self) -> int:
        return bitmap_storage_slots(self.bitmap_bits)


class StateStressRelay(Contract):
    """One link of the stress chain; forwards ``churn`` to its successor.

    Deliberately *not* SMACS-protected: the scenario isolates the state
    layer, so no signature or token math may leak into the timings.
    """

    def constructor(self, next_contract: "bytes | None" = None,
                    bitmap_words: int = 0) -> None:
        self.storage["next"] = next_contract
        self.storage["calls"] = 0
        self.storage["bitmap_words"] = bitmap_words

    @external
    def churn(self, payload: int, fail: bool = False) -> int:
        """One unit of storage churn, forwarded down the whole chain.

        When ``fail`` is set the *deepest* frame reverts, unwinding one
        snapshot per link -- the worst case for per-frame rollback.
        """
        count = self.storage.increment("calls")
        self.storage[("scratch", count & 31)] = payload
        words = self.storage.get("bitmap_words", 0)
        if words:
            slot = BITMAP_WORD_SLOT.format(payload % words)
            self.storage[slot] = self.storage.get(slot, 0) | (1 << (count & 0xFF))
        next_contract = self.storage.get("next", None)
        if next_contract is not None:
            return self.call_contract(next_contract, "churn", payload + 1, fail=fail) + 1
        self.require(not fail, "state-stress revert at the bottom of the chain")
        return 1


def _synthetic_address(index: int) -> Address:
    """A deterministic 20-byte pseudo-address (no key material needed)."""
    return index.to_bytes(20, "big")


def populate_accounts(state: Any, config: StateStressConfig) -> list[Address]:
    """Fund ``config.accounts`` synthetic EOAs with background storage weight."""
    rng = random.Random(config.seed)
    addresses = []
    for i in range(config.accounts):
        address = _synthetic_address(i + 1)
        state.add_balance(address, config.funding_wei)
        for slot in range(config.prefill_slots):
            state.storage_set(address, ("prefill", slot), rng.getrandbits(63))
        addresses.append(address)
    return addresses


def build_stress_engine(
    config: StateStressConfig,
    state_factory: Callable[[], Any] = WorldState,
) -> tuple[ExecutionEngine, Address, list[Address]]:
    """Provision an engine + populated state + deployed relay chain.

    Returns ``(engine, entry_address, client_addresses)``.  The relay chain
    is deployed deepest-first so each link knows its successor; the entry
    contract is then loaded with the Tab. IV bitmap window (zeroed packed
    words), giving the copy-on-snapshot baseline its full storage weight.
    """
    engine = ExecutionEngine(state=state_factory())
    state = engine.state
    clients = populate_accounts(state, config)

    deployer = _synthetic_address(10**9)
    state.add_balance(deployer, config.funding_wei)
    block = BlockContext(number=1, timestamp=1_600_000_000)
    next_address: "Address | None" = None
    entry_address: "Address | None" = None
    for depth in range(config.call_depth):
        is_entry = depth == config.call_depth - 1
        words = config.bitmap_words if is_entry else 0
        tx = Transaction(
            sender=deployer,
            to=None,
            nonce=state.nonce_of(deployer),
            method="constructor",
            args=(next_address, words),
            gas_limit=10**12,
        )
        receipt = engine.execute_transaction(tx, block, deploy_factory=StateStressRelay)
        if not receipt.success:  # pragma: no cover - deployment must not fail
            raise RuntimeError(f"relay deployment failed: {receipt.error}")
        next_address = receipt.contract_address
        entry_address = receipt.contract_address

    assert entry_address is not None
    # The Tab. IV window: one zeroed 256-bit word per slot, SMACS layout.
    state.storage_set(entry_address, BITMAP_SIZE_SLOT, config.bitmap_bits)
    for word_index in range(config.bitmap_words):
        state.storage_set(entry_address, BITMAP_WORD_SLOT.format(word_index), 0)
    return engine, entry_address, clients


def run_state_stress(
    engine: ExecutionEngine,
    entry: Address,
    clients: list[Address],
    config: StateStressConfig,
) -> dict[str, int]:
    """Drive the churn burst; returns execution counters.

    Deterministic in ``config``: sender rotation, payloads and the
    revert-at-depth schedule depend only on the configuration, so two
    engines built from the same config execute the identical burst.
    """
    block = BlockContext(number=2, timestamp=1_600_000_013)
    executed = succeeded = reverted = 0
    gas_used = 0
    for i in range(config.transactions):
        sender = clients[i % len(clients)]
        fail = bool(config.revert_every) and (i % config.revert_every) == (
            config.revert_every - 1
        )
        tx = Transaction(
            sender=sender,
            to=entry,
            nonce=engine.state.nonce_of(sender),
            method="churn",
            args=(i,),
            kwargs={"fail": fail},
            gas_limit=10**12,
        )
        receipt: Receipt = engine.execute_transaction(tx, block)
        executed += 1
        gas_used += receipt.gas_used
        if receipt.success:
            succeeded += 1
        else:
            reverted += 1
    return {
        "executed": executed,
        "succeeded": succeeded,
        "reverted": reverted,
        "gas_used": gas_used,
    }


def state_fingerprint(state: Any) -> dict[Address, tuple]:
    """A comparable summary of an entire world state (differential tests).

    Storage items are sorted by ``repr`` of the slot because slot keys are
    heterogeneous (strings, tuples, ...) and need a total order.
    """
    fingerprint: dict[Address, tuple] = {}
    for address in state.addresses():
        record = state.account(address)
        fingerprint[address] = (
            record.balance,
            record.nonce,
            record.is_contract,
            record.code_size,
            tuple(sorted(record.storage.items(), key=lambda kv: repr(kv[0]))),
        )
    return fingerprint
