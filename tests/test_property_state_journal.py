"""Property tests proving the journal ≡ copy-on-snapshot (hypothesis).

Random interleavings of every ``WorldState`` mutation with ``snapshot`` /
``commit`` / ``revert_to`` are applied to the journaled implementation and
to :class:`ReferenceWorldState` in lockstep; after **every** step the two
must agree on the entire world state (accounts, balances, nonces, contract
metadata, storage), on the open-checkpoint count and on whether the step
raised.  A second, EVM-shaped differential drives the Fig. 7 re-entrancy
attack through two otherwise identical chains -- the call shapes that
:meth:`CallTracer.reentrant_frames` detects are exactly the nested
snapshot/commit/revert patterns the journal merge logic must get right.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import Blockchain
from repro.chain.state import ReferenceWorldState, WorldState
from repro.contracts import Attacker, Bank
from repro.workloads.state_stress import (
    StateStressConfig,
    build_stress_engine,
    run_state_stress,
    state_fingerprint,
)

pytestmark = pytest.mark.slow  # hypothesis-heavy: the CI slow lane

ETHER = 10**18

#: A small, collision-rich pool of addresses and slots maximises interesting
#: interleavings (first-touch journaling, re-created accounts, slot churn).
ADDRESSES = [bytes([i]) * 20 for i in range(1, 5)]
SLOTS = ["a", "b", ("tuple", 1), 7]

_addr = st.sampled_from(ADDRESSES)
_slot = st.sampled_from(SLOTS)
_value = st.integers(min_value=0, max_value=1 << 40)

OPS = st.one_of(
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("commit"), st.floats(0, 1)),
    st.tuples(st.just("revert"), st.floats(0, 1)),
    st.tuples(st.just("set_balance"), _addr, _value),
    st.tuples(st.just("add_balance"), _addr, _value),
    st.tuples(st.just("sub_balance"), _addr, _value),
    st.tuples(st.just("increment_nonce"), _addr),
    st.tuples(st.just("set_is_contract"), _addr, st.booleans()),
    st.tuples(st.just("set_code_size"), _addr, _value),
    st.tuples(st.just("storage_set"), _addr, _slot, _value),
    st.tuples(st.just("storage_delete"), _addr, _slot),
    st.tuples(st.just("balance_of"), _addr),   # reads create accounts too
    st.tuples(st.just("storage_get"), _addr, _slot),
)


def _apply(state, op):
    """Apply one op; returns (result, exception type or None)."""
    name, *args = op
    try:
        if name == "snapshot":
            return state.snapshot(), None
        if name in ("commit", "revert"):
            depth = state.active_checkpoints
            # Map the float onto the *current* stack (same on both sides);
            # an empty stack targets id 0, which must raise on both.
            target = min(int(args[0] * depth), depth - 1) if depth else 0
            if name == "commit":
                return state.commit(target), None
            return state.revert_to(target), None
        return getattr(state, name)(*args), None
    except ValueError as exc:
        return None, type(exc)


def _world_view(state):
    """Every observable fact about the state, via the public API only."""
    view = {}
    for address in sorted(state.addresses()):
        record = state.account(address)
        view[address] = (
            record.balance,
            record.nonce,
            record.is_contract,
            record.code_size,
            tuple(sorted(record.storage.items(), key=lambda kv: repr(kv[0]))),
        )
    return view


@given(ops=st.lists(OPS, max_size=120))
@settings(max_examples=300, deadline=None)
def test_journal_equivalent_to_copy_on_snapshot(ops):
    journal = WorldState()
    reference = ReferenceWorldState()
    for op in ops:
        journal_result, journal_exc = _apply(journal, op)
        reference_result, reference_exc = _apply(reference, op)
        assert journal_exc == reference_exc, op
        assert journal_result == reference_result, op
        assert journal.active_checkpoints == reference.active_checkpoints, op
        assert _world_view(journal) == _world_view(reference), op


@given(seed=st.integers(0, 2**16), transactions=st.integers(4, 24),
       depth=st.integers(1, 6))
@settings(max_examples=15, deadline=None)
def test_state_stress_burst_is_state_equivalent(seed, transactions, depth):
    """The full EVM loop (deploys, deep chains, reverts) ends identically."""
    config = StateStressConfig(
        accounts=16, prefill_slots=1, bitmap_bits=512, call_depth=depth,
        transactions=transactions, revert_every=3, seed=seed,
    )
    results = {}
    for label, factory in (("journal", WorldState), ("reference", ReferenceWorldState)):
        engine, entry, clients = build_stress_engine(config, factory)
        stats = run_state_stress(engine, entry, clients, config)
        results[label] = (stats, state_fingerprint(engine.state))
    assert results["journal"][0] == results["reference"][0]
    assert results["journal"][1] == results["reference"][1]


# --- the Fig. 7 re-entrancy shape, differentially ---------------------------------


def _run_reentrancy_attack(state_factory):
    """Drive the Bank/Attacker exploit on a chain using ``state_factory``."""
    chain = Blockchain()
    chain.evm.state = state_factory()
    owner = chain.create_account("owner", seed="reentrancy-owner")
    alice = chain.create_account("alice", seed="reentrancy-alice")
    eve = chain.create_account("eve", seed="reentrancy-eve")

    bank = owner.deploy(Bank).return_value
    alice.transact(bank, "addBalance", value=10 * ETHER)
    attacker = eve.deploy(Attacker, bank.this, True).return_value
    eve.transact(attacker, "deposit", 2 * ETHER, value=2 * ETHER)
    simulated = chain.simulate(eve.address, attacker, "withdraw")
    receipt = eve.transact(attacker, "withdraw")

    trace = simulated.trace
    return {
        "success": receipt.success,
        "gas_used": receipt.gas_used,
        "simulated": (simulated.success, simulated.gas_used),
        "reentrant_frames": trace.reentrant_frames(),
        "reentrant_targets": sorted(trace.reentrant_targets()),
        "attacker_balance": chain.balance_of(attacker),
        "bank_balance": chain.balance_of(bank),
        "reentry_count": chain.read(attacker, "reentry_count"),
        "fingerprint": state_fingerprint(chain.state),
    }


def test_reentrancy_attack_identical_on_both_state_layers():
    journal = _run_reentrancy_attack(WorldState)
    reference = _run_reentrancy_attack(ReferenceWorldState)
    assert journal == reference
    # Sanity: the attack really produced the re-entrant call shape.
    assert journal["reentry_count"] == 1
    assert journal["reentrant_frames"], "expected a re-entrant frame pair"
    assert journal["attacker_balance"] == 4 * ETHER
