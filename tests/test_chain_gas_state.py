"""Unit tests for the gas meter/schedule and the world state."""

import pytest

from repro.chain import gas
from repro.chain.errors import OutOfGas
from repro.chain.gas import GasMeter, calldata_cost, charging_category, keccak_cost
from repro.chain.state import WorldState
from repro.crypto.keys import KeyPair


# --- gas schedule helpers ------------------------------------------------------


def test_calldata_cost_zero_vs_nonzero_bytes():
    assert calldata_cost(b"\x00" * 10) == 10 * gas.CALLDATA_ZERO_BYTE
    assert calldata_cost(b"\x01" * 10) == 10 * gas.CALLDATA_NONZERO_BYTE
    assert calldata_cost(b"\x00\x01") == gas.CALLDATA_ZERO_BYTE + gas.CALLDATA_NONZERO_BYTE


def test_keccak_cost_per_word():
    assert keccak_cost(0) == gas.KECCAK_BASE
    assert keccak_cost(32) == gas.KECCAK_BASE + gas.KECCAK_PER_WORD
    assert keccak_cost(33) == gas.KECCAK_BASE + 2 * gas.KECCAK_PER_WORD


def test_usd_conversion_consistent_with_paper_scale():
    from repro.core.cost import gas_to_usd

    # Tab. II: ~166k gas should be a few cents.
    usd = gas_to_usd(165_957)
    assert 0.02 < usd < 0.08


# --- gas meter --------------------------------------------------------------------


def test_meter_accumulates_and_reports_remaining():
    meter = GasMeter(gas_limit=1000)
    meter.charge(300)
    meter.charge(200)
    assert meter.gas_used == 500
    assert meter.gas_remaining == 500


def test_meter_raises_out_of_gas():
    meter = GasMeter(gas_limit=100)
    with pytest.raises(OutOfGas):
        meter.charge(101)


def test_meter_rejects_negative_charge():
    meter = GasMeter(gas_limit=100)
    with pytest.raises(ValueError):
        meter.charge(-1)


def test_meter_category_breakdown():
    meter = GasMeter(gas_limit=10_000)
    meter.charge(100)
    with charging_category(meter, "verify"):
        meter.charge(200)
        with charging_category(meter, "bitmap"):
            meter.charge(50)
        meter.charge(25)
    meter.charge(10)
    assert meter.breakdown == {"misc": 110, "verify": 225, "bitmap": 50}
    assert meter.gas_used == 385


def test_meter_explicit_category_overrides_stack():
    meter = GasMeter(gas_limit=1000)
    with charging_category(meter, "verify"):
        meter.charge(10, category="parse")
    assert meter.breakdown == {"parse": 10}


def test_meter_cannot_pop_base_category():
    meter = GasMeter(gas_limit=10)
    with pytest.raises(RuntimeError):
        meter.pop_category()


def test_meter_refund_is_capped_at_one_fifth():
    meter = GasMeter(gas_limit=100_000)
    meter.charge(50_000)
    meter.add_refund(40_000)
    assert meter.finalize() == 40_000  # refund capped at 10 000


# --- world state ---------------------------------------------------------------------


@pytest.fixture
def state():
    return WorldState()


@pytest.fixture
def addr():
    return KeyPair.from_seed("state-account").address


def test_balances_and_nonces(state, addr):
    assert state.balance_of(addr) == 0
    state.add_balance(addr, 100)
    state.sub_balance(addr, 40)
    assert state.balance_of(addr) == 60
    assert state.nonce_of(addr) == 0
    state.increment_nonce(addr)
    assert state.nonce_of(addr) == 1


def test_sub_balance_rejects_overdraft(state, addr):
    with pytest.raises(ValueError):
        state.sub_balance(addr, 1)


def test_set_balance_rejects_negative(state, addr):
    with pytest.raises(ValueError):
        state.set_balance(addr, -1)


def test_storage_roundtrip(state, addr):
    state.storage_set(addr, "slot", 42)
    assert state.storage_get(addr, "slot") == 42
    assert state.storage_contains(addr, "slot")
    assert state.storage_slot_count(addr) == 1
    state.storage_delete(addr, "slot")
    assert not state.storage_contains(addr, "slot")
    assert state.storage_get(addr, "slot", "default") == "default"


def test_snapshot_revert_restores_balances_and_storage(state, addr):
    state.add_balance(addr, 10)
    state.storage_set(addr, "k", 1)
    snap = state.snapshot()
    state.add_balance(addr, 90)
    state.storage_set(addr, "k", 2)
    state.storage_set(addr, "new", 3)
    state.revert_to(snap)
    assert state.balance_of(addr) == 10
    assert state.storage_get(addr, "k") == 1
    assert not state.storage_contains(addr, "new")


def test_snapshot_commit_keeps_changes(state, addr):
    snap = state.snapshot()
    state.add_balance(addr, 5)
    state.commit(snap)
    assert state.balance_of(addr) == 5
    with pytest.raises(ValueError):
        state.revert_to(snap)


def test_nested_snapshots(state, addr):
    outer = state.snapshot()
    state.add_balance(addr, 1)
    inner = state.snapshot()
    state.add_balance(addr, 1)
    state.revert_to(inner)
    assert state.balance_of(addr) == 1
    state.revert_to(outer)
    assert state.balance_of(addr) == 0


def test_deep_copy_is_independent(state, addr):
    state.add_balance(addr, 7)
    state.storage_set(addr, "x", (1, 2))
    clone = state.deep_copy()
    clone.add_balance(addr, 1)
    clone.storage_set(addr, "x", (1, 2, 3))
    assert state.balance_of(addr) == 7
    assert state.storage_get(addr, "x") == (1, 2)


def test_unknown_snapshot_ids_rejected(state):
    with pytest.raises(ValueError):
        state.revert_to(0)
    with pytest.raises(ValueError):
        state.commit(3)
