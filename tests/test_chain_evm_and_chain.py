"""Tests for the execution engine and the blockchain (nonces, blocks, reorgs)."""

import pytest

from repro.chain import Blockchain, Contract, external, public
from repro.chain.errors import InvalidTransaction
from repro.chain.evm import CallTracer
from repro.chain.transaction import Transaction

ETHER = 10**18


class Callee(Contract):
    def constructor(self) -> None:
        self.storage["calls"] = 0

    @external
    def ping(self, value: int) -> int:
        self.storage.increment("calls")
        self.storage["last"] = value
        return value * 2

    @public
    def calls(self) -> int:
        return self.storage.get("calls", 0)


class Caller(Contract):
    def constructor(self, callee: bytes) -> None:
        self.storage["callee"] = callee

    @external
    def relay(self, value: int) -> int:
        return self.call_contract(self.storage["callee"], "ping", value)

    @external
    def whoami_chain(self) -> tuple:
        return self.call_contract(self.storage["callee"], "ping", 1), self.msg.sender


class ContextReporter(Contract):
    @external
    def report(self) -> tuple:
        return (self.msg.sender, self.tx_origin)


class ContextRelay(Contract):
    def constructor(self, reporter: bytes) -> None:
        self.storage["reporter"] = reporter

    @external
    def relay(self) -> tuple:
        return self.call_contract(self.storage["reporter"], "report")


# --- message calls -------------------------------------------------------------------


@pytest.fixture
def callee(chain, owner):
    return owner.deploy(Callee).return_value


@pytest.fixture
def caller(chain, owner, callee):
    return owner.deploy(Caller, callee.this).return_value


def test_message_call_executes_and_returns(chain, alice, caller, callee):
    receipt = alice.transact(caller, "relay", 21)
    assert receipt.success
    assert receipt.return_value == 42
    assert chain.read(callee, "calls") == 1


def test_msg_sender_vs_tx_origin_through_call_chain(chain, owner, alice):
    reporter = owner.deploy(ContextReporter).return_value
    relay = owner.deploy(ContextRelay, reporter.this).return_value
    direct = alice.transact(reporter, "report").return_value
    assert direct == (alice.address, alice.address)
    relayed = alice.transact(relay, "relay").return_value
    assert relayed == (relay.this, alice.address)  # msg.sender = relay, origin = alice


def test_inner_call_gas_attributed_to_outer_transaction(alice, caller):
    receipt = alice.transact(caller, "relay", 3)
    # Outer call cost includes the inner SSTOREs plus CALL overhead.
    assert receipt.gas_used > 30_000


# --- nonces and replay protection ---------------------------------------------------------


def test_nonce_must_match_expected(chain, alice, bob, callee):
    tx = alice.build_transaction(callee.this, "ping", (1,))
    assert chain.send_transaction(tx).success
    # Replaying the exact same signed transaction is rejected (§VII-A(b)).
    with pytest.raises(InvalidTransaction):
        chain.send_transaction(tx)


def test_future_nonce_rejected(chain, alice, callee):
    tx = Transaction(sender=alice.address, to=callee.this, nonce=5, method="ping", args=(1,))
    tx.sign_with(alice.keypair)
    with pytest.raises(InvalidTransaction):
        chain.send_transaction(tx)


def test_unsigned_or_tampered_transaction_rejected(chain, alice, callee):
    tx = Transaction(sender=alice.address, to=callee.this, nonce=alice.nonce,
                     method="ping", args=(1,))
    with pytest.raises(InvalidTransaction):
        chain.send_transaction(tx)
    tx.sign_with(alice.keypair)
    tx.args = (999,)  # tamper after signing
    with pytest.raises(InvalidTransaction):
        chain.send_transaction(tx)


def test_sender_cannot_forge_from_address(chain, alice, bob, callee):
    tx = Transaction(sender=bob.address, to=callee.this, nonce=bob.nonce,
                     method="ping", args=(1,))
    tx.sign_with(alice.keypair)  # signed by the wrong key
    with pytest.raises(InvalidTransaction):
        chain.send_transaction(tx)


def test_failed_transaction_still_consumes_nonce(chain, alice, callee):
    first = alice.transact(callee, "nonexistent")
    assert not first.success
    assert alice.nonce == 1
    assert alice.transact(callee, "ping", 2).success


# --- value transfers -------------------------------------------------------------------------


def test_plain_value_transfer_between_eoas(chain, alice, bob):
    before = chain.balance_of(bob)
    receipt = alice.transfer(bob, 2 * ETHER)
    assert receipt.success
    assert chain.balance_of(bob) == before + 2 * ETHER


def test_transfer_more_than_balance_rejected(chain, alice, bob):
    from repro.chain.errors import InsufficientFunds

    with pytest.raises(InsufficientFunds):
        alice.transfer(bob, 10**30)


# --- batch mining -------------------------------------------------------------------------------


def test_batch_mode_mines_pending_pool():
    chain = Blockchain(auto_mine=False)
    owner = chain.create_account("owner", seed="o")
    # Deployment needs auto-mine; switch modes around it.
    chain.auto_mine = True
    callee = owner.deploy(Callee).return_value
    chain.auto_mine = False

    sender = chain.create_account("s", seed="s")
    for i in range(3):
        chain.send_transaction(sender.build_transaction(callee.this, "ping", (i,)))
    assert len(chain.pending) == 3
    height_before = chain.height
    receipts = chain.mine_block()
    assert len(receipts) == 3
    assert all(r.success for r in receipts)
    assert chain.height == height_before + 1
    assert chain.latest_block.transaction_count == 3
    assert chain.read(callee, "calls") == 3


def test_block_timestamps_advance(chain, alice, bob):
    t0 = chain.latest_block.timestamp
    alice.transfer(bob, 1)
    assert chain.latest_block.timestamp > t0


# --- forks and reorgs (51% attack surface) ----------------------------------------------------------


def test_revert_to_block_restores_state_and_receipts(chain, owner, alice, bob):
    callee = owner.deploy(Callee).return_value
    alice.transact(callee, "ping", 1)
    height = chain.height
    receipts_before = len(chain.receipts)

    alice.transact(callee, "ping", 2)
    bob.transfer(alice, 1 * ETHER)
    assert chain.read(callee, "calls") == 2

    chain.revert_to_block(height)
    assert chain.height == height
    assert chain.read(callee, "calls") == 1
    assert len(chain.receipts) == receipts_before


def test_revert_to_unknown_block_rejected(chain):
    with pytest.raises(ValueError):
        chain.revert_to_block(99)


def test_fork_is_isolated_from_main_chain(chain, owner, alice):
    callee = owner.deploy(Callee).return_value
    alice.transact(callee, "ping", 1)
    fork = chain.fork()
    fork_alice = fork.create_account("fa", seed="fa")
    fork_alice.transact(callee, "ping", 2)
    assert fork.read(callee, "calls") == 2
    assert chain.read(callee, "calls") == 1  # main chain untouched
    # ... and the fork does not see a later write on its parent.
    alice.transact(callee, "ping", 3)
    assert chain.read(callee, "calls") == 2
    assert fork.read(callee, "calls") == 2


def test_receipts_are_retrievable_by_hash(chain, alice, bob):
    receipt = alice.transfer(bob, 1)
    assert chain.receipt_for(receipt.tx_hash) is receipt


# --- call tracer -----------------------------------------------------------------------------------------


def test_tracer_records_nested_calls(chain, owner, alice, callee, caller):
    simulated = chain.simulate(alice.address, caller, "relay", (5,))
    receipt = alice.transact(caller, "relay", 5)
    assert receipt.trace is None  # a mined receipt carries no call tree
    assert (simulated.success, simulated.return_value, simulated.gas_used) == (
        receipt.success, receipt.return_value, receipt.gas_used
    )
    trace: CallTracer = simulated.trace
    targets = [record.target for record in trace.calls]
    assert caller.this in targets and callee.this in targets
    inner = next(r for r in trace.calls if r.target == callee.this)
    outer = next(r for r in trace.calls if r.target == caller.this)
    assert inner.parent == outer.index
    assert not trace.reentrant_targets()
    assert any(acc.is_write for acc in trace.storage_accesses)
