"""One frame runner: every call frame runs through ``_run_frame``.

``ExecutionEngine._run_frame`` owns the depth check, dispatch, the value
transfer, the frame's ``Env``, tracer enter/exit and one journal checkpoint
(committed on return, reverted on any exception); ``execute_transaction``
maps the outcome to a receipt in one place and consumes the nonce after the
frame.  ``Blockchain._mine`` is all or nothing.  A simulation is a
transaction the node rolls back, so its receipt comes out of that same
mapping.  These tests pin the checkpoint count, the receipts of transactions
that used to escape the EVM, a simulated receipt against the mined one, a
failed deployment's footprint and the atomic block.
"""

import ast
import pathlib

import pytest

from repro.chain import Blockchain
from repro.chain.address import contract_address
from repro.chain.contract import Contract, external
from repro.chain.errors import (
    ExecutionError,
    InsufficientFunds,
    MutableStorageValue,
    UnknownContract,
)
from repro.chain.state import WorldState
from repro.chain.transaction import DEFAULT_GAS_LIMIT, Transaction
from repro.contracts.erc20 import SimpleToken
from repro.crypto.keys import KeyPair
from repro.pipeline import ExecutionPipeline
from repro.storage.codec import state_root

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


class Counter(Contract):
    def constructor(self) -> None:
        self.storage["count"] = 0

    @external
    def bump(self) -> int:
        return self.storage.increment("count")

    @external
    def pay(self, to: bytes) -> bool:
        return self.call_value(to, 0)

    @external
    def keep_list(self) -> None:
        self.storage["box"] = [1]


class Spender(Contract):
    """One call per way a receipt can come out."""

    @external
    def log(self, note: int) -> int:
        self.storage["note"] = note
        self.emit("Noted", note=note)
        return note + 1

    @external
    def refuse(self) -> None:
        self.storage["note"] = -1
        self.revert("refused")

    @external
    def burn(self) -> None:
        slot = 0
        while True:
            self.storage[("burn", slot)] = 1
            slot += 1


class Doomed(Contract):
    """A constructor that writes, takes value and then reverts."""

    def constructor(self) -> None:
        self.storage["born"] = 1
        self.revert("constructor fails")

    def fallback(self) -> None:
        self.storage["fallback_ran"] = True


def _signed(account, nonce: int, **fields) -> Transaction:
    tx = Transaction(sender=account.address, nonce=nonce, gas_limit=200_000, **fields)
    return tx.sign_with(account.keypair)


@pytest.fixture
def snapshots(monkeypatch):
    """Counts ``WorldState.snapshot`` calls (journal checkpoints opened)."""
    count = [0]
    original = WorldState.snapshot

    def counting(self):
        count[0] += 1
        return original(self)

    monkeypatch.setattr(WorldState, "snapshot", counting)
    return count


# --- one checkpoint per frame ------------------------------------------------------


def test_a_block_of_64_calls_opens_one_checkpoint_a_frame(snapshots):
    chain = Blockchain()
    users = [chain.create_account(seed=f"frame-user-{i}") for i in range(4)]
    counter = users[0].deploy(Counter).return_value
    chain.auto_mine = False
    for i in range(64):
        user = users[i % 4]
        chain.send_transaction(_signed(user, chain.next_nonce(user.address),
                                       to=counter.this, method="bump"))
    snapshots[0] = 0
    receipts = chain.mine_block()
    assert all(r.success for r in receipts) and len(receipts) == 64
    # 64 frames + the block's own checkpoint + the new block's fork point.
    assert snapshots[0] == 66
    assert chain.read(counter, "bump") == 65


def test_a_low_level_call_to_an_account_without_code_opens_no_checkpoint(snapshots):
    chain = Blockchain()
    alice = chain.create_account("alice", seed="frame-alice")
    bob = chain.create_account("bob", seed="frame-bob")
    counter = alice.deploy(Counter).return_value
    snapshots[0] = 0
    receipt = alice.transact(counter, "pay", bob.address)
    assert receipt.success and receipt.return_value is True
    # The top-level frame, the block, the fork point: nothing for the EOA.
    assert snapshots[0] == 3


def test_env_is_built_only_by_the_frame_runner():
    sites = []

    class Finder(ast.NodeVisitor):
        def __init__(self, path):
            self.path, self.scope = path, []

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "Env":
                sites.append((self.path, self.scope[-1] if self.scope else None))
            self.generic_visit(node)

    for path in sorted(SRC.rglob("*.py")):
        Finder(path.relative_to(SRC).as_posix()).visit(ast.parse(path.read_text()))
    assert sites == [("repro/chain/evm.py", "_run_frame")]


# --- one outcome mapping: a simulation is a transaction the node rolls back -----------


def _names(tree: ast.AST) -> set:
    """Every name a module reads, writes, defines or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.update((node.name.rpartition(".")[2], node.asname))
    return names


def _assigned_attributes(tree: ast.AST) -> set:
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets.extend(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets.append(node.target)
    attributes = set()
    for target in targets:
        for part in ast.walk(target):
            if isinstance(part, ast.Attribute) and isinstance(part.ctx, ast.Store):
                attributes.add(part.attr)
    return attributes


def test_one_outcome_mapping_and_one_off_the_record_scope():
    root = SRC.parent
    trees = {
        path.relative_to(root).as_posix(): ast.parse(path.read_text())
        for folder in ("src", "examples")
        for path in sorted((root / folder).rglob("*.py"))
    }
    evm = "src/repro/chain/evm.py"
    for private in ("_run_frame", "_pending_logs"):
        assert [p for p, tree in trees.items() if private in _names(tree)] == [evm], private
    assert [
        p for p, tree in trees.items() if "smacs_simulation_mode" in _assigned_attributes(tree)
    ] == [evm]
    # The testnet wrapper and its result type are gone; the engine and the
    # chain are the only things that simulate.
    gone = {"LocalTestnet", "SimulationResult"}
    assert not [p for p, tree in trees.items() if _names(tree) & gone]
    simulators = sorted(
        (p, cls.name)
        for p, tree in trees.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "simulate"
    )
    assert simulators == [("src/repro/chain/chain.py", "Blockchain"), (evm, "ExecutionEngine")]


@pytest.mark.parametrize("method, kwargs, error", [
    ("log", {"note": 7}, None),
    ("refuse", {}, "revert: refused"),
    ("burn", {}, "out of gas: "),
    ("log", {"note": 7, "extra": 1}, "TypeError: "),
    ("missing", {}, "UnknownMethod: "),
])
def test_a_simulation_writes_the_receipt_the_transaction_gets(method, kwargs, error):
    chain = Blockchain()
    alice = chain.create_account("alice", seed="sim-alice")
    spender = alice.deploy(Spender).return_value
    root, nonce = state_root(chain.state), chain.state.nonce_of(alice.address)

    simulated = chain.simulate(alice.address, spender, method, kwargs=kwargs)
    assert (state_root(chain.state), chain.state.nonce_of(alice.address)) == (root, nonce)
    assert not chain.evm.smacs_simulation_mode and chain.evm.tracer is None
    traced = [call.method for call in simulated.trace.calls]
    assert traced == ([] if method == "missing" else [method])

    mined = alice.transact(spender, method, **kwargs)
    assert mined.trace is None
    fields = ("success", "return_value", "error", "gas_used", "gas_breakdown", "logs")
    assert [getattr(simulated, f) for f in fields] == [getattr(mined, f) for f in fields]
    assert mined.success if error is None else mined.error.startswith(error)
    if method == "burn":
        assert mined.gas_used == DEFAULT_GAS_LIMIT  # out of gas bills the whole limit


# --- transactions that used to escape the EVM fail their receipts ---------------------


def test_poison_pills_fail_their_receipts_and_the_block_mines():
    chain = Blockchain()
    alice, bob, carol, dave = (
        chain.create_account(name, seed=f"pill-{name}") for name in ("alice", "bob", "carol", "dave")
    )
    token = alice.deploy(SimpleToken, initial_supply=100).return_value
    chain.auto_mine = False
    pipeline = ExecutionPipeline(chain)
    nowhere = KeyPair.from_seed("pill-nowhere").address
    nonces = {a.address: chain.state.nonce_of(a.address) for a in (alice, bob, carol)}
    dave_balance = chain.balance_of(dave)
    checkpoints = chain.state.active_checkpoints
    txs = [
        _signed(alice, nonces[alice.address], to=dave.address, value=5),
        # (a) a method call to an address with no contract
        _signed(bob, nonces[bob.address], to=nowhere, method="transfer",
                args=(dave.address, 1)),
        # (b) a method call missing an argument
        _signed(carol, nonces[carol.address], to=token.this, method="transfer",
                args=(dave.address,)),
        _signed(alice, nonces[alice.address] + 1, to=dave.address, value=6),
    ]
    assert all(d.admitted for d in pipeline.ingest(txs))

    result = pipeline.run_block()

    assert [r.success for r in result.receipts] == [True, False, False, True]
    assert result.receipts[1].error.startswith("UnknownContract: no contract deployed")
    assert result.receipts[2].error.startswith("TypeError: ")
    assert chain.balance_of(dave) == dave_balance + 11
    assert chain.state.nonce_of(bob.address) == nonces[bob.address] + 1
    assert chain.state.nonce_of(carol.address) == nonces[carol.address] + 1
    assert len(pipeline.mempool) == 0 and chain.pending == []
    assert chain.state.active_checkpoints == checkpoints + 1
    assert issubclass(UnknownContract, ExecutionError)


def test_a_raising_block_executor_leaves_no_plan_behind():
    """A mutable storage value still leaves the EVM; the block it was in
    is undone and its plan is not left queued on the chain a second time."""
    chain = Blockchain()
    alice = chain.create_account("alice", seed="loud-alice")
    bob = chain.create_account("bob", seed="loud-bob")
    counter = alice.deploy(Counter).return_value
    chain.auto_mine = False
    pipeline = ExecutionPipeline(chain)
    nonce = chain.state.nonce_of(alice.address)
    txs = [
        _signed(alice, nonce, to=bob.address, value=5),
        _signed(alice, nonce + 1, to=counter.this, method="keep_list"),
    ]
    assert all(d.admitted for d in pipeline.ingest(txs))
    root, height = state_root(chain.state), chain.height
    with pytest.raises(MutableStorageValue):
        pipeline.run_block()
    assert chain.pending == []
    assert len(pipeline.mempool) == 2
    assert (state_root(chain.state), chain.height) == (root, height)
    assert chain.state.nonce_of(alice.address) == nonce


# --- a block is all or nothing -------------------------------------------------------


def test_a_raising_mine_leaves_the_chain_as_it_was():
    chain = Blockchain(auto_mine=False)
    alice = chain.create_account("alice", funded_with=10, seed="atomic-alice")
    bob = chain.create_account("bob", funded_with=0, seed="atomic-bob")
    carol = chain.create_account("carol", funded_with=0, seed="atomic-carol")
    alice.transfer(bob, 1)
    chain.mine_block()
    chain.state.add_balance(carol.address, 5)  # written between blocks

    alice.transfer(bob, 6)
    alice.transfer(bob, 6)  # each is covered alone; together they overdraw
    before = (
        state_root(chain.state),
        dict(chain.receipts),
        list(chain.pending),
        chain.height,
        chain.touched_since_latest_block(),
        chain.state.active_checkpoints,
        dict(chain.evm.contracts),
    )
    timestamp = chain.timestamp
    with pytest.raises(InsufficientFunds):
        chain.mine_block()
    after = (
        state_root(chain.state),
        dict(chain.receipts),
        list(chain.pending),
        chain.height,
        chain.touched_since_latest_block(),
        chain.state.active_checkpoints,
        dict(chain.evm.contracts),
    )
    assert after == before
    assert chain.balance_of(carol) == 5 and chain.balance_of(bob) == 1
    assert chain.timestamp > timestamp  # the clock never goes back

    chain.pending.pop()  # drop the overdraft; the rest mines
    (receipt,) = chain.mine_block()
    assert receipt.success and chain.balance_of(bob) == 7
    assert chain.latest_block.timestamp == chain.timestamp


# --- a failed deployment leaves no contract behind ------------------------------------------


def test_a_failed_deployment_leaves_no_contract_behind():
    chain = Blockchain()
    alice = chain.create_account("alice", seed="doomed-alice")
    bob = chain.create_account("bob", seed="doomed-bob")
    nonce = chain.state.nonce_of(alice.address)
    address = contract_address(alice.address, nonce + 1)
    expected = chain.state.deep_copy()
    expected.increment_nonce(alice.address)

    receipt = alice.deploy(Doomed, value=3)

    assert not receipt.success and receipt.error == "revert: constructor fails"
    assert address not in chain.evm.contracts
    assert address not in chain.evm.contract_creators
    assert state_root(chain.state) == state_root(expected)
    assert not chain.state.has_account(address)

    # A later plain transfer to that address runs no code.
    assert bob.transfer(address, 2).success
    assert chain.state.storage_slot_count(address) == 0
    assert chain.balance_of(address) == 2
