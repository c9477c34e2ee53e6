"""Unit tests for the journaled WorldState and the EVM dispatch fast path.

The journal must be observationally identical to the copy-on-snapshot
:class:`ReferenceWorldState` it replaced (the hypothesis suite in
``test_property_state_journal.py`` drives random interleavings; here the
deterministic shapes the EVM actually produces are pinned down), plus the
satellite guarantees: reads that create no account, storage that refuses
mutable values, read-only ``storage_of`` views, an ``AccountState.copy``
that shares the (immutable) values, per-class dispatch tables that never
leak across classes, and ``__slots__`` on the per-call records.
"""

import ast
import pathlib

import pytest

from repro.chain import Blockchain
from repro.chain.contract import Contract, external, internal
from repro.chain.evm import (
    CallRecord,
    ExecutionEngine,
    MessageContext,
    StorageAccess,
    _dispatch_table,
)
from repro.chain.state import AccountState, ReferenceWorldState, WorldState
from repro.crypto.keys import KeyPair
from repro.storage.codec import state_root

ADDR_A = KeyPair.from_seed("journal-a").address
ADDR_B = KeyPair.from_seed("journal-b").address

BOTH = pytest.mark.parametrize("state_cls", [WorldState, ReferenceWorldState])


# --- snapshot semantics, identical on both implementations -----------------------


@BOTH
def test_revert_undoes_committed_inner_frame(state_cls):
    """A commit merges into the parent; reverting the parent still undoes it."""
    state = state_cls()
    state.add_balance(ADDR_A, 100)
    outer = state.snapshot()
    state.storage_set(ADDR_A, "k", 1)
    inner = state.snapshot()
    state.storage_set(ADDR_A, "k", 2)
    state.add_balance(ADDR_A, 50)
    state.commit(inner)
    assert state.storage_get(ADDR_A, "k") == 2
    state.revert_to(outer)
    assert state.storage_get(ADDR_A, "k", None) is None
    assert state.balance_of(ADDR_A) == 100


@BOTH
def test_nested_revert_inside_committed_frame(state_cls):
    """Inner revert, further writes, commit, then outer revert (EVM shape)."""
    state = state_cls()
    state.storage_set(ADDR_A, "slot", "genesis")
    outer = state.snapshot()
    frame = state.snapshot()
    state.storage_set(ADDR_A, "slot", "frame")
    inner = state.snapshot()
    state.storage_set(ADDR_A, "slot", "inner")
    state.storage_set(ADDR_B, "new", 1)
    state.revert_to(inner)          # failed sub-call rolls back
    assert state.storage_get(ADDR_A, "slot") == "frame"
    assert not state.has_account(ADDR_B)
    state.storage_set(ADDR_A, "after", True)
    state.commit(frame)             # frame succeeds
    state.revert_to(outer)          # ...but the transaction reverts
    assert state.storage_get(ADDR_A, "slot") == "genesis"
    assert not state.storage_contains(ADDR_A, "after")


@BOTH
def test_reading_an_unknown_address_creates_no_account(state_cls):
    """Only writes create accounts: every read of an unknown address answers
    its default and leaves the state, its journal and its root as they were."""
    state = state_cls()
    state.add_balance(ADDR_B, 1)
    root = state_root(state)
    snap = state.snapshot()
    assert state.balance_of(ADDR_A) == 0
    assert state.nonce_of(ADDR_A) == 0
    assert state.storage_get(ADDR_A, "k", None) is None
    assert not state.storage_contains(ADDR_A, "k")
    assert dict(state.storage_of(ADDR_A)) == {}
    assert state.storage_slot_count(ADDR_A) == 0
    assert not state.has_account(ADDR_A)
    assert list(state.addresses()) == [ADDR_B]
    assert state_root(state) == root
    if state_cls is WorldState:
        assert state.touched_since(snap) == {}
        assert state.journal_records() == 0


def test_reading_unknown_addresses_on_a_mined_chain_leaves_no_delta():
    """The next block's durable delta is what ``touched_since_latest_block``
    reports: reads of addresses nobody wrote must not put them in it."""
    chain = Blockchain()
    alice = chain.create_account("alice")
    alice.deploy(_Pinger)
    assert chain.touched_since_latest_block() == {}
    root = state_root(chain.state)
    for address in (ADDR_A, ADDR_B, b"\x07" * 20):
        assert chain.balance_of(address) == 0
        assert chain.next_nonce(address) == 0
        assert dict(chain.state.storage_of(address)) == {}
        assert not chain.state.has_account(address)
    assert chain.touched_since_latest_block() == {}
    assert state_root(chain.state) == root


@BOTH
def test_storage_delete_and_revert(state_cls):
    state = state_cls()
    state.storage_set(ADDR_A, "k", 7)
    snap = state.snapshot()
    state.storage_delete(ADDR_A, "k")
    assert not state.storage_contains(ADDR_A, "k")
    state.revert_to(snap)
    assert state.storage_get(ADDR_A, "k") == 7


@BOTH
def test_contract_metadata_reverts(state_cls):
    state = state_cls()
    snap = state.snapshot()
    state.set_is_contract(ADDR_A)
    state.set_code_size(ADDR_A, 640)
    assert state.account(ADDR_A).is_contract
    state.revert_to(snap)
    assert not state.has_account(ADDR_A)


@BOTH
def test_snapshot_ids_are_stack_positions(state_cls):
    state = state_cls()
    assert state.snapshot() == 0
    assert state.snapshot() == 1
    state.commit(0)
    assert state.snapshot() == 0  # positions are reused exactly as before
    state.revert_to(0)
    with pytest.raises(ValueError):
        state.revert_to(0)
    with pytest.raises(ValueError):
        state.commit(0)


@BOTH
def test_multi_level_commit_then_outer_revert(state_cls):
    state = state_cls()
    state.add_balance(ADDR_A, 1)
    outer = state.snapshot()
    state.increment_nonce(ADDR_A)
    state.snapshot()
    state.add_balance(ADDR_A, 10)
    state.snapshot()
    state.add_balance(ADDR_A, 100)
    state.commit(1)  # commits *both* inner frames in one call
    assert state.balance_of(ADDR_A) == 111
    state.revert_to(outer)
    assert state.balance_of(ADDR_A) == 1
    assert state.nonce_of(ADDR_A) == 0


# --- journal internals -----------------------------------------------------------


def test_snapshot_is_o1_and_records_grow_with_writes():
    state = WorldState()
    for i in range(50):
        state.add_balance(ADDR_A, 1)  # no checkpoint: nothing journaled
    assert state.journal_records() == 0
    state.snapshot()
    assert state.journal_records() == 0  # O(1): an empty checkpoint
    state.add_balance(ADDR_A, 1)
    state.add_balance(ADDR_A, 1)      # second touch: no new record
    state.storage_set(ADDR_A, "k", 1)
    assert state.journal_records() == 2  # balance + slot (first touch only)


def test_commit_merges_records_into_parent():
    state = WorldState()
    state.add_balance(ADDR_A, 5)
    state.snapshot()
    state.add_balance(ADDR_A, 1)
    child = state.snapshot()
    state.add_balance(ADDR_A, 1)          # key already known to the parent
    state.storage_set(ADDR_B, "s", 1)     # key new to the parent
    state.commit(child)
    assert state.active_checkpoints == 1
    # parent keeps its older balance record, adopts the child's new keys
    state.revert_to(0)
    assert state.balance_of(ADDR_A) == 5
    assert not state.has_account(ADDR_B)


# --- storage_of is read-only ------------------------------------------------------


@BOTH
def test_storage_of_view_is_read_only(state_cls):
    state = state_cls()
    state.storage_set(ADDR_A, "k", 1)
    view = state.storage_of(ADDR_A)
    assert view["k"] == 1
    with pytest.raises(TypeError):
        view["k"] = 2
    with pytest.raises((TypeError, AttributeError)):
        view.pop("k")
    # ...but it is a live view of the underlying storage.
    state.storage_set(ADDR_A, "k2", 2)
    assert view["k2"] == 2


# --- storage holds only immutable values ----------------------------------------------


@BOTH
@pytest.mark.parametrize(
    "value",
    [[1, 2], {"a": 1}, {1}, bytearray(b"x"), (1, [2])],
    ids=["list", "dict", "set", "bytearray", "tuple-holding-a-list"],
)
def test_storage_set_refuses_mutable_values(state_cls, value):
    state = state_cls()
    state.storage_set(ADDR_A, "k", 7)
    state.snapshot()
    with pytest.raises(TypeError):
        state.storage_set(ADDR_A, "k", value)
    with pytest.raises(TypeError):
        state.storage_set(ADDR_B, "k", value)
    assert state.storage_get(ADDR_A, "k") == 7
    assert not state.has_account(ADDR_B)
    if state_cls is WorldState:
        assert state.journal_records() == 0


@BOTH
@pytest.mark.parametrize(
    "value",
    [(1, ("a", (b"b", None)), 2.5, True), frozenset({1, "x"}), None],
    ids=["nested-tuple", "frozenset", "none"],
)
def test_storage_set_accepts_immutable_values(state_cls, value):
    state = state_cls()
    snap = state.snapshot()
    state.storage_set(ADDR_A, "k", value)
    assert state.storage_get(ADDR_A, "k", "absent") is value
    state.revert_to(snap)
    assert not state.storage_contains(ADDR_A, "k")


class _ListKeeper(Contract):
    @external
    def keep(self) -> None:
        self.storage["count"] = 1
        self.storage["box"] = [1, 2]


def test_a_contract_storing_a_list_raises_instead_of_failing_its_receipt():
    """A ``ValueError`` would become a failed receipt; a contract that stores
    a list has a programming error, so the ``TypeError`` leaves the EVM --
    after the transaction's writes and nonce bump are undone."""
    chain = Blockchain()
    alice = chain.create_account("alice")
    keeper = alice.deploy(_ListKeeper).return_value
    nonce = chain.state.nonce_of(alice.address)
    checkpoints = chain.state.active_checkpoints
    root = state_root(chain.state)
    with pytest.raises(TypeError, match="immutable"):
        alice.transact(keeper, "keep")
    assert chain.state.nonce_of(alice.address) == nonce
    assert chain.state.active_checkpoints == checkpoints
    assert not chain.state.storage_contains(keeper.this, "count")
    assert chain.touched_since_latest_block() == {}
    assert state_root(chain.state) == root


# --- AccountState.copy / deep_copy -------------------------------------------------


def test_account_copy_shares_immutable_values():
    record = AccountState(balance=3, nonce=1, is_contract=True, code_size=9, storage={
        "int": 42,
        "bytes": b"\x01" * 32,
        "tuple": (1, (b"x", "y")),
    })
    clone = record.copy()
    assert clone == record
    for slot, value in record.storage.items():
        assert clone.storage[slot] is value
    # The storage dict itself is the copy's own.
    clone.storage["new"] = 1
    assert "new" not in record.storage


@BOTH
def test_deep_copy_still_fully_independent(state_cls):
    state = state_cls()
    state.add_balance(ADDR_A, 7)
    state.storage_set(ADDR_A, "x", (1, 2))
    clone = state.deep_copy()
    assert type(clone) is state_cls
    clone.add_balance(ADDR_A, 1)
    clone.storage_set(ADDR_A, "x", (1, 2, 3))
    clone.storage_set(ADDR_B, "y", 1)
    assert state.balance_of(ADDR_A) == 7
    assert state.storage_get(ADDR_A, "x") == (1, 2)
    assert not state.has_account(ADDR_B)


# --- __slots__ on the per-call records ---------------------------------------------


@pytest.mark.parametrize("instance", [
    AccountState(),
    MessageContext(sender=b"\x00" * 20, value=0, data=b"", sig=b"\x00" * 4),
    StorageAccess(depth=0, frame=0, address=b"\x00" * 20, slot="s", is_write=False),
    CallRecord(index=0, depth=0, sender=b"\x00" * 20, target=b"\x01" * 20,
               method="m", args=(), value=0),
])
def test_per_call_records_have_slots(instance):
    assert not hasattr(instance, "__dict__")
    with pytest.raises(AttributeError):
        instance.not_a_field = 1


# --- per-class dispatch tables ------------------------------------------------------


class _Pinger(Contract):
    @external
    def ping(self) -> str:
        return "ping"

    @internal
    def _helper(self) -> None:  # pragma: no cover - never dispatched
        pass


class _Quieter(Contract):
    @external
    def hush(self) -> str:
        return "hush"


class _LoudPinger(_Pinger):
    @external
    def shout(self) -> str:
        return "PING"


def test_dispatch_cache_is_not_polluted_across_classes():
    chain = Blockchain()
    alice = chain.create_account("alice")
    pinger = alice.deploy(_Pinger).return_value
    assert alice.transact(pinger, "ping").return_value == "ping"

    # A class registered *after* another's table was built sees only its own
    # methods -- and vice versa.
    quieter = alice.deploy(_Quieter).return_value
    receipt = alice.transact(quieter, "ping")
    assert not receipt.success
    assert "UnknownMethod" in receipt.error
    assert alice.transact(quieter, "hush").return_value == "hush"
    assert alice.transact(pinger, "hush").success is False

    assert "ping" not in _dispatch_table(_Quieter)
    assert "hush" not in _dispatch_table(_Pinger)


def test_dispatch_cache_subclass_gets_its_own_table():
    assert set(_dispatch_table(_Pinger)) == {"ping", "_helper"}
    # The subclass table includes inherited + own methods...
    assert {"ping", "shout"} <= set(_dispatch_table(_LoudPinger))
    # ...without the base class table growing the subclass's additions.
    assert "shout" not in _dispatch_table(_Pinger)


def test_dispatchable_method_count_excludes_internals():
    engine = ExecutionEngine()
    assert engine._dispatchable_methods(_Pinger()) == ["ping"]


# --- touched_since (the durability layer's block-delta source) --------------------


def test_touched_since_aggregates_slots_and_scalars():
    state = WorldState()
    state.storage_set(ADDR_A, "pre", 1)
    snap = state.snapshot()
    state.storage_set(ADDR_A, "x", 1)
    inner = state.snapshot()
    state.storage_set(ADDR_A, "y", 2)
    state.add_balance(ADDR_B, 5)
    state.commit(inner)
    touched = state.touched_since(snap)
    assert touched[ADDR_A] == {"x", "y"}
    assert touched[ADDR_B] == set()  # scalar-only touch
    assert "pre" not in touched[ADDR_A]
    state.commit(snap)


def test_touched_since_rejects_foreign_snapshot_ids():
    state = WorldState()
    with pytest.raises(ValueError):
        state.touched_since(42)


def test_worldstate_discard_account_requires_closed_journal():
    state = WorldState()
    state.add_balance(ADDR_A, 1)
    snap = state.snapshot()
    with pytest.raises(RuntimeError):
        state.discard_account(ADDR_A)
    state.commit(snap)
    state.discard_account(ADDR_A)
    assert not state.has_account(ADDR_A)


def test_worldstate_install_account_refuses_mutable_storage():
    """Recovery installs whole records; their storage obeys the same rule
    as :meth:`storage_set`, so the journal never holds a mutable value."""
    state = WorldState()
    with pytest.raises(TypeError, match="immutable"):
        state.install_account(ADDR_A, AccountState(storage={"ok": (1, 2), "box": [1]}))
    assert not state.has_account(ADDR_A)
    record = AccountState(balance=5, storage={"ok": (1, 2)})
    state.install_account(ADDR_A, record)
    assert state.account(ADDR_A) is record


# --- guards: one write path, no environment switch ------------------------------------

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

WRITE_METHODS = {
    "set_balance", "add_balance", "sub_balance", "increment_nonce", "set_nonce",
    "set_is_contract", "set_code_size", "storage_set", "storage_delete",
}


def test_no_src_module_reads_the_environment():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                name = node.attr
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                name = next((a.name for a in node.names if a.name in ("environ", "getenv")), None)
            else:
                continue
            if name:
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}:{name}")
    assert offenders == []


def test_each_account_write_is_implemented_once():
    """The writes live on ``_AccountStore``; the state classes only hook them."""
    path = SRC / "repro" / "chain" / "state.py"
    defined = {
        node.name: {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    }
    assert WRITE_METHODS <= defined["_AccountStore"]
    assert defined["WorldState"] & WRITE_METHODS == set()
    assert defined["ReferenceWorldState"] & WRITE_METHODS == set()
