"""The slot-granular state commitment: incremental == full, at O(touched) cost.

Two properties of :class:`~repro.storage.codec.StateRootTracker` are pinned
here, neither by a clock:

* **differential** -- whatever sequence of slot writes, rewrites, deletes,
  re-creations, scalar-only touches and account removals a state goes
  through, the tracker's root after each ``update`` equals the independent
  full recompute ``state_root(state)``;
* **cost** -- folding one touched slot in takes the same number of
  ``sha256`` and ``encode_value`` calls whether the account holds ten slots
  or ten thousand.
"""

from hypothesis import given, settings, strategies as st

from repro.chain.state import WorldState
from repro.storage import StateRootTracker, state_root
from repro.storage import codec

ADDRESSES = [bytes([n]) * 20 for n in (1, 2, 3)]

# Slot and value shapes the contracts in this repository actually store.
_slots = st.one_of(
    st.sampled_from(["total", "entries", "owner"]),
    st.integers(min_value=0, max_value=5),
    st.tuples(st.just("record"), st.integers(min_value=0, max_value=5)),
)
_values = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([b"", b"\x11" * 20, "memo", None, True]),
    st.tuples(st.binary(max_size=4), st.integers(min_value=0, max_value=9), st.text(max_size=3)),
)
_address = st.sampled_from(ADDRESSES)
_write = st.one_of(
    st.tuples(st.just("set"), _address, _slots, _values),
    st.tuples(st.just("rewrite"), _address, _slots),
    st.tuples(st.just("delete"), _address, _slots),
    st.tuples(st.just("recreate"), _address, _slots, _values),
    st.tuples(st.just("scalar"), _address),
)
# One update per step: a block's worth of writes, or one account removal
# (``discard_account`` is a recovery-only operation and never shares a delta
# entry with writes to the same account).
_step = st.one_of(
    st.lists(_write, min_size=1, max_size=5),
    st.tuples(st.just("discard"), _address).map(lambda op: [op]),
)


def _apply(state: WorldState, op: tuple, touched: dict) -> None:
    kind, addr = op[0], op[1]
    slots = touched.setdefault(addr, set())
    if kind == "set":
        state.storage_set(addr, op[2], op[3])
        slots.add(op[2])
    elif kind == "rewrite":  # a write that changes nothing still journals the slot
        if state.storage_contains(addr, op[2]):
            state.storage_set(addr, op[2], state.storage_get(addr, op[2]))
        slots.add(op[2])
    elif kind == "delete":
        state.storage_delete(addr, op[2])
        slots.add(op[2])
    elif kind == "recreate":
        state.storage_delete(addr, op[2])
        state.storage_set(addr, op[2], op[3])
        slots.add(op[2])
    elif kind == "scalar":
        state.add_balance(addr, 7)
        state.increment_nonce(addr)
    else:
        state.discard_account(addr)


@given(steps=st.lists(_step, min_size=1, max_size=25))
@settings(max_examples=150, deadline=None)
def test_incremental_root_equals_full_recompute_after_every_update(steps):
    state = WorldState()
    tracker = StateRootTracker.from_state(state)
    for step in steps:
        touched: dict = {}
        for op in step:
            _apply(state, op, touched)
        tracker.update(state, touched)
        assert tracker.root == state_root(state)
        assert len(tracker) == len(list(state.addresses()))
    assert StateRootTracker.from_state(state).root == tracker.root


def _touch_one_slot_and_count(monkeypatch, slots: int) -> tuple[int, int]:
    addr = ADDRESSES[0]
    state = WorldState()
    for n in range(slots):
        state.storage_set(addr, ("record", n), (addr, n, "memo"))
    tracker = StateRootTracker.from_state(state)
    state.storage_set(addr, ("record", 3), (addr, 99, "changed"))

    calls = {"sha256": 0, "encode_value": 0}

    def counting(name):
        original = getattr(codec, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(codec, "sha256", counting("sha256"))
        patch.setattr(codec, "encode_value", counting("encode_value"))
        tracker.update(state, {addr: {("record", 3)}})
        root = tracker.root
    assert root == state_root(state)
    return calls["sha256"], calls["encode_value"]


def test_one_touched_slot_costs_the_same_on_a_small_and_a_huge_account(monkeypatch):
    small = _touch_one_slot_and_count(monkeypatch, 10)
    huge = _touch_one_slot_and_count(monkeypatch, 10_000)
    assert small == huge
    # the slot, the account header over the accumulator, the root
    assert small == (3, 3)
