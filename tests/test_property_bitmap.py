"""Property-based tests (hypothesis) for the Alg. 2 bitmap.

The safety property SMACS needs from the bitmap is: **no one-time index is
ever accepted twice**, regardless of arrival order, gaps or resets.  Misses
(valid tokens rejected) are allowed; double-spends are not.

:func:`repro.core.bitmap.mark_used` runs here over a plain ``dict`` -- the
store the contract's metered storage view stands in for.  It is checked for
state equivalence against the list-of-bits reference model after every step,
its storage for JSON round-trips, and the mempool's read-only
:func:`~repro.core.bitmap.screen` for never refusing what it would accept.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitmap import (
    BITMAP_SIZE_SLOT,
    BITMAP_START_PTR_SLOT,
    BITMAP_START_SLOT,
    BITMAP_WORD_SLOT,
    WORD_BITS,
    ListOfBitsBitmap,
    mark_used,
    screen,
)

pytestmark = pytest.mark.slow  # hypothesis-heavy: the CI slow lane

index_sequences = st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=120)
bitmap_sizes = st.integers(min_value=1, max_value=64)


def _mark(store: dict, index: int) -> bool:
    return mark_used(store, store[BITMAP_SIZE_SLOT], index)


def _start(store: dict) -> int:
    return store.get(BITMAP_START_SLOT, 0)


def _start_ptr(store: dict) -> int:
    return store.get(BITMAP_START_PTR_SLOT, 0)


def _bits(store: dict) -> list:
    return [
        (store.get(BITMAP_WORD_SLOT.format(cell // WORD_BITS), 0) >> (cell % WORD_BITS)) & 1
        for cell in range(store[BITMAP_SIZE_SLOT])
    ]


@given(size=bitmap_sizes, indexes=index_sequences)
@settings(max_examples=200, deadline=None)
def test_no_index_accepted_twice(size, indexes):
    store = {BITMAP_SIZE_SLOT: size}
    accepted = set()
    for index in indexes:
        if _mark(store, index):
            assert index not in accepted
            accepted.add(index)


@given(size=bitmap_sizes, indexes=index_sequences)
@settings(max_examples=200, deadline=None)
def test_window_invariants_hold(size, indexes):
    store = {BITMAP_SIZE_SLOT: size}
    words = (size + WORD_BITS - 1) // WORD_BITS
    for index in indexes:
        _mark(store, index)
        assert 0 <= _start_ptr(store) < size
        # Only the size, the window bookkeeping and the allocated words are
        # ever written, and no word holds a bit past the last cell.
        assert set(store) <= {
            BITMAP_SIZE_SLOT, BITMAP_START_SLOT, BITMAP_START_PTR_SLOT,
            *(BITMAP_WORD_SLOT.format(word) for word in range(words)),
        }
        assert sum(
            store.get(BITMAP_WORD_SLOT.format(word), 0).bit_count() for word in range(words)
        ) == sum(_bits(store))


@given(size=bitmap_sizes, indexes=index_sequences)
@settings(max_examples=150, deadline=None)
def test_window_never_moves_backwards(size, indexes):
    store = {BITMAP_SIZE_SLOT: size}
    previous_start = _start(store)
    for index in indexes:
        _mark(store, index)
        assert _start(store) >= previous_start
        previous_start = _start(store)


@given(size=bitmap_sizes)
@settings(max_examples=50, deadline=None)
def test_sequential_indexes_within_window_are_all_accepted(size):
    """The intended workload (consecutive TS indexes) suffers no misses."""
    store = {BITMAP_SIZE_SLOT: size}
    for index in range(size * 3):
        assert _mark(store, index), f"sequential index {index} was rejected"


@given(size=bitmap_sizes, indexes=index_sequences)
@settings(max_examples=100, deadline=None)
def test_accepted_index_is_marked_if_still_in_window(size, indexes):
    store = {BITMAP_SIZE_SLOT: size}
    for index in indexes:
        if _mark(store, index) and _start(store) <= index < _start(store) + size:
            cell = (_start_ptr(store) + index - _start(store)) % size
            assert _bits(store)[cell] == 1
            assert screen(store, index) == "INDEX_CONSUMED"


@given(size=bitmap_sizes, indexes=index_sequences)
@settings(max_examples=200, deadline=None)
def test_packed_bitmap_equivalent_to_list_of_bits_reference(size, indexes):
    """Storage packing must be unobservable: same decisions, same state."""
    store = {BITMAP_SIZE_SLOT: size}
    reference = ListOfBitsBitmap(size)
    for index in indexes:
        assert _mark(store, index) == reference.mark_used(index), index
        assert _bits(store) == reference.bits
        assert (_start(store), _start_ptr(store)) == (reference.start, reference.start_ptr)


@given(size=bitmap_sizes, indexes=index_sequences)
@settings(max_examples=100, deadline=None)
def test_snapshot_json_round_trip_preserves_behaviour(size, indexes):
    """Persisting the storage slots and restoring them mid-stream must not
    change any decision."""
    split = len(indexes) // 2
    original = {BITMAP_SIZE_SLOT: size}
    for index in indexes[:split]:
        _mark(original, index)

    restored = json.loads(json.dumps(original))
    assert restored == original
    for index in indexes[split:]:
        assert _mark(restored, index) == _mark(original, index)
    assert restored == original


@given(size=bitmap_sizes, indexes=index_sequences)
@settings(max_examples=100, deadline=None)
def test_screen_never_refuses_what_mark_used_accepts(size, indexes):
    """The mempool's screen is conservative: whatever it refuses, the chain's
    check-and-mark refuses too, and screening writes nothing."""
    store = {BITMAP_SIZE_SLOT: size}
    for index in indexes:
        _mark(store, index)
        before = dict(store)
        for probe in range(601):
            refusal = screen(store, probe)
            if refusal is not None:
                assert not _mark(dict(store), probe), (probe, refusal)
        assert store == before
