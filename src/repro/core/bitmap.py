"""The one Alg. 2: the cyclically reused one-time-token bitmap (§IV-C).

The Token Service assigns consecutive ``index`` values to one-time tokens.
The contract cannot afford to store every spent index, so SMACS represents a
sliding window of ``n`` consecutive indexes as an ``n``-bit map together with
the state tuple ``(S, start, startPtr, end, endPtr)``:

* ``start`` / ``end = start + n - 1`` -- the index window currently covered;
* ``startPtr`` / ``endPtr = (startPtr + n - 1) mod n`` -- where the window
  begins inside the circular bit array;
* a token with index ``i`` is *unused* iff it falls in the window and its bit
  is 0, or it lies above the window (which then slides forward).

Sliding the window forgets the status of indexes that fall behind ``start``;
tokens holding such indexes are rejected even if never used -- the paper
calls this a *token miss* and sizes the bitmap as
``token_lifetime × max_tx_per_second`` bits to avoid it (§IV-C, Tab. IV).

This module is the one home of the bitmap's storage layout -- the size,
``start`` and ``startPtr`` slots and the bit array packed 256 bits per
storage word -- and of its algorithm.  :func:`mark_used` runs the
check-and-mark over any mapping with ``get(slot, default)`` and
``__setitem__``: :class:`repro.core.smacs_contract.SMACSContract` hands it
the contract's gas-metered storage view, tests a plain ``dict``.
:func:`screen` is its read-only half, which the mempool runs over the world
state.  :class:`ListOfBitsBitmap` is the executable specification both are
tested against.

Three faithful notes on Alg. 2 as printed:

* the reset branch (``i > end + n``) does not mark index ``i`` as used in the
  pseudo-code; that would let the very token that triggered the reset be
  replayed once, so this implementation sets its bit (the evident intent);
* ``seek()`` may find no suitable cell (every candidate bit is stale-1); the
  paper leaves this case implicit and we fall back to the reset branch;
* when ``seek()`` skips past stale-1 cells (returns ``j`` beyond
  ``startPtr + (i - end)``), the pseudo-code keeps ``start = i - n + 1`` while
  moving ``startPtr`` to ``j``.  That desynchronises the circular mapping:
  indexes that remain inside the window change cells, so an already-used
  index can land on a clear cell and be accepted twice.  This implementation
  slides ``start`` by the full seek distance as well, keeping the
  index-to-cell mapping consistent (the window then overshoots ``i`` by the
  number of skipped stale cells, which only ever turns double-spends into
  misses).

All three notes are covered by dedicated unit and property tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any

WORD_BITS = 256  # one 32-byte storage slot worth of bits per packed word
_FULL_WORD = (1 << WORD_BITS) - 1

# The storage layout of the Alg. 2 state tuple.
BITMAP_SIZE_SLOT = "smacs/bitmap/size"
BITMAP_START_SLOT = "smacs/bitmap/start"
BITMAP_START_PTR_SLOT = "smacs/bitmap/start_ptr"
BITMAP_WORD_SLOT = "smacs/bitmap/word/{}"


def _word(store: Any, word_index: int) -> int:
    return store.get(BITMAP_WORD_SLOT.format(word_index), 0)


def _get_bit(store: Any, cell: int) -> int:
    return (_word(store, cell // WORD_BITS) >> (cell % WORD_BITS)) & 1


def _set_bit(store: Any, cell: int) -> None:
    word_index = cell // WORD_BITS
    word = _word(store, word_index)
    store[BITMAP_WORD_SLOT.format(word_index)] = word | (1 << (cell % WORD_BITS))


def _seek(store: Any, size: int, start_ptr: int, shift: int) -> int | None:
    """The paper's ``seek``: the smallest clear cell ``j`` with
    ``j - startPtr >= shift``, or ``None`` when there is none.

    Scans one 256-bit word at a time (one read per word) and finds the clear
    bit with integer ops, instead of reading once per candidate cell.
    """
    low = start_ptr + shift
    if low >= size:
        return None
    for word_index in range(low // WORD_BITS, (size - 1) // WORD_BITS + 1):
        free = ~_word(store, word_index) & _FULL_WORD
        base = word_index * WORD_BITS
        if base < low:
            free &= _FULL_WORD ^ ((1 << (low - base)) - 1)
        if base + WORD_BITS > size:
            free &= (1 << (size - base)) - 1
        if free:
            return base + (free & -free).bit_length() - 1
    return None


def mark_used(store: Any, size: int, index: int) -> bool:
    """Check-and-mark one-time ``index`` against the bitmap held in ``store``.

    ``size`` is the value of :data:`BITMAP_SIZE_SLOT`, read by the caller
    (the contract charges its logic gas between that read and this call).
    Returns ``True`` when the index was unused and is now marked; ``False``
    when it was already used or missed by a window slide.  Every read and
    write goes through ``store``, in the order the contract's gas is
    calibrated to.
    """
    start = store.get(BITMAP_START_SLOT, 0)
    start_ptr = store.get(BITMAP_START_PTR_SLOT, 0)
    end = start + size - 1

    if index < start:
        return False

    if index <= end:
        cell = (start_ptr + index - start) % size
        if _get_bit(store, cell):
            return False
        _set_bit(store, cell)
        # The paper's Solidity contract rewrites the window bookkeeping on
        # every successful one-time access; keep the same storage traffic.
        store[BITMAP_START_SLOT] = start
        store[BITMAP_START_PTR_SLOT] = start_ptr
        return True

    if index <= end + size:
        shift = index - end
        new_start_ptr = _seek(store, size, start_ptr, shift)
        if new_start_ptr is None:
            return _reset(store, size, index)
        # Slide `start` by the same distance as `startPtr` so surviving
        # window entries keep their cells; `index`'s own cell is the one just
        # below the seek floor and is set unconditionally (it lies above the
        # old window, so it was never accepted).  The safety fix over the
        # printed Alg. 2 (see the module docstring).
        extra = new_start_ptr - (start_ptr + shift)
        _set_bit(store, (start_ptr + shift - 1) % size)
        store[BITMAP_START_SLOT] = index - size + 1 + extra
        store[BITMAP_START_PTR_SLOT] = new_start_ptr
        return True

    return _reset(store, size, index)


def _reset(store: Any, size: int, index: int) -> bool:
    for word_index in range(bitmap_storage_slots(size)):
        store[BITMAP_WORD_SLOT.format(word_index)] = 0
    store[BITMAP_START_SLOT] = index
    store[BITMAP_START_PTR_SLOT] = 0
    # Mark the triggering index as used (see the module docstring).
    _set_bit(store, 0)
    return True


def screen(store: Any, index: int) -> str | None:
    """Why :func:`mark_used` would certainly refuse ``index``, without writing.

    Returns ``"NO_BITMAP"`` (no size stored), ``"INDEX_BEHIND_WINDOW"`` (a
    token miss) or ``"INDEX_CONSUMED"`` (its bit is set), or ``None`` when
    the index may still be accepted: an index above the window is, since the
    window will slide.  A refusal here is always a refusal by
    :func:`mark_used` on the same store.
    """
    size = store.get(BITMAP_SIZE_SLOT, 0)
    if not size:
        return "NO_BITMAP"
    start = store.get(BITMAP_START_SLOT, 0)
    if index < start:
        return "INDEX_BEHIND_WINDOW"
    if index < start + size:
        cell = (store.get(BITMAP_START_PTR_SLOT, 0) + index - start) % size
        if _get_bit(store, cell):
            return "INDEX_CONSUMED"
    return None


class ListOfBitsBitmap:
    """Plain list-of-bits Alg. 2 model: the executable specification.

    The property suites assert that :func:`mark_used` over a storage mapping
    takes the same decisions and leaves the same bits and ``(start,
    startPtr)`` as this model over random index streams, and the on-chain
    equivalence test holds the deployed contract to it.  Semantics
    (including the window-slide consistency fix) must match exactly; only
    the storage differs.
    """

    __slots__ = ("size", "bits", "start", "start_ptr")

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("bitmap size must be positive")
        self.size = size
        self.bits = [0] * size
        self.start = 0
        self.start_ptr = 0

    @property
    def end(self) -> int:
        return self.start + self.size - 1

    def _seek(self, index: int) -> "int | None":
        for j in range(self.start_ptr + index - self.end, self.size):
            if self.bits[j] == 0:
                return j
        return None

    def _reset(self, index: int) -> bool:
        self.bits = [0] * self.size
        self.start_ptr = 0
        self.start = index
        self.bits[0] = 1
        return True

    def mark_used(self, index: int) -> bool:
        if index < 0:
            raise ValueError("one-time indexes are non-negative")
        if index < self.start:
            return False
        end = self.end
        if index <= end:
            cell = (self.start_ptr + index - self.start) % self.size
            if self.bits[cell]:
                return False
            self.bits[cell] = 1
            return True
        if index <= end + self.size:
            shift = index - end
            j = self._seek(index)
            if j is None:
                return self._reset(index)
            extra = j - (self.start_ptr + shift)
            self.bits[(self.start_ptr + shift - 1) % self.size] = 1
            self.start_ptr = j
            self.start = index - self.size + 1 + extra
            return True
        return self._reset(index)


def required_bitmap_bits(token_lifetime_seconds: float, max_tx_per_second: float) -> int:
    """Size the bitmap so no unexpired token can be missed (§IV-C).

    The smallest whole number of bits covering ``token_lifetime ×
    max_tx_per_second``, and at least one.  The product is taken over the
    decimal values as written, so float noise (``3600 × 1.1`` evaluates a
    hair above 3960) does not round a whole product up by one bit.
    """
    product = Fraction(str(token_lifetime_seconds)) * Fraction(str(max_tx_per_second))
    return max(math.ceil(product), 1)


def bitmap_storage_bytes(bits: int) -> float:
    """Bitmap size in bytes."""
    return bits / 8


def bitmap_storage_slots(bits: int) -> int:
    """Number of 256-bit storage words needed to hold the bitmap."""
    return (bits + WORD_BITS - 1) // WORD_BITS
