"""Unit tests for the one-time-token bitmap (Alg. 2), including the paper's
worked example, plus sizing helpers (§IV-C).

Alg. 2 runs over a plain ``dict`` here: the same function the contract runs
over its gas-metered storage view."""

import ast
import pathlib
import re

import pytest

from repro.core.bitmap import (
    BITMAP_SIZE_SLOT,
    BITMAP_START_PTR_SLOT,
    BITMAP_START_SLOT,
    BITMAP_WORD_SLOT,
    WORD_BITS,
    bitmap_storage_bytes,
    bitmap_storage_slots,
    mark_used,
    required_bitmap_bits,
    screen,
)


def fresh(size: int) -> dict:
    """A newly deployed bitmap: only the size is stored, the rest reads 0."""
    return {BITMAP_SIZE_SLOT: size}


def mark(store: dict, index: int) -> bool:
    return mark_used(store, store[BITMAP_SIZE_SLOT], index)


def window(store: dict) -> tuple:
    """``(start, end, startPtr, endPtr)`` of the stored state tuple."""
    size = store[BITMAP_SIZE_SLOT]
    start = store.get(BITMAP_START_SLOT, 0)
    start_ptr = store.get(BITMAP_START_PTR_SLOT, 0)
    return start, start + size - 1, start_ptr, (start_ptr + size - 1) % size


def bits(store: dict) -> list:
    return [
        (store.get(BITMAP_WORD_SLOT.format(cell // WORD_BITS), 0) >> (cell % WORD_BITS)) & 1
        for cell in range(store[BITMAP_SIZE_SLOT])
    ]


def test_initial_state_matches_algorithm_2():
    bitmap = fresh(8)
    assert window(bitmap) == (0, 7, 0, 7)
    assert bits(bitmap) == [0] * 8


def test_paper_worked_example_step_by_step():
    """Reproduces the running example of §IV-C exactly."""
    bitmap = fresh(8)

    # Tokens 0, 1, 4, 5 access the contract.
    for index in (0, 1, 4, 5):
        assert mark(bitmap, index)
    assert bits(bitmap) == [1, 1, 0, 0, 1, 1, 0, 0]

    # Token 9 arrives: seek() returns 2, endPtr becomes 1, window [2, 9].
    assert mark(bitmap, 9)
    assert window(bitmap) == (2, 9, 2, 1)

    # Token 13 arrives: window slides to [6, 13], startPtr 6, endPtr 5.
    assert mark(bitmap, 13)
    assert window(bitmap) == (6, 13, 6, 5)


def test_double_use_rejected():
    bitmap = fresh(8)
    assert mark(bitmap, 3)
    assert not mark(bitmap, 3)


def test_index_below_window_is_a_miss():
    bitmap = fresh(4)
    assert mark(bitmap, 7)  # slides window to [4, 7]
    assert not mark(bitmap, 2)
    assert not mark(bitmap, 3)


def test_token_miss_from_stale_bits_after_slide():
    """After the paper's example, index 8 maps to a stale 1-bit and is missed."""
    bitmap = fresh(8)
    for index in (0, 1, 4, 5, 9):
        assert mark(bitmap, index)
    # Index 8 was never used, but its cell is S[0] = 1 (stale from index 0).
    assert not mark(bitmap, 8)
    # Index 6 is still in the window with a clear cell.
    assert mark(bitmap, 6)


def test_far_future_index_resets_bitmap():
    bitmap = fresh(8)
    assert mark(bitmap, 1)
    assert mark(bitmap, 100)  # > end + n: reset branch
    assert window(bitmap)[:3] == (100, 107, 0)
    # The triggering index itself must not be reusable (paper omission fixed).
    assert not mark(bitmap, 100)
    assert mark(bitmap, 101)


def test_seek_with_no_free_cell_falls_back_to_reset():
    bitmap = fresh(4)
    for index in range(4):
        assert mark(bitmap, index)
    # Window is full of 1s; the slide branch cannot find a clear cell.
    assert mark(bitmap, 5)
    assert window(bitmap)[0] == 5
    assert not mark(bitmap, 5)


def test_no_index_is_ever_accepted_twice_under_mixed_workload():
    bitmap = fresh(16)
    accepted: set[int] = set()
    pattern = [0, 3, 1, 17, 18, 2, 30, 31, 16, 90, 91, 95, 90, 3, 17]
    for index in pattern:
        if mark(bitmap, index):
            assert index not in accepted, f"index {index} accepted twice"
            accepted.add(index)
    assert accepted  # sanity: something was accepted


def test_negative_index_rejected():
    bitmap = fresh(8)
    before = dict(bitmap)
    assert not mark(bitmap, -1)
    assert bitmap == before


def test_the_window_spans_several_storage_words():
    bitmap = fresh(600)
    for index in range(300):
        assert mark(bitmap, index)
    assert bits(bitmap) == [1] * 300 + [0] * 300
    assert {BITMAP_WORD_SLOT.format(word) for word in (0, 1)} <= set(bitmap)
    # The slide's seek runs from cell 2 across the word boundary to cell 300,
    # the first clear one, and the window moves by that full distance.
    assert mark(bitmap, 601)
    assert window(bitmap)[:3] == (300, 899, 300)
    assert not mark(bitmap, 601)


# --- the read-only screen ----------------------------------------------------------


def test_screen_names_each_certain_refusal_and_writes_nothing():
    assert screen({}, 0) == "NO_BITMAP"
    bitmap = fresh(4)
    for index in (0, 1, 5):  # 5 slides the window to [2, 5]
        assert mark(bitmap, index)
    before = dict(bitmap)
    assert screen(bitmap, 1) == "INDEX_BEHIND_WINDOW"
    assert screen(bitmap, 5) == "INDEX_CONSUMED"
    assert screen(bitmap, 3) is None  # in the window, clear
    assert screen(bitmap, 7) is None  # above the window: it will slide
    assert bitmap == before


# --- sizing (§IV-C, Tab. IV) ----------------------------------------------------------


def test_required_bits_formula_matches_paper():
    # 1-hour lifetime at 35 tx/s -> 126 000 bits = 15.38 KiB (Tab. IV).
    bits = required_bitmap_bits(3600, 35)
    assert bits == 126_000
    assert bitmap_storage_bytes(bits) == pytest.approx(15_750)
    assert bitmap_storage_bytes(bits) / 1024 == pytest.approx(15.38, abs=0.01)


def test_required_bits_scales_linearly_with_rate():
    assert required_bitmap_bits(3600, 3.5) == 12_600
    assert required_bitmap_bits(3600, 0.35) == 1_260


def test_required_bits_is_at_least_one():
    assert required_bitmap_bits(1, 0.0001) == 1


def test_required_bits_round_a_fractional_product_up():
    # A fractional product needs the next whole bit, not the nearest one.
    assert required_bitmap_bits(5, 0.5) == 3
    assert required_bitmap_bits(1, 1.4) == 2


def test_required_bits_ignore_float_noise_in_a_whole_product():
    # 3600 * 1.1 and 3600 * 0.07 evaluate a hair above 3960 and 252.
    assert required_bitmap_bits(3600, 1.1) == 3960
    assert required_bitmap_bits(3600, 0.07) == 252


def test_storage_slots_round_up_to_256_bit_words():
    assert bitmap_storage_slots(1) == 1
    assert bitmap_storage_slots(256) == 1
    assert bitmap_storage_slots(257) == 2
    assert bitmap_storage_slots(126_000) == 493


# --- one home for the layout -------------------------------------------------------

_LAYOUT_NAME = re.compile(r"_?[A-Z_]*WORD_BITS|BITMAP_[A-Z_]*SLOT")


def _assigned_names(node: ast.AST):
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            yield from _assigned_names(element)


def test_only_the_bitmap_module_defines_the_storage_layout():
    """The slot names and the 256-bit word are declared in ``core/bitmap.py``
    alone; every other module imports them."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    home = src / "repro" / "core" / "bitmap.py"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if path == home:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                offenders += [
                    f"{path.relative_to(src)}:{node.lineno}:{name}"
                    for name in _assigned_names(target)
                    if _LAYOUT_NAME.fullmatch(name)
                ]
    assert offenders == []
