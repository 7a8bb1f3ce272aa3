"""Unit tests for the slotted page layer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BadSlotError, PageFullError
from repro.storage.pages import _HEADER, MAX_RECORD_PAYLOAD, PAGE_SIZE, SlottedPage


def test_new_page_is_empty():
    page = SlottedPage()
    assert page.num_slots == 0
    assert list(page.records()) == []


def test_insert_and_read_roundtrip():
    page = SlottedPage()
    slot = page.insert(b"hello")
    assert page.record(slot) == b"hello"
    assert dict(page.records()) == {slot: b"hello"}


def test_insert_returns_sequential_slots():
    page = SlottedPage()
    slots = [page.insert(f"rec{i}".encode()) for i in range(5)]
    assert slots == [0, 1, 2, 3, 4]


def test_insert_empty_payload():
    page = SlottedPage()
    slot = page.insert(b"")
    assert page.record(slot) == b""
    assert page.record(slot) is not None


def test_record_of_bad_slot_is_none():
    page = SlottedPage()
    assert page.record(0) is None


def test_record_of_deleted_slot_is_none():
    page = SlottedPage()
    a = page.insert(b"a")
    page.insert(b"b")
    page.delete(a)
    assert page.record(a) is None


def test_delete_frees_slot_for_reuse():
    page = SlottedPage()
    a = page.insert(b"a")
    page.insert(b"b")
    page.delete(a)
    c = page.insert(b"c")
    assert c == a  # the emptied slot is reused
    assert page.record(c) == b"c"


def test_delete_trailing_slot_shrinks_directory():
    page = SlottedPage()
    page.insert(b"a")
    b = page.insert(b"b")
    page.delete(b)
    assert page.num_slots == 1


def test_double_delete_raises():
    page = SlottedPage()
    slot = page.insert(b"x")
    page.delete(slot)
    # Slot 0 was trailing, so the directory shrank; deleting again is
    # out-of-range.
    with pytest.raises(BadSlotError):
        page.delete(slot)


def test_update_in_place_smaller():
    page = SlottedPage()
    slot = page.insert(b"long payload")
    page.update(slot, b"tiny")
    assert page.record(slot) == b"tiny"


def test_update_grows_within_page():
    page = SlottedPage()
    slot = page.insert(b"aa")
    page.update(slot, b"b" * 100)
    assert page.record(slot) == b"b" * 100


def test_update_keeps_other_records():
    page = SlottedPage()
    a = page.insert(b"alpha")
    b = page.insert(b"beta")
    page.update(a, b"ALPHA-PRIME")
    assert page.record(b) == b"beta"
    assert page.record(a) == b"ALPHA-PRIME"


def test_update_to_empty():
    page = SlottedPage()
    slot = page.insert(b"data")
    page.update(slot, b"")
    assert page.record(slot) == b""


def test_update_grow_after_fragmentation_compacts():
    page = SlottedPage()
    big = MAX_RECORD_PAYLOAD // 3
    a = page.insert(b"a" * big)
    b = page.insert(b"b" * big)
    page.delete(a)
    # b can now grow into a's abandoned space only after compaction.
    page.update(b, b"c" * (2 * big))
    assert page.record(b) == b"c" * (2 * big)


def test_insert_too_large_raises():
    page = SlottedPage()
    with pytest.raises(PageFullError):
        page.insert(b"x" * (MAX_RECORD_PAYLOAD + 1))


def test_page_fills_up():
    page = SlottedPage()
    payload = b"y" * 100
    count = 0
    while page.can_insert(len(payload)):
        page.insert(payload)
        count += 1
    assert count > 30  # 4 KiB / ~104 bytes
    with pytest.raises(PageFullError):
        page.insert(payload)


def test_max_record_exactly_fits():
    page = SlottedPage()
    slot = page.insert(b"z" * MAX_RECORD_PAYLOAD)
    assert len(page.record(slot)) == MAX_RECORD_PAYLOAD


def test_compact_reclaims_holes():
    page = SlottedPage()
    slots = [page.insert(b"p" * 200) for _ in range(10)]
    for slot in slots[::2]:
        page.delete(slot)
    before = page.free_space
    page.compact()
    assert page.free_space >= before
    # Survivors unchanged.
    for slot in slots[1::2]:
        assert page.record(slot) == b"p" * 200


def test_records_iterates_live_only():
    page = SlottedPage()
    a = page.insert(b"a")
    b = page.insert(b"b")
    c = page.insert(b"c")
    page.delete(b)
    assert [(s, p) for s, p in page.records()] == [(a, b"a"), (c, b"c")]


def test_raw_roundtrip_through_bytes():
    page = SlottedPage()
    slot = page.insert(b"persisted")
    image = page.raw()
    assert len(image) == PAGE_SIZE
    restored = SlottedPage(bytearray(image))
    assert restored.record(slot) == b"persisted"


def test_zeroed_buffer_formats_itself():
    page = SlottedPage(bytearray(PAGE_SIZE))
    assert page.num_slots == 0
    slot = page.insert(b"first")
    assert page.record(slot) == b"first"


def test_wrong_buffer_size_rejected():
    with pytest.raises(ValueError):
        SlottedPage(bytearray(100))


def test_flags_roundtrip():
    page = SlottedPage()
    page.flags = 0xBEEF
    assert page.flags == 0xBEEF
    restored = SlottedPage(bytearray(page.raw()))
    assert restored.flags == 0xBEEF


def test_flags_survive_record_ops():
    page = SlottedPage()
    page.flags = 7
    slot = page.insert(b"data")
    page.update(slot, b"other")
    page.delete(slot)
    page.compact()
    assert page.flags == 7


def test_insert_at_specific_slot():
    page = SlottedPage()
    page.insert_at(3, b"late")
    assert page.record(3) == b"late"
    assert page.num_slots == 4
    assert page.record(0) is None


def test_insert_at_occupied_raises():
    page = SlottedPage()
    page.insert(b"x")
    with pytest.raises(BadSlotError):
        page.insert_at(0, b"y")


def test_insert_at_then_normal_insert_fills_gaps():
    page = SlottedPage()
    page.insert_at(2, b"two")
    slot = page.insert(b"zero")
    assert slot in (0, 1)
    assert page.record(2) == b"two"


def test_has_record_bounds():
    page = SlottedPage()
    assert page.record(-1) is None
    assert page.record(0) is None
    page.insert(b"a")
    assert page.record(0) is not None
    assert page.record(1) is None


class _SlotBySlotPage(SlottedPage):
    """The reference model for :meth:`SlottedPage.compact`: the page layer's
    original loop, which clears every slot and then re-places the live
    records one at a time.  Everything else is the real page's."""

    __slots__ = ()

    def compact(self) -> None:
        records = list(self.records())
        num_slots, _free_ptr, flags, _ = _HEADER.unpack_from(self._buf, 0)
        free_ptr = PAGE_SIZE
        for slot in range(num_slots):
            self._write_slot(slot, 0, 0)
        for slot, payload in records:
            if payload:
                free_ptr -= len(payload)
                self._buf[free_ptr : free_ptr + len(payload)] = payload
                self._write_slot(slot, free_ptr, len(payload))
            else:
                self._write_slot(slot, PAGE_SIZE, 0)
        self._write_header(num_slots, free_ptr, flags)


def _on_both(pages, method, *args):
    """Run ``method`` on both pages; they must agree on the result (or on
    refusing with PageFullError, returned as the class)."""
    outcomes = []
    for page in pages:
        try:
            outcomes.append(getattr(page, method)(*args))
        except PageFullError:
            outcomes.append(PageFullError)
    assert outcomes[0] == outcomes[1], (method, outcomes)
    return outcomes[0]


@settings(max_examples=200)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.binary(min_size=0, max_size=300)),
            st.tuples(st.just("delete"), st.integers(min_value=0, max_value=20)),
            st.tuples(st.just("update"), st.binary(min_size=0, max_size=300)),
            st.tuples(st.just("compact"), st.none()),
        ),
        max_size=60,
    )
)
def test_property_page_model(ops):
    """Random op sequences: after every op the page's contents match a dict
    model, it validates, and its image is byte for byte the image of a
    reference page whose compaction is the slot-by-slot loop."""
    page = SlottedPage()
    pages = (page, _SlotBySlotPage())
    model: dict[int, bytes] = {}
    for op, arg in ops:
        if op == "insert":
            fits = page.can_insert(len(arg))
            slot = _on_both(pages, "insert", arg)
            assert (slot is not PageFullError) == fits
            if fits:
                assert slot not in model
                model[slot] = arg
        elif op == "delete" and model:
            slot = sorted(model)[arg % len(model)]
            _on_both(pages, "delete", slot)
            del model[slot]
        elif op == "update" and model:
            slot = sorted(model)[len(arg) % len(model)]
            if _on_both(pages, "update", slot, arg) is not PageFullError:
                model[slot] = arg
        elif op == "compact":
            _on_both(pages, "compact")
        assert dict(page.records()) == model
        assert page.validate() == []
        assert page.raw() == pages[1].raw()
