"""Unit and property tests for heap files (record manager)."""

from __future__ import annotations

from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HeapError, RecordNotFoundError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap import MAX_INLINE, HeapFile, Rid


@pytest.fixture
def env(tmp_path):
    disk = DiskManager(tmp_path / "data.odb")
    pool = BufferPool(disk, capacity=16)
    yield disk, pool
    disk.close()


@pytest.fixture
def heap(env):
    disk, pool = env
    return HeapFile(2, disk, pool)


def _count(heap):
    """Logical records (a relocated one counts once)."""
    return sum(1 for _ in heap.scan())


def test_insert_read_roundtrip(heap):
    rid = heap.insert(b"record one")
    assert heap.read(rid) == b"record one"


def test_rids_are_distinct(heap):
    rids = [heap.insert(f"r{i}".encode()) for i in range(100)]
    assert len(set(rids)) == 100


def test_read_missing_raises(heap):
    with pytest.raises(RecordNotFoundError):
        heap.read(Rid(999, 0))


def test_read_deleted_raises(heap):
    rid = heap.insert(b"x")
    heap.delete(rid)
    with pytest.raises(RecordNotFoundError):
        heap.read(rid)


def test_update_in_place(heap):
    rid = heap.insert(b"before")
    heap.update(rid, b"after")
    assert heap.read(rid) == b"after"


def test_update_missing_raises(heap):
    with pytest.raises(RecordNotFoundError):
        heap.update(Rid(999, 0), b"x")


def test_update_grow_beyond_page_is_error_free_for_small(heap):
    rid = heap.insert(b"s")
    heap.update(rid, b"m" * 1000)
    assert heap.read(rid) == b"m" * 1000


def test_exists(heap):
    rid = heap.insert(b"here")
    assert heap.read(rid) == b"here"
    heap.delete(rid)
    with pytest.raises(RecordNotFoundError):
        heap.read(rid)
    with pytest.raises(RecordNotFoundError):
        heap.read(Rid(999, 3))


def test_scan_yields_all_records(heap):
    expected = {}
    for i in range(50):
        payload = f"payload-{i}".encode()
        expected[heap.insert(payload)] = payload
    assert dict(heap.scan()) == expected


def test_record_count(heap):
    for i in range(10):
        heap.insert(b"r")
    assert _count(heap) == 10


def test_multi_page_growth(heap):
    payload = b"z" * 1000
    rids = [heap.insert(payload) for _ in range(20)]  # > one page
    assert len(set(rid.page_id for rid in rids)) > 1
    for rid in rids:
        assert heap.read(rid) == payload


def test_deleted_space_reused_same_page(heap):
    rid = heap.insert(b"a" * 2000)
    page = rid.page_id
    heap.delete(rid)
    rid2 = heap.insert(b"b" * 2000)
    assert rid2.page_id == page


def test_empty_record(heap):
    rid = heap.insert(b"")
    assert heap.read(rid) == b""


# -- one record, one page ----------------------------------------------------


def test_max_inline_boundary(env, heap):
    """MAX_INLINE bytes fit a page; one more is refused before anything is
    written: no page is allocated, no log record fires, the old payload stays."""
    disk, _pool = env
    logged = []

    def log_op(*op):
        logged.append(op)

    full = heap.insert(b"b" * MAX_INLINE, log_op)
    assert heap.read(full) == b"b" * MAX_INLINE
    home = heap.insert(b"home")
    moved = heap.insert(b"x")
    _fill_page_around(heap, moved)
    heap.update(moved, b"M" * 3000)
    assert heap._resolve(moved)[1] is not None, "must have been relocated"
    pages, disk_pages = len(heap._pages), disk.num_pages
    logged.clear()
    too_big = b"b" * (MAX_INLINE + 1)
    with pytest.raises(HeapError):
        heap.insert(too_big, log_op)
    for rid, payload in ((full, b"b" * MAX_INLINE), (home, b"home"), (moved, b"M" * 3000)):
        with pytest.raises(HeapError):
            heap.update(rid, too_big, log_op)
        assert heap.read(rid) == payload
    assert (len(heap._pages), disk.num_pages, logged) == (pages, disk_pages, [])


def test_unknown_marker_is_refused(heap):
    """A record is one of four markers; any other byte (0x01 was a spanning
    master) is corrupt, and ``read`` and ``scan`` say so."""
    heap.insert(b"good")
    rid = heap._physical_insert(b"\x01" + b"payload", None)
    with pytest.raises(HeapError, match="marker"):
        heap.read(rid)
    with pytest.raises(HeapError, match="marker"):
        list(heap.scan())


# -- persistence & discovery -----------------------------------------------------


def test_pages_tagged_with_file_id(env, heap):
    disk, pool = env
    heap.insert(b"tagged")
    page_id = list(heap._pages)[0]
    with pool.page(page_id) as page:
        assert page.flags == 2


def test_rediscovery_after_reopen(tmp_path):
    disk = DiskManager(tmp_path / "d.odb")
    pool = BufferPool(disk)
    heap = HeapFile(3, disk, pool)
    rids = [heap.insert(f"persist-{i}".encode()) for i in range(30)]
    pool.flush_all()
    disk.close()

    disk2 = DiskManager(tmp_path / "d.odb")
    pool2 = BufferPool(disk2)
    heap2 = HeapFile(3, disk2, pool2)
    for i, rid in enumerate(rids):
        assert heap2.read(rid) == f"persist-{i}".encode()
    disk2.close()


def test_two_heaps_are_isolated(env):
    disk, pool = env
    a = HeapFile(2, disk, pool)
    b = HeapFile(3, disk, pool)
    ra = a.insert(b"in-a")
    rb = b.insert(b"in-b")
    assert dict(a.scan()) == {ra: b"in-a"}
    assert dict(b.scan()) == {rb: b"in-b"}


def test_file_id_range_validation(env):
    disk, pool = env
    with pytest.raises(HeapError):
        HeapFile(0, disk, pool)
    with pytest.raises(HeapError):
        HeapFile(70000, disk, pool)


# -- replay surface -----------------------------------------------------------


def test_replay_insert_places_at_exact_rid(heap):
    heap.replay_insert(5, 3, b"\x00replayed")
    assert heap.read(Rid(5, 3)) == b"replayed"


def test_replay_insert_idempotent(heap):
    heap.replay_insert(5, 0, b"\x00v1")
    heap.replay_insert(5, 0, b"\x00v2")  # later op wins
    assert heap.read(Rid(5, 0)) == b"v2"


def test_replay_update_inserts_if_missing(heap):
    heap.replay_update(6, 2, b"\x00ghost")
    assert heap.read(Rid(6, 2)) == b"ghost"


def test_replay_delete_missing_is_noop(heap):
    heap.replay_delete(7, 1)  # must not raise
    with pytest.raises(RecordNotFoundError):
        heap.read(Rid(7, 1))


def test_replay_claims_fresh_pages(env, heap):
    disk, pool = env
    heap.replay_insert(4, 0, b"\x00claimed")
    with pool.page(4) as page:
        assert page.flags == heap.file_id


# -- property ---------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.binary(max_size=6000)),
            st.tuples(st.just("update"), st.binary(max_size=6000)),
            st.tuples(st.just("delete"), st.just(b"")),
        ),
        max_size=30,
    )
)
def test_property_heap_model(tmp_path_factory, ops):
    """Random op sequences keep the heap consistent with a dict model."""
    tmp = tmp_path_factory.mktemp("heap_prop")
    disk = DiskManager(tmp / "d.odb")
    pool = BufferPool(disk, capacity=8)
    heap = HeapFile(2, disk, pool)
    model: dict[Rid, bytes] = {}
    try:
        for op, payload in ops:
            # A payload too big for a page is refused and writes nothing.
            refused = pytest.raises(HeapError) if len(payload) > MAX_INLINE else nullcontext()
            if op == "insert":
                with refused:
                    model[heap.insert(payload)] = payload
            elif op == "update" and model:
                rid = sorted(model)[0]
                with refused:
                    heap.update(rid, payload)
                    model[rid] = payload
            elif op == "delete" and model:
                rid = sorted(model)[-1]
                heap.delete(rid)
                del model[rid]
        assert dict(heap.scan()) == model
        for rid, payload in model.items():
            assert heap.read(rid) == payload
    finally:
        disk.close()


# -- forwarding (relocated records) ------------------------------------------


def _fill_page_around(heap, rid, filler=900):
    """Pack rid's page so in-place growth is impossible."""
    while True:
        probe = heap.insert(b"F" * filler)
        if probe.page_id != rid.page_id:
            heap.delete(probe)
            break


def test_update_grow_relocates_with_forwarding(heap):
    rid = heap.insert(b"tiny")
    _fill_page_around(heap, rid)
    big = b"G" * 3000
    heap.update(rid, big)  # cannot fit in page: must forward
    assert heap.read(rid) == big  # the home Rid still works


def test_forwarded_record_scan_yields_home_rid(heap):
    rid = heap.insert(b"x")
    _fill_page_around(heap, rid)
    heap.update(rid, b"Y" * 3000)
    records = dict(heap.scan())
    assert records[rid] == b"Y" * 3000
    # The relocated body is not separately visible.
    big_count = sum(1 for payload in records.values() if payload == b"Y" * 3000)
    assert big_count == 1


def test_forwarded_record_update_again(heap):
    rid = heap.insert(b"x")
    _fill_page_around(heap, rid)
    heap.update(rid, b"A" * 3000)
    heap.update(rid, b"B" * 3500)  # relocated body grows again
    assert heap.read(rid) == b"B" * 3500
    heap.update(rid, b"small-now")
    assert heap.read(rid) == b"small-now"


def test_forwarded_record_delete_cleans_body(heap):
    rid = heap.insert(b"x")
    _fill_page_around(heap, rid)
    heap.update(rid, b"D" * 3000)
    total_before = _count(heap)
    heap.delete(rid)
    with pytest.raises(RecordNotFoundError):
        heap.read(rid)
    assert _count(heap) == total_before - 1


def test_second_relocation_past_page_63_in_a_packed_home_page(env, heap):
    """heap-stub-growth: a forward stub that pointed below page 64 and is
    repointed above it used to encode one byte longer (codec varint), and
    in a home page with not one byte to spare the rewrite overflowed:
    PageFullError out of ``update``.  Stubs are fixed-width now."""
    disk, pool = env

    def pack(page_id: int) -> None:
        while True:
            with pool.page(page_id) as page:
                free = page.free_space
            if free == 0:
                return
            filler = heap.insert(b"f" * (free - 1))  # marker byte included
            assert filler.page_id == page_id

    rid = heap.insert(b"r" * 100)
    pack(rid.page_id)
    heap.update(rid, b"R" * 300)  # no room at home: first relocation
    _body, first = heap._resolve(rid)
    assert first is not None and first.page_id < 64
    pack(rid.page_id)  # the bytes the record gave up are taken again
    pack(first.page_id)
    while disk.num_pages < 64:
        heap.insert(b"x" * 4000)
    heap.update(rid, b"S" * 3000)  # fits nowhere it has been: moves again
    _body, second = heap._resolve(rid)
    assert second is not None and second.page_id >= 64
    assert heap.read(rid) == b"S" * 3000
    with pool.page(rid.page_id) as page:
        assert page.validate() == []
    heap.update(rid, b"T" * 10)  # and shrinks in place where it now lives
    assert heap.read(rid) == b"T" * 10
    assert heap._resolve(rid)[1] == second


@pytest.mark.parametrize("gap", [0, 1])
def test_sub_stub_record_grows_out_of_a_packed_page(env, heap, gap):
    """A home record physically shorter than a forward stub could not be
    relocated out of a page packed solid: the stub that must replace it
    had nowhere to grow.  ``update`` raised ``HeapError: cannot grow
    within its page``.  Short payloads are padded to the stub's size."""
    _disk, pool = env
    shorts = {}
    while True:
        payload = bytes([len(shorts) % 251]) * (len(shorts) % 12)  # 0..11 bytes
        rid = heap.insert(payload)
        if shorts and rid.page_id != next(iter(shorts)).page_id:
            break
        shorts[rid] = payload
    home = next(iter(shorts)).page_id
    # Trade the last short record for one filler that leaves exactly ``gap``.
    last = next(reversed(shorts))
    heap.delete(last)
    del shorts[last]
    with pool.page(home) as page:
        free = page.free_space
    filler = heap.insert(b"f" * (free - gap - 1))  # marker byte included
    assert filler.page_id == home
    with pool.page(home) as page:
        assert page._compacted_gap(page._layout()[3]) == gap
    victim = next(rid for rid, payload in shorts.items() if len(payload) == 10)
    grown = b"G" * 118
    heap.update(victim, grown)
    shorts[victim] = grown
    assert heap._resolve(victim)[1] is not None, "must have been relocated"
    for rid, payload in shorts.items():
        assert heap.read(rid) == payload
    scanned = dict(heap.scan())
    assert all(scanned[rid] == payload for rid, payload in shorts.items())
    with pool.page(home) as page:
        assert page.validate() == []
        assert page._compacted_gap(page._layout()[3]) == gap
    heap.update(victim, b"")  # shrinks where it now lives; the stub stays
    assert heap.read(victim) == b""
    heap.delete(victim)
    with pytest.raises(RecordNotFoundError):
        heap.read(victim)


def test_unpadded_short_records_keep_reading(heap):
    """Records written before short payloads were padded are plain inline
    records; they read, scan, and take the padded form when rewritten."""
    old = heap._physical_insert(b"\x00abc", None)
    assert heap.read(old) == b"abc"
    assert dict(heap.scan())[old] == b"abc"
    heap.update(old, b"abcd")
    assert heap.read(old) == b"abcd"
    assert len(heap._physical_read(old)) == len(heap._physical_read(heap.insert(b"")))
