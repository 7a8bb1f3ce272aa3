"""Unit tests for the buffer pool."""

from __future__ import annotations

import pytest

from repro.errors import BufferPoolError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


@pytest.fixture
def disk(tmp_path):
    manager = DiskManager(tmp_path / "data.odb")
    yield manager
    manager.close()


@pytest.fixture
def pool(disk):
    return BufferPool(disk, capacity=4)


def _pinned(pool):
    """Page ids with outstanding pins (should be empty between ops)."""
    return [pid for pid, frame in pool._frames.items() if frame.pins > 0]


def test_new_page_comes_pinned(pool):
    page_id, page = pool.new_page()
    assert _pinned(pool) == [page_id]
    pool.unpin(page_id)
    assert _pinned(pool) == []


def test_fetch_hit_and_miss_counters(pool):
    page_id, _ = pool.new_page()
    pool.unpin(page_id)
    pool.fetch(page_id)
    pool.unpin(page_id)
    assert pool.hits == 1
    assert pool.misses == 0


def test_mutation_visible_through_pool(pool):
    page_id, page = pool.new_page()
    slot = page.insert(b"cached")
    pool.unpin(page_id, dirty=True)
    again = pool.fetch(page_id)
    assert again.record(slot) == b"cached"
    pool.unpin(page_id)


def test_dirty_page_survives_eviction(disk, pool):
    page_id, page = pool.new_page()
    slot = page.insert(b"evict-me")
    pool.unpin(page_id, dirty=True)
    # Fill the pool to force eviction of page_id.
    for _ in range(4):
        pid, _ = pool.new_page()
        pool.unpin(pid)
    assert pool.evictions >= 1
    fresh = pool.fetch(page_id)
    assert fresh.record(slot) == b"evict-me"
    pool.unpin(page_id)


def test_unwritten_clean_page_not_flushed(disk, pool):
    page_id, page = pool.new_page()
    page.insert(b"lost")
    pool.unpin(page_id, dirty=False)  # lie: not marked dirty
    pool.drop_clean()
    fresh = pool.fetch(page_id)
    assert len(dict(fresh.records())) == 0  # mutation was (correctly) lost
    pool.unpin(page_id)


def test_pinned_pages_never_evicted(pool):
    page_id, _ = pool.new_page()  # keep pinned
    for _ in range(3):
        pid, _ = pool.new_page()
        pool.unpin(pid)
    # Pool is full; the pinned page must survive more allocations.
    pid, _ = pool.new_page()
    pool.unpin(pid)
    assert page_id in [p for p in _pinned(pool)]
    pool.unpin(page_id)


def test_all_pinned_raises(pool):
    for _ in range(4):
        pool.new_page()  # never unpinned
    with pytest.raises(BufferPoolError):
        pool.new_page()


def test_unpin_unknown_page_raises(pool):
    with pytest.raises(BufferPoolError):
        pool.unpin(42)


def test_unpin_more_than_pinned_raises(pool):
    page_id, _ = pool.new_page()
    pool.unpin(page_id)
    with pytest.raises(BufferPoolError):
        pool.unpin(page_id)


def test_flush_all_clears_dirty(disk, pool):
    page_id, page = pool.new_page()
    page.insert(b"durable")
    pool.unpin(page_id, dirty=True)
    pool.flush_all()
    # Re-read straight from disk: mutation persisted.
    from repro.storage.pages import SlottedPage

    raw = SlottedPage(disk.read_page(page_id))
    assert len(dict(raw.records())) == 1


def test_page_context_manager(pool):
    page_id, page = pool.new_page()
    page.insert(b"x")
    pool.unpin(page_id, dirty=True)
    with pool.page(page_id) as view:
        assert len(dict(view.records())) == 1
    assert _pinned(pool) == []


def test_before_write_hook_called(disk, pool):
    calls = []
    pool.before_write = lambda: calls.append(1)
    page_id, page = pool.new_page()
    page.insert(b"w")
    pool.unpin(page_id, dirty=True)
    pool.flush_all()
    assert calls  # WAL-before-data hook ran


def test_discard_drops_without_writeback(disk, pool):
    page_id, page = pool.new_page()
    page.insert(b"gone")
    pool.unpin(page_id, dirty=True)
    pool.discard(page_id)
    fresh = pool.fetch(page_id)
    assert len(dict(fresh.records())) == 0
    pool.unpin(page_id)


def test_discard_pinned_raises(pool):
    page_id, _ = pool.new_page()
    with pytest.raises(BufferPoolError):
        pool.discard(page_id)
    pool.unpin(page_id)


def test_capacity_validation(disk):
    with pytest.raises(ValueError):
        BufferPool(disk, capacity=0)
