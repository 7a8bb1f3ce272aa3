"""Buffer pool: cached, pinnable page frames over the disk manager.

Higher layers never call :class:`~repro.storage.disk.DiskManager` directly;
they fetch pages through the pool, which keeps a bounded set of frames in
memory with LRU eviction.  A pinned frame is never evicted, and a dirty
frame is written back before its frame is reused.

A writer pins a page with :meth:`BufferPool.fetch` (or the
:meth:`BufferPool.page` context manager), changes it through the
:class:`~repro.storage.pages.SlottedPage` view over the frame's buffer and
marks it dirty at :meth:`BufferPool.unpin`.  A reader after one record
takes a copy with :meth:`BufferPool.read_record`: one lock hold, no pin.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.errors import BufferPoolError
from repro.storage.disk import DiskManager
from repro.storage.pages import SlottedPage

#: Default number of frames a pool holds.
DEFAULT_POOL_SIZE = 256


class _Frame:
    __slots__ = ("page_id", "page", "pins", "dirty")

    def __init__(self, page_id: int, page: SlottedPage) -> None:
        self.page_id = page_id
        self.page = page
        self.pins = 0
        self.dirty = False


class BufferPool:
    """A fixed-capacity LRU cache of pages with pin counting.

    Thread-safe.  ``capacity`` bounds resident frames; fetching a page when
    all frames are pinned raises :class:`BufferPoolError` rather than
    blocking, which turns buffer leaks into loud test failures.  Eviction
    takes the least recently fetched unpinned frame.
    """

    def __init__(self, disk: DiskManager, capacity: int = DEFAULT_POOL_SIZE) -> None:
        if capacity < 1:
            raise ValueError("buffer pool capacity must be >= 1")
        self._disk = disk
        self._capacity = capacity
        #: Called once before any dirty page is written back.  The database
        #: installs the WAL flush here (write-ahead rule: log before data).
        self.before_write: Callable[[], None] | None = None
        self._frames: OrderedDict[int, _Frame] = OrderedDict()  # LRU -> MRU
        self._lock = threading.RLock()
        # Statistics -- consumed by the kernel micro-benchmarks (E11).
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- core protocol ---------------------------------------------------------

    def new_page(self) -> tuple[int, SlottedPage]:
        """Allocate a fresh page on disk and return it pinned.

        The caller owns one pin and must :meth:`unpin` it (dirty, normally).
        """
        page_id = self._disk.allocate_page()
        with self._lock:
            self._ensure_room()
            frame = _Frame(page_id, SlottedPage(bytearray(self._disk.read_page(page_id))))
            frame.pins = 1
            self._frames[page_id] = frame
            return page_id, frame.page

    def _frame(self, page_id: int) -> _Frame:
        """The resident frame of ``page_id``, read from disk on a miss
        (caller holds the lock)."""
        frame = self._frames.get(page_id)
        if frame is not None:
            self.hits += 1
            self._frames.move_to_end(page_id)
            return frame
        self.misses += 1
        self._ensure_room()
        frame = self._frames[page_id] = _Frame(
            page_id, SlottedPage(self._disk.read_page(page_id))
        )
        return frame

    def fetch(self, page_id: int) -> SlottedPage:
        """Pin and return page ``page_id``, reading it from disk on a miss."""
        with self._lock:
            frame = self._frame(page_id)
            frame.pins += 1
            return frame.page

    def read_record(self, page_id: int, slot: int) -> bytes | None:
        """A copy of one record (None for an empty slot), taken under one
        hold of the pool lock: no pin, so nothing to unpin."""
        with self._lock:
            return self._frame(page_id).page.record(slot)

    def unpin(self, page_id: int, dirty: bool = False) -> None:
        """Release one pin on ``page_id``; ``dirty=True`` marks it modified."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None:
                raise BufferPoolError(f"unpin of non-resident page {page_id}")
            if frame.pins <= 0:
                raise BufferPoolError(f"unpin of unpinned page {page_id}")
            frame.pins -= 1
            if dirty:
                frame.dirty = True

    @contextmanager
    def page(self, page_id: int, dirty: bool = False) -> Iterator[SlottedPage]:
        """Context manager: fetch, yield, and unpin a page.

        ``dirty`` declares up front whether the body mutates the page.
        """
        page = self.fetch(page_id)
        try:
            yield page
        finally:
            self.unpin(page_id, dirty=dirty)

    def discard(self, page_id: int) -> None:
        """Drop page from the pool without writing it back (page was freed)."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None:
                return
            if frame.pins > 0:
                raise BufferPoolError(f"discard of pinned page {page_id}")
            del self._frames[page_id]

    # -- eviction & flushing ---------------------------------------------------

    def _ensure_room(self) -> None:
        if len(self._frames) < self._capacity:
            return
        for page_id, frame in self._frames.items():  # LRU -> MRU order
            if frame.pins == 0:
                if frame.dirty:
                    if self.before_write is not None:
                        self.before_write()
                    self._disk.write_page(page_id, frame.page.raw())
                del self._frames[page_id]
                self.evictions += 1
                return
        raise BufferPoolError(
            f"all {self._capacity} frames are pinned; cannot evict"
        )

    def flush_all(self) -> None:
        """Write every dirty resident page back to disk."""
        with self._lock:
            if self.before_write is not None and any(
                f.dirty for f in self._frames.values()
            ):
                self.before_write()
            for page_id, frame in self._frames.items():
                if frame.dirty:
                    self._disk.write_page(page_id, frame.page.raw())
                    frame.dirty = False

    def drop_clean(self) -> None:
        """Evict all unpinned frames after flushing (for crash simulation)."""
        with self._lock:
            self.flush_all()
            for page_id in [pid for pid, f in self._frames.items() if f.pins == 0]:
                del self._frames[page_id]
