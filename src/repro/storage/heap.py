"""Heap files: unordered record storage with stable record ids.

A heap file is a set of slotted pages tagged with the heap's ``file_id`` in
the page ``flags`` word.  A record id (:class:`Rid`) is ``(page_id, slot)``
and is stable for the life of the record -- the object table and version
store persist Rids inside other records.

Every record fits one page: a payload over :data:`MAX_INLINE` bytes is
refused with :class:`HeapError` before anything is written.  Physically,
every stored record starts with one of four marker bytes::

    0x00  inline     marker | payload
    0x03  forward    marker | codec((page_id, slot)) | zero padding
    0x04  relocated  marker | payload
    0x06  short      marker | payload length (u8) | payload | zero padding

A record that outgrows its home page moves to another page (*relocated*)
and its home slot becomes a *forward* stub.  A home-slot record is never
physically shorter than a forward stub: a payload that would be is stored
*short*, padded to the stub's size, so relocation can always overwrite the
home slot with a stub in place however tightly its page is packed.  Any
other marker is corruption: ``read`` and ``scan`` raise :class:`HeapError`.

Write-ahead logging is threaded through an optional ``log_op`` callback:
``log_op(kind, file_id, page_id, slot, payload, undo_payload)``.  The WAL
logs *physical* records (marker included).  The transaction layer passes
a callback that appends to the WAL (and records the op for in-memory
rollback); passing ``None`` performs unlogged writes (used by bulk loaders
in benchmarks, and by WAL replay itself).
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from repro import probe
from repro.errors import HeapError, PageFullError, RecordNotFoundError
from repro.storage import serialization
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.pages import MAX_RECORD_PAYLOAD, SlottedPage
from repro.storage.stripes import StripedLock
from repro.storage.wal import OP_DELETE, OP_INSERT, OP_UPDATE

_INLINE = 0x00
_FORWARD = 0x03
_RELOC_INLINE = 0x04
_SHORT = 0x06

#: Max logical payload of a record (one marker byte of overhead).
MAX_INLINE = MAX_RECORD_PAYLOAD - 1

#: Every forward stub is zero-padded to this size: the marker plus the
#: codec's longest encoding of a 32-bit page id and a 16-bit slot.  The
#: codec's varints make a stub that points past page 63 one byte longer
#: than one that does not; at a fixed width, repointing a stub is always
#: an in-place rewrite and can never overflow a packed home page.
_STUB_SIZE = 13

#: ``log_op(kind, file_id, page_id, slot, payload, undo_payload)``
LogOp = Callable[[int, int, int, int, bytes, bytes], None]


class Rid(NamedTuple):
    """A record id: page number and slot within the page."""

    page_id: int
    slot: int

    def pack(self) -> tuple[int, int]:
        """Plain-tuple form for embedding in serialized state."""
        return (self.page_id, self.slot)


#: What a WAL image holds (:func:`wal_image`).
HOME, MOVED, STUB = 0, 1, 2


def wal_image(physical: bytes) -> tuple[int, "bytes | Rid"] | None:
    """What one WAL image of a physical record holds: ``(HOME, payload)``
    for an inline or short body, ``(MOVED, payload)`` for a relocated one,
    ``(STUB, target)`` for a forward stub, None for no image; any other
    marker raises :class:`HeapError`."""
    if not physical:
        return None
    marker = physical[0]
    if marker == _INLINE:
        return HOME, physical[1:]
    if marker == _SHORT:
        return HOME, physical[2 : 2 + physical[1]]
    if marker == _RELOC_INLINE:
        return MOVED, physical[1:]
    if marker == _FORWARD:
        return STUB, Rid(*serialization.decode_from(physical, 1)[0])
    raise HeapError(f"unknown record marker {marker:#04x}")


def _forward_stub(target: Rid) -> bytes:
    """The fixed-width home-slot record that points at a relocated body."""
    stub = bytes([_FORWARD]) + serialization.encode(target.pack())
    return stub.ljust(_STUB_SIZE, b"\x00")


class HeapFile:
    """Record storage for one heap, identified by a small ``file_id``.

    ``file_id`` must be in ``1..65535`` (it lives in the 16-bit page flags
    word; 0 means "unowned page").
    """

    def __init__(
        self,
        file_id: int,
        disk: DiskManager,
        pool: BufferPool,
        known_pages: list[int] | None = None,
        page_locks: StripedLock | None = None,
    ) -> None:
        if not 1 <= file_id <= 0xFFFF:
            raise HeapError(f"heap file id must be 1..65535, got {file_id}")
        self._file_id = file_id
        self._disk = disk
        self._pool = pool
        # Striped page locks guard each physical op's window on its page
        # against lock-free snapshot readers; one stripe is held at a time,
        # so the stripes cannot deadlock.  None = a heap of its own.
        self._page_locks = page_locks if page_locks is not None else StripedLock(1)
        self._pages: dict[int, None] = dict.fromkeys(known_pages or ())  # ordered set
        # Approximate free space per page; refreshed lazily.
        self._free: dict[int, int] = {}
        if known_pages is None:
            self._discover_pages()

    @property
    def file_id(self) -> int:
        """This heap's id (also the flags tag on its pages)."""
        return self._file_id

    def _discover_pages(self) -> None:
        """Scan the database file for pages tagged with our file id."""
        for page_id in range(1, self._disk.num_pages):
            with self._pool.page(page_id) as page:
                if page.flags == self._file_id:
                    self._pages[page_id] = None
                    self._free[page_id] = page.free_space

    # -- physical record operations (marker-level) ---------------------------

    def _find_page_for(self, length: int) -> int:
        """A page with room for a ``length``-byte physical record, or new."""
        # Check cached candidates first (most recently touched pages).
        for page_id in list(self._free):
            if self._free[page_id] >= length:
                with self._pool.page(page_id) as page:
                    if page.can_insert(length):
                        return page_id
                    self._free[page_id] = page.free_space
            if len(self._free) > 16 and self._free.get(page_id, 0) < 64:
                del self._free[page_id]
        page_id, page = self._pool.new_page()
        page.flags = self._file_id
        self._pool.unpin(page_id, dirty=True)
        self._pages[page_id] = None
        self._free[page_id] = page.free_space
        return page_id

    def _physical_insert(self, physical: bytes, log_op: LogOp | None) -> Rid:
        probe.point("heap.insert.pre")
        page_id = self._find_page_for(len(physical))
        with self._page_locks.lock_for(page_id):
            page = self._pool.fetch(page_id)
            try:
                slot = page.insert(physical)
                self._free[page_id] = page.free_space
            finally:
                self._pool.unpin(page_id, dirty=True)
        if log_op is not None:
            log_op(OP_INSERT, self._file_id, page_id, slot, physical, b"")
        probe.point("heap.insert.post")
        return Rid(page_id, slot)

    def _physical_read(self, rid: Rid) -> bytes:
        if rid.page_id not in self._pages:
            # Unknown page: treat as missing record rather than disk error.
            raise RecordNotFoundError(f"no record at {rid} (unknown page)")
        with self._page_locks.lock_for(rid.page_id):
            physical = self._pool.read_record(rid.page_id, rid.slot)
        if physical is None:
            raise RecordNotFoundError(f"no record at {rid}")
        return physical

    def _physical_change(
        self, kind: int, rid: Rid, physical: bytes, log_op: LogOp | None
    ) -> None:
        """Rewrite (``OP_UPDATE``) or delete (``OP_DELETE``, ``physical``
        empty) the physical record at ``rid``; its old image is the undo."""
        update = kind == OP_UPDATE
        probe.point("heap.update.pre" if update else "heap.delete.pre")
        page_id, slot = rid
        with self._page_locks.lock_for(page_id):
            page = self._pool.fetch(page_id)
            try:
                old = page.record(slot)
                if old is None:
                    raise RecordNotFoundError(f"no record at {rid}")
                if update:
                    page.update(slot, physical)
                else:
                    page.delete(slot)
                self._free[page_id] = page.free_space
            finally:
                self._pool.unpin(page_id, dirty=True)
        if log_op is not None:
            log_op(kind, self._file_id, page_id, slot, physical, old)
        probe.point("heap.update.post" if update else "heap.delete.post")

    # -- logical record operations -------------------------------------------
    #
    # A record's home Rid is stable for its whole life.  If an update no
    # longer fits in the home page, the record body is *relocated* to
    # another page (marker _RELOC_INLINE) and the home slot becomes a small
    # _FORWARD stub pointing at it -- the classic slotted-page forwarding
    # technique.  Forward chains never exceed one hop: re-relocation
    # rewrites the home stub.  Relocated bodies are not addressable and
    # are skipped by scan().

    @staticmethod
    def _build_body(payload: bytes, relocated: bool) -> bytes:
        """The physical body record for a logical payload; a payload too
        big for one page raises :class:`HeapError`."""
        if len(payload) > MAX_INLINE:
            raise HeapError(
                f"a {len(payload)}-byte record does not fit a page "
                f"(at most {MAX_INLINE} bytes)"
            )
        if relocated:
            return bytes([_RELOC_INLINE]) + payload
        if len(payload) < _STUB_SIZE - 1:
            short = bytes([_SHORT, len(payload)]) + payload
            return short.ljust(_STUB_SIZE, b"\x00")
        return bytes([_INLINE]) + payload

    def _resolve(self, rid: Rid) -> tuple[bytes, Rid | None]:
        """Return ``(payload, target_rid)`` for the record at ``rid``.

        ``target_rid`` is None for a record living in its home slot, or the
        relocated body's Rid when the home slot is a forward stub.  Raises
        for a directly-addressed relocated body and an unknown marker.
        """
        kind, value = wal_image(self._physical_read(rid))
        if kind == HOME:
            return value, None
        if kind == MOVED:
            raise HeapError(f"{rid} is a relocated body, not an addressable record")
        kind, payload = wal_image(self._physical_read(value))
        if kind != MOVED:
            raise HeapError(f"corrupt forward stub at {rid}")
        return payload, value

    def insert(self, payload: bytes, log_op: LogOp | None = None) -> Rid:
        """Store ``payload`` and return its Rid."""
        return self._physical_insert(self._build_body(payload, False), log_op)

    def read(self, rid: Rid) -> bytes:
        """Return the logical payload at ``rid``.

        Raises :class:`RecordNotFoundError` for missing records and
        :class:`HeapError` when ``rid`` names a relocated body (not an
        addressable record) or a record with an unknown marker.
        """
        return self._resolve(rid)[0]

    def update(self, rid: Rid, payload: bytes, log_op: LogOp | None = None) -> None:
        """Replace the payload at ``rid``; the Rid remains valid forever.

        Falls back to relocation-with-forwarding when the grown record no
        longer fits in its home (or current) page.
        """
        _old, target = self._resolve(rid)
        home = target if target is not None else rid
        new_body = self._build_body(payload, target is not None)
        try:
            self._physical_change(OP_UPDATE, home, new_body, log_op)
            return
        except PageFullError:
            pass
        # Relocate: the body moves to a fresh slot; the home Rid keeps (or
        # becomes) a small forward stub.
        if target is not None:
            # Already relocated once; move the body again and repoint.
            self._physical_change(OP_DELETE, target, b"", log_op)
        else:
            new_body = self._build_body(payload, True)
        new_target = self._physical_insert(new_body, log_op)
        # A home record is never shorter than the stub: this fits in place.
        self._physical_change(OP_UPDATE, rid, _forward_stub(new_target), log_op)

    def delete(self, rid: Rid, log_op: LogOp | None = None) -> None:
        """Delete the record (with any relocated body) at ``rid``."""
        _payload, target = self._resolve(rid)
        if target is not None:
            self._physical_change(OP_DELETE, target, b"", log_op)
        self._physical_change(OP_DELETE, rid, b"", log_op)

    def scan(self) -> Iterator[tuple[Rid, bytes]]:
        """Yield every logical record as ``(rid, payload)``, page order.

        Relocated bodies are internal and never yielded; forwarded records
        are yielded at their home Rid.  An unknown marker raises
        :class:`HeapError`.
        """
        for page_id in list(self._pages):
            with self._pool.page(page_id) as page:
                entries = list(page.records())
            for slot, physical in entries:
                kind, value = wal_image(physical)
                if kind == HOME:
                    yield Rid(page_id, slot), value
                elif kind == STUB:
                    rid = Rid(page_id, slot)
                    yield rid, self.read(rid)

    # -- WAL replay surface -----------------------------------------------------

    def _replay_page(self, page_id: int) -> SlottedPage:
        self._disk.ensure_allocated(page_id)
        page = self._pool.fetch(page_id)
        if page.flags != self._file_id:
            # Fresh (zeroed) page revived by replay: claim and format it.
            page.flags = self._file_id
        self._pages[page_id] = None
        return page

    def replay_insert(self, page_id: int, slot: int, payload: bytes) -> None:
        """Redo an insert: ensure ``payload`` lives at ``(page_id, slot)``."""
        probe.point("heap.replay_insert")
        page = self._replay_page(page_id)
        try:
            if page.record(slot) is not None:
                page.update(slot, payload)
            else:
                page.insert_at(slot, payload)
            self._free[page_id] = page.free_space
        finally:
            self._pool.unpin(page_id, dirty=True)

    def replay_update(self, page_id: int, slot: int, payload: bytes) -> None:
        """Redo an update (inserts if the record never reached the page)."""
        self.replay_insert(page_id, slot, payload)

    def replay_delete(self, page_id: int, slot: int) -> None:
        """Redo a delete; a missing record is fine (already gone)."""
        probe.point("heap.replay_delete")
        page = self._replay_page(page_id)
        try:
            if page.record(slot) is not None:
                page.delete(slot)
            self._free[page_id] = page.free_space
        finally:
            self._pool.unpin(page_id, dirty=True)
