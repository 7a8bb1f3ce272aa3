"""Heap files: unordered record storage with stable record ids.

A heap file is a set of slotted pages tagged with the heap's ``file_id`` in
the page ``flags`` word.  A record id (:class:`Rid`) is ``(page_id, slot)``
and is stable for the life of the record -- the object table and version
store persist Rids inside other records.

Records larger than one page are stored *spanning*: the payload is split
into fragment records and a small master record lists the fragment Rids.
The split is internal; callers only ever see logical payloads and the
master's Rid.  Physically, every stored record starts with a marker byte::

    0x00  inline    marker | payload
    0x01  master    marker | codec(total_len, [fragment rids...])
    0x02  fragment  marker | chunk
    0x03  forward   marker | codec((page_id, slot)) | zero padding
    0x06  short     marker | payload length (u8) | payload | zero padding

A home-slot record is never physically shorter than a forward stub: a
payload that would be is stored *short*, padded to the stub's size, so
relocation can always overwrite the home slot with a stub in place
however tightly its page is packed.

The WAL logs *physical* records (marker included), so crash recovery never
needs to understand spanning.

Write-ahead logging is threaded through an optional ``log_op`` callback:
``log_op(kind, file_id, page_id, slot, payload, undo_payload)``.  The
transaction
layer passes a callback that appends to the WAL (and records the op for
in-memory rollback); passing ``None`` performs unlogged writes (used by
bulk loaders in benchmarks, and by WAL replay itself).
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
_MASTER = 0x01
_FRAGMENT = 0x02
_FORWARD = 0x03
_RELOC_INLINE = 0x04
_RELOC_MASTER = 0x05
_SHORT = 0x06

#: Max logical payload that fits inline (one marker byte of overhead).
MAX_INLINE = MAX_RECORD_PAYLOAD - 1

#: Fragment chunk size: leave room for marker + slot overhead.
_FRAGMENT_CHUNK = MAX_RECORD_PAYLOAD - 1

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
    ``(STUB, target)`` for a forward stub, None for no image or a fragment
    (a spanning master raises: its payload lives in its fragments)."""
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
    if marker in (_MASTER, _RELOC_MASTER):
        raise HeapError("a spanning record's payload is not in its master")
    return None


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
    # another page (marker _RELOC_*) and the home slot becomes a small
    # _FORWARD stub pointing at it -- the classic slotted-page forwarding
    # technique.  Forward chains never exceed one hop: re-relocation
    # rewrites the home stub.  Relocated records and fragments are not
    # addressable and are skipped by scan().

    def _build_body(
        self, payload: bytes, relocated: bool, log_op: LogOp | None
    ) -> bytes:
        """The physical body record for a logical payload (spans if needed)."""
        if relocated:
            inline_marker, master_marker = _RELOC_INLINE, _RELOC_MASTER
        else:
            inline_marker, master_marker = _INLINE, _MASTER
            if len(payload) < _STUB_SIZE - 1:
                short = bytes([_SHORT, len(payload)]) + payload
                return short.ljust(_STUB_SIZE, b"\x00")
        if len(payload) <= MAX_INLINE:
            return bytes([inline_marker]) + payload
        fragments: list[tuple[int, int]] = []
        for start in range(0, len(payload), _FRAGMENT_CHUNK):
            probe.point("heap.span.fragment")
            chunk = payload[start : start + _FRAGMENT_CHUNK]
            frag_rid = self._physical_insert(bytes([_FRAGMENT]) + chunk, log_op)
            fragments.append(frag_rid.pack())
        master = bytes([master_marker]) + serialization.encode(
            (len(payload), fragments)
        )
        if len(master) > MAX_RECORD_PAYLOAD:
            raise HeapError("record too large: master fragment list overflows a page")
        return master

    def _resolve(self, rid: Rid) -> tuple[bytes, Rid | None]:
        """Return ``(body_physical, target_rid)`` for the record at ``rid``.

        ``target_rid`` is None for a record living in its home slot, or the
        relocated body's Rid when the home slot is a forward stub.  Raises
        for fragments and directly-addressed relocated bodies.
        """
        physical = self._physical_read(rid)
        marker = physical[0]
        if marker == _FRAGMENT:
            raise HeapError(f"{rid} is a spanning fragment, not a record")
        if marker in (_RELOC_INLINE, _RELOC_MASTER):
            raise HeapError(f"{rid} is a relocated body, not an addressable record")
        if marker != _FORWARD:
            return physical, None
        (page_id, slot), _end = serialization.decode_from(physical, 1)
        target = Rid(page_id, slot)
        body = self._physical_read(target)
        if body[0] not in (_RELOC_INLINE, _RELOC_MASTER):
            raise HeapError(f"corrupt forward stub at {rid}")
        return body, target

    def _assemble(self, rid: Rid, body: bytes) -> bytes:
        """Logical payload from a body record (inline or spanning master)."""
        if body[0] not in (_MASTER, _RELOC_MASTER):
            return wal_image(body)[1]
        total_len, fragments = serialization.decode(body[1:])
        out = bytearray()
        for page_id, slot in fragments:
            frag = self._physical_read(Rid(page_id, slot))
            if frag[0] != _FRAGMENT:
                raise HeapError(f"corrupt spanning chain at {rid}")
            out.extend(frag[1:])
        if len(out) != total_len:
            raise HeapError(
                f"spanning record at {rid}: got {len(out)} bytes, expected {total_len}"
            )
        return bytes(out)

    def _release_body(self, body: bytes, log_op: LogOp | None) -> None:
        """Delete the fragments of a spanning body (not the body itself)."""
        if body[0] in (_MASTER, _RELOC_MASTER):
            _total, fragments = serialization.decode(body[1:])
            for page_id, slot in fragments:
                self._physical_change(OP_DELETE, Rid(page_id, slot), b"", log_op)

    def insert(self, payload: bytes, log_op: LogOp | None = None) -> Rid:
        """Store ``payload`` and return its Rid (spanning if necessary)."""
        return self._physical_insert(self._build_body(payload, False, log_op), log_op)

    def read(self, rid: Rid) -> bytes:
        """Return the logical payload at ``rid``.

        Raises :class:`RecordNotFoundError` for missing records and
        :class:`HeapError` when ``rid`` names a spanning fragment or a
        relocated body (neither is an addressable record).
        """
        body, _target = self._resolve(rid)
        return self._assemble(rid, body)

    def update(self, rid: Rid, payload: bytes, log_op: LogOp | None = None) -> None:
        """Replace the payload at ``rid``; the Rid remains valid forever.

        Falls back to relocation-with-forwarding when the grown record no
        longer fits in its home (or current) page.
        """
        body, target = self._resolve(rid)
        self._release_body(body, log_op)
        home = target if target is not None else rid
        new_body = self._build_body(payload, target is not None, log_op)
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
            new_target = self._physical_insert(new_body, log_op)
            self._physical_change(OP_UPDATE, rid, _forward_stub(new_target), log_op)
            return
        reloc_body = self._build_body(payload, True, log_op)
        new_target = self._physical_insert(reloc_body, log_op)
        # A home record is never shorter than the stub: this fits in place.
        self._physical_change(OP_UPDATE, rid, _forward_stub(new_target), log_op)

    def delete(self, rid: Rid, log_op: LogOp | None = None) -> None:
        """Delete the record (with any fragments and relocated body) at ``rid``."""
        body, target = self._resolve(rid)
        self._release_body(body, log_op)
        if target is not None:
            self._physical_change(OP_DELETE, target, b"", log_op)
        self._physical_change(OP_DELETE, rid, b"", log_op)

    def exists(self, rid: Rid) -> bool:
        """True if an addressable logical record lives at ``rid``."""
        try:
            physical = self._physical_read(rid)
        except RecordNotFoundError:
            return False
        return physical[0] in (_INLINE, _SHORT, _MASTER, _FORWARD)

    def scan(self) -> Iterator[tuple[Rid, bytes]]:
        """Yield every logical record as ``(rid, payload)``, page order.

        Fragments and relocated bodies are internal and never yielded;
        forwarded records are yielded at their home Rid.
        """
        for page_id in list(self._pages):
            with self._pool.page(page_id) as page:
                entries = list(page.records())
            for slot, physical in entries:
                marker = physical[0]
                if marker in (_INLINE, _SHORT):
                    yield Rid(page_id, slot), wal_image(physical)[1]
                elif marker in (_MASTER, _FORWARD):
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
