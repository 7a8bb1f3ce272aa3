"""Slotted pages: the lowest layer of the persistence library.

The paper's versioning kernel sits on the Buroff--Shasha C++ persistence
library; this module is the Python equivalent of its page layer.  A *page* is
a fixed-size byte buffer with a classic slotted layout:

::

    +--------------------------- PAGE_SIZE bytes ---------------------------+
    | header | slot dir (grows ->)        free space      (<- grows) records|
    +-----------------------------------------------------------------------+

    header  : num_slots (u16) | free_ptr (u16) | flags (u16) | reserved (u16)
    slot i  : offset (u16) | length (u16)      -- offset == 0 means "empty"

Records are inserted at ``free_ptr`` moving *down* from the end of the page;
slots are appended after the header moving *up*.  Deleting a record clears
its slot; :meth:`SlottedPage.compact` squeezes out the holes.  Record offsets
are never exposed outside this module -- callers use ``(page_id, slot)``
pairs (see :mod:`repro.storage.heap`).

No mutation re-checks the page invariants as it goes.  What checks them is
:meth:`SlottedPage.validate` (run over every heap page by ``check
--strict``) and the property test in ``tests/storage/test_pages.py``, which
runs it after every random operation and compares each page image byte for
byte with a reference page compacted slot by slot.
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Iterator

from repro import probe
from repro.errors import BadSlotError, PageFullError

#: Size of every page in the database file, in bytes.
PAGE_SIZE = 4096

#: Byte offset where the slot directory starts (just after the header).
_HEADER_SIZE = 8

_HEADER = struct.Struct("<HHHH")  # num_slots, free_ptr, flags, reserved
_SLOT = struct.Struct("<HH")  # offset, length

#: A slot whose offset field is 0 is empty (offset 0 is inside the header,
#: so no live record can ever start there).
_EMPTY_OFFSET = 0

#: Maximum payload a single page can hold (one slot + the record bytes).
MAX_RECORD_PAYLOAD = PAGE_SIZE - _HEADER_SIZE - _SLOT.size


@functools.cache
def _directory_struct(num_slots: int) -> struct.Struct:
    """The whole slot directory of a ``num_slots``-slot page as one struct
    (a page holds at most 1,022 slots, so the cache stays small)."""
    return struct.Struct(f"<{2 * num_slots}H")


class SlottedPage:
    """A mutable slotted page over a ``bytearray`` of :data:`PAGE_SIZE` bytes.

    The page does not know its own page id; ownership of ids belongs to the
    disk manager and buffer pool.  All record payloads are ``bytes``.
    """

    __slots__ = ("_buf",)

    def __init__(self, buf: bytearray | None = None) -> None:
        if buf is None:
            buf = bytearray(PAGE_SIZE)
            self._buf = buf
            self._write_header(num_slots=0, free_ptr=PAGE_SIZE, flags=0)
            return
        if len(buf) != PAGE_SIZE:
            raise ValueError(f"page buffer must be {PAGE_SIZE} bytes, got {len(buf)}")
        self._buf = buf
        num_slots, free_ptr, _flags, _ = _HEADER.unpack_from(buf, 0)
        if free_ptr == 0 and num_slots == 0:
            # A freshly zeroed buffer from the disk manager: format it.
            self._write_header(num_slots=0, free_ptr=PAGE_SIZE, flags=0)

    # -- header ------------------------------------------------------------

    def _write_header(self, num_slots: int, free_ptr: int, flags: int) -> None:
        _HEADER.pack_into(self._buf, 0, num_slots, free_ptr, flags, 0)

    @property
    def num_slots(self) -> int:
        """Number of slot directory entries (including empty ones)."""
        return _HEADER.unpack_from(self._buf, 0)[0]

    @property
    def flags(self) -> int:
        """Free-form 16-bit flags word for the page's owner."""
        return _HEADER.unpack_from(self._buf, 0)[2]

    @flags.setter
    def flags(self, value: int) -> None:
        num_slots, free_ptr, _flags, _ = _HEADER.unpack_from(self._buf, 0)
        self._write_header(num_slots, free_ptr, value)

    # -- slot directory ----------------------------------------------------

    def _slot_pos(self, slot: int) -> int:
        return _HEADER_SIZE + slot * _SLOT.size

    def _read_slot(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < self.num_slots:
            raise BadSlotError(f"slot {slot} out of range (page has {self.num_slots})")
        return _SLOT.unpack_from(self._buf, self._slot_pos(slot))

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self._buf, self._slot_pos(slot), offset, length)

    # -- space accounting ----------------------------------------------------

    def _layout(self) -> tuple[int, int, int, tuple[int, ...]]:
        """``(num_slots, free_ptr, flags, directory)`` from one header and
        one directory unpack; ``directory`` is ``(offset0, length0,
        offset1, ...)``.  Space accounting runs on every insert and update."""
        num_slots, free_ptr, flags, _ = _HEADER.unpack_from(self._buf, 0)
        directory = _directory_struct(num_slots).unpack_from(self._buf, _HEADER_SIZE)
        return num_slots, free_ptr, flags, directory

    @property
    def free_space(self) -> int:
        """Bytes available for a new record, accounting for its slot entry.

        Includes space reclaimable by compaction, since :meth:`insert`
        compacts automatically when fragmentation is the only blocker.
        """
        num_slots, free_ptr, _flags, directory = self._layout()
        dir_end = _HEADER_SIZE + num_slots * _SLOT.size
        gap = max(free_ptr - dir_end, self._compacted_gap(directory))
        return max(0, gap - _SLOT.size)

    @staticmethod
    def _find_empty_slot(directory: tuple[int, ...]) -> int | None:
        offsets = directory[0::2]
        return offsets.index(_EMPTY_OFFSET) if _EMPTY_OFFSET in offsets else None

    def can_insert(self, length: int) -> bool:
        """Return True if a record of ``length`` bytes fits in this page.

        Accounts for space reclaimable by :meth:`compact` -- :meth:`insert`
        compacts automatically when fragmentation is the only blocker.
        """
        num_slots, free_ptr, _flags, directory = self._layout()
        gap = free_ptr - (_HEADER_SIZE + num_slots * _SLOT.size)
        need = length + (0 if self._find_empty_slot(directory) is not None else _SLOT.size)
        return gap >= need or self._compacted_gap(directory) >= need

    @staticmethod
    def _compacted_gap(directory: tuple[int, ...]) -> int:
        """The contiguous gap :meth:`compact` would produce."""
        # Every writer of an empty slot clears the length with the offset,
        # so the live bytes are simply the sum of the length fields.
        live_bytes = sum(directory[1::2])
        dir_end = _HEADER_SIZE + len(directory) // 2 * _SLOT.size
        return PAGE_SIZE - live_bytes - dir_end

    # -- record operations ---------------------------------------------------

    def insert(self, payload: bytes) -> int:
        """Insert ``payload`` and return its slot number.

        Raises :class:`PageFullError` if the payload does not fit.  A record
        may be empty (``b""``); it still occupies a slot.
        """
        length = len(payload)
        if length > MAX_RECORD_PAYLOAD:
            raise PageFullError(
                f"record of {length} bytes exceeds page capacity {MAX_RECORD_PAYLOAD}"
            )
        num_slots, free_ptr, flags, directory = self._layout()
        slot = self._find_empty_slot(directory)
        slot_cost = _SLOT.size if slot is None else 0
        if free_ptr - (_HEADER_SIZE + num_slots * _SLOT.size) < length + slot_cost:
            if self._compacted_gap(directory) < length + slot_cost:
                raise PageFullError(f"record of {length} bytes does not fit in page")
            # Fits only after squeezing out holes left by deletes/updates
            # (which keeps every slot number, so ``slot`` still holds).
            self.compact()
            free_ptr = _HEADER.unpack_from(self._buf, 0)[1]
        if slot is None:
            slot = num_slots
            num_slots += 1
        offset = free_ptr - length
        if length:
            self._buf[offset : offset + length] = payload
            self._write_header(num_slots, offset, flags)
            self._write_slot(slot, offset, length)
        else:
            # Zero-length record: mark the slot live with a sentinel offset
            # pointing at the current free_ptr; length 0 disambiguates.
            self._write_header(num_slots, free_ptr, flags)
            self._write_slot(slot, free_ptr if free_ptr != 0 else PAGE_SIZE, 0)
        return slot

    def insert_at(self, slot: int, payload: bytes) -> None:
        """Insert ``payload`` at a *specific* slot number (WAL replay only).

        The slot directory is extended with empty slots as needed.  Raises
        :class:`BadSlotError` if the slot is already occupied and
        :class:`PageFullError` if the payload does not fit.
        """
        num_slots, free_ptr, flags, _ = _HEADER.unpack_from(self._buf, 0)
        needed_slots = max(0, slot + 1 - num_slots)
        length = len(payload)
        dir_end = _HEADER_SIZE + (num_slots + needed_slots) * _SLOT.size
        if free_ptr - dir_end < length:
            # Replay applies deletes and inserts in log first-touch order,
            # so the free space may be fragmented even though the insert
            # fit at runtime.  Compact before giving up, exactly like the
            # runtime insert path does.
            self.compact()
            _, free_ptr, flags, _ = _HEADER.unpack_from(self._buf, 0)
            if free_ptr - dir_end < length:
                raise PageFullError(
                    f"record of {length} bytes does not fit at slot {slot}"
                )
        if slot < num_slots:
            offset, _ = self._read_slot(slot)
            if offset != _EMPTY_OFFSET:
                raise BadSlotError(f"slot {slot} is already occupied")
        new_num_slots = max(num_slots, slot + 1)
        # Zero-fill any newly revealed slots so they read as empty.
        for s in range(num_slots, new_num_slots):
            _SLOT.pack_into(self._buf, self._slot_pos(s), _EMPTY_OFFSET, 0)
        if length:
            offset = free_ptr - length
            self._buf[offset : offset + length] = payload
            self._write_header(new_num_slots, offset, flags)
            self._write_slot(slot, offset, length)
        else:
            self._write_header(new_num_slots, free_ptr, flags)
            self._write_slot(slot, free_ptr if free_ptr != 0 else PAGE_SIZE, 0)

    def record(self, slot: int) -> bytes | None:
        """A copy of the payload stored at ``slot``; None when the slot is
        empty or out of range (one read of the slot directory)."""
        if not 0 <= slot < _HEADER.unpack_from(self._buf, 0)[0]:
            return None
        offset, length = _SLOT.unpack_from(self._buf, _HEADER_SIZE + slot * _SLOT.size)
        if offset == _EMPTY_OFFSET:
            return None
        return bytes(self._buf[offset : offset + length])

    def update(self, slot: int, payload: bytes) -> None:
        """Replace the record at ``slot`` with ``payload``.

        Updates in place when the new payload is not larger than the old one;
        otherwise the old space is abandoned (reclaimed by :meth:`compact`)
        and the record is re-inserted, keeping the same slot number.  Raises
        :class:`PageFullError` when the grown record no longer fits.
        """
        offset, length = self._read_slot(slot)
        if offset == _EMPTY_OFFSET:
            raise BadSlotError(f"slot {slot} is empty")
        new_length = len(payload)
        if 0 < new_length <= length:
            self._buf[offset : offset + new_length] = payload
            self._write_slot(slot, offset, new_length)
            return
        # Grown (or grown-from/shrunk-to empty): release then re-place.
        # Check fitness BEFORE touching the slot -- update must be atomic:
        # on PageFullError the old record is still intact.
        probe.point("page.update.grow")
        num_slots, free_ptr, flags, directory = self._layout()
        fits = free_ptr - (_HEADER_SIZE + num_slots * _SLOT.size) >= new_length
        after_compact = self._compacted_gap(directory) + length  # old copy freed too
        if not fits and after_compact < new_length:
            raise PageFullError(
                f"updated record of {new_length} bytes does not fit in page"
            )
        self._write_slot(slot, _EMPTY_OFFSET, 0)
        if not fits:
            self.compact()
            free_ptr = _HEADER.unpack_from(self._buf, 0)[1]
        if new_length:
            new_offset = free_ptr - new_length
            self._buf[new_offset : new_offset + new_length] = payload
            self._write_header(num_slots, new_offset, flags)
            self._write_slot(slot, new_offset, new_length)
        else:
            self._write_slot(slot, free_ptr if free_ptr != 0 else PAGE_SIZE, 0)

    def delete(self, slot: int) -> None:
        """Remove the record at ``slot`` (the slot entry becomes empty)."""
        offset, _length = self._read_slot(slot)
        if offset == _EMPTY_OFFSET:
            raise BadSlotError(f"slot {slot} is already empty")
        self._write_slot(slot, _EMPTY_OFFSET, 0)
        # Trim trailing empty slots so the directory does not grow forever.
        num_slots, free_ptr, flags, _ = _HEADER.unpack_from(self._buf, 0)
        while num_slots > 0:
            off, _ = _SLOT.unpack_from(self._buf, self._slot_pos(num_slots - 1))
            if off != _EMPTY_OFFSET:
                break
            num_slots -= 1
        self._write_header(num_slots, free_ptr, flags)

    def compact(self) -> None:
        """Slide all live records to the end of the page, removing holes.

        Live records are packed down from the page end in slot order (slot
        0's record ends at :data:`PAGE_SIZE`); bytes below the new
        ``free_ptr`` are left as they were.  One directory unpack, one
        record-area slice assignment and one directory pack.
        """
        probe.point("page.compact")
        buf = self._buf
        num_slots, _free_ptr, flags, directory = self._layout()
        placed = [_EMPTY_OFFSET] * len(directory)
        records: list[bytes] = []
        free_ptr = PAGE_SIZE
        for i in range(0, len(directory), 2):
            offset = directory[i]
            if offset == _EMPTY_OFFSET:
                continue
            record = buf[offset : offset + directory[i + 1]]
            if record:
                free_ptr -= len(record)
                records.append(record)
                placed[i], placed[i + 1] = free_ptr, len(record)
            else:
                placed[i] = PAGE_SIZE  # zero-length record: live, no extent
        records.reverse()
        buf[free_ptr:] = b"".join(records)
        _directory_struct(num_slots).pack_into(buf, _HEADER_SIZE, *placed)
        self._write_header(num_slots, free_ptr, flags)

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(slot, payload)`` for every live record, slot order."""
        for slot in range(self.num_slots):
            offset, length = self._read_slot(slot)
            if offset != _EMPTY_OFFSET:
                yield slot, bytes(self._buf[offset : offset + length])

    def validate(self) -> list[str]:
        """Structural problems with this page's layout (empty == sound).

        Used by the strict consistency checker after crash recovery: the
        header must be self-consistent and every live record extent must
        lie in the record area without overlapping any other.
        """
        problems: list[str] = []
        num_slots, free_ptr, _flags, _ = _HEADER.unpack_from(self._buf, 0)
        dir_end = _HEADER_SIZE + num_slots * _SLOT.size
        if not dir_end <= free_ptr <= PAGE_SIZE:
            problems.append(
                f"free_ptr {free_ptr} outside [{dir_end}, {PAGE_SIZE}]"
            )
            return problems
        extents: list[tuple[int, int, int]] = []
        for slot in range(num_slots):
            offset, length = _SLOT.unpack_from(self._buf, self._slot_pos(slot))
            if offset == _EMPTY_OFFSET or length == 0:
                continue  # empty, or a zero-length record (no extent)
            if offset < free_ptr or offset + length > PAGE_SIZE:
                problems.append(
                    f"slot {slot} extent [{offset}, {offset + length}) "
                    f"outside record area [{free_ptr}, {PAGE_SIZE})"
                )
                continue
            extents.append((offset, offset + length, slot))
        extents.sort()
        for (_s1, e1, a), (s2, _e2, b) in zip(extents, extents[1:]):
            if e1 > s2:
                problems.append(f"slots {a} and {b} overlap")
        return problems

    # -- raw access ---------------------------------------------------------

    def raw(self) -> bytes:
        """The page's full :data:`PAGE_SIZE`-byte image (a copy)."""
        return bytes(self._buf)
