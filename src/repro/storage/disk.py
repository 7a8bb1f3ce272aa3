"""Disk manager: page-granular I/O against a single database file.

The database file is an array of :data:`~repro.storage.pages.PAGE_SIZE`-byte
pages.  Page 0 is the *meta page* owned by the disk manager itself; it holds
a magic number, a format version, and the allocated page count, so a
reopened file can be validated before any higher layer touches it.

Free pages are tracked with an in-file free list threaded through the first
eight bytes of each free page.  The disk manager is deliberately simple --
no extents, no bitmaps -- because correctness under crash/reopen (exercised
by the recovery tests) matters more here than allocation locality.
"""

from __future__ import annotations

import os
import struct
import threading
from typing import Callable

from repro import probe
from repro.errors import DiskError
from repro.storage.pages import PAGE_SIZE

_MAGIC = b"ODEPYDB1"
_META = struct.Struct("<8sIIQ")  # magic, format_version, reserved, num_pages
_FREE_LINK = struct.Struct("<Q")  # next free page id (0 == end of list)
_FORMAT_VERSION = 1

#: Page id of the disk manager's own meta page.
META_PAGE_ID = 0

#: Sentinel meaning "no page" in the free list.
_NO_PAGE = 0


class DiskManager:
    """Allocate, read, and write fixed-size pages in one file.

    Thread-safe: a single lock guards the file offset and the free list.
    The manager never interprets page contents (other than free-list links
    in pages it knows are free).
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self._path = os.fspath(path)
        self._lock = threading.Lock()
        existed = os.path.exists(self._path) and os.path.getsize(self._path) > 0
        # "r+b" requires the file to exist; create it first when it does not.
        if not existed:
            with open(self._path, "wb"):
                pass
        self._file = open(self._path, "r+b", buffering=0)
        self._free_head = _NO_PAGE
        #: Total page-write / fsync attempts that failed survivably.
        self.write_failures = 0
        self._consecutive_failures = 0
        #: Consecutive failures that count as persistent storage failure.
        self.failure_threshold = 3
        #: Called once (with a reason) when the threshold is crossed.
        self.on_persistent_failure: Callable[[str], None] | None = None
        self._failure_reported = False
        if existed:
            self._load_meta()
        else:
            self._num_pages = 1  # page 0 = meta
            self._file.truncate(PAGE_SIZE)
            self._write_meta()
            self.sync()

    # -- meta page -----------------------------------------------------------

    def _load_meta(self) -> None:
        self._file.seek(0)
        raw = self._file.read(PAGE_SIZE)
        if len(raw) < _META.size:
            raise DiskError(f"{self._path}: truncated meta page")
        magic, version, free_head, num_pages = _META.unpack_from(raw, 0)
        if magic == b"\x00" * len(_MAGIC) and version == 0 and num_pages == 0:
            # An all-zero meta page means creation crashed between extending
            # the file and writing the first meta page (nothing else zeroes
            # page 0: every later meta write rewrites the magic in place).
            # Nothing can have been stored yet -- re-initialize.
            self._num_pages = 1
            self._file.truncate(PAGE_SIZE)
            self._write_meta()
            self.sync()
            return
        if magic != _MAGIC:
            raise DiskError(f"{self._path}: not an ode-py database file")
        if version != _FORMAT_VERSION:
            raise DiskError(
                f"{self._path}: format version {version}, expected {_FORMAT_VERSION}"
            )
        self._free_head = free_head
        self._num_pages = num_pages
        actual = os.path.getsize(self._path) // PAGE_SIZE
        if actual < num_pages:
            raise DiskError(
                f"{self._path}: file has {actual} pages but meta claims {num_pages}"
            )

    def _write_meta(self) -> None:
        probe.point("disk.write_meta.pre")
        buf = bytearray(PAGE_SIZE)
        _META.pack_into(buf, 0, _MAGIC, _FORMAT_VERSION, self._free_head, self._num_pages)
        self._file.seek(0)
        # A torn meta write is survivable by layout: the magic/version bytes
        # are rewritten with identical values, and free_head/num_pages only
        # ever lose an update (the file itself was already extended first).
        probe.write("disk.write_meta.write", self._file, bytes(buf))

    # -- properties ------------------------------------------------------------

    @property
    def path(self) -> str:
        """Path of the underlying database file."""
        return self._path

    @property
    def num_pages(self) -> int:
        """Number of allocated pages, including the meta page and free pages."""
        return self._num_pages

    # -- page I/O ---------------------------------------------------------------

    def allocate_page(self) -> int:
        """Allocate a fresh zeroed page and return its page id."""
        probe.point("disk.allocate.pre")
        with self._lock:
            if self._free_head != _NO_PAGE:
                page_id = self._free_head
                self._file.seek(page_id * PAGE_SIZE)
                raw = self._file.read(_FREE_LINK.size)
                (next_free,) = _FREE_LINK.unpack(raw)
                self._free_head = next_free
                self._file.seek(page_id * PAGE_SIZE)
                self._file.write(bytes(PAGE_SIZE))
                self._write_meta()
            else:
                page_id = self._num_pages
                self._num_pages += 1
                self._file.seek(page_id * PAGE_SIZE)
                self._file.write(bytes(PAGE_SIZE))
                self._write_meta()
        probe.point("disk.allocate.post")
        return page_id

    def ensure_allocated(self, page_id: int) -> None:
        """Extend the file so ``page_id`` exists (WAL replay support).

        Recovery replays logical heap operations that name page ids from the
        pre-crash run; those pages may never have been written back.  Pages
        created here are zeroed, which a heap file recognises as "format me".
        """
        if page_id == META_PAGE_ID:
            raise DiskError("page 0 is reserved for the disk manager")
        probe.point("disk.ensure_allocated")
        with self._lock:
            if page_id < self._num_pages:
                return
            self._file.truncate((page_id + 1) * PAGE_SIZE)
            self._num_pages = page_id + 1
            self._write_meta()

    def free_page(self, page_id: int) -> None:
        """Return ``page_id`` to the free list.  The caller must not reuse it."""
        self._check_page_id(page_id)
        probe.point("disk.free_page")
        with self._lock:
            buf = bytearray(PAGE_SIZE)
            _FREE_LINK.pack_into(buf, 0, self._free_head)
            self._file.seek(page_id * PAGE_SIZE)
            self._file.write(buf)
            self._free_head = page_id
            self._write_meta()

    def read_page(self, page_id: int) -> bytearray:
        """Read page ``page_id`` into a fresh mutable buffer."""
        self._check_page_id(page_id)
        with self._lock:
            self._file.seek(page_id * PAGE_SIZE)
            raw = self._file.read(PAGE_SIZE)
        if len(raw) != PAGE_SIZE:
            raise DiskError(f"short read of page {page_id} ({len(raw)} bytes)")
        return bytearray(raw)

    def write_page(self, page_id: int, data: bytes | bytearray) -> None:
        """Write a full page image to ``page_id``."""
        self._check_page_id(page_id)
        if len(data) != PAGE_SIZE:
            raise DiskError(f"page write must be {PAGE_SIZE} bytes, got {len(data)}")
        probe.point("disk.write_page.pre")
        try:
            with self._lock:
                self._file.seek(page_id * PAGE_SIZE)
                probe.write("disk.write_page.write", self._file, bytes(data))
        except OSError:
            self.note_failure("data-file page write failed")
            raise
        else:
            self._note_success()
        probe.point("disk.write_page.post")

    def _check_page_id(self, page_id: int) -> None:
        if page_id == META_PAGE_ID:
            raise DiskError("page 0 is reserved for the disk manager")
        if not 0 < page_id < self._num_pages:
            raise DiskError(f"page id {page_id} out of range (have {self._num_pages})")

    # -- lifecycle -----------------------------------------------------------

    def sync(self) -> None:
        """fsync the database file."""
        try:
            probe.point("disk.sync.pre")
            self._file.flush()
            probe.point("disk.sync.fsync")
            os.fsync(self._file.fileno())
            probe.point("disk.sync.post")
        except OSError:
            self.note_failure("data-file fsync failed")
            raise
        else:
            self._note_success()

    def note_failure(self, what: str) -> None:
        """Count a survivable I/O failure (the write-back's pack fsync's
        too); report once past the threshold.

        Simulated process deaths (:class:`~repro.storage.faults.SimulatedCrash`
        is a ``BaseException``, not ``OSError``) never reach here -- only
        failures the process survives count towards "the disk is sick".
        """
        notify: Callable[[str], None] | None = None
        reason = ""
        with self._lock:
            self.write_failures += 1
            self._consecutive_failures += 1
            if (
                self._consecutive_failures >= self.failure_threshold
                and not self._failure_reported
                and self.on_persistent_failure is not None
            ):
                self._failure_reported = True
                notify = self.on_persistent_failure
                reason = f"{what} {self._consecutive_failures} consecutive times"
        if notify is not None:
            notify(reason)

    def _note_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0

    def close(self, sync: bool = True) -> None:
        """Flush and close the file.  Idempotent.

        ``sync=False`` skips the final meta write and fsync -- used when
        the database closes in degraded mode over a disk known to reject
        writes.
        """
        if self._file.closed:
            return
        if sync:
            with self._lock:
                self._write_meta()
            self.sync()
        self._file.close()

    def __enter__(self) -> DiskManager:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
