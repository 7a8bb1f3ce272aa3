"""System catalog: named heaps and durable counters.

Ode groups persistent objects into per-type *clusters* and needs a handful
of database-wide counters (the object-id and version-id generators of paper
§4's ``pnew``/``newversion``).  All of that bookkeeping is itself ordinary
heap data, stored in a well-known heap (file id 1), so it is WAL-protected
like everything else and needs no special recovery path.

Catalog records are codec-encoded tuples:

* ``("heap", name, file_id)`` -- a named heap file
* ``("counter", name, value)`` -- a monotonic counter (updated in place)

Any other record kind is refused with :class:`~repro.errors.CatalogError`.
Everything else a database keeps -- retention rules and version tags
included (:mod:`repro.core.gc`) -- is ordinary persistent objects.
"""

from __future__ import annotations

from repro.errors import CatalogError
from repro.storage import serialization
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap import HeapFile, LogOp, Rid
from repro.storage.stripes import StripedLock

#: The catalog lives in heap file 1, always.
CATALOG_FILE_ID = 1


class Catalog:
    """Registry of heaps and counters backed by heap file 1.

    All state is cached in memory at open (the catalog is small) and
    written through on every mutation.  Mutations accept the same optional
    ``log_op`` callback as the heap layer so they participate in whatever
    transaction is running.
    """

    def __init__(
        self,
        disk: DiskManager,
        pool: BufferPool,
        page_locks: StripedLock | None = None,
    ) -> None:
        self._disk = disk
        self._pool = pool
        self._page_locks = page_locks
        self._heap = HeapFile(CATALOG_FILE_ID, disk, pool, page_locks=page_locks)
        self._open_heaps: dict[int, HeapFile] = {CATALOG_FILE_ID: self._heap}
        self.reload()

    def reload(self) -> None:
        """Rebuild the in-memory catalog caches from heap file 1.

        Run at open and after a transaction abort (the WAL undo has
        restored the records; this brings counters and heap names back
        in line).  Open heap handles are kept -- pages never disappear.
        """
        self._heaps: dict[str, int] = {}
        self._counters: dict[str, int] = {}
        self._counter_rids: dict[str, Rid] = {}
        for rid, payload in self._heap.scan():
            entry = serialization.decode(payload)
            if not isinstance(entry, tuple) or len(entry) != 3:
                raise CatalogError(f"malformed catalog record at {rid}")
            kind, name, value = entry
            if kind == "heap":
                self._heaps[name] = value
            elif kind == "counter":
                self._counters[name] = value
                self._counter_rids[name] = rid
            else:
                raise CatalogError(f"unknown catalog record kind {kind!r}")

    # -- heaps --------------------------------------------------------------

    def heap_names(self) -> list[str]:
        """Registered heap names, sorted."""
        return sorted(self._heaps)

    def ensure_heap(self, name: str, log_op: LogOp | None = None) -> HeapFile:
        """Open the named heap, registering a new file id on first use."""
        file_id = self._heaps.get(name)
        if file_id is None:
            file_id = self._next_file_id()
            self._heap.insert(serialization.encode(("heap", name, file_id)), log_op)
            self._heaps[name] = file_id
        return self.heap_by_id(file_id)

    def heap_by_id(self, file_id: int) -> HeapFile:
        """Open a heap by file id (shared instance per id)."""
        heap = self._open_heaps.get(file_id)
        if heap is None:
            heap = HeapFile(
                file_id, self._disk, self._pool, page_locks=self._page_locks
            )
            self._open_heaps[file_id] = heap
        return heap

    def _next_file_id(self) -> int:
        used = set(self._heaps.values()) | {CATALOG_FILE_ID}
        return max(used) + 1

    # -- counters --------------------------------------------------------------

    def next_value(
        self,
        counter: str,
        log_op: LogOp | None = None,
        *,
        stride: int = 1,
        residue: int = 0,
    ) -> int:
        """Increment and persist the named counter; returns the new value.

        Counters start at 0, so the first call returns 1.  With
        ``stride > 1`` the counter advances to the smallest value above the
        current one congruent to ``residue`` modulo ``stride`` -- how a
        shard allocates oids from its own slice of the id space while the
        persisted counter still equals the last id handed out (the
        invariant the consistency checker's oid-counter floor relies on).
        """
        value = self._counters.get(counter, 0) + 1
        if stride > 1:
            value += (residue - value) % stride
        payload = serialization.encode(("counter", counter, value))
        rid = self._counter_rids.get(counter)
        if rid is None:
            rid = self._heap.insert(payload, log_op)
            self._counter_rids[counter] = rid
        else:
            self._heap.update(rid, payload, log_op)
        self._counters[counter] = value
        return value

    def peek_value(self, counter: str) -> int:
        """Current value of the counter without incrementing."""
        return self._counters.get(counter, 0)
