"""The version store: ``pnew``, ``newversion``, ``pdelete``, dereferencing.

This is the paper's contribution, assembled over the persistence library:

* **pnew** (paper §2/§4.1): allocate a persistent object; it gets an object
  id and an initial version.  Versioning is *orthogonal to type* -- any
  object created with ``pnew`` can later be versioned, nothing is declared.
* **newversion(id)** (paper §4.2): create a new version *derived from* the
  denoted version.  On an object id the base is the latest version; on a
  version id it is that specific version.  The new version starts as a copy
  of its base, becomes the object's temporally latest version, and the
  derived-from edge is recorded.  Creating a version changes no other
  object (small changes have small impact -- no percolation, paper §3).
* **pdelete** (paper §4.4): on an object id, delete the object and all its
  versions; on a version id, delete just that version, splicing the
  temporal chain and re-parenting derivation children.  Deleting the latest
  version makes the temporally previous version the new latest.
* **dereferencing** (paper §4.3): an object id denotes the latest version
  (generic reference); a version id denotes one version (specific
  reference).

Version payloads are stored either as full copies or as deltas against the
derived-from parent (paper §3 cites SCCS/RCS deltas as the intended use of
the derived-from relationship).  The policy is per-store, with a keyframe
interval bounding delta-chain length; experiment E5 measures the trade-off.

All durable state lives in heap records, so transactional logging is
inherited from the heap layer through the ``log_op`` callback.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro import probe
from repro.errors import (
    BlobError,
    DanglingReferenceError,
    StorageError,
    UnknownObjectError,
    UnknownVersionError,
    VersionError,
)
from repro.core.cache import (
    DEFAULT_BYTES_BUDGET,
    DEFAULT_DECODED_ENTRIES,
    BudgetedLRU,
    CacheStats,
    shared_attr,
)
from repro.core.identity import Oid, Vid
from repro.core.pointers import Ref, VersionRef, unwrap_ids
from repro.core.snapshot import Snapshot, SnapshotEntry, SnapshotRegistry
from repro.core.surface import Target, VersionReads, oid_of, plain_id, type_name_of
from repro.core.vgraph import VersionGraph, VersionNode
from repro.storage import blobs as blobstore
from repro.storage import serialization
from repro.storage.blobs import BlobStore
from repro.storage.catalog import Catalog
from repro.storage.delta import apply_delta, compute_delta, identity_delta
from repro.storage.heap import HOME, STUB, HeapFile, LogOp, Rid, wal_image
from repro.storage.wal import PAYLOAD

if TYPE_CHECKING:
    from repro.storage.wal import LogRecord

#: Heap names used by the store.
OBJECTS_HEAP = "ode.objects"
VERSIONS_HEAP = "ode.versions"

#: Largest stored payload (full copy or delta body) kept inline in its
#: ``ode.versions`` record instead of the blob store: 1/16 page, so a
#: versions-heap page still packs 15 of them.  ``repro.storage.blobs``
#: has the break-even arithmetic.
INLINE_PAYLOAD_MAX = 256

#: Payload storage kinds (first element of a node's ``data`` tuple).
_FULL = "F"
_DELTA = "D"

#: Event kinds delivered to observers (the trigger facility subscribes).
EV_CREATE = "create"
EV_NEWVERSION = "newversion"
EV_UPDATE = "update"
EV_DELETE_VERSION = "delete_version"
EV_DELETE_OBJECT = "delete_object"

Observer = Callable[[str, Oid, Vid | None], None]

#: The node an ``ode.versions`` record starts with (its rid is the record's):
#: its length, kind, ctime, then uvarint oid, serial and dprev (0: a root).
_NODE = struct.Struct("<Bcd")


def node_header(oid: Oid, serial: int, dprev: int | None, ctime: float, kind: str) -> bytes:
    """The node header of a version record."""
    out = bytearray(_NODE.pack(0, kind.encode(), ctime))
    for value in (oid.value, serial, dprev or 0):
        serialization.write_uvarint(out, value)
    out[0] = len(out)
    return bytes(out)


def split_record(raw: bytes) -> tuple[tuple[Oid, int, int | None, float, str], bytes]:
    """``((oid, serial, dprev, ctime, kind), payload record)`` of one
    ``ode.versions`` record (:meth:`VersionStore._blob_ref_record`)."""
    try:
        size, kind, ctime = _NODE.unpack_from(raw)
        oid, pos = serialization.read_uvarint(raw, _NODE.size)
        serial, pos = serialization.read_uvarint(raw, pos)
        dprev, pos = serialization.read_uvarint(raw, pos)
    except struct.error as exc:
        raise StorageError(f"malformed version record: {exc}") from None
    if pos != size or kind not in (b"F", b"D") or not serial:
        raise StorageError(f"malformed version record header {raw[:16]!r}")
    return (Oid(oid), serial, dprev or None, ctime, kind.decode()), raw[size:]


def payload_of(raw: bytes) -> bytes:
    """:func:`split_record`'s payload record, without parsing the node."""
    return raw[raw[0] :]


#: One version as :meth:`VersionStore.install` takes it and
#: :meth:`VersionStore.export` yields it: ``(serial, dprev, ctime, content)``.
VersionRecord = tuple[int, int | None, float, bytes]


@dataclass(frozen=True)
class StoragePolicy:
    """How version payloads are stored.

    ``kind`` is ``"full"`` (every version is a full copy) or ``"delta"``
    (a version stores a delta against its derived-from parent).  With
    deltas, every ``keyframe_interval``-th version along a derivation path
    is stored full, bounding materialization cost.
    """

    kind: str = "full"
    keyframe_interval: int = 16

    def __post_init__(self) -> None:
        if self.kind not in ("full", "delta"):
            raise ValueError(f"unknown storage policy kind {self.kind!r}")
        if self.keyframe_interval < 1:
            raise ValueError("keyframe_interval must be >= 1")


class _Entry:
    """In-memory object-table entry for one persistent object."""

    __slots__ = ("oid", "type_name", "graph", "rid", "floor", "graph_shared")

    def __init__(
        self, oid: Oid, type_name: str, graph: VersionGraph, rid: Rid | None, floor: int
    ) -> None:
        self.oid = oid
        self.type_name = type_name
        self.graph = graph
        self.rid = rid
        self.floor = floor  # the home record's: no serial up to it is reissued
        #: True once the graph was published into the snapshot committed
        #: table: pinned readers may be traversing it, so any mutation must
        #: clone first (see :meth:`VersionStore._mutable_graph`).
        self.graph_shared = False


class _BlobRef:
    """One content key's entry in the derived refcount index."""

    __slots__ = ("refcount", "size")

    def __init__(self, refcount: int, size: int) -> None:
        self.refcount = refcount
        self.size = size


class VersionStore(VersionReads):
    """Versioned persistent objects over the heap layer.

    One store per database; the object table (oid -> entry) is cached in
    memory.  An object's home record in ``ode.objects`` is ``(oid,
    type_name, floor)``: fixed, and no ``newversion`` rewrites it.  Each
    version is one ``ode.versions`` record: its graph node
    (:func:`node_header`), then its stored payload (full copy or delta
    body) -- the payload itself up to :data:`INLINE_PAYLOAD_MAX` bytes,
    else a fixed-size **blob reference** to a content-addressed frame.

    Those references are the only durable statement of who uses a blob:
    the refcount index (key -> count, size) is counted from them at open,
    kept record by record by every write and undo, and never stored.  A
    frame nothing references is a zero-count GC candidate stamped with
    the snapshot epoch it was found at (``repro.core.gc`` reclaims it).
    """

    def __init__(
        self,
        catalog: Catalog,
        blobs: BlobStore,
        policy: StoragePolicy | None = None,
        cache_budget: int = DEFAULT_BYTES_BUDGET,
        oid_stride: int = 1,
        oid_residue: int = 0,
    ) -> None:
        self._catalog = catalog
        self._policy = policy or StoragePolicy()
        #: Oid allocation slice: this store only hands out oids congruent
        #: to ``oid_residue`` modulo ``oid_stride``.  Shard N of a sharded
        #: deployment gets (stride=nshards, residue=N), so placement can
        #: locate any oid's home shard arithmetically.
        self._oid_stride = oid_stride
        self._oid_residue = oid_residue
        self._objects: HeapFile = catalog.ensure_heap(OBJECTS_HEAP)
        self._versions: HeapFile = catalog.ensure_heap(VERSIONS_HEAP)
        self._blobs = blobs
        #: key -> (refcount, size), derived from the payload records.
        self._blob_index: dict[str, _BlobRef] = {}
        #: Zero-refcount keys awaiting reclaim, stamped with the snapshot
        #: epoch at which the count hit zero.  The GC only unlinks a key
        #: once the epoch has advanced past the stamp (the displacement has
        #: been published, so no later pin can reach it and every earlier
        #: pin holds stash overlays).
        self._gc_candidates: dict[str, int] = {}
        #: Payload bytes of referenced keys and of candidates, kept with the
        #: counts: the garbage pacer reads both at every commit.
        self._live_bytes = self._pending_bytes = 0
        #: Versions-heap records holding their payload inline, and their
        #: bytes: recounted with the refcounts, then kept as records change.
        self._inline_records = 0
        self._inline_bytes = 0
        self._table: dict[Oid, _Entry] = {}
        self._by_type: dict[str, set[Oid]] = {}
        #: Materialized payload bytes, LRU-bounded by a byte budget with a
        #: per-object group index for precise invalidation.
        self._bytes_cache = BudgetedLRU(
            cache_budget, len, group_of=lambda vid: vid.oid
        )
        #: Decoded objects backing the attribute-read fast path.  Entries
        #: are *shared* instances: they are never handed out directly (see
        #: read_attr) and never mutated by the store.
        self._decoded_cache = BudgetedLRU(
            DEFAULT_DECODED_ENTRIES, lambda _obj: 1, group_of=lambda vid: vid.oid
        )
        self._stats = CacheStats()
        self._observers: list[Observer] = []
        #: Snapshot read path (see repro.core.snapshot): the committed
        #: table mirrors ``_table`` at the last publication epoch, the
        #: dirty set tracks objects changed since, and the registry owns
        #: pinning/publication.  Created before _load so the load's graph
        #: construction cannot race a (not-yet-possible) publish.
        self._dirty_oids: set[Oid] = set()
        self._committed: dict[Oid, SnapshotEntry] = {}
        self._committed_by_type: dict[str, tuple[Oid, ...]] = {}
        self._snapshots = SnapshotRegistry()
        self._load()
        self._snapshots.publish(self)

    @property
    def policy(self) -> StoragePolicy:
        """The store's payload storage policy."""
        return self._policy

    @property
    def catalog(self) -> Catalog:
        """The catalog this store was opened against."""
        return self._catalog

    # -- loading, and undoing ---------------------------------------------------

    def _load(self) -> None:
        """The one full derivation, one scan per heap: each version
        record's node joins its object's graph and its payload enters the
        refcounts; each home record makes an object (all marked dirty).
        Every other frame in the packs -- a crashed put, or a payload
        displaced before the last close -- is a GC candidate at this epoch.
        """
        self._bytes_cache.clear()
        self._decoded_cache.clear()
        self._dirty_oids.update(self._table)
        self._table.clear()
        self._by_type.clear()
        self._blob_index, self._gc_candidates = {}, {}
        self._live_bytes = self._pending_bytes = 0
        self._inline_records = self._inline_bytes = 0
        rows: dict[Oid, list[tuple]] = {}
        for rid, raw in self._versions.scan():
            self._count_record(raw)
            (oid, serial, dprev, ctime, kind), _payload = split_record(raw)
            rows.setdefault(oid, []).append((serial, dprev, ctime, (kind, *rid)))
        for rid, home in self._objects.scan():
            oid, type_name, floor = serialization.decode(home)
            if oid in self._table:
                raise StorageError(f"object {oid!r} has two home records")
            self._enter(oid, type_name, rid, floor, rows.get(oid, ()))
        epoch = self._snapshots.epoch
        for key in self._blobs.keys():
            size = self._blobs.size_of(key)
            if key not in self._blob_index and size is not None:
                self._blob_index[key] = _BlobRef(0, size)
                self._gc_candidates[key] = epoch
                self._pending_bytes += size

    def _enter(self, oid: Oid, type_name: str, rid: Rid, floor: int, rows: Iterable[tuple]) -> None:
        """Add an object from its home record and its node rows."""
        self._add(_Entry(oid, type_name, VersionGraph.build(rows, floor), rid, floor))

    def _add(self, entry: _Entry) -> None:
        self._table[entry.oid] = entry
        self._by_type.setdefault(entry.type_name, set()).add(entry.oid)
        self._dirty_oids.add(entry.oid)

    def misplaced_oids(self) -> list[Oid]:
        """Objects outside this store's allocation slice.  The store never
        creates one; the files of another store copied in would hold them."""
        return sorted(
            oid for oid in self._table
            if oid.value % self._oid_stride != self._oid_residue
        )

    def undone(
        self, records: "Sequence[LogRecord]", touched: "set[Oid] | None"
    ) -> set[Oid]:
        """Bring memory back in line after the WAL undo of ``records``;
        returns the objects whose state may have moved.

        In undo order, a version record's before-image takes its reference
        back before its after-image drops one (a key both share never
        underflows).  Each ``touched`` object, and each one an image
        names, is rebuilt from its node rows and home with the images
        applied: an undone insert drops a row (or home), an undone delete
        or update puts the before-image back -- a relocated body's at the
        home its restored forward stub names, or the row's own.
        ``touched=None`` (a partial operation or undo, an in-doubt
        participant) runs :meth:`_load` instead.
        """
        if touched is None:
            changed = set(self._table)
            self._load()
            return changed | set(self._table)
        rows: dict[Oid, dict[int, tuple]] = {}
        homes: dict[Oid, tuple | None] = {}  # (type_name, rid, floor)

        def rows_of(oid: Oid) -> dict[int, tuple]:
            if oid not in rows:
                entry = self._table.get(oid)
                nodes = () if entry is None else entry.graph.walk_temporal()
                rows[oid] = {n.serial: (n.serial, n.dprev, n.ctime, n.data) for n in nodes}
                homes[oid] = None if entry is None else (entry.type_name, entry.rid, entry.floor)
            return rows[oid]

        def apply(file_id: int, home: Rid | None, payload: bytes, put: bool) -> None:
            if file_id == self._objects.file_id:
                oid, type_name, floor = serialization.decode(payload)
                rows_of(oid)
                homes[oid] = (type_name, home or homes[oid][1], floor) if put else None
                return
            (oid, serial, dprev, ctime, kind), _payload = split_record(payload)
            nodes = rows_of(oid)
            if put:
                home = home or Rid(*nodes[serial][3][1:])
                nodes[serial] = (serial, dprev, ctime, (kind, *home))
            else:
                nodes.pop(serial, None)

        for oid in touched:
            rows_of(oid)
        moved: dict[Rid, Rid] = {}  # relocated body -> its home
        for record in reversed(records):
            file_id = record.file_id
            if file_id not in (self._versions.file_id, self._objects.file_id):
                continue
            rid = Rid(record.page_id, record.slot)
            before, after = wal_image(record.undo_payload), wal_image(record.payload)
            for image, sign in ((before, 1), (after, -1)):
                if file_id == self._versions.file_id and image and image[0] != STUB:
                    self._count_record(image[1], sign)
            if after and after[0] == HOME:
                apply(file_id, rid, after[1], put=False)
            if before and before[0] == STUB:
                moved[before[1]] = rid
            elif before:
                apply(file_id, rid if before[0] == HOME else moved.get(rid), before[1], put=True)
        for oid, nodes in rows.items():
            entry = self._table.pop(oid, None)
            if entry is not None:
                self._by_type[entry.type_name].discard(oid)
            self._invalidate_object(oid)
            if homes[oid] is not None:
                self._enter(oid, *homes[oid], nodes.values())
        self._dirty_oids.update(rows)
        return set(rows)

    # -- snapshot publication (lock-free read path) ----------------------------

    @property
    def snapshots(self) -> SnapshotRegistry:
        """The registry owning snapshot publication, pinning, reclamation."""
        return self._snapshots

    def _mutable_graph(self, entry: _Entry) -> VersionGraph:
        """The entry's graph, cloned first if a snapshot may be reading it
        (published graphs are frozen: readers traverse them lock-free)."""
        if entry.graph_shared:
            entry.graph = entry.graph.clone()
            entry.graph_shared = False
        return entry.graph

    def has_unpublished_changes(self, exclude: "frozenset[Oid] | set[Oid]" = frozenset()) -> bool:
        """True when a publish (ignoring ``exclude``) would advance the epoch.

        Lock-free (pinning must not queue behind writers), so a writer may
        resize the dirty set mid-scan: re-probe then.  Either answer is
        sound in a race: a freshly dirtied oid's transaction is active.
        """
        while True:
            try:
                return any(oid not in exclude for oid in self._dirty_oids)
            except RuntimeError:  # set changed size during iteration
                continue

    def publish_snapshot(self, exclude: "frozenset[Oid] | set[Oid]" = frozenset()) -> int:
        """Publish committed state for snapshot readers; returns the epoch.
        Runs under the storage mutex; ``exclude`` lists objects touched by
        still-active transactions."""
        return self._snapshots.publish(self, exclude=exclude)

    def pin_snapshot(self, index_source: Any = None) -> Snapshot:
        """Pin the current publication epoch for lock-free reads."""
        return self._snapshots.pin(self, index_source)

    def _stash_version(self, entry: _Entry, serial: int) -> None:
        """Preserve a version's content for pinned/pending snapshots,
        *before* its record is rewritten or deleted (readers re-check
        their overlays after every shared-state probe)."""
        content = self._version_bytes(entry, serial)
        self._snapshots.stash_bytes(Vid(entry.oid, serial), content)

    # -- cache bookkeeping ----------------------------------------------------

    def _cache_bytes(self, vid: Vid, content: bytes) -> None:
        self._bytes_cache.put(vid, content)

    def _invalidate_version(self, vid: Vid) -> None:
        """Drop all cached state for one version (payload changed or gone)."""
        if self._bytes_cache.pop(vid) is not None:
            self._stats.bytes_invalidations += 1
        self._decoded_cache.pop(vid)

    def _invalidate_object(self, oid: Oid) -> None:
        """Drop all cached state for every version of one object."""
        self._stats.bytes_invalidations += self._bytes_cache.pop_group(oid)
        self._decoded_cache.pop_group(oid)

    def stats(self) -> dict[str, int]:
        """Cache/materialization counters (hits, misses, deltas applied...)."""
        out = self._stats.as_dict()
        out["bytes_evictions"] = self._bytes_cache.evictions
        out["bytes_cache_entries"] = len(self._bytes_cache)
        out["bytes_cache_used"] = self._bytes_cache.used
        out["bytes_cache_budget"] = self._bytes_cache.budget
        out["decoded_evictions"] = self._decoded_cache.evictions
        out["decoded_cache_entries"] = len(self._decoded_cache)
        return out

    @property
    def cache_stats(self) -> CacheStats:
        """The live counter block (mutable; benchmarks may reset fields)."""
        return self._stats

    # -- observers (trigger facility hooks in here) ---------------------------

    def add_observer(self, observer: Observer) -> None:
        """Register a callback invoked after every store mutation."""
        self._observers.append(observer)

    def _notify(self, event: str, oid: Oid, vid: Vid | None) -> None:
        for observer in list(self._observers):
            observer(event, oid, vid)

    # -- entry persistence -----------------------------------------------------

    def _save_home(self, entry: _Entry, log_op: LogOp | None) -> None:
        payload = serialization.encode((entry.oid, entry.type_name, entry.floor))
        if entry.rid is None:
            entry.rid = self._objects.insert(payload, log_op)
        else:
            self._objects.update(entry.rid, payload, log_op)

    def _entry(self, oid: Oid) -> _Entry:
        entry = self._table.get(oid)
        if entry is None:
            raise UnknownObjectError(f"no persistent object {oid!r}")
        return entry

    # -- content-addressed payload records ----------------------------------------

    @property
    def blobs(self) -> BlobStore:
        """The content-addressed blob store backing version payloads."""
        return self._blobs

    def _blob_incref(self, key: str, size: int) -> None:
        ref = self._blob_index.get(key)
        if ref is None:
            self._blob_index[key] = _BlobRef(1, size)
            self._live_bytes += size
            return
        ref.refcount += 1
        if ref.refcount == 1:
            # Revived while awaiting reclaim: the content is identical
            # (that is what content addressing means), so the frame is
            # simply live again.
            self._gc_candidates.pop(key, None)
            self._live_bytes += ref.size
            self._pending_bytes -= ref.size

    def _blob_decref(self, key: str) -> None:
        ref = self._blob_index.get(key)
        if ref is None or ref.refcount <= 0:
            raise BlobError(f"blob refcount underflow for {key}")
        ref.refcount -= 1
        if ref.refcount == 0:
            self._gc_candidates[key] = self._snapshots.epoch
            self._live_bytes -= ref.size
            self._pending_bytes += ref.size

    def _blob_ref_record(self, stored: bytes, log_op: LogOp | None) -> bytes:
        """The payload record for ``stored``: itself, or a blob ref.

        A payload of at most :data:`INLINE_PAYLOAD_MAX` bytes is its own
        record, unless it reads as a blob reference (the two encodings
        stay disjoint).  A larger one is put in the blob store first, its
        body logged as a ``PAYLOAD`` record, so the flush that makes the
        reference durable makes the payload durable; a crash or rollback
        in between leaves an unreferenced frame, a GC candidate.  The
        caller's heap write moves the count (:meth:`_count_record`).
        """
        if len(stored) <= INLINE_PAYLOAD_MAX and not blobstore.is_ref(stored):
            return stored
        key = self._blobs.put(
            stored,
            None if log_op is None else lambda body: log_op(PAYLOAD, 0, 0, 0, body, b""),
        )
        return blobstore.encode_ref(key, len(stored))

    def _count_record(self, record: bytes, sign: int = 1) -> None:
        """Take (``sign`` -1: drop) the blob reference a version record's
        payload holds, or count its inline payload."""
        payload = payload_of(record)
        if blobstore.is_ref(payload):
            key, size = blobstore.decode_ref(payload)
            if sign > 0:
                self._blob_incref(key, size)
            else:
                self._blob_decref(key)
        else:
            self._inline_records += sign
            self._inline_bytes += sign * len(payload)

    def _record_write(
        self, rid: Rid | None, header: bytes, stored: bytes | None, log_op: LogOp | None
    ) -> Rid:
        """Insert (``rid=None``) or rewrite a version record: ``header``, then
        ``stored``'s payload record (``None``: the old record's payload)."""
        old = None if rid is None else self._versions.read(rid)
        payload = payload_of(old) if stored is None else self._blob_ref_record(stored, log_op)
        if rid is None:
            rid = self._versions.insert(header + payload, log_op)
        else:
            self._versions.update(rid, header + payload, log_op)
        # Incref-new before decref-old: rewriting a record to the same
        # content must never let the shared key's count touch zero.
        self._count_record(header + payload)
        if old is not None:
            self._count_record(old, -1)
        return rid

    def _record_delete(self, rid: Rid, log_op: LogOp | None) -> None:
        old = self._versions.read(rid)
        self._versions.delete(rid, log_op)
        self._count_record(old, -1)

    def _resolve_payload(self, raw: bytes) -> bytes:
        """The stored payload of a versions-heap record.

        A blob reference is followed into the blob store; any other
        payload record is a small payload stored inline (see
        :meth:`_blob_ref_record`) and is returned as it is.
        """
        payload = payload_of(raw)
        if blobstore.is_ref(payload):
            key, _size = blobstore.decode_ref(payload)
            return self._blobs.get(key)
        return payload

    # -- blob accounting surface (GC, check, inspect) ------------------------------

    def blob_entries(self) -> dict[str, tuple[int, int]]:
        """Snapshot of the refcount index: key -> (refcount, size)."""
        return {k: (ref.refcount, ref.size) for k, ref in self._blob_index.items()}

    def gc_candidates(self) -> dict[str, int]:
        """Zero-refcount keys awaiting reclaim: key -> epoch stamp."""
        return dict(self._gc_candidates)

    def blob_refcount(self, key: str) -> int | None:
        """Refcount of a key, or None when the index does not know it."""
        ref = self._blob_index.get(key)
        return None if ref is None else ref.refcount

    def orphan_blob_keys(self) -> list[str]:
        """Frames in the packs the index does not know (there should be
        none: every put enters its key, every load lists the packs)."""
        return [key for key in self._blobs.keys() if key not in self._blob_index]

    def drop_blob_entry(self, key: str) -> None:
        """Forget a reclaimed key (GC, after the unlink)."""
        ref = self._blob_index.get(key)
        if ref is None:
            return
        if ref.refcount != 0:
            raise BlobError(
                f"cannot drop live blob {key} (refcount {ref.refcount})"
            )
        del self._blob_index[key]
        self._gc_candidates.pop(key, None)
        self._pending_bytes -= ref.size

    def garbage_and_live_bytes(self) -> tuple[int, int]:
        """``(garbage, live)``: candidate plus dead pack bytes, and the
        referenced payload bytes (what the garbage pacer compares)."""
        return self._pending_bytes + self._blobs.dead_bytes(), self._live_bytes

    def unpublished_garbage(self) -> int:
        """Bytes of the candidates displaced since the last publish."""
        epoch, index = self._snapshots.epoch, self._blob_index
        return sum(index[k].size for k, stamp in self._gc_candidates.items() if stamp >= epoch)

    def blob_stats(self) -> dict[str, int]:
        """Blob-store counters plus index totals (``blobs.*`` namespace)."""
        out = self._blobs.stats_dict()
        out["blobs.count"] = len(self._blob_index)
        # Candidates are the zero-count entries of the same index.
        out["blobs.live"] = len(self._blob_index) - len(self._gc_candidates)
        out["blobs.live_bytes"] = self._live_bytes
        refs = self._blob_index.values()
        out["blobs.logical_bytes"] = sum(ref.refcount * ref.size for ref in refs)
        out["blobs.pending_reclaim"] = len(self._gc_candidates)
        out["blobs.pending_reclaim_bytes"] = self._pending_bytes
        out["blobs.inline_records"] = self._inline_records
        out["blobs.inline_bytes"] = self._inline_bytes
        return out

    # -- payload storage ---------------------------------------------------------

    def _store_payload(
        self, entry: _Entry, node: VersionNode, content: bytes, log_op: LogOp | None,
        same: bool = False,
    ) -> None:
        """Write the record of a just-created node and set its ``data``.
        ``same``: ``content`` is its base's image byte for byte (a
        ``newversion``), so the delta is the identity, built without a diff."""
        kind, stored, base = _FULL, content, node.dprev
        if (
            self._policy.kind == "delta"
            and base is not None
            and self._depth_since_keyframe(entry, base) + 1 < self._policy.keyframe_interval
        ):
            delta = (
                identity_delta(content) if same
                else compute_delta(self._version_bytes(entry, base), content)
            )
            if len(delta) < len(content):
                kind, stored = _DELTA, delta
        header = node_header(entry.oid, node.serial, base, node.ctime, kind)
        rid = self._record_write(None, header, stored, log_op)
        node.data = (kind, rid.page_id, rid.slot)

    def _depth_since_keyframe(self, entry: _Entry, serial: int) -> int:
        """Delta-chain length from ``serial`` back to the nearest full copy."""
        depth = 0
        graph = entry.graph
        current: int | None = serial
        while current is not None:
            node = graph.node(current)
            if node.data[0] == _FULL:
                return depth
            depth += 1
            current = node.dprev
        raise VersionError(f"delta chain of {entry.oid!r} has no full-copy root")

    def _version_bytes(
        self,
        entry: _Entry | SnapshotEntry,
        serial: int,
        overlay: dict[Vid, bytes] | None = None,
    ) -> bytes:
        """Materialized payload bytes of one version: the one rebuild.

        A pinned snapshot passes its frozen entry and byte ``overlay``
        (the pre-images stashed for it, see ``repro.core.snapshot``); the
        live store passes none.  The delta chain is walked back to the
        first step that supplies content -- the overlay, the shared bytes
        cache (a cached ancestor ends the walk: chain-prefix memoization),
        or at a full copy the heap record (:meth:`_record_payload`) -- and
        each overlay probe is repeated after the shared-state probe.

        Fill rule: only the version asked for is cached, and only when no
        step came from the overlay; a snapshot's fill is refused if the
        vid has appeared in its overlay (``BudgetedLRU.put(unless=)``).
        A writer stashes a pre-image into every pinned overlay before it
        touches the record and replaces the cached entry after, so a fill
        that raced a commit is refused or replaced, never served stale.
        """
        oid, graph = entry.oid, entry.graph
        cache, stats = self._bytes_cache, self._stats
        chain: list[int] = []  # delta serials to apply, newest first
        stashed = False
        current: int | None = serial
        while True:
            if current is None:
                raise VersionError(f"delta chain of {oid!r} has no full-copy root")
            vid = Vid(oid, current)
            if overlay and vid in overlay:
                content, stashed = overlay[vid], True
                break
            content = cache.get(vid)
            if content is not None:
                if overlay and vid in overlay:
                    content, stashed = overlay[vid], True
                    break
                if current == serial:
                    stats.bytes_hits += 1
                    return content
                stats.chain_prefix_hits += 1
                break
            if current == serial:
                stats.bytes_misses += 1
            node = graph.node(current)
            if node.data[0] == _FULL:
                content, stashed = self._record_payload(vid, node.data, overlay)
                break
            chain.append(current)
            current = node.dprev
        for step in reversed(chain):
            payload, from_overlay = self._record_payload(
                Vid(oid, step), graph.node(step).data, overlay
            )
            if from_overlay:
                # Full content, superseding the prefix assembled so far.
                content, stashed = payload, True
            else:
                content = apply_delta(content, payload, stats)
        if not stashed:
            cache.put(Vid(oid, serial), content, unless=overlay)
        return content

    def _record_payload(
        self, vid: Vid, data: tuple, overlay: dict[Vid, bytes] | None
    ) -> tuple[bytes, bool]:
        """``(payload, stashed)`` of one chain step's stored record.

        With an overlay the heap read is re-checked against it: a record
        that moved under the read was stashed first, and without a stash
        the record read is the snapshot's.
        """
        _kind, page_id, slot = data
        try:
            raw = self._versions.read(Rid(page_id, slot))
            if not overlay or vid not in overlay:
                return self._resolve_payload(raw), False
        except StorageError:
            if not overlay or vid not in overlay:
                raise
        return overlay[vid], True

    def _decode(self, content: bytes) -> Any:
        """A fresh decode of one version image, counted in ``bytes_decoded``."""
        self._stats.bytes_decoded += len(content)
        return serialization.decode(content)

    def _shared_decode(
        self,
        entry: _Entry | SnapshotEntry,
        vid: Vid,
        overlay: dict[Vid, bytes] | None = None,
    ) -> Any:
        """The shared decoded copy of one version (attribute fast path).

        Probed and filled under :meth:`_version_bytes`'s fence: a hit
        counts only while the vid is not in the overlay, and a vid in the
        overlay is decoded privately, never filled.
        """
        obj = self._decoded_cache.get(vid)
        if obj is not None and not (overlay and vid in overlay):
            self._stats.decoded_hits += 1
            return obj
        self._stats.decoded_misses += 1
        obj = self._decode(self._version_bytes(entry, vid.serial, overlay))
        self._decoded_cache.put(vid, obj, unless=overlay)
        return obj

    def _stash_rebased(self, entry: _Entry, serial: int) -> dict[int, bytes]:
        """Stash ``serial`` and its delta-stored children before their
        records change; returns the children's content (which a re-base
        leaves as it is, so the stash holds on both sides of it)."""
        graph = entry.graph
        children = {
            child: self._version_bytes(entry, child)
            for child in graph.node(serial).children
            if graph.node(child).data[0] == _DELTA
        }
        self._stash_version(entry, serial)
        for child, content in children.items():
            self._snapshots.stash_bytes(Vid(entry.oid, child), content)
        self._dirty_oids.add(entry.oid)
        return children

    def _reencode(
        self, entry: _Entry, serial: int, content: bytes | None, log_op: LogOp | None
    ) -> None:
        """Store ``content`` in the existing record of ``serial`` and cache it.

        A delta-stored node is re-encoded against its current derivation
        parent, or becomes a full copy when it has none or the delta no
        longer pays.  ``content=None``: a full copy's parent moved, and
        only its node header is rewritten.
        """
        node = entry.graph.own(serial)
        kind, page_id, slot = node.data
        stored = content
        if kind == _DELTA:
            stored, kind = content, _FULL
            if node.dprev is not None:
                delta = compute_delta(self._version_bytes(entry, node.dprev), content)
                if len(delta) < len(content):
                    stored, kind = delta, _DELTA
        node.data = (kind, page_id, slot)
        header = node_header(entry.oid, serial, node.dprev, node.ctime, kind)
        self._record_write(Rid(page_id, slot), header, stored, log_op)
        if content is not None:
            self._cache_bytes(Vid(entry.oid, serial), content)

    def _rewrite_payload(
        self, entry: _Entry, serial: int, content: bytes, log_op: LogOp | None
    ) -> None:
        """Replace the stored payload of an existing version with ``content``;
        its delta-stored children are re-encoded, their content unchanged."""
        self._mutable_graph(entry)  # copy-on-write before node kinds change
        children = self._stash_rebased(entry, serial)
        probe.point("store.rewrite.stashed")
        self._reencode(entry, serial, content, log_op)
        # The version's content changed: its decoded copy is stale.  The
        # children's stay valid (only their encoding changes).
        self._decoded_cache.pop(Vid(entry.oid, serial))
        for child, child_content in children.items():
            self._reencode(entry, child, child_content, log_op)

    # -- the one door in, and the one door out ----------------------------------

    def install(
        self,
        oid: Oid,
        type_name: str,
        max_serial: int,
        versions: Iterable[VersionRecord],
        log_op: LogOp | None = None,
    ) -> None:
        """Add one object with its history: the only way an object enters.

        ``versions`` are ``(serial, dprev, ctime, content)`` in serial
        order, ``content`` the encoded payload; each is stored under this
        store's policy.  ``max_serial``, the home record's floor, keeps
        serials up to it dead, as they were where the history came from
        (paper §4: a version id names one version).  ``pnew`` installs one
        version; vacuum and dump/load install what :meth:`export` yields.
        An oid already here is refused.
        """
        if oid in self._table:
            raise VersionError(f"object {oid!r} already exists")
        graph = VersionGraph()
        entry = _Entry(oid, type_name, graph, None, max_serial)
        for serial, dprev, ctime, content in versions:
            self._store_payload(entry, graph.create(serial, dprev, ctime), content, log_op)
            self._cache_bytes(Vid(oid, serial), content)
        if not len(graph):
            raise VersionError(f"object {oid!r} has no versions to install")
        graph.reserve(max_serial)
        self._save_home(entry, log_op)
        self._add(entry)

    def export(self) -> Iterator[tuple[Oid, str, int, list[VersionRecord]]]:
        """``(oid, type_name, max_serial, versions)`` for every live object,
        oid order, in the shape :meth:`install` takes.  Each content is the
        version's whole encoded payload (rebuilt from its delta chain, not
        decoded), so what it is stored as here does not travel."""
        for oid in sorted(self._table):
            entry = self._table[oid]
            graph = entry.graph
            versions = [
                (node.serial, node.dprev, node.ctime, self._version_bytes(entry, node.serial))
                for node in graph.walk_temporal()
            ]
            yield oid, entry.type_name, graph.max_serial, versions

    # -- public kernel operations ---------------------------------------------

    def pnew(self, obj: Any, log_op: LogOp | None = None) -> Ref:
        """Create a persistent object; returns its generic reference.

        The object's state is captured immediately (via the stable codec);
        the live ``obj`` is not kept -- all later access goes through the
        returned reference.  The object starts with one version.
        """
        probe.point("store.pnew")
        type_name = serialization.registered_name(type(obj))
        if type_name is None:
            # Version orthogonality in practice: pnew accepts any object.
            # Auto-register under the qualified name, uniquified if a
            # different class (e.g. a redefined local class) already took it.
            base_name = f"{type(obj).__module__}.{type(obj).__qualname__}"
            type_name = base_name
            suffix = 1
            while True:
                try:
                    serialization.register_type(type(obj), type_name)
                    break
                except serialization.SerializationError:
                    suffix += 1
                    type_name = f"{base_name}#{suffix}"
        oid = Oid(
            self._catalog.next_value(
                "ode.oid",
                log_op,
                stride=self._oid_stride,
                residue=self._oid_residue,
            )
        )
        content = self._encode_object(obj)
        self.install(oid, type_name, 1, [(1, None, time.time(), content)], log_op)
        self._notify(EV_CREATE, oid, Vid(oid, 1))
        return Ref(self, oid)

    def newversion(self, target: Ref | VersionRef | Oid | Vid, log_op: LogOp | None = None) -> VersionRef:
        """Create a new version derived from ``target`` (paper §4.2).

        With an object id / generic reference, the base is the latest
        version; with a version id / specific reference, the base is that
        version -- deriving from a non-latest version is what creates
        variants (alternatives).  The new version starts with the base's
        contents and becomes the object's latest: one version record.
        """
        probe.point("store.newversion")
        base_vid = self._vid_of(target)
        entry = self._entry(base_vid.oid)
        graph = self._mutable_graph(entry)
        base_serial = base_vid.serial
        content = self._version_bytes(entry, base_serial)
        node = graph.create(graph.max_serial + 1, base_serial, time.time())
        self._store_payload(entry, node, content, log_op, same=True)
        vid = Vid(entry.oid, node.serial)
        self._cache_bytes(vid, content)
        self._dirty_oids.add(entry.oid)
        self._notify(EV_NEWVERSION, entry.oid, vid)
        return VersionRef(self, vid)

    def pdelete(self, target: Ref | VersionRef | Oid | Vid, log_op: LogOp | None = None) -> None:
        """Delete an object (all versions) or one version (paper §4.4)."""
        probe.point("store.pdelete")
        ident = plain_id(target)
        if isinstance(ident, Oid):
            self._delete_object(ident, log_op)
        else:
            self._delete_version(ident, log_op)

    def _delete_object(self, oid: Oid, log_op: LogOp | None) -> None:
        entry = self._entry(oid)
        # Pinned (and not-yet-pinned mid-transaction) snapshots must keep
        # reading every version after the records are gone: stash them all
        # before the first delete.
        for node in list(entry.graph.walk_temporal()):
            self._stash_version(entry, node.serial)
        self._dirty_oids.add(oid)
        for node in list(entry.graph.walk_temporal()):
            _kind, page_id, slot = node.data
            self._record_delete(Rid(page_id, slot), log_op)
        self._invalidate_object(oid)
        self._objects.delete(entry.rid, log_op)
        del self._table[oid]
        self._by_type[entry.type_name].discard(oid)
        self._notify(EV_DELETE_OBJECT, oid, None)

    def _delete_version(self, vid: Vid, log_op: LogOp | None) -> None:
        entry = self._entry(vid.oid)
        graph = entry.graph
        if vid.serial not in graph:
            raise UnknownVersionError(f"no live version {vid!r}")
        if len(graph) == 1:
            # Deleting the only version deletes the object.
            self._delete_object(vid.oid, log_op)
            return
        graph = self._mutable_graph(entry)
        # Each child's record is rewritten for its new parent; one stored
        # as a delta against this version is re-based (or goes full).
        children = self._stash_rebased(entry, vid.serial)
        removed = graph.remove(vid.serial)
        _kind, page_id, slot = removed.data
        self._record_delete(Rid(page_id, slot), log_op)
        self._invalidate_version(vid)
        for child in removed.children:
            probe.point("store.rebase")
            self._reencode(entry, child, children.get(child), log_op)
        if vid.serial == graph.max_serial:  # the floor keeps it dead
            probe.point("store.floor")
            entry.floor = vid.serial
            self._save_home(entry, log_op)
        self._notify(EV_DELETE_VERSION, vid.oid, vid)

    # -- dereferencing (used by Ref / VersionRef) --------------------------------

    def latest_vid(self, oid: Oid) -> Vid:
        """The version id an object id currently denotes (paper §4.3)."""
        entry = self._table.get(oid)
        if entry is None:
            raise DanglingReferenceError(f"object {oid!r} no longer exists")
        return Vid(oid, entry.graph.latest())

    def _version_entry(self, vid: Vid) -> _Entry:
        """The entry holding ``vid``; raises when the version is gone."""
        entry = self._table.get(vid.oid)
        if entry is None:
            raise DanglingReferenceError(f"object {vid.oid!r} no longer exists")
        if vid.serial not in entry.graph:
            raise DanglingReferenceError(f"version {vid!r} no longer exists")
        return entry

    def version_bytes(self, vid: Vid) -> bytes:
        """The version's stored image: its payload in the codec, undecoded."""
        return self._version_bytes(self._version_entry(vid), vid.serial)

    def materialize(self, vid: Vid) -> Any:
        """Decode and return a fresh copy of the version's object."""
        return self._decode(self.version_bytes(vid))

    def read_attr(self, vid: Vid, name: str) -> Any:
        """Attribute-read fast path over a *shared* cached decode.

        Serves ``ref.field`` from the cached decoded object when the value
        cannot alias mutable cached state (immutable scalars, ids,
        containers the pointer layer copies); returns :data:`READ_MISS`
        when the caller must fall back to a fresh :meth:`materialize`.
        """
        return shared_attr(self._shared_decode(self._version_entry(vid), vid), name)

    def write_version(self, vid: Vid, obj: Any, log_op: LogOp | None = None) -> None:
        """Update a version's contents **in place** (no new version).

        Paper §4.2 separates mutating a version from creating one:
        ``newversion`` is always explicit.
        """
        probe.point("store.write")
        entry = self._version_entry(vid)
        self._rewrite_payload(entry, vid.serial, self._encode_object(obj), log_op)
        self._notify(EV_UPDATE, vid.oid, vid)

    def _encode_object(self, obj: Any) -> bytes:
        # The codec unwraps nested Refs/VersionRefs to ids by itself (see
        # serialization.install_reference_unwrapper); unwrap_ids handles the
        # case where obj *is* a bare container of references.
        return serialization.encode(unwrap_ids(obj))

    def version_dirty(self, vid: Vid, obj: Any) -> bool:
        """True unless ``obj`` re-encodes byte-identically to the stored
        version (a codec that is not byte-stable only costs a write)."""
        entry = self._table.get(vid.oid)
        if entry is None or vid.serial not in entry.graph:
            return True  # let write_version raise the precise error
        return self._encode_object(obj) != self._version_bytes(entry, vid.serial)

    def write_version_if_changed(
        self, vid: Vid, obj: Any, log_op: LogOp | None = None
    ) -> bool:
        """:meth:`write_version`, skipped when the payload is unchanged (the
        write-back behind ``ref.method(...)``: a pure reader method writes
        nothing).  Returns True when a write happened."""
        if not self.version_dirty(vid, obj):
            self._stats.writebacks_skipped += 1
            return False
        self.write_version(vid, obj, log_op)
        return True

    # -- existence & metadata ----------------------------------------------------

    def object_exists(self, oid: Oid) -> bool:
        """True while the object has at least one live version."""
        return oid in self._table

    def version_exists(self, vid: Vid) -> bool:
        """True while this specific version is live."""
        entry = self._table.get(vid.oid)
        return entry is not None and vid.serial in entry.graph

    def type_name(self, oid: Oid) -> str:
        """Stable type name of the object's class."""
        return self._entry(oid).type_name

    def graph(self, target: Target) -> VersionGraph:
        """The object's version graph (live view -- do not mutate)."""
        return self._entry(oid_of(target)).graph

    # -- clusters (per-type extents, used by the query layer) ----------------------

    def cluster(self, type_or_name: type | str) -> list[Ref]:
        """Generic references to every object of the given type.

        Ode clusters objects by type; the query layer iterates these.
        """
        oids = sorted(self._by_type.get(type_name_of(type_or_name), set()))
        return [Ref(self, oid) for oid in oids]

    def cluster_names(self) -> list[str]:
        """Type names with at least one live object."""
        return sorted(name for name, oids in self._by_type.items() if oids)

    def all_objects(self) -> Iterator[Ref]:
        """Generic references to every live object, oid order."""
        for oid in sorted(self._table):
            yield Ref(self, oid)

    def object_count(self) -> int:
        """Number of live persistent objects."""
        return len(self._table)
