"""Lock-free snapshot reads: epoch-published views of committed state.

The paper's core invariant -- a version, once created, is immutable;
``newversion`` creates rather than mutates (§3/§4.2) -- is exactly the
property MVCC systems exploit to serve reads without locks.  This module
adds that read path: writers keep serializing through the storage mutex
and strict 2PL, but a pinned :class:`Snapshot` answers ``materialize``,
the §4 traversals, ``version_as_of`` and query scans against frozen
state, taking **no SHARED locks and never touching the storage mutex**.

The design is epoch + copy-on-write at three granularities:

* **Entries.**  The store keeps a *committed table* (oid -> frozen
  :class:`SnapshotEntry`) beside its live table.  At every commit and
  abort the store *publishes*: for each object the finished transaction
  changed (its undo marks what it restored dirty, like a write), the
  committed table's slot is overwritten with a fresh frozen entry and the
  epoch counter advances.  Objects touched by
  transactions that are still active are excluded, so uncommitted state
  is never published.  Before a slot is overwritten, the displaced entry
  is stashed into the *overlay* of every pinned snapshot that does not
  already hold one -- a pinned snapshot therefore always resolves an oid
  to the entry that was committed when it was pinned.
* **Clusters.**  Per-type membership (``_committed_by_type``: one
  oid-ordered tuple per type name) is maintained *incrementally*: while
  replacing an entry, publish notes whether the object was created,
  deleted or re-typed, and only a type with such a change gets a new
  tuple -- the old one minus the departed, plus the arrivals, spliced in
  by bisection on the int oid value (C-level copies, no per-member
  Python work), after the old tuple was stashed into pinned snapshots'
  type overlays.  A commit that only adds or rewrites versions leaves
  every tuple the same object.  Publish therefore costs what the
  finished transaction changed (times the pinned snapshots), never the
  table or cluster size; only the store's full derivation -- at open, or
  after an undo it cannot bound -- marks every object dirty.
* **Graphs.**  A published entry shares the live ``VersionGraph`` object
  and marks it ``graph_shared``; a writer about to mutate a shared graph
  clones it first (:meth:`VersionGraph.clone`), so published graphs are
  immutable once visible to a snapshot.
* **Payload bytes.**  Most version records are immutable, but
  ``write_version`` rewrites in place and delta re-basing re-encodes
  child records.  Before any versions-heap record is rewritten or
  deleted, the store stashes the *pre-op content* into every pinned
  snapshot's byte overlay (and into a registry-wide *pending* overlay
  that seeds snapshots pinned later, while the writing transaction is
  still uncommitted).  A snapshot rebuilds a version through the
  store's one walker, ``VersionStore._version_bytes``, passing its
  overlay.  Per chain step the walker probes the overlay, the shared
  bytes cache, the overlay again, the heap record, and the overlay once
  more: writers stash *before* they overwrite, so a reader that saw
  post-overwrite bytes is guaranteed to find the stash on the re-check.
  Fill rule: only the version asked for is cached, and only when no
  step came from the overlay.  Fence: a fill of the bytes cache or the
  store's decoded cache re-checks the overlay under the cache's lock
  and is skipped if the vid has appeared there -- a writer replaces or
  drops its cached entries only after stashing, so a fill that raced a
  commit can never outlive it.  Decodes: the latest serial of an entry
  is memoized on the entry (``SnapshotEntry.latest_decoded``); any
  other serial uses the store's decoded cache under the same fence.

Reclamation is by pin count: a snapshot retains displaced entries and
stashed bytes only in its own overlays, so closing it frees everything
it kept alive.  ``snap.*`` counters (published epochs, pinned readers,
reclaimed snapshots, lock-free read hits) surface through
``Database.stats()`` and ``tools/inspect``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Iterator

from repro import probe
from repro.errors import (
    DanglingReferenceError,
    ReadOnlySnapshotError,
    UnknownObjectError,
)
from repro.core.cache import shared_attr
from repro.core.identity import Oid, Vid, oid_value
from repro.core.pointers import Ref, VersionRef, unwrap_ids
from repro.core.surface import Target, VersionReads, oid_of, type_name_of
from repro.storage import serialization

if TYPE_CHECKING:
    from repro.core.store import VersionStore
    from repro.core.vgraph import VersionGraph

#: Sentinel distinguishing "no overlay entry" from "overlay says absent".
_MISS = object()


class SnapshotEntry:
    """Frozen object-table row published into the committed table.

    ``latest_decoded`` is the one mutable field: a decode memo for the
    entry's latest version, filled lazily by the wire-read fast path.
    It is sound because an entry instance's content never changes --
    every publish that touches the oid installs a *new* entry, and
    pre-images of in-flight rewrites are stashed before the heap moves
    -- so whoever decodes first stores what every reader would decode.
    It stays beside the store's decoded cache because it is the cheaper
    probe on the hottest read: replacing it with the cache cost
    ``read_latest`` 11 % of its throughput (EXPERIMENTS.md E28).
    """

    __slots__ = ("oid", "type_name", "graph", "latest_serial", "latest_decoded")

    def __init__(
        self, oid: Oid, type_name: str, graph: "VersionGraph", latest_serial: int
    ) -> None:
        self.oid = oid
        self.type_name = type_name
        self.graph = graph
        self.latest_serial = latest_serial
        self.latest_decoded: Any = None


def _with_membership(
    members: tuple[Oid, ...], left: "list[Oid] | tuple", joined: "list[Oid] | tuple"
) -> tuple[Oid, ...]:
    """``members`` (oid order) without ``left`` and with ``joined``, in oid order.

    Costs two C-level copies of the tuple plus O(log n) per change: a
    departing member is found by bisection, and arrivals -- fresh oids,
    so nearly always past the current tail -- are appended, re-sorting
    (by int value, in C) only when commit order ran against oid order.
    """
    out = list(members)
    for oid in left:
        at = bisect_left(out, oid.value, key=oid_value)
        if at < len(out) and out[at] == oid:
            del out[at]
    arrivals = sorted(joined, key=oid_value)
    resort = bool(out and arrivals) and arrivals[0].value < out[-1].value
    out.extend(arrivals)
    if resort:
        out.sort(key=oid_value)
    return tuple(out)


class SnapshotRegistry:
    """Publication, pinning and reclamation for one store's snapshots.

    All mutations (publish, pin, unpin, byte stashes) happen under one
    small internal lock, which is never held while waiting on any other
    lock -- so pinning a snapshot cannot block behind a writer that holds
    the storage mutex, an EXCLUSIVE object lock, or a page stripe.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pinned: dict[int, "Snapshot"] = {}
        #: Pre-overwrite content of versions rewritten by transactions
        #: that have not finished yet: seeds the byte overlay of any
        #: snapshot pinned while such a transaction is in flight.
        self._pending_bytes: dict[Vid, bytes] = {}
        self._pending_by_oid: dict[Oid, set[Vid]] = {}
        self.epoch = 0
        self.published = 0
        self.pins = 0
        self.reclaimed = 0
        self.stashes = 0
        #: Reads served entirely without the storage mutex or object locks.
        self.lockfree_hits = 0

    # -- counters -----------------------------------------------------------

    def min_pinned_epoch(self) -> int | None:
        """The oldest epoch any pinned snapshot is reading (None = no pins).

        The GC's epoch-reclamation signal: a displaced payload whose
        refcount hit zero at epoch E is provably unreachable through shared
        state once ``epoch > E`` (the displacement has been published, so
        no later pin can resolve to it), and every snapshot pinned at an
        epoch <= E received the content in its stash overlay when the
        displacement happened -- it never needs the blob file again.
        """
        with self._lock:
            if not self._pinned:
                return None
            return min(snap._epoch for snap in self._pinned.values())

    def stats(self) -> dict[str, int]:
        """The ``snap.*`` counter block for ``Database.stats()``."""
        with self._lock:
            return {
                "snap.epoch": self.epoch,
                "snap.published": self.published,
                "snap.pinned": len(self._pinned),
                "snap.pins": self.pins,
                "snap.reclaimed": self.reclaimed,
                "snap.stashes": self.stashes,
                "snap.lockfree_hits": self.lockfree_hits,
            }

    # -- write-side hooks (called by the store under the storage mutex) ------

    def stash_bytes(self, vid: Vid, content: bytes) -> None:
        """Preserve a version's content before its heap record changes.

        ``setdefault`` semantics everywhere: the *first* stash for a vid
        wins, which is the last committed content (a transaction that
        rewrites the same version twice must not overwrite the stash with
        its own uncommitted intermediate).
        """
        with self._lock:
            self.stashes += 1
            if vid not in self._pending_bytes:
                self._pending_bytes[vid] = content
                self._pending_by_oid.setdefault(vid.oid, set()).add(vid)
            for snap in self._pinned.values():
                if vid not in snap._bytes_overlay:
                    snap._bytes_overlay[vid] = content

    def _drop_pending(self, oid: Oid) -> None:
        vids = self._pending_by_oid.pop(oid, None)
        if vids:
            for vid in vids:
                self._pending_bytes.pop(vid, None)

    def publish(
        self,
        store: "VersionStore",
        exclude: "frozenset[Oid] | set[Oid]" = frozenset(),
    ) -> int:
        """Advance the committed table over the store's dirty objects.

        ``exclude`` lists oids touched by still-active transactions: their
        live state is uncommitted, so their committed-table slots (and any
        pending byte stashes) are left exactly as they are.  Returns the
        (possibly unchanged) epoch.
        """
        probe.point("snap.publish")
        with self._lock:
            dirty = store._dirty_oids
            publish_now = [oid for oid in dirty if oid not in exclude]
            if not publish_now:
                return self.epoch
            committed = store._committed
            table = store._table
            pinned = self._pinned.values()
            # Cluster membership changes of this round, by type name.
            joined: dict[str, list[Oid]] = {}
            left: dict[str, list[Oid]] = {}
            for oid in publish_now:
                old = committed.get(oid)
                live = table.get(oid)
                dirty.discard(oid)
                self._drop_pending(oid)
                if old is None and live is None:
                    continue
                # Stash the displaced entry (or its absence) into every
                # pinned snapshot BEFORE the committed slot moves; readers
                # re-check the overlay after every committed-table probe.
                for snap in pinned:
                    if oid not in snap._entry_overlay:
                        snap._entry_overlay[oid] = old
                new = None
                if live is not None:
                    live.graph_shared = True
                    latest = live.graph.latest()
                    if latest is not None:
                        new = SnapshotEntry(oid, live.type_name, live.graph, latest)
                if new is None:
                    committed.pop(oid, None)
                else:
                    committed[oid] = new
                old_type = None if old is None else old.type_name
                new_type = None if new is None else new.type_name
                if old_type != new_type:
                    if old_type is not None:
                        left.setdefault(old_type, []).append(oid)
                    if new_type is not None:
                        joined.setdefault(new_type, []).append(oid)
            # Only a created, deleted or re-typed object moves a cluster;
            # a type whose objects merely gained or rewrote versions keeps
            # the very tuple it had.  Members excluded this round (e.g.
            # deleted by an uncommitted transaction) were not visited, so
            # they stay visible.
            by_type = store._committed_by_type
            for tname in left.keys() | joined.keys():
                old_tuple = by_type.get(tname, ())
                for snap in pinned:
                    if tname not in snap._type_overlay:
                        snap._type_overlay[tname] = old_tuple
                by_type[tname] = _with_membership(
                    old_tuple, left.get(tname, ()), joined.get(tname, ())
                )
            self.epoch += 1
            self.published += 1
            return self.epoch

    # -- read-side lifecycle --------------------------------------------------

    def pin(self, store: "VersionStore", index_source: Any = None) -> "Snapshot":
        """Pin the current epoch; the snapshot stays readable until closed."""
        probe.point("snap.pin")
        with self._lock:
            self.pins += 1
            snap = Snapshot(
                store, self, self.epoch, dict(self._pending_bytes), index_source
            )
            self._pinned[id(snap)] = snap
            return snap

    def unpin(self, snap: "Snapshot") -> None:
        probe.point("snap.unpin")
        with self._lock:
            if self._pinned.pop(id(snap), None) is not None:
                self.reclaimed += 1


class Snapshot(VersionReads):
    """A pinned, immutable point-in-time view of the committed database.

    Implements the store protocol consumed by :class:`Ref` /
    :class:`VersionRef` / :class:`~repro.core.query.Query`, so references
    bind to a snapshot exactly as they bind to a database -- but every
    read resolves against the pinned epoch, without the storage mutex and
    without object locks.  Writes raise
    :class:`~repro.errors.ReadOnlySnapshotError`.

    Use as a context manager (``with db.snapshot() as snap: ...``) or
    call :meth:`close` explicitly to unpin.
    """

    def __init__(
        self,
        store: "VersionStore",
        registry: SnapshotRegistry,
        epoch: int,
        bytes_overlay: dict[Vid, bytes],
        index_source: Any = None,
    ) -> None:
        self._store = store
        self._registry = registry
        self._epoch = epoch
        self._bytes_overlay = bytes_overlay
        self._entry_overlay: dict[Oid, SnapshotEntry | None] = {}
        self._type_overlay: dict[str, tuple[Oid, ...]] = {}
        self._index_source = index_source
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The publication epoch this snapshot pinned."""
        return self._epoch

    @property
    def pinned(self) -> bool:
        """True until :meth:`close`."""
        return not self._closed

    @property
    def store(self) -> "VersionStore":
        """The underlying store (makes snapshot-bound refs compare equal
        to database-bound refs into the same store)."""
        return self._store

    def close(self) -> None:
        """Unpin; the registry reclaims whatever only this snapshot kept."""
        if not self._closed:
            self._closed = True
            self._registry.unpin(self)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "pinned" if not self._closed else "closed"
        return f"Snapshot(epoch={self._epoch}, {state})"

    # -- entry resolution (double-checked against publish) --------------------

    def _lookup(self, oid: Oid) -> SnapshotEntry | None:
        """The entry this snapshot sees for ``oid`` (None = no object).

        Probe order: own overlay, committed table, overlay again.  The
        publisher stashes the displaced entry into the overlay *before*
        overwriting the committed slot, so a racing reader that missed
        the overlay and then saw the post-publish slot is guaranteed to
        find the stash on the re-check.
        """
        overlay = self._entry_overlay
        got = overlay.get(oid, _MISS)
        if got is not _MISS:
            return got
        entry = self._store._committed.get(oid)
        got = overlay.get(oid, _MISS)
        if got is not _MISS:
            return got
        return entry

    def _entry(self, oid: Oid) -> SnapshotEntry:
        entry = self._lookup(oid)
        if entry is None:
            raise UnknownObjectError(f"no persistent object {oid!r}")
        return entry

    def _deref_entry(self, oid: Oid) -> SnapshotEntry:
        entry = self._lookup(oid)
        if entry is None:
            raise DanglingReferenceError(f"object {oid!r} no longer exists")
        return entry

    # -- store protocol: reads -------------------------------------------------

    def latest_vid(self, oid: Oid) -> Vid:
        """The version id the object id denotes in this snapshot."""
        entry = self._deref_entry(oid)
        self._registry.lockfree_hits += 1
        return Vid(oid, entry.latest_serial)

    def _version_entry(self, vid: Vid) -> SnapshotEntry:
        """The entry holding ``vid`` for one (counted) lock-free read;
        raises when the version is gone."""
        probe.point("snap.read")
        entry = self._deref_entry(vid.oid)
        if vid.serial not in entry.graph:
            raise DanglingReferenceError(f"version {vid!r} no longer exists")
        self._registry.lockfree_hits += 1
        return entry

    def version_bytes(self, vid: Vid) -> bytes:
        """The version's stored image as of this snapshot, undecoded."""
        entry = self._version_entry(vid)
        return self._store._version_bytes(entry, vid.serial, self._bytes_overlay)

    def materialize(self, vid: Vid) -> Any:
        """Decode a fresh copy of the version as of this snapshot."""
        return self._store._decode(self.version_bytes(vid))

    def _latest_decoded(self, entry: SnapshotEntry) -> Any:
        """The entry's decode of its latest serial, memoized on the entry."""
        stats = self._store._stats
        obj = entry.latest_decoded
        if obj is None:
            stats.decoded_misses += 1
            store = self._store
            image = store._version_bytes(entry, entry.latest_serial, self._bytes_overlay)
            obj = entry.latest_decoded = store._decode(image)
        else:
            stats.decoded_hits += 1
        return obj

    def read_attr(self, vid: Vid, name: str) -> Any:
        """Attribute-read fast path over shared decodes: the entry's memo
        for its latest serial, the store's decoded cache for any other."""
        entry = self._version_entry(vid)
        if vid.serial == entry.latest_serial:
            obj = self._latest_decoded(entry)
        else:
            obj = self._store._shared_decode(entry, vid, self._bytes_overlay)
        return shared_attr(obj, name)

    def read_latest_attr(self, oid: Oid, name: str) -> Any:
        """``read_attr(latest_vid(oid), name)`` with one entry resolution.

        The network server's inline read lane calls this once per wire
        request, so the oid -> entry probe, the epoch counter bump and
        the decode lookup are fused into a single pass.
        """
        probe.point("snap.read")
        entry = self._deref_entry(oid)
        obj = self._latest_decoded(entry)
        self._registry.lockfree_hits += 1
        return shared_attr(obj, name)

    def object_exists(self, oid: Oid) -> bool:
        """True while the object exists in this snapshot."""
        return self._lookup(oid) is not None

    def version_exists(self, vid: Vid) -> bool:
        """True while the specific version exists in this snapshot."""
        entry = self._lookup(vid.oid)
        return entry is not None and vid.serial in entry.graph

    def type_name(self, oid: Oid) -> str:
        """Stable type name of the object's class."""
        return self._entry(oid).type_name

    def graph(self, target: Target) -> "VersionGraph":
        """The frozen version graph published into this snapshot."""
        return self._entry(oid_of(target)).graph

    # -- store protocol: writes (refused) --------------------------------------

    def _read_only(self, op: str) -> ReadOnlySnapshotError:
        return ReadOnlySnapshotError(
            f"snapshot (epoch {self._epoch}) is read-only: {op} is not allowed"
        )

    def pnew(self, obj: Any, log_op: Any = None) -> Ref:
        raise self._read_only("pnew")

    def newversion(self, target: Any, log_op: Any = None) -> VersionRef:
        raise self._read_only("newversion")

    def pdelete(self, target: Any, log_op: Any = None) -> None:
        raise self._read_only("pdelete")

    def write_version(self, vid: Vid, obj: Any, log_op: Any = None) -> None:
        raise self._read_only("write_version")

    def write_version_if_changed(self, vid: Vid, obj: Any, log_op: Any = None) -> bool:
        """False for a no-op write-back; raises when a write is needed.

        Lets pure reader methods run through snapshot-bound refs (the
        write-back layer calls this after every method call); a method
        that actually mutated its receiver still fails read-only.
        """
        entry = self._lookup(vid.oid)
        if entry is not None and vid.serial in entry.graph:
            stored = self._store._version_bytes(entry, vid.serial, self._bytes_overlay)
            if serialization.encode(unwrap_ids(obj)) == stored:
                return False
        raise self._read_only("write_version")

    # -- clusters & queries ------------------------------------------------------

    def _cluster_members(self, name: str) -> tuple[Oid, ...]:
        overlay = self._type_overlay
        got = overlay.get(name, _MISS)
        if got is _MISS:
            members = self._store._committed_by_type.get(name, ())
            got = overlay.get(name, _MISS)
            if got is _MISS:
                got = members
        return got or ()

    def cluster(self, type_or_name: type | str) -> list[Ref]:
        """Snapshot-bound generic references to every object of the type."""
        name = type_name_of(type_or_name)
        out = []
        for oid in self._cluster_members(name):
            entry = self._lookup(oid)
            if entry is not None and entry.type_name == name:
                out.append(Ref(self, oid))
        return out

    def cluster_names(self) -> list[str]:
        """Type names with at least one object in this snapshot."""
        names = set(list(self._store._committed_by_type)) | set(self._type_overlay)
        out = []
        for name in names:
            for oid in self._cluster_members(name):
                entry = self._lookup(oid)
                if entry is not None and entry.type_name == name:
                    out.append(name)
                    break
        return sorted(out)

    def all_objects(self) -> Iterator[Ref]:
        """Snapshot-bound references to every object, oid order."""
        oids = set(list(self._store._committed))
        for oid, entry in list(self._entry_overlay.items()):
            if entry is None:
                oids.discard(oid)
            else:
                oids.add(oid)
        for oid in sorted(oids, key=oid_value):
            if self._lookup(oid) is not None:
                yield Ref(self, oid)

    def object_count(self) -> int:
        """Number of objects in this snapshot."""
        return sum(1 for _ in self.all_objects())

    def query(self, type_or_name: type | str) -> Any:
        """A ``suchthat`` query evaluated against this snapshot."""
        from repro.core.query import Query

        return Query(self, type_or_name)

    # -- index probes ------------------------------------------------------------

    def _divergent_oids(self) -> set[Oid]:
        """Objects whose snapshot state may disagree with the live index:
        republished since the pin (entry overlay) or rewritten by an
        uncommitted transaction (byte overlay)."""
        out: set[Oid] = set(self._entry_overlay)
        out.update(vid.oid for vid in list(self._bytes_overlay))
        return out

    def _index_candidates(
        self, probe: str, type_name: str, *args: Any
    ) -> list[Oid] | None:
        """Run one live index probe and widen it to this snapshot.

        The live index reflects live latest-state, so objects that have
        diverged from this snapshot (in either direction) are always
        added back as candidates -- the query's predicate re-check, which
        reads *through the snapshot*, gives the exact answer.
        """
        if self._index_source is None:
            return None
        try:
            oids = getattr(self._index_source, probe)(type_name, *args)
        except RuntimeError:
            # The live index mutated mid-probe; fall back to a scan.
            return None
        if oids is None:
            return None
        candidates = set(oids) | self._divergent_oids()
        out = []
        for oid in sorted(candidates, key=oid_value):
            entry = self._lookup(oid)
            if entry is not None and entry.type_name == type_name:
                out.append(oid)
        return out

    def index_lookup(self, type_name: str, attr: str, value: Any) -> list[Oid] | None:
        """Hash-index probe for the query layer."""
        return self._index_candidates("index_lookup", type_name, attr, value)

    def index_lookup_range(
        self, type_name: str, attr: str, lo: Any, hi: Any
    ) -> list[Oid] | None:
        """Ordered-index probe for the query layer."""
        return self._index_candidates("index_lookup_range", type_name, attr, lo, hi)
