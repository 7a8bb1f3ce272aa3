"""fsck for ode-py databases: deep integrity verification.

Checks, for an open database:

1. every version graph validates structurally (acyclic derivation,
   temporal chain consistent, parent/child symmetry);
2. every live version's payload materializes (delta chains reconstruct);
3. every record in the versions heap is referenced by exactly one live
   version (no orphans, no double-references);
4. both heaps decode record by record, as an open loads them.

With ``strict=True`` (used by the crash-matrix harness after every
simulated crash + recovery) it additionally cross-checks the physical
layers against each other:

5. every page owned by a registered heap has a structurally sound
   slotted layout (slot extents in bounds, no overlaps);
6. every page in the file is either unowned (zeroed/free) or tagged with
   a registered heap file id;
7. what an open derives from the home records and node headers is the
   live table: same objects and types, graphs equal node for node and in
   the high-water mark; and every version tag names a live version;
8. the ``ode.oid`` counter is at or above every live object id, so a
   recovered database can never re-issue an id;
9. every blob frame re-hashes to the key it is indexed under and is
   known to the refcount index (dead pack space is a warning); the
   index's counts are audited against a recount even without ``strict``;
10. every object id lies in the store's allocation slice (a shard holds
    only ids of its own residue class -- routing relies on it).

Returns a :class:`CheckReport`; ``ok`` is True when no problems were
found.  Never mutates the database.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import gc as gc_engine
from repro.core.database import Database
from repro.core.identity import Oid, Vid
from repro.core.store import VersionStore
from repro.core.vgraph import VersionGraph
from repro.errors import BlobError, OdeError
from repro.storage import blobs as blobstore
from repro.storage.catalog import CATALOG_FILE_ID
from repro.storage.heap import Rid


@dataclass
class CheckReport:
    """Findings of one :func:`check_database` run."""

    objects_checked: int = 0
    versions_checked: int = 0
    problems: list[str] = field(default_factory=list)
    #: Advisory findings (performance hazards, not integrity violations);
    #: they do not affect :attr:`ok`.
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the database passed every check."""
        return not self.problems

    def render(self) -> str:
        """Human-readable report."""
        header = (
            f"checked {self.objects_checked} objects / "
            f"{self.versions_checked} versions: "
            + ("OK" if self.ok else f"{len(self.problems)} problem(s)")
        )
        lines = [header] + [f"  - {p}" for p in self.problems]
        lines.extend(f"  ! {w}" for w in self.warnings)
        return "\n".join(lines)


def check_database(db: Database, strict: bool = False) -> CheckReport:
    """Run every integrity check against an open database.

    ``strict`` adds the physical cross-consistency checks (page layouts,
    page ownership, object-table round-trip, id-counter floor) that the
    crash-matrix harness runs after every simulated crash.
    """
    report = CheckReport()
    store = db.store
    catalog = db.catalog

    # 4. both heaps load, record by record, as an open loads them.
    try:
        durable: VersionStore | None = VersionStore(catalog, store.blobs, store.policy)
    except (OdeError, ValueError, TypeError) as exc:
        report.problems.append(f"the durable state is undecodable: {exc}")
        durable = None

    # Delta chains longer than 2x the keyframe interval mean the policy's
    # keyframe cadence is not bounding replay cost (deep interior deletes
    # or a migrated database) -- worth a warning, not a problem.
    chain_warn_threshold = (
        2 * store.policy.keyframe_interval if store.policy.kind == "delta" else 0
    )

    # 1+2: graphs validate, versions materialize; collect payload refs.
    referenced: dict[Rid, Vid] = {}
    for ref in store.all_objects():
        report.objects_checked += 1
        graph = store.graph(ref.oid)
        try:
            graph.validate()
        except OdeError as exc:
            report.problems.append(f"object {ref.oid!r}: graph invalid: {exc}")
            continue
        depths: dict[int, int] = {}  # serial -> delta steps back to a keyframe
        longest_chain = 0
        for node in graph.walk_temporal():
            report.versions_checked += 1
            vid = Vid(ref.oid, node.serial)
            kind, page_id, slot = node.data
            if kind == "D" and node.dprev is not None:
                depths[node.serial] = depth = depths.get(node.dprev, 0) + 1
                longest_chain = max(longest_chain, depth)
            rid = Rid(page_id, slot)
            if rid in referenced:
                report.problems.append(
                    f"payload record {rid} referenced by both "
                    f"{referenced[rid]!r} and {vid!r}"
                )
            referenced[rid] = vid
            try:
                store.materialize(vid)
            except OdeError as exc:
                report.problems.append(f"version {vid!r} unmaterializable: {exc}")
        if chain_warn_threshold and longest_chain > chain_warn_threshold:
            report.warnings.append(
                f"object {ref.oid!r}: delta chain of {longest_chain} steps "
                f"exceeds 2x keyframe interval "
                f"({store.policy.keyframe_interval}); materialization of its "
                f"deep versions will be slow until a keyframe is written"
            )

    # 3. orphan payload records.
    for rid, _raw in catalog.ensure_heap("ode.versions").scan():
        if rid not in referenced:
            report.problems.append(f"orphan payload record at {rid}")

    # 9. content-addressed refcount audit: the derived blob index must
    # agree with the recount an open derives from the payload records,
    # live keys must have their frames, and counts are never negative.
    recounted = {} if durable is None else {
        key: count for key, (count, _size) in durable.blob_entries().items() if count
    }
    entries = store.blob_entries()
    for key, count in recounted.items():
        entry = entries.get(key)
        if entry is None:
            report.problems.append(
                f"blob {key[:12]}… referenced by {count} payload record(s) "
                "but absent from the index"
            )
        elif entry[0] != count:
            report.problems.append(
                f"blob {key[:12]}…: index refcount {entry[0]} != "
                f"{count} referencing payload record(s)"
            )
    for key, (refcount, _size) in entries.items():
        if refcount < 0:
            report.problems.append(
                f"blob {key[:12]}…: negative refcount {refcount}"
            )
        elif refcount > 0:
            if key not in recounted:
                report.problems.append(
                    f"blob {key[:12]}…: refcount {refcount} but no payload "
                    "record references it"
                )
            if not store.blobs.exists(key):
                report.problems.append(
                    f"blob {key[:12]}…: live (refcount {refcount}) but no "
                    "pack holds its content"
                )

    if strict:
        _check_strict(db, report, durable)

    return report


def _check_strict(db: Database, report: CheckReport, durable: VersionStore | None) -> None:
    """Physical cross-consistency checks (crash-matrix teeth)."""
    store = db.store
    catalog = db.catalog
    pool = db._pool
    disk = db._disk

    # Registered heaps by file id (the catalog heap owns itself).
    heaps = {CATALOG_FILE_ID: catalog.heap_by_id(CATALOG_FILE_ID)}
    for name in catalog.heap_names():
        heap = catalog.ensure_heap(name)
        heaps[heap.file_id] = heap

    # 5+6: page layout soundness and page ownership.  Pages with flags 0
    # are unowned -- free-listed, or allocated by a loser transaction and
    # never claimed (a benign leak, since nothing references them).
    for page_id in range(1, disk.num_pages):
        with pool.page(page_id) as page:
            flags = page.flags
            if flags == 0:
                continue
            if flags not in heaps:
                report.problems.append(
                    f"page {page_id} tagged with unknown heap file id {flags}"
                )
                continue
            for problem in page.validate():
                report.problems.append(f"page {page_id} (heap {flags}): {problem}")

    # 7: the durable state, as an open derives it, matches memory.
    live = {ref.oid: store.graph(ref.oid) for ref in store.all_objects()}
    on_disk = {} if durable is None else {
        ref.oid: durable.graph(ref.oid) for ref in durable.all_objects()
    }
    for oid in sorted(set(on_disk) ^ set(live), key=lambda o: o.value):
        where = "durable table only" if oid in on_disk else "in-memory table only"
        report.problems.append(f"object {oid!r} present in {where}")
    for oid in set(on_disk) & set(live):
        if durable.type_name(oid) != store.type_name(oid):
            report.problems.append(
                f"object {oid!r} typed {durable.type_name(oid)!r} on disk but "
                f"{store.type_name(oid)!r} in memory"
            )
        disk_nodes, live_nodes = _nodes(on_disk[oid]), _nodes(live[oid])
        if disk_nodes != live_nodes:
            first = next(((a, b) for a, b in zip(disk_nodes, live_nodes) if a != b), "count")
            report.problems.append(
                f"object {oid!r}: durable graph != live graph (first difference: {first})"
            )
    for oid_value, serials in gc_engine.load_tags(catalog).items():
        for serial, tag in serials.items():
            if not store.version_exists(Vid(Oid(oid_value), serial)):
                report.problems.append(
                    f"tag {tag!r} names {oid_value}:{serial}, not a live version"
                )

    # 8: the id counter must never re-issue a live object id.
    next_oid = catalog.peek_value("ode.oid")
    for oid in live:
        if oid.value > next_oid:
            report.problems.append(
                f"object {oid!r} is above the ode.oid counter ({next_oid}); "
                f"its id could be re-issued"
            )

    # 10: a shard opened with its stride holds only its own residue class.
    for oid in store.misplaced_oids():
        report.problems.append(
            f"object {oid!r} is outside this store's allocation slice "
            "(another shard's object: the router cannot reach it here)"
        )

    # 9 (strict): the pack files against the index.  Every frame must
    # re-hash to the key it is indexed under, and none may be unknown to
    # the refcount index: every put enters its key and every load lists
    # the packs, so an unknown frame is leaked content the collector will
    # never see.  Dead space is reported, not a problem.
    blobs = store.blobs
    for key in blobs.keys():
        try:
            if blobstore.blob_key(blobs.get(key)) != key:
                report.problems.append(
                    f"blob {key[:12]}…: its frame hashes to another key"
                )
        except BlobError as exc:
            report.problems.append(str(exc))
    for key in store.orphan_blob_keys():
        report.problems.append(
            f"blob frame {key[:12]}… is not in the index (leaked content)"
        )
    if blobs.dead_bytes():
        report.warnings.append(
            f"{blobs.dead_bytes()} dead byte(s) in {blobs.pack_count()} blob "
            "pack(s) await compaction (reclaim_blobs)"
        )


def _nodes(graph: VersionGraph) -> list[tuple]:
    """A graph's high-water mark, then its nodes, for comparison."""
    return [("max_serial", graph.max_serial)] + [
        (n.serial, n.dprev, n.ctime, n.data) for n in graph.walk_temporal()
    ]
