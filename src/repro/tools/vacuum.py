"""Vacuum: rewrite a database into a fresh, compact directory.

Long-lived databases accumulate dead space: emptied pages after version
deletions, forwarding stubs from grown records, delta chains whose bases
were edited many times.  ``vacuum`` performs a *logical copy* -- every
live object's versions are replayed into a brand-new database in
derivation order, preserving Oids, Vids, derivation and temporal
structure exactly -- and reports the space saved.

The copy preserves identity by writing the object table directly through
the target store's internals (ids must survive a vacuum or every stored
reference would dangle).  The source database is never modified; callers
swap directories after a successful run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from repro.core.database import Database
from repro.core.identity import Vid
from repro.core.store import StoragePolicy
from repro.core.vgraph import VersionGraph
from repro.storage.disk import PAGE_SIZE


@dataclass
class VacuumReport:
    """What a vacuum run did."""

    objects_copied: int
    versions_copied: int
    source_pages: int
    target_pages: int
    #: Content bytes in each side's blob store.  Every version payload
    #: too large to sit inline in its heap record lives there
    #: (content-addressed), so this is where most of dead versions' space
    #: goes; the heap pages hold references and the small payloads.
    source_blob_bytes: int = 0
    target_blob_bytes: int = 0

    @property
    def pages_saved(self) -> int:
        """Pages reclaimed by the rewrite (can be negative in theory)."""
        return self.source_pages - self.target_pages

    @property
    def bytes_saved(self) -> int:
        """Total footprint reclaimed: page bytes plus blob bytes."""
        return (
            self.pages_saved * PAGE_SIZE
            + self.source_blob_bytes
            - self.target_blob_bytes
        )


def vacuum(
    source: Database,
    target_path: str | os.PathLike[str],
    policy: StoragePolicy | None = None,
) -> VacuumReport:
    """Rewrite ``source`` into a new database directory at ``target_path``.

    ``policy`` optionally changes the storage policy during the rewrite
    (e.g. full-copy -> delta), which is also how a database is migrated
    between policies.  Returns a :class:`VacuumReport`.
    """
    source_store = source.store
    target = Database(target_path, policy=policy or source_store.policy)
    try:
        tstore = target.store
        objects = 0
        versions = 0
        for ref in source_store.all_objects():
            objects += 1
            oid = ref.oid
            graph = source_store.graph(oid)
            type_name = source_store.type_name(oid)
            # Rebuild the graph with freshly stored payloads, derivation
            # order (parents before children holds in serial order).
            from repro.core.store import _Entry
            from repro.storage import serialization

            if tstore.object_exists(oid):
                # Re-running into a non-empty target: the chain is about
                # to be rewritten wholesale, so the old records -- and
                # every cache entry derived from them (materialized bytes,
                # decoded objects, the latest-vid memo) -- must go first.
                # _delete_object invalidates all of them.
                tstore._delete_object(oid, None)
            new_graph = VersionGraph()
            entry = _Entry(oid, type_name, new_graph, None, None)
            for node in graph.walk_temporal():
                content = source_store._version_bytes(
                    source_store._entry(oid), node.serial
                )
                data = tstore._store_payload(
                    entry, node.serial, content, node.dprev, None
                )
                # create() enforces monotonic serials; walk_temporal yields
                # them ascending, and dprev < serial always, so this holds.
                new_graph.create(node.serial, node.dprev, node.ctime, data)
                tstore._cache_bytes(Vid(oid, node.serial), content)
                versions += 1
            tstore._save_entry(entry, None)
            cluster_payload = serialization.encode((type_name, oid))
            entry.cluster_rid = tstore._clusters.insert(cluster_payload, None)
            tstore._table[oid] = entry
            tstore._by_type.setdefault(type_name, set()).add(oid)
            tstore._dirty_oids.add(oid)
        # Carry the id counter forward so future pnew calls don't collide.
        current = source.catalog.peek_value("ode.oid")
        while target.catalog.peek_value("ode.oid") < current:
            target.catalog.next_value("ode.oid")
        # The copies bypassed the transaction layer, so publish them here:
        # snapshots pinned against the target must see the rewritten chains.
        tstore.publish_snapshot()
        target.checkpoint()
        report = VacuumReport(
            objects_copied=objects,
            versions_copied=versions,
            source_pages=source.stats()["disk.pages"],
            target_pages=target.stats()["disk.pages"],
            source_blob_bytes=source_store.blobs.total_bytes(),
            target_blob_bytes=tstore.blobs.total_bytes(),
        )
    finally:
        target.close()
    return report


def main(argv: list[str] | None = None) -> int:
    """CLI: offline rewrite, online GC, or both.

    ``python -m repro.tools.vacuum SRC DST`` rewrites ``SRC`` into
    ``DST``.  ``--gc`` first runs the online collector (retention
    pruning + blob reclaim) against the source; ``--gc-only`` runs just
    the collector, in place, with no target directory at all -- the
    incremental path for databases too large (or too hot) to rewrite.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.vacuum",
        description="Rewrite a database compactly and/or run the online GC.",
    )
    parser.add_argument("source", help="database directory to vacuum")
    parser.add_argument(
        "target", nargs="?", default=None,
        help="fresh directory for the rewrite (omit with --gc-only)",
    )
    parser.add_argument(
        "--gc", action="store_true",
        help="run the online collector on the source before copying",
    )
    parser.add_argument(
        "--gc-only", action="store_true",
        help="only run the online collector; no rewrite, no target",
    )
    parser.add_argument(
        "--batch", type=int, default=64, metavar="N",
        help="GC batch limit: versions deleted / blobs unlinked per "
        "transaction (default 64)",
    )
    parser.add_argument(
        "--gc-passes", type=int, default=2, metavar="N",
        help="collector passes (a displacement becomes reclaimable one "
        "publication after it happens, so 2 passes drain a quiet "
        "database; default 2)",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="plan the GC without deleting anything (implies --gc-only)",
    )
    parser.add_argument(
        "--policy", choices=("full", "delta"), default=None,
        help="migrate the rewrite to this storage policy",
    )
    parser.add_argument(
        "--keyframe", type=int, default=8, metavar="N",
        help="keyframe interval for --policy delta (default 8)",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    args = parser.parse_args(argv)
    gc_requested = args.gc or args.gc_only or args.dry_run
    if not (args.gc_only or args.dry_run) and args.target is None:
        parser.error("a target directory is required unless --gc-only/--dry-run")
    out: dict[str, object] = {"source": args.source}
    with Database(args.source) as db:
        if gc_requested:
            gc_total: dict[str, int] = {}
            for _ in range(max(1, args.gc_passes)):
                report = db.run_gc(
                    batch_limit=args.batch, dry_run=args.dry_run
                )
                for key in (
                    "versions_deleted", "blobs_unlinked", "bytes_freed",
                    "batches",
                ):
                    gc_total[key] = gc_total.get(key, 0) + getattr(report, key)
                gc_total["candidates_remaining"] = report.candidates_remaining
                if not args.json:
                    print(report.render())
                if args.dry_run:
                    break
            out["gc"] = gc_total
        if args.target is not None and not (args.gc_only or args.dry_run):
            policy = None
            if args.policy is not None:
                policy = StoragePolicy(
                    kind=args.policy, keyframe_interval=args.keyframe
                )
            report = vacuum(db, args.target, policy=policy)
            out["target"] = args.target
            out["vacuum"] = {
                "objects_copied": report.objects_copied,
                "versions_copied": report.versions_copied,
                "pages_saved": report.pages_saved,
                "source_blob_bytes": report.source_blob_bytes,
                "target_blob_bytes": report.target_blob_bytes,
                "bytes_saved": report.bytes_saved,
            }
            if not args.json:
                print(
                    f"vacuum: copied {report.objects_copied} object(s) / "
                    f"{report.versions_copied} version(s) into "
                    f"{args.target}; saved {report.bytes_saved} byte(s) "
                    f"({report.pages_saved} page(s), blob bytes "
                    f"{report.source_blob_bytes} -> {report.target_blob_bytes})"
                )
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
