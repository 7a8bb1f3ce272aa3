"""Vacuum: rewrite a database into a fresh, compact directory.

Long-lived databases accumulate dead space: emptied pages after version
deletions, forwarding stubs from grown records, delta chains whose bases
were edited many times.  ``vacuum`` performs a *logical copy* -- every
live object's versions are replayed into a brand-new database in
derivation order, preserving Oids, Vids, derivation and temporal
structure exactly -- and reports the space saved.

Objects leave the source through ``VersionStore.export`` and enter the
target through ``VersionStore.install``, the door ``pnew`` uses too, so
ids, high-water marks and every catalog root (retention policies, tags)
arrive exactly as they were.  The source database is never modified;
callers swap directories after a successful run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.database import Database
from repro.core.identity import Oid
from repro.core.store import StoragePolicy, VersionRecord
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
        catalog = source.catalog
        objects, versions = fill(
            target,
            source_store.export(),
            {name: catalog.get_root(name) for name in catalog.root_names()},
            catalog.peek_value("ode.oid"),
        )
        report = VacuumReport(
            objects_copied=objects,
            versions_copied=versions,
            source_pages=source.stats()["disk.pages"],
            target_pages=target.stats()["disk.pages"],
            source_blob_bytes=source_store.blobs.total_bytes(),
            target_blob_bytes=target.store.blobs.total_bytes(),
        )
    finally:
        target.close()
    return report


def fill(
    db: Database,
    objects: Iterable[tuple[Oid, str, int, list[VersionRecord]]],
    roots: dict[str, Any],
    oid_counter: int,
) -> tuple[int, int]:
    """Fill a fresh database: the one copy step of vacuum and ``load_database``.

    ``objects`` are what ``VersionStore.export`` yields, installed in
    order; ``roots`` are catalog roots, set as given; the oid counter is
    carried forward so later ``pnew`` calls cannot collide.  Nothing here
    runs in a transaction, so it ends with one publish (snapshots and
    session readers see the copy at once) and a checkpoint (the copy is
    durable).  Returns ``(objects, versions)`` installed.
    """
    store, catalog = db.store, db.catalog
    count = versions = 0
    for oid, type_name, max_serial, history in objects:
        store.install(oid, type_name, max_serial, history)
        count += 1
        versions += len(history)
    for name, value in roots.items():
        catalog.set_root(name, value)
    while catalog.peek_value("ode.oid") < oid_counter:
        catalog.next_value("ode.oid")
    store.publish_snapshot()
    db.checkpoint()
    return count, versions


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
