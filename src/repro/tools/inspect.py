"""Database inspection: what is in this directory?

``python -m repro.tools.inspect /path/to/db`` prints a summary; the same
information is available programmatically via :func:`inspect_database`,
which returns a :class:`DatabaseSummary` of plain data (safe to log or
serialize).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.core.database import Database


@dataclass
class ClusterSummary:
    """Per-cluster statistics."""

    type_name: str
    objects: int
    versions: int
    max_history: int
    branched_objects: int  # objects with >1 derivation leaf


@dataclass
class DatabaseSummary:
    """Everything :func:`inspect_database` gathers."""

    path: str
    objects: int
    versions: int
    clusters: list[ClusterSummary] = field(default_factory=list)
    heaps: list[str] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    data_pages: int = 0
    wal_bytes: int = 0
    storage_policy: str = "full"
    degraded_reason: str | None = None

    def render(self) -> str:
        """A human-readable multi-line report."""
        health = (
            f"DEGRADED (read-only): {self.degraded_reason}"
            if self.degraded_reason
            else "ok"
        )
        if "snap.epoch" in self.counters:
            health += (
                f" -- snapshot epoch {self.counters['snap.epoch']}, "
                f"{self.counters.get('snap.pinned', 0)} pinned reader(s)"
            )
        lines = [
            f"database: {self.path}",
            f"  health: {health}",
        ]
        if "net.connections" in self.counters:
            # A server is attached (its stats source adds the net.* keys):
            # surface the service tier next to the kernel's health.
            get = self.counters.get
            lines.append(
                f"  network: {get('net.connections', 0)} connection(s) "
                f"({get('net.connections_total', 0)} total), "
                f"{get('net.requests', 0)} requests "
                f"({get('net.errors', 0)} errors), "
                f"pipeline depth {get('net.pipeline_max', 0)}, "
                f"{get('net.snapshot_reads', 0)} lock-free reads, "
                f"{get('net.commits', 0)} commits "
                f"({get('net.commits_overlapped', 0)} overlapped), "
                f"{get('net.lane_frames', 0)} lane frame(s) in "
                f"{get('net.lane_runs', 0)} run(s) "
                f"({get('net.lane_dropped', 0)} dropped)"
            )
            # The overload/fault-tolerance tier: what the server refused
            # and what the clients survived.
            state = "draining" if get("net.draining", 0) else "accepting"
            lines.append(
                f"  overload: {state}, {get('net.shed', 0)} shed, "
                f"{get('net.deadline_expired', 0)} deadline-expired, "
                f"{get('net.reconnects', 0)} reconnect(s)"
            )
        if "shard.health.up" in self.counters:
            get = self.counters.get
            lines.append(
                f"  shards: {get('shard.health.up', 0)} up / "
                f"{get('shard.health.down', 0)} down "
                f"({get('shard.health.degraded', 0)} degraded), "
                f"{get('shard.health.kills', 0)} kill(s), "
                f"{get('shard.health.reattaches', 0)} reattach(es), "
                f"{get('shard.health.failfast', 0)} failed fast, "
                f"{get('shard.health.skipped_fanouts', 0)} degraded fanout(s)"
            )
        if "shard.2pc.decisions" in self.counters:
            # A verdict is *held* while a participant's unforced COMMIT is
            # not durable yet; until forgotten it pins its coordinator
            # shard's WAL.
            get = self.counters.get
            lines.append(
                f"  2pc: {get('shard.2pc.commits_cross', 0)} cross-shard / "
                f"{get('shard.2pc.commits_single', 0)} single-shard commit(s), "
                f"{get('shard.2pc.prepares', 0)} prepare(s), "
                f"{get('shard.2pc.decisions', 0)} verdict(s): "
                f"{get('shard.2pc.forgets', 0)} forgotten, "
                f"{get('shard.2pc.decisions_held', 0)} held; "
                f"{get('shard.2pc.lazy_commits', 0)} unforced COMMIT(s)"
            )
        if "shard.exec.size" in self.counters:
            # The parallel cross-shard execution tier: the shared
            # scatter-gather pool and the global snapshot epoch.
            get = self.counters.get
            lines.append(
                f"  executor: {get('shard.exec.workers', 0)}/"
                f"{get('shard.exec.size', 0)} worker(s), "
                f"{get('shard.exec.tasks', 0)} task(s) scattered, "
                f"max concurrency {get('shard.exec.max_concurrency', 0)}, "
                f"queue wait p99 {get('shard.exec.queue_wait_p99_ms', 0)}ms; "
                f"{get('shard.snap.cuts', 0)} global cut(s) "
                f"({get('shard.snap.degraded_cuts', 0)} degraded)"
            )
        if "blobs.count" in self.counters:
            # The content-addressed payload store: dedup efficiency, and
            # the garbage awaiting reclaim (the commit pacer keeps it <= live).
            get = self.counters.get
            garbage = get("blobs.pending_reclaim_bytes", 0) + get("blobs.dead_bytes", 0)
            lines.append(
                f"  blobs: {get('blobs.live', 0)}/{get('blobs.count', 0)} "
                f"live ({get('blobs.live_bytes', 0)} bytes, "
                f"{get('blobs.logical_bytes', 0)} logical), "
                f"{get('blobs.dedup_hits', 0)} dedup hit(s), "
                f"{get('blobs.pending_reclaim', 0)} pending reclaim "
                f"({get('blobs.pending_reclaim_bytes', 0)} bytes), "
                f"{get('blobs.packs', 0)} pack(s) with "
                f"{get('blobs.dead_bytes', 0)} dead byte(s), garbage/live "
                f"{garbage / max(1, get('blobs.live_bytes', 0)):.2f}, "
                f"{get('blobs.syncs', 0)} sync(s), "
                f"{get('blobs.unsynced_bytes', 0)} unsynced byte(s) covered by the log, "
                f"{get('blobs.compactions', 0)} compaction(s) copied "
                f"{get('blobs.bytes_copied_forward', 0)} bytes forward, "
                f"{get('blobs.inline_records', 0)} small payload(s) inline "
                f"({get('blobs.inline_bytes', 0)} bytes); "
                f"gc: {get('gc.runs', 0)} run(s), "
                f"{get('gc.versions_deleted', 0)} version(s) pruned, "
                f"{get('gc.blobs_unlinked', 0)} blob(s) / "
                f"{get('gc.bytes_freed', 0)} byte(s) freed, "
                f"{get('gc.paced_runs', 0)} paced run(s) freeing "
                f"{get('gc.paced_bytes_freed', 0)} byte(s)"
            )
        lines += [
            f"  policy: {self.storage_policy}",
            f"  data pages: {self.data_pages}  wal bytes: {self.wal_bytes}",
            f"  objects: {self.objects}  versions: {self.versions}",
            f"  heaps: {', '.join(self.heaps) or '(none)'}",
            "  counters: "
            + (", ".join(f"{k}={v}" for k, v in sorted(self.counters.items())) or "(none)"),
            "  clusters:",
        ]
        for cluster in self.clusters:
            lines.append(
                f"    {cluster.type_name}: {cluster.objects} objects, "
                f"{cluster.versions} versions (max history {cluster.max_history}, "
                f"{cluster.branched_objects} branched)"
            )
        if not self.clusters:
            lines.append("    (empty)")
        return "\n".join(lines)


def inspect_database(db: Database) -> DatabaseSummary:
    """Gather a summary of an open database."""
    store = db.store
    catalog = db.catalog
    clusters: list[ClusterSummary] = []
    total_versions = 0
    for type_name in store.cluster_names():
        refs = store.cluster(type_name)
        versions = 0
        max_history = 0
        branched = 0
        for ref in refs:
            graph = store.graph(ref.oid)
            versions += len(graph)
            max_history = max(max_history, len(graph))
            if len(graph.leaves()) > 1:
                branched += 1
        total_versions += versions
        clusters.append(
            ClusterSummary(
                type_name=type_name,
                objects=len(refs),
                versions=versions,
                max_history=max_history,
                branched_objects=branched,
            )
        )
    stats = db.stats()
    counters = {name: catalog.peek_value(name) for name in ("ode.oid",)}
    # Operational counters (cache hits/misses, lock waits/deadlocks, txn
    # retries, fsyncs, evictions...) ride along so `inspect` doubles as a
    # perf and health probe.  ``objects`` and ``degraded`` have their own
    # lines in the report.
    counters.update(
        (k, v)
        for k, v in stats.items()
        if "." in k and k != "degraded.reason"
    )
    counters["degraded"] = int(stats["degraded"])
    return DatabaseSummary(
        path=db.path,
        objects=store.object_count(),
        versions=total_versions,
        clusters=clusters,
        heaps=catalog.heap_names(),
        counters=counters,
        data_pages=stats["disk.pages"],
        wal_bytes=stats["wal.bytes"],
        storage_policy=store.policy.kind,
        degraded_reason=stats["degraded.reason"],
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: ``python -m repro.tools.inspect <db-dir>``."""
    args = argv if argv is not None else sys.argv[1:]
    if len(args) != 1:
        print("usage: python -m repro.tools.inspect <database-directory>")
        return 2
    with Database(args[0]) as db:
        print(inspect_database(db).render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
