"""Retention policies and the snapshot-safe online garbage collector.

Version histories grow without bound (the paper's model never discards a
version implicitly), so long-lived databases need an *explicit* reclaim
path.  This module supplies it in two stages:

1. **Retention** -- declarative :class:`RetentionPolicy` descriptors
   stored in the catalog (per type, with per-object overrides) decide
   which versions are *displaced*: everything not protected by
   ``keep_last_n`` / ``keep_days`` / ``keep_tagged`` (and never the
   latest version) is deleted through the ordinary transactional
   ``pdelete`` path in bounded batches.

2. **Blob reclaim** -- deleting version records drops content-addressed
   payload refcounts; keys that reach zero become *candidates* stamped
   with the snapshot epoch at displacement.  ``Database.reclaim_blobs``
   unlinks a candidate's file only once the epoch-reclamation signal
   proves no pinned snapshot and no still-active transaction can reach
   it, journaling a WAL tombstone first so a crash in any window of the
   unlink protocol is repaired at recovery (see
   ``Database._repair_gc_tombstones``).  Commits run the same step once
   garbage has grown by the live payload bytes; this pass forces one.

Both stages are incremental: bounded batches under the same mutexes as
any writer (each pruning batch its own transaction) -- the collector
never blocks writers for longer than one small batch, and readers on
pinned snapshots are never broken (displaced payloads are stashed into
their overlays before the records are overwritten).
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING, Any

from repro.core.identity import Oid, Vid
from repro.core.surface import oid_of, type_name_of
from repro.core.transactions import EXCLUSIVE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database

#: Catalog root prefix of the retention table, one root per scope:
#: ``ode.retention:<scope_key>`` -> ``(keep_last_n, keep_days, keep_tagged)``.
RETENTION_PREFIX = "ode.retention:"

#: Catalog root prefix of the version tags, one root per tag:
#: ``ode.tag:<oid value>:<serial>`` -> the tag string.
TAG_PREFIX = "ode.tag:"


@dataclass(frozen=True)
class RetentionPolicy:
    """How much history to keep for the objects a scope covers.

    A version survives collection if *any* rule protects it:

    * it is the latest version of its object (always kept);
    * ``keep_last_n`` -- it is among the N most recent versions
      (temporal order);
    * ``keep_days`` -- it is younger than the horizon;
    * ``keep_tagged`` -- it carries a tag (pinned releases survive any
      count/age pruning).

    A policy with neither ``keep_last_n`` nor ``keep_days`` set is
    *inactive*: it prunes nothing (``keep_tagged`` alone never dooms a
    version, it only protects).
    """

    keep_last_n: int | None = None
    keep_days: float | None = None
    keep_tagged: bool = True

    def __post_init__(self) -> None:
        if self.keep_last_n is not None and self.keep_last_n < 1:
            raise ValueError("keep_last_n must be >= 1 (the latest always stays)")
        if self.keep_days is not None and self.keep_days < 0:
            raise ValueError("keep_days must be >= 0")

    @property
    def active(self) -> bool:
        return self.keep_last_n is not None or self.keep_days is not None


def scope_key(scope: Any) -> str:
    """Normalize a retention scope to its catalog key.

    Accepts a ``@persistent`` class, a registered type name, or any
    reference or id of the object (see :func:`repro.core.surface.oid_of`).
    Type scopes key as ``"type:<name>"``, object overrides as
    ``"oid:<value>"`` -- an override beats the type policy.
    """
    if isinstance(scope, str):
        return scope if scope.startswith(("type:", "oid:")) else f"type:{scope}"
    if isinstance(scope, type):
        return f"type:{type_name_of(scope)}"
    return f"oid:{oid_of(scope).value}"


def load_retention(catalog: Any) -> dict[str, RetentionPolicy]:
    """The retention table stored in the catalog (empty dict if unset)."""
    return {
        name[len(RETENTION_PREFIX):]: RetentionPolicy(*catalog.get_root(name))
        for name in catalog.root_names(RETENTION_PREFIX)
    }


def save_retention(catalog: Any, key: str, policy: RetentionPolicy | None, log_op: Any) -> None:
    """Set (``None``: clear) one scope's policy: one catalog record."""
    if policy is None:
        catalog.delete_root(RETENTION_PREFIX + key, log_op)
    else:
        catalog.set_root(RETENTION_PREFIX + key, astuple(policy), log_op)


def tag_root(vid: Vid) -> str:
    """The catalog root holding ``vid``'s tag."""
    return f"{TAG_PREFIX}{vid.oid.value}:{vid.serial}"


def load_tags(catalog: Any) -> dict[int, dict[int, str]]:
    """Every version tag: oid value -> {serial -> tag}."""
    tags: dict[int, dict[int, str]] = {}
    for name in catalog.root_names(TAG_PREFIX):
        oid_value, serial = name[len(TAG_PREFIX):].split(":")
        tags.setdefault(int(oid_value), {})[int(serial)] = catalog.get_root(name)
    return tags


@dataclass
class GCReport:
    """What one ``run_gc`` pass did (or would do, for a dry run)."""

    versions_examined: int = 0
    versions_deleted: int = 0
    objects_pruned: int = 0
    batches: int = 0
    blobs_unlinked: int = 0
    bytes_freed: int = 0
    #: Zero-ref candidates left behind: not yet provably unreachable
    #: (pinned snapshot, active transaction, in-doubt participant) or
    #: beyond this pass's batch limit.  A later pass retries them.
    candidates_remaining: int = 0
    dry_run: bool = False

    def render(self) -> str:
        verb = "would delete" if self.dry_run else "deleted"
        return (
            f"gc: {verb} {self.versions_deleted} version(s) of "
            f"{self.objects_pruned} object(s) in {self.batches} batch(es); "
            f"unlinked {self.blobs_unlinked} blob(s) / {self.bytes_freed} "
            f"byte(s); {self.candidates_remaining} candidate(s) remaining"
        )


def doomed_versions(
    source: Any,
    oid: Oid,
    policy: RetentionPolicy,
    tags: dict[int, str],
    now: float,
) -> list[Vid]:
    """The versions of ``oid`` the policy displaces in ``source.graph(oid)``
    (a snapshot, or a database), oldest first.

    Pure selection -- no mutation.  The latest version is always kept;
    protection rules are a union (see :class:`RetentionPolicy`).
    """
    if not policy.active:
        return []
    nodes = list(source.graph(oid).walk_temporal())
    if len(nodes) <= 1:
        return []
    keep: set[int] = {nodes[-1].serial}  # the latest always survives
    if policy.keep_last_n is not None:
        keep.update(n.serial for n in nodes[-policy.keep_last_n:])
    if policy.keep_days is not None:
        horizon = now - policy.keep_days * 86400.0
        keep.update(n.serial for n in nodes if n.ctime >= horizon)
    if policy.keep_tagged:
        keep.update(tags.keys())
    return [Vid(oid, n.serial) for n in nodes if n.serial not in keep]


def collect(
    db: "Database", batch_limit: int = 64, now: float | None = None,
    dry_run: bool = False,
) -> GCReport:
    """One incremental GC pass: apply retention, then reclaim blobs.

    Retention deletions run through the ordinary transactional delete
    path in batches of at most ``batch_limit`` versions -- each batch is
    one transaction, so writers interleave between batches and a crash
    loses at most one unacknowledged batch (never an acknowledged one).
    """
    if now is None:
        now = time.time()
    report = GCReport(dry_run=dry_run)
    policies = load_retention(db.catalog)
    if policies:
        all_tags = load_tags(db.catalog)
        doomed: list[Vid] = []
        rules = {}  # oid -> (policy, tags)
        # Plan against a pinned snapshot: a consistent cut of committed
        # graphs (never another transaction's uncommitted versions),
        # taken without blocking writers.
        with db.snapshot() as snap:
            for ref in snap.all_objects():
                oid = ref.oid
                pol = policies.get(f"oid:{oid.value}") or policies.get(
                    f"type:{snap.type_name(oid)}")
                if pol is None or not pol.active:
                    continue
                report.versions_examined += snap.version_count(oid)
                rules[oid] = pol, all_tags.get(oid.value, {})
                victims = doomed_versions(snap, oid, *rules[oid], now)
                if victims:
                    report.objects_pruned += 1
                    doomed.extend(victims)
        for start in range(0, len(doomed), batch_limit):
            batch = doomed[start : start + batch_limit]
            report.batches += 1
            if dry_run:
                report.versions_deleted += len(batch)
                continue
            with db.transaction() as txn:
                still: dict[Oid, set[Vid]] = {}
                for vid in batch:
                    # Writers may have committed since the plan: re-plan the
                    # object once its lock is held, delete what still goes.
                    oid = vid.oid
                    if oid not in still:
                        txn.lock(oid, EXCLUSIVE)
                        live = db.object_exists(oid)
                        plan = doomed_versions(db, oid, *rules[oid], now) if live else ()
                        still[oid] = set(plan)
                    if vid in still[oid]:
                        db.pdelete(vid)
                        report.versions_deleted += 1
    report.blobs_unlinked, report.bytes_freed, report.candidates_remaining = (
        db.reclaim_blobs(limit=batch_limit, dry_run=dry_run)
    )
    return report
