"""Retention and version tags as a *policy*, and the online garbage collector.

Version histories grow without bound (the paper's model never discards a
version implicitly), so long-lived databases need an *explicit* reclaim
path.  Like the policies in :mod:`repro.policies`, this one is built from
the kernel primitives alone: its state is ordinary persistent objects and
it reaches an engine -- a :class:`~repro.core.database.Database` or a
:class:`~repro.shard.ShardedDatabase` -- only through ``pnew``,
``pdelete``, ``transaction``, ``snapshot``, ``cluster``, ``query``,
``create_index``, ``object_exists``, ``version_exists``, ``latest_vid``,
``graph``, ``reclaim_blobs`` and, on a router, ``shard_health``.

* A :class:`RetentionRule` holds one scope's :class:`RetentionPolicy`
  (per type, with per-object overrides); :func:`set_retention` writes it.
* A :class:`VersionTag` pins one version with a name; :func:`tag_version`
  writes it, found again through a hash index on its ``vid``.  A tag
  whose version is gone (``pdelete`` knows nothing about tags) is *dead*:
  readers skip it and the next :func:`collect` that is not a dry run
  deletes it.
* Two first-time writes that raced may leave two objects for one scope or
  one version: readers take the one with the smallest oid, and the next
  write on that key deletes the rest.
* A router answers fan-outs from its up shards only, so while a shard is
  down every function here but :func:`load` and :func:`collect` raises
  :class:`~repro.errors.ShardUnavailableError`: the key's object may be on
  the missing shard, and a write would add a duplicate beside it.

A pass is :func:`load` (rules and tags, read from one snapshot, no lock
taken) and then :func:`collect` in two stages:

1. **Retention** -- everything not protected by ``keep_last_n`` /
   ``keep_days`` / ``keep_tagged`` (and never the latest version) is
   deleted through the ordinary transactional ``pdelete`` path in bounded
   batches; then the dead tags go, in one transaction.
2. **Blob reclaim** -- deleting version records drops content-addressed
   payload refcounts; keys that reach zero become *candidates* stamped
   with the snapshot epoch at displacement.  ``reclaim_blobs`` unlinks a
   candidate's file only once the epoch-reclamation signal proves no
   pinned snapshot and no still-active transaction can reach it,
   journaling a WAL tombstone first so a crash in any window of the
   unlink protocol is repaired at recovery.  Commits run the same step
   once garbage has grown by the live payload bytes; this pass forces one.

Both stages are incremental: bounded batches under the same mutexes as
any writer (each pruning batch its own transaction) -- the collector
never blocks writers for longer than one small batch, and readers on
pinned snapshots are never broken.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.identity import Oid, Vid
from repro.core.indexes import attr_equals
from repro.core.persistent import PersistentObject, persistent
from repro.core.surface import oid_of, plain_id, type_name_of
from repro.core.transactions import EXCLUSIVE
from repro.errors import ShardUnavailableError, UnknownObjectError, UnknownVersionError


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
    """Normalize a retention scope to its key.

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


@persistent(name="ode.gc.RetentionRule")
class RetentionRule(PersistentObject):
    """One scope's retention policy (``scope`` is a :func:`scope_key`)."""

    def __init__(self, scope: str, policy: RetentionPolicy) -> None:
        self.scope = scope
        self.keep_last_n = policy.keep_last_n
        self.keep_days = policy.keep_days
        self.keep_tagged = policy.keep_tagged

    def policy(self) -> RetentionPolicy:
        return RetentionPolicy(self.keep_last_n, self.keep_days, self.keep_tagged)


@persistent(name="ode.gc.VersionTag")
class VersionTag(PersistentObject):
    """A symbolic name pinned to one version (``keep_tagged`` honors it)."""

    def __init__(self, vid: Vid, name: str) -> None:
        self.vid = vid
        self.name = name


@dataclass(frozen=True)
class PolicyState:
    """What :func:`load` read: the input of :func:`collect`."""

    #: Scope key -> policy.
    rules: dict[str, RetentionPolicy] = field(default_factory=dict)
    #: Object -> {serial -> tag}, live versions only.
    tags: dict[Oid, dict[int, str]] = field(default_factory=dict)
    #: The tag objects whose version is gone.
    dead_tags: tuple[Oid, ...] = ()


def _objects(source: Any, cls: type) -> list[tuple[Oid, Any]]:
    """``(oid, object copy)`` for every ``cls`` object, smallest oid first."""
    return sorted(((ref.oid, ref.deref()) for ref in source.cluster(cls)), key=lambda row: row[0])


def _rules(source: Any) -> dict[str, RetentionPolicy]:
    rules: dict[str, RetentionPolicy] = {}
    for _oid, rule in _objects(source, RetentionRule):
        rules.setdefault(rule.scope, rule.policy())
    return rules


def load(db: Any) -> PolicyState:
    """Every rule and tag, read from one snapshot; writes and locks nothing."""
    tags: dict[Oid, dict[int, str]] = {}
    dead: list[Oid] = []
    with db.snapshot() as snap:
        rules = _rules(snap)
        for oid, tag in _objects(snap, VersionTag):
            if snap.version_exists(tag.vid):
                tags.setdefault(tag.vid.oid, {}).setdefault(tag.vid.serial, tag.name)
            else:
                dead.append(oid)
    return PolicyState(rules, tags, tuple(dead))


def _check_shards(db: Any) -> None:
    down = [idx for idx, state in getattr(db, "shard_health", dict)().items() if state == "down"]
    if down:
        raise ShardUnavailableError(
            f"shard {down[0]} is down; the retention policy spans every shard", shard=down[0])


@contextmanager
def _whole(db: Any) -> Iterator[None]:
    """Refuse a router that has a shard down before or after the body
    (an exception at exit aborts the body's writes)."""
    _check_shards(db)
    yield
    _check_shards(db)


@contextmanager
def _atomic(db: Any) -> Iterator[None]:
    """Join the caller's transaction, or run in a new one; in :func:`_whole`."""
    if db.current_transaction() is not None:
        with _whole(db):
            yield
    else:
        with db.transaction(), _whole(db):
            yield


def _keep_one(db: Any, cls: type, attr: str, value: Any, obj: Any) -> Any:
    """Leave ``obj`` (``None``: nothing) as the one ``cls`` object whose
    ``attr`` is ``value``: the smallest-oid match is rewritten in place and
    every other match deleted.  Returns the survivor's reference."""
    with _atomic(db):
        found = sorted(db.query(cls).suchthat(attr_equals(attr, value)), key=lambda ref: ref.oid)
        for ref in found if obj is None else found[1:]:
            db.pdelete(ref)
        if obj is None:
            return None
        if not found:
            return db.pnew(obj)
        with found[0].modify() as current:
            current.__dict__.update(vars(obj))
        return found[0]


def set_retention(db: Any, scope: Any, policy: RetentionPolicy | None) -> Any:
    """Declare (or with ``None``, clear) a retention policy.

    ``scope`` is a ``@persistent`` class, a registered type name, an
    :class:`Oid` or a bound ``Ref``; an object-scoped policy overrides its
    type's.  Returns the rule object's reference (``None`` when cleared).
    """
    key = scope_key(scope)
    rule = None if policy is None else RetentionRule(key, policy)
    return _keep_one(db, RetentionRule, "scope", key, rule)


def retention_for(db: Any, target: Any) -> RetentionPolicy | None:
    """The policy a scope declares, or an object's effective policy
    (override beats type)."""
    with _whole(db), db.snapshot() as snap:
        rules = _rules(snap)
        if isinstance(target, (type, str)):
            return rules.get(scope_key(target))
        oid = oid_of(target)
        return rules.get(f"oid:{oid.value}") or rules.get(f"type:{snap.type_name(oid)}")


def _tag_target(db: Any, target: Any) -> Vid:
    vid = plain_id(target)
    if not isinstance(vid, Vid):
        raise TypeError("a tag names a specific version reference")
    db.create_index(VersionTag, "vid")  # idempotent; a reopened shard gets it back
    return vid


def tag_version(db: Any, target: Any, name: str) -> Any:
    """Pin one version with a symbolic tag; returns the tag object's reference."""
    vid = _tag_target(db, target)
    with _atomic(db):
        with suppress(UnknownObjectError):  # S-locks the object: waits out
            db.latest_vid(vid.oid)  # another transaction's uncommitted newversion
        if not db.version_exists(vid):
            raise UnknownVersionError(f"no such version: {vid}")
        return _keep_one(db, VersionTag, "vid", vid, VersionTag(vid, str(name)))


def untag_version(db: Any, target: Any) -> None:
    """Remove a version's tag (a no-op if untagged)."""
    _keep_one(db, VersionTag, "vid", _tag_target(db, target), None)


def version_tags(db: Any, target: Any) -> dict[int, str]:
    """The object's tags: version serial -> tag.  One index lookup per
    live version, however many tags other objects hold."""
    oid = oid_of(target)
    db.create_index(VersionTag, "vid")
    tags: dict[int, str] = {}
    with _whole(db):
        for serial in db.graph(oid).serials() if db.object_exists(oid) else ():
            found = db.query(VersionTag).suchthat(attr_equals("vid", Vid(oid, serial))).all()
            if found:
                tags[serial] = min(found, key=lambda ref: ref.oid).name
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


def merge(reports: list[GCReport], dry_run: bool) -> GCReport:
    """One report summing every count of ``reports``."""
    merged = GCReport(dry_run=dry_run)
    for name in vars(merged):
        if name != "dry_run":
            setattr(merged, name, sum(getattr(part, name) for part in reports))
    return merged


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
    db: Any, state: PolicyState, batch_limit: int = 64, now: float | None = None,
    dry_run: bool = False,
) -> GCReport:
    """One incremental GC pass over ``db``'s objects: apply ``state``'s
    retention, delete the dead tags ``db`` holds, then reclaim blobs.

    Retention deletions run through the ordinary transactional delete
    path in batches of at most ``batch_limit`` versions -- each batch is
    one transaction, so writers interleave between batches and a crash
    loses at most one unacknowledged batch (never an acknowledged one).
    """
    if now is None:
        now = time.time()
    report = GCReport(dry_run=dry_run)
    if state.rules:
        doomed: list[Vid] = []
        rules = {}  # oid -> (policy, tags)
        # Plan against a pinned snapshot: a consistent cut of committed
        # graphs (never another transaction's uncommitted versions),
        # taken without blocking writers.
        with db.snapshot() as snap:
            for ref in snap.all_objects():
                oid = ref.oid
                pol = state.rules.get(f"oid:{oid.value}") or state.rules.get(
                    f"type:{snap.type_name(oid)}")
                if pol is None or not pol.active:
                    continue
                report.versions_examined += snap.version_count(oid)
                rules[oid] = pol, state.tags.get(oid, {})
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
    dead = () if dry_run else [oid for oid in state.dead_tags if db.object_exists(oid)]
    if dead:
        with db.transaction() as txn:
            for oid in dead:
                txn.lock(oid, EXCLUSIVE)
                if db.object_exists(oid):  # an untag may have beaten us to it
                    db.pdelete(oid)
    report.blobs_unlinked, report.bytes_freed, report.candidates_remaining = (
        db.reclaim_blobs(limit=batch_limit, dry_run=dry_run)
    )
    return report
