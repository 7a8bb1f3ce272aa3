"""One consistent cut across every shard: the global snapshot epoch.

Per-shard snapshots (:mod:`repro.core.snapshot`) freeze one shard's
committed state at its publication epoch -- but a fan-out that pins each
shard *independently* can observe a cross-shard transaction torn in
half: pinned on shard A after its commit published there, on shard B
before.  That read skew is exactly what parallel fan-outs would amplify,
so the router closes it with a **consistent cut**:

* Phase two of every cross-shard commit (the per-participant COMMIT
  appends and their snapshot publications) runs while holding the
  **shared** side of a :class:`_CutLatch`.
* Taking a :class:`GlobalSnapshot` holds the **exclusive** side while it
  pins one per-shard snapshot on every up shard.

A cut therefore never lands inside a cross-shard publication window: a
transaction that committed across shards is entirely visible or entirely
invisible.  (Two *independent* single-shard transactions need no such
fence -- each is atomic within its shard, and the cut orders them the
way any sequentially consistent reader could have.)

The latch is writer-preferring on the cut side (waiting cutters block
*new* publishers) so a steady stream of cross-shard commits cannot
starve snapshot takers; publications are short -- a handful of WAL
appends -- so cut latency stays bounded by the slowest in-flight commit.

:class:`GlobalSnapshot` then exposes the whole read surface of a
per-shard :class:`~repro.core.snapshot.Snapshot` -- materialization,
attribute reads, the paper-§4 traversals, clusters, queries -- routed
over its pinned parts, so every parallel fan-out read resolves against
the one cut.  The per-object reads are written once, on :class:`Routed`,
which the router and the session reader inherit too.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.core.identity import Oid, Vid
from repro.core.pointers import Ref
from repro.core.surface import Target, VersionReads, oid_of
from repro.errors import ShardUnavailableError

if TYPE_CHECKING:
    from repro.core.snapshot import Snapshot
    from repro.core.vgraph import VersionGraph
    from repro.shard.router import ShardedDatabase

__all__ = ["GlobalSnapshot", "Routed"]


class _CutLatch:
    """Shared/exclusive latch fencing cuts against cross-shard publication.

    ``publishing()`` (shared) brackets 2PC phase two; ``cutting()``
    (exclusive) brackets global snapshot pinning.  Publishers among
    themselves never block -- distinct transactions publish to distinct
    shards' registries under their own locks.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._publishers = 0
        self._cutting = False
        self._cut_waiting = 0

    @contextmanager
    def publishing(self) -> Iterator[None]:
        with self._cond:
            # Waiting cutters bar *new* publishers (anti-starvation);
            # in-flight ones drain first.
            while self._cutting or self._cut_waiting:
                self._cond.wait()
            self._publishers += 1
        try:
            yield
        finally:
            with self._cond:
                self._publishers -= 1
                self._cond.notify_all()

    @contextmanager
    def cutting(self) -> Iterator[None]:
        with self._cond:
            self._cut_waiting += 1
            try:
                while self._cutting or self._publishers:
                    self._cond.wait()
                self._cutting = True
            finally:
                self._cut_waiting -= 1
        try:
            yield
        finally:
            with self._cond:
                self._cutting = False
                self._cond.notify_all()


class Routed(VersionReads):
    """The per-object reads of a sharded surface, each written once.

    The router, the global cut and the session reader differ only in
    where an object lives and what "every part" means, so each supplies
    two primitives and inherits the reads from here:

    * ``_at(oid, name, *args)`` -- call ``name(*args)`` where ``oid``
      lives (the owning shard, the cut's part, the session's cut);
    * ``_gather(fn)`` -- ``fn`` applied to every part, in shard order.

    Adding a per-object read to the sharded surfaces is one method here.
    """

    def latest_vid(self, oid: Oid) -> Vid:
        return self._at(oid, "latest_vid", oid)

    def materialize(self, vid: Vid) -> Any:
        return self._at(vid.oid, "materialize", vid)

    def version_bytes(self, vid: Vid) -> bytes:
        return self._at(vid.oid, "version_bytes", vid)

    def read_attr(self, vid: Vid, name: str) -> Any:
        return self._at(vid.oid, "read_attr", vid, name)

    def object_exists(self, oid: Oid) -> bool:
        return self._at(oid, "object_exists", oid)

    def version_exists(self, vid: Vid) -> bool:
        return self._at(vid.oid, "version_exists", vid)

    def type_name(self, oid: Oid) -> str:
        return self._at(oid, "type_name", oid)

    def graph(self, target: Target) -> VersionGraph:
        oid = oid_of(target)
        return self._at(oid, "graph", oid)

    def write_version(self, vid: Vid, obj: Any) -> None:
        self._at(vid.oid, "write_version", vid, obj)

    def write_version_if_changed(self, vid: Vid, obj: Any) -> bool:
        """False for a no-op write-back, also on a read-only part (pure
        reader methods run through cut-bound references)."""
        return self._at(vid.oid, "write_version_if_changed", vid, obj)

    def cluster_names(self) -> list[str]:
        return sorted(set().union(*self._gather(lambda part: part.cluster_names())))

    def object_count(self) -> int:
        return sum(self._gather(lambda part: part.object_count()))


class GlobalSnapshot(Routed):
    """One pinned point-in-time view spanning every up shard.

    Holds one per-shard :class:`~repro.core.snapshot.Snapshot` pinned
    under the cut latch, stamped with the router's kill/reattach count
    and each part's ``(registry, epoch)`` mark for staleness probes.
    Reads route by placement like the live router; a shard down at the
    cut has no part, and reads targeting it fail fast with
    :class:`~repro.errors.ShardUnavailableError` (its state at the cut
    is unknowable).

    Use as a context manager (or call :meth:`close`) to unpin the parts.
    """

    def __init__(
        self,
        router: "ShardedDatabase",
        parts: dict[int, "Snapshot"],
        topology: int,
    ) -> None:
        self._router = router
        #: shard index -> pinned per-shard snapshot (up shards only).
        self.parts = parts
        #: The router's kill/reattach count, read before the first part.
        self.topology = topology
        #: One ``(shard's snapshot registry, pinned epoch)`` per part.
        self.marks = tuple((part.store.snapshots, part.epoch) for part in parts.values())
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def pinned(self) -> bool:
        return not self._closed

    def close(self) -> None:
        """Unpin every part.  Idempotent (parts' own close is too)."""
        if self._closed:
            return
        self._closed = True
        for part in self.parts.values():
            try:
                part.close()
            except Exception:
                pass  # a part on a since-killed shard unpins best-effort

    def __enter__(self) -> "GlobalSnapshot":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "pinned" if not self._closed else "closed"
        return f"GlobalSnapshot(epoch={self.epoch}, {state})"

    # -- epoch ---------------------------------------------------------------

    @property
    def epoch(self) -> tuple[int, ...]:
        """Per-shard publication epochs of the cut (-1: shard was down)."""
        return tuple(
            self.parts[idx].epoch if idx in self.parts else -1
            for idx in range(self._router.nshards)
        )

    # -- routing -------------------------------------------------------------

    def _locate(self, oid: Oid) -> "Snapshot":
        """The part of the oid's home shard (placement is arithmetic)."""
        idx = self._router.placement.shard_of(oid)
        part = self.parts.get(idx)
        if part is None:
            self._router._health_counters["failfast"] += 1
            raise ShardUnavailableError(
                f"shard {idx} was down when this global snapshot was cut; "
                "its state at the cut is unknowable (retake the snapshot "
                "after reattach_shard)",
                shard=idx,
            )
        return part

    def _at(self, oid: Oid, name: str, *args: Any) -> Any:
        return getattr(self._locate(oid), name)(*args)

    def _gather(self, fn: Callable[["Snapshot"], Any]) -> list[Any]:
        return [fn(self.parts[idx]) for idx in sorted(self.parts)]

    # -- reads ---------------------------------------------------------------

    def read_latest_attr(self, oid: Oid, name: str) -> Any:
        return self._locate(oid).read_latest_attr(oid, name)

    def cluster(self, type_or_name: type | str) -> list[Ref]:
        """The type's cluster across every part (refs stay part-bound:
        reads through them resolve lock-free against the cut)."""
        return [
            ref
            for refs in self._gather(lambda part: part.cluster(type_or_name))
            for ref in refs
        ]

    def query(self, type_or_name: type | str):
        """A fanned-out query over the cut (materialized through the
        router's ``_scatter``, like every fan-out)."""
        from repro.shard.router import _FanoutQuery

        parts = self._gather(lambda part: part.query(type_or_name))
        return _FanoutQuery(dict(zip(sorted(self.parts), parts)), self._router._scatter)
