"""The probe plane: named points in the kernel that one observer may act on.

Crash consistency and interleaving coverage are both tested by acting at
named moments of the running code.  The storage, core, shard and network
layers call the hooks below at every such moment; a test or a tool
attaches one *observer* that decides what happens there:

* :class:`repro.storage.faults.FaultInjector` counts crash, write and
  error points and fires the faults its plan arms (the crash matrix);
* :class:`repro.verify.scheduler.CooperativeScheduler` parks registered
  threads at yield points (the interleaving explorer).

With nothing attached -- production and every ordinary test -- each hook
is one global load and a ``None`` check.  This module is import-light (no
other ``repro`` imports): every layer imports it.

Every point is declared in :data:`POINTS` with its kind:

``crash``
    A code boundary where a process death changes what reaches disk;
    :func:`point` visits it.
``write``
    A file write (:func:`write`): the data may also be torn or cut short.
``error``
    A survivable failure site (:func:`point`): an fsync stand-in, or a
    chaos-proxy moment where the error means "the connection died".
``yield``
    A scheduling point (:func:`point`) on a concurrency-sensitive path.

:class:`Histogram` is the one latency distribution: fixed log-spaced
buckets, O(1) to record, no sort to read.
"""

from __future__ import annotations

import math
import threading
from typing import Any

CRASH = "crash"
WRITE = "write"
ERROR = "error"
YIELD = "yield"

#: Every probe point, by name, and its kind.
POINTS: dict[str, str] = {
    **dict.fromkeys(
        (
            # WAL (repro.storage.wal)
            "wal.append", "wal.flush.pre_write", "wal.flush.post_write",
            "wal.flush.pre_fsync", "wal.flush.post_fsync",
            "wal.truncate.pre", "wal.truncate.post",
            # disk manager (repro.storage.disk)
            "disk.write_page.pre", "disk.write_page.post", "disk.write_meta.pre",
            "disk.allocate.pre", "disk.allocate.post", "disk.free_page",
            "disk.ensure_allocated", "disk.sync.pre", "disk.sync.post",
            # heap files (repro.storage.heap) and slotted pages (.pages)
            "heap.insert.pre", "heap.insert.post", "heap.update.pre",
            "heap.update.post", "heap.delete.pre", "heap.delete.post",
            "heap.replay_insert", "heap.replay_delete",
            "page.compact", "page.update.grow",
            # a version pdelete's child re-base and floor write
            # (repro.core.store)
            "store.rebase", "store.floor",
            # cross-shard two-phase commit (repro.shard.coordinator)
            "shard.2pc.pre_prepare", "shard.2pc.post_prepare",
            "shard.2pc.pre_decision", "shard.2pc.post_decision",
            "shard.2pc.post_ack", "shard.2pc.pre_forget",
            # Every step of the reclaim protocol is bracketed: before the
            # tombstone is durable, between tombstone and unlink, between
            # unlink and index delete, and inside the recovery repair
            # (repro.core.database).
            "gc.tombstone.pre", "gc.tombstone.post", "gc.unlink.pre",
            "gc.unlink.post", "gc.index.pre", "gc.index.post",
            "gc.repair.pre", "gc.repair.post",
            # the two halves of pack compaction (repro.storage.blobs)
            "blobs.compact.copied", "blobs.compact.retired",
        ),
        CRASH,
    ),
    **dict.fromkeys(
        ("wal.flush.write", "disk.write_page.write", "disk.write_meta.write", "blobs.append"),
        WRITE,
    ),
    **dict.fromkeys(
        (
            "wal.flush.fsync", "disk.sync.fsync", "blobs.sync.fsync",
            # The chaos proxy (repro.net.chaos) visits these as it accepts
            # and forwards traffic, so one plan composes disk faults with
            # network moments.
            "net.proxy.accept", "net.proxy.forward.c2s", "net.proxy.forward.s2c",
        ),
        ERROR,
    ),
    **dict.fromkeys(
        (
            "txn.lock", "txn.prepare", "txn.commit", "txn.commit.durable",
            "txn.abort", "txn.release", "txn.finish", "wal.flush",
            "store.pnew", "store.newversion", "store.pdelete", "store.write",
            "store.rewrite.stashed", "snap.publish", "snap.pin", "snap.unpin",
            "snap.read",
        ),
        YIELD,
    ),
}

#: ``faults.*`` counters with no fault injector attached.
_NO_FAULTS = {
    "faults.armed": 0,
    "faults.hits": 0,
    "faults.crashes": 0,
    "faults.torn_writes": 0,
    "faults.short_writes": 0,
    "faults.fsync_errors": 0,
}


class Observer:
    """What the one attached observer may override; each default passes through."""

    #: True once the observed process has "died" (a simulated crash):
    #: error-path cleanup must not run.
    crashed = False

    def point(self, name: str) -> None:
        pass

    def write(self, name: str, file: Any, data: Any) -> None:
        file.write(data)

    def wait(self, cond: threading.Condition, timeout: float | None) -> bool:
        return cond.wait(timeout)

    def notify(self) -> None:
        pass

    def stats(self) -> dict[str, int]:
        return dict(_NO_FAULTS)


_observer: Observer | None = None


def attach(observer: Observer) -> Observer:
    """Install ``observer`` process-globally; returns it for assertions."""
    global _observer
    if _observer is not None and _observer is not observer:
        raise RuntimeError(f"an observer is already attached: {_observer!r}")
    _observer = observer
    return observer


def detach() -> None:
    """Remove the attached observer (idempotent)."""
    global _observer
    _observer = None


def attached() -> Observer | None:
    """The attached observer, or None."""
    return _observer


def point(name: str) -> None:
    """Visit a crash, error or yield point."""
    obs = _observer
    if obs is not None:
        obs.point(name)


def write(name: str, file: Any, data: Any) -> None:
    """Write ``data`` to ``file`` through a write point."""
    obs = _observer
    if obs is None:
        file.write(data)
    else:
        obs.write(name, file, data)


def wait(cond: threading.Condition, timeout: float | None) -> bool:
    """``cond.wait(timeout)``, which an observer may turn into a park."""
    obs = _observer
    if obs is None:
        return cond.wait(timeout)
    return obs.wait(cond, timeout)


def notify() -> None:
    """Signal (after a lock release) that blocked threads may progress."""
    obs = _observer
    if obs is not None:
        obs.notify()


def crashed() -> bool:
    """True once a simulated crash fired."""
    obs = _observer
    return obs is not None and obs.crashed


def stats() -> dict[str, int]:
    """The ``faults.*`` counters (all zero without a fault injector)."""
    obs = _observer
    return dict(_NO_FAULTS) if obs is None else obs.stats()


#: Histogram buckets: 8 per doubling from 2**-20 to 2**20, so a bucket is
#: 9 % wide and the range holds both seconds and milliseconds.
_PER_DOUBLING = 8
_LOW = 2.0**-20
_BUCKETS = 40 * _PER_DOUBLING + 2
#: Each bucket's upper edge; the last one takes everything beyond 2**20.
_EDGES = [_LOW * 2.0 ** (i / _PER_DOUBLING) for i in range(_BUCKETS - 1)] + [math.inf]


class Histogram:
    """A latency distribution in fixed log-spaced buckets.

    Not thread-safe: the owner records and reads under its own lock.
    """

    __slots__ = ("_counts", "count", "max")

    def __init__(self) -> None:
        self._counts = [0] * _BUCKETS
        self.count = 0
        self.max = 0.0

    def record(self, value: float) -> None:
        self.count += 1
        if value > self.max:
            self.max = value
        if value <= _LOW:
            self._counts[0] += 1
        else:
            idx = int(math.log2(value / _LOW) * _PER_DOUBLING) + 1
            self._counts[min(idx, _BUCKETS - 1)] += 1

    def quantile(self, q: float) -> float:
        """The ``q`` quantile: its bucket's upper edge, capped at :attr:`max`
        (0.0 when empty)."""
        if not self.count:
            return 0.0
        rank = min(self.count - 1, int(q * self.count))
        seen = 0
        for n, edge in zip(self._counts, _EDGES):
            seen += n
            if seen > rank:
                return min(edge, self.max)
        return self.max
