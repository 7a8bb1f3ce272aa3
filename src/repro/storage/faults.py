"""Deterministic fault injection for the storage layer.

Crash consistency is the paper's whole persistence promise (§6: persistent
objects "continue to exist after the program that created them has
terminated"), and it cannot be tested by waiting for real crashes.  This
module provides *failpoints*: named hooks threaded through the disk
manager, WAL, heap, and page layers at every boundary where a process
death or an I/O failure changes what reaches stable storage.  A test (or
the crash-matrix runner in :mod:`repro.tools.crashmatrix`) arms a
:class:`FaultPlan`, runs a workload, and the plan deterministically fires
one fault at a chosen hit of a chosen failpoint.

Supported fault actions:

* ``crash`` -- raise :class:`SimulatedCrash` and put the injector into the
  *crashed* state: every subsequent failpoint (i.e. every subsequent
  mutating I/O in the process) also raises, so nothing can touch the disk
  after the "process died".  The test then reopens the database directory
  the way a restarted process would.
* ``torn_write`` -- at a write-site failpoint, write only a prefix of the
  buffer (byte granularity) and then crash: the worst-case outcome of a
  real crash in the middle of a ``write(2)``.
* ``short_write`` -- write only a prefix and raise
  :class:`InjectedFaultError` *without* crashing: the process survives and
  must handle the failed write (the WAL's retry path is tested this way).
* ``fsync_error`` -- raise :class:`InjectedFaultError` in place of a
  successful ``fsync``: the caller must treat the commit as
  unacknowledged.

Fidelity note: this harness runs above a real filesystem, so bytes passed
to ``write`` are visible after a simulated crash even when no fsync
happened (the kindest possible page cache).  The torn-write action exists
precisely to simulate the *unkind* cache: it materializes the worst-case
partial write a crash-before-fsync could leave.  Recovery must cope with
both extremes; every real outcome lies in between.  Data-*page* writes are
assumed atomic at page granularity (the classic ARIES assumption absent
full-page logging); the WAL needs no such assumption because its frame
CRCs detect arbitrary tears.

The injector is installed process-globally (:func:`activate` /
:func:`deactivate`) so the storage layers need no constructor plumbing;
determinism comes from the plan itself -- a named failpoint plus a hit
ordinal is reproducible for a deterministic workload.  When no injector is
active every hook is a single global load and ``None`` check.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = [
    "FAILPOINTS",
    "WRITE_FAILPOINTS",
    "ERROR_FAILPOINTS",
    "SimulatedCrash",
    "InjectedFaultError",
    "FaultPlan",
    "FaultInjector",
    "activate",
    "deactivate",
    "active",
    "fire",
    "write",
    "is_crashed",
    "stats",
]


class SimulatedCrash(BaseException):
    """The simulated process death.

    Derives from ``BaseException`` so that no ``except Exception`` /
    ``except OdeError`` handler in the stack can swallow it -- a crash is
    not an error the program observes; it simply stops running.
    """


class InjectedFaultError(OSError):
    """An injected I/O failure (failed write or fsync) the caller observes."""


#: Crash-site failpoints: a plain :func:`fire` call at a code boundary.
FAILPOINTS: tuple[str, ...] = (
    # -- WAL (repro.storage.wal) ------------------------------------------
    "wal.append",
    "wal.flush.pre_write",
    "wal.flush.write",
    "wal.flush.post_write",
    "wal.flush.pre_fsync",
    "wal.flush.fsync",
    "wal.flush.post_fsync",
    "wal.truncate.pre",
    "wal.truncate.post",
    # -- disk manager (repro.storage.disk) --------------------------------
    "disk.write_page.pre",
    "disk.write_page.write",
    "disk.write_page.post",
    "disk.write_meta.pre",
    "disk.write_meta.write",
    "disk.allocate.pre",
    "disk.allocate.post",
    "disk.free_page",
    "disk.ensure_allocated",
    "disk.sync.pre",
    "disk.sync.fsync",
    "disk.sync.post",
    # -- heap files (repro.storage.heap) -----------------------------------
    "heap.insert.pre",
    "heap.insert.post",
    "heap.update.pre",
    "heap.update.post",
    "heap.delete.pre",
    "heap.delete.post",
    "heap.span.fragment",
    "heap.replay_insert",
    "heap.replay_delete",
    # -- slotted pages (repro.storage.pages) --------------------------------
    "page.compact",
    "page.update.grow",
    # -- cross-shard two-phase commit (repro.shard.coordinator) -------------
    "shard.2pc.pre_prepare",
    "shard.2pc.post_prepare",
    "shard.2pc.pre_decision",
    "shard.2pc.post_decision",
    "shard.2pc.post_ack",
    "shard.2pc.pre_forget",
    # -- network chaos proxy (repro.net.chaos) ------------------------------
    # Visited by the proxy as it accepts and forwards traffic, so one
    # FaultPlan can compose disk faults with network moments: crash the
    # "process" exactly when a byte crosses the wire, or fire an
    # InjectedFaultError (the proxy turns it into a dropped connection).
    "net.proxy.accept",
    "net.proxy.forward.c2s",
    "net.proxy.forward.s2c",
    # -- online GC protocol windows (repro.core.gc) -------------------------
    # Every step of the reclaim protocol is bracketed: crash before the
    # tombstone is durable (nothing happened), between tombstone and
    # unlink (recovery repair finishes the unlink), between unlink and
    # index delete (repair drops the stale index entry), and inside the
    # recovery repair itself (the double-crash scenarios).
    "gc.tombstone.pre",
    "gc.tombstone.post",
    "gc.unlink.pre",
    "gc.unlink.post",
    "gc.index.pre",
    "gc.index.post",
    "gc.repair.pre",
    "gc.repair.post",
    # -- pack files (repro.storage.blobs) -----------------------------------
    # A frame append, the pack fsync (write-back, seal, reclaim), and the
    # two halves of compaction: survivors copied forward, pack deleted.
    "blobs.append",
    "blobs.sync.fsync",
    "blobs.compact.copied",
    "blobs.compact.retired",
)

#: Failpoints that wrap an actual file write (torn/short writes possible).
WRITE_FAILPOINTS: frozenset[str] = frozenset(
    {"wal.flush.write", "disk.write_page.write", "disk.write_meta.write", "blobs.append"}
)

#: Failpoints that may raise a survivable :class:`InjectedFaultError`
#: instead of crashing: fsync stand-ins, plus the chaos proxy's forward
#: points (where the error means "this connection just died").
ERROR_FAILPOINTS: frozenset[str] = frozenset(
    {
        "wal.flush.fsync",
        "disk.sync.fsync",
        "blobs.sync.fsync",
        "net.proxy.accept",
        "net.proxy.forward.c2s",
        "net.proxy.forward.s2c",
    }
)

_CRASH = "crash"
_TORN = "torn_write"
_SHORT = "short_write"
_FSYNC_ERROR = "fsync_error"


@dataclass(frozen=True)
class Fault:
    """One armed fault: fire ``action`` on the ``hit``-th visit of a failpoint.

    ``keep`` (torn/short writes only) is the number of buffer bytes that
    reach the file: non-negative counts from the front, negative drops
    that many bytes off the tail (``keep=-1`` loses the last byte).

    ``persistent`` (survivable actions only) keeps firing on *every* visit
    from the ``hit``-th on -- a permanently failing disk rather than a
    one-shot glitch.  This is how degraded mode is tested: a persistent
    fsync failure must push the database into read-only operation.
    """

    action: str
    hit: int = 1
    keep: int = 0
    persistent: bool = False

    def keep_bytes(self, length: int) -> int:
        if self.keep >= 0:
            return min(self.keep, length)
        return max(0, length + self.keep)


class FaultPlan:
    """A deterministic set of faults, at most one per failpoint.

    All arming methods validate the failpoint name against
    :data:`FAILPOINTS` (catching typos loudly) and return ``self`` so
    plans read as chains::

        plan = FaultPlan().crash("wal.flush.pre_fsync", hit=3)
    """

    def __init__(self) -> None:
        self._faults: dict[str, Fault] = {}

    def _arm(self, failpoint: str, fault: Fault) -> "FaultPlan":
        if failpoint not in FAILPOINTS:
            raise ValueError(f"unknown failpoint {failpoint!r}")
        if fault.hit < 1:
            raise ValueError("hit ordinal must be >= 1")
        if failpoint in self._faults:
            raise ValueError(f"failpoint {failpoint!r} already armed")
        self._faults[failpoint] = fault
        return self

    def crash(self, failpoint: str, hit: int = 1) -> "FaultPlan":
        """Die (raise :class:`SimulatedCrash`) at the failpoint's Nth visit."""
        return self._arm(failpoint, Fault(_CRASH, hit))

    def torn_write(self, failpoint: str, keep: int, hit: int = 1) -> "FaultPlan":
        """Write ``keep`` bytes of the buffer, then die (write sites only)."""
        if failpoint not in WRITE_FAILPOINTS:
            raise ValueError(f"{failpoint!r} is not a write-site failpoint")
        return self._arm(failpoint, Fault(_TORN, hit, keep))

    def short_write(
        self, failpoint: str, keep: int, hit: int = 1, persistent: bool = False
    ) -> "FaultPlan":
        """Write ``keep`` bytes, then fail the write (process survives).

        ``persistent=True`` fails every write from the ``hit``-th on.
        """
        if failpoint not in WRITE_FAILPOINTS:
            raise ValueError(f"{failpoint!r} is not a write-site failpoint")
        return self._arm(failpoint, Fault(_SHORT, hit, keep, persistent))

    def fsync_error(
        self, failpoint: str, hit: int = 1, persistent: bool = False
    ) -> "FaultPlan":
        """Fail the fsync at the failpoint (process survives, no barrier).

        ``persistent=True`` models a dead disk: every fsync from the
        ``hit``-th on fails, which is the trigger for degraded mode.
        """
        if failpoint not in ERROR_FAILPOINTS:
            raise ValueError(f"{failpoint!r} is not an fsync failpoint")
        return self._arm(failpoint, Fault(_FSYNC_ERROR, hit, 0, persistent))

    def error(
        self, failpoint: str, hit: int = 1, persistent: bool = False
    ) -> "FaultPlan":
        """Raise :class:`InjectedFaultError` at a survivable error site.

        The readable spelling for non-fsync error failpoints (the chaos
        proxy's ``net.proxy.*`` points, where the injected error means
        the connection died); mechanically identical to
        :meth:`fsync_error`.
        """
        return self.fsync_error(failpoint, hit, persistent)

    def get(self, failpoint: str) -> Fault | None:
        """The fault armed at ``failpoint``, if any."""
        return self._faults.get(failpoint)

    def failpoints(self) -> list[str]:
        """Names with a fault armed (sorted)."""
        return sorted(self._faults)


class FaultInjector:
    """Executes a :class:`FaultPlan` against the live failpoint stream.

    Thread-safe: hit counting and the crashed flag are guarded by one
    lock.  Once crashed, *every* subsequent failpoint visit raises
    :class:`SimulatedCrash` -- the storage layers place a failpoint on
    every mutating I/O path, so a dead process can no longer change the
    on-disk state (exactly like a real crash).
    """

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan or FaultPlan()
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self.crashed = False
        #: ``(failpoint, action)`` tuples in firing order.
        self.fired: list[tuple[str, str]] = []
        self.hits_total = 0
        self.crashes = 0
        self.torn_writes = 0
        self.short_writes = 0
        self.fsync_errors = 0

    # -- bookkeeping -------------------------------------------------------

    def hit_count(self, failpoint: str) -> int:
        """Number of times ``failpoint`` has been visited."""
        with self._lock:
            return self._hits.get(failpoint, 0)

    def _visit(self, failpoint: str) -> Fault | None:
        """Count a visit; return the fault if this visit triggers it."""
        if self.crashed:
            raise SimulatedCrash(f"I/O at {failpoint} after simulated crash")
        self.hits_total += 1
        count = self._hits.get(failpoint, 0) + 1
        self._hits[failpoint] = count
        fault = self.plan.get(failpoint)
        if fault is None:
            return None
        if count == fault.hit or (fault.persistent and count > fault.hit):
            return fault
        return None

    def _die(self, failpoint: str, action: str) -> None:
        self.crashed = True
        self.crashes += 1
        self.fired.append((failpoint, action))
        raise SimulatedCrash(f"{action} injected at {failpoint}")

    # -- hook implementations ------------------------------------------------

    def fire(self, failpoint: str) -> None:
        """Visit a plain (non-write) failpoint."""
        with self._lock:
            fault = self._visit(failpoint)
            if fault is None:
                return
            if fault.action == _FSYNC_ERROR:
                self.fsync_errors += 1
                self.fired.append((failpoint, _FSYNC_ERROR))
                raise InjectedFaultError(f"fsync failure injected at {failpoint}")
            self._die(failpoint, fault.action)

    def write(self, failpoint: str, file, data) -> None:
        """Visit a write-site failpoint, performing (or mutilating) the write."""
        with self._lock:
            fault = self._visit(failpoint)
            if fault is None:
                file.write(data)
                return
            if fault.action == _CRASH:
                self._die(failpoint, _CRASH)
            kept = fault.keep_bytes(len(data))
            if kept:
                file.write(data[:kept])
            if fault.action == _TORN:
                self.torn_writes += 1
                self._die(failpoint, _TORN)
            self.short_writes += 1
            self.fired.append((failpoint, _SHORT))
            raise InjectedFaultError(
                f"short write injected at {failpoint} ({kept}/{len(data)} bytes)"
            )

    def stats(self) -> dict[str, int]:
        """Counters for ``Database.stats()`` / the crash-matrix report."""
        with self._lock:
            return {
                "faults_armed": len(self.plan.failpoints()),
                "faults_hits": self.hits_total,
                "faults_crashes": self.crashes,
                "faults_torn_writes": self.torn_writes,
                "faults_short_writes": self.short_writes,
                "faults_fsync_errors": self.fsync_errors,
            }


# -- process-global installation -------------------------------------------
#
# The storage layers call the module-level fire()/write(); tests install an
# injector around a workload.  Inactive cost: one global load per hook.

_active: FaultInjector | None = None


def activate(plan: FaultPlan) -> FaultInjector:
    """Install an injector for ``plan``; returns it for assertions."""
    global _active
    injector = FaultInjector(plan)
    _active = injector
    return injector


def deactivate() -> None:
    """Remove the active injector (always pair with :func:`activate`)."""
    global _active
    _active = None


def active() -> FaultInjector | None:
    """The currently installed injector, if any."""
    return _active


def fire(failpoint: str) -> None:
    """Hook: visit a crash-site failpoint (no-op when inactive)."""
    injector = _active
    if injector is not None:
        injector.fire(failpoint)


def write(failpoint: str, file, data) -> None:
    """Hook: write ``data`` to ``file`` through a write-site failpoint."""
    injector = _active
    if injector is None:
        file.write(data)
    else:
        injector.write(failpoint, file, data)


def is_crashed() -> bool:
    """True once a crash fault has fired (error-path cleanup must not run)."""
    injector = _active
    return injector is not None and injector.crashed


def stats() -> dict[str, int]:
    """Injected-fault counters (all zero when no injector is active)."""
    injector = _active
    if injector is None:
        return {
            "faults_armed": 0,
            "faults_hits": 0,
            "faults_crashes": 0,
            "faults_torn_writes": 0,
            "faults_short_writes": 0,
            "faults_fsync_errors": 0,
        }
    return injector.stats()
