"""Deterministic fault injection for the storage layer.

Crash consistency is the paper's whole persistence promise (§6: persistent
objects "continue to exist after the program that created them has
terminated"), and it cannot be tested by waiting for real crashes.  This
module provides the fault injector: the observer of the probe plane
(:mod:`repro.probe`) that acts at its crash, write and error points --
every boundary in the disk manager, WAL, heap, page, pack, GC and 2PC
code where a process death or an I/O failure changes what reaches stable
storage.  A test (or the crash-matrix runner in
:mod:`repro.tools.crashmatrix`) attaches ``FaultInjector(plan)``, runs a
workload, and the plan deterministically fires one fault at a chosen hit
of a chosen point.

Supported fault actions:

* ``crash`` -- raise :class:`SimulatedCrash` and put the injector into the
  *crashed* state: every subsequent crash, write or error point (every
  subsequent mutating I/O in the process) also raises, so nothing can touch the disk
  after the "process died".  The test then reopens the database directory
  the way a restarted process would.
* ``torn_write`` -- at a write point, write only a prefix of the buffer
  (byte granularity) and then crash: the worst-case outcome of a
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

Attach it with ``probe.attach(FaultInjector(plan))`` and remove it with
``probe.detach()``: the storage layers need no constructor plumbing, and
determinism comes from the plan itself -- a named point plus a hit
ordinal is reproducible for a deterministic workload.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro import probe

__all__ = ["SimulatedCrash", "InjectedFaultError", "FaultPlan", "FaultInjector"]


class SimulatedCrash(BaseException):
    """The simulated process death.

    Derives from ``BaseException`` so that no ``except Exception`` /
    ``except OdeError`` handler in the stack can swallow it -- a crash is
    not an error the program observes; it simply stops running.
    """


class InjectedFaultError(OSError):
    """An injected I/O failure (failed write or fsync) the caller observes."""


_CRASH = "crash"
_TORN = "torn_write"
_SHORT = "short_write"
_FSYNC_ERROR = "fsync_error"

_FAULT_KINDS = (probe.CRASH, probe.WRITE, probe.ERROR)


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

    All arming methods validate the name and its kind against
    :data:`repro.probe.POINTS` (catching typos loudly) and return ``self``
    so plans read as chains::

        plan = FaultPlan().crash("wal.flush.pre_fsync", hit=3)
    """

    def __init__(self) -> None:
        self._faults: dict[str, Fault] = {}

    def _arm(self, failpoint: str, fault: Fault, *kinds: str) -> "FaultPlan":
        kind = probe.POINTS.get(failpoint)
        if kind not in _FAULT_KINDS:
            raise ValueError(f"unknown failpoint {failpoint!r}")
        if kinds and kind not in kinds:
            raise ValueError(f"{failpoint!r} is a {kind} point, not {' or '.join(kinds)}")
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
        """Write ``keep`` bytes of the buffer, then die (write points only)."""
        return self._arm(failpoint, Fault(_TORN, hit, keep), probe.WRITE)

    def short_write(
        self, failpoint: str, keep: int, hit: int = 1, persistent: bool = False
    ) -> "FaultPlan":
        """Write ``keep`` bytes, then fail the write (process survives).

        ``persistent=True`` fails every write from the ``hit``-th on.
        """
        return self._arm(failpoint, Fault(_SHORT, hit, keep, persistent), probe.WRITE)

    def fsync_error(
        self, failpoint: str, hit: int = 1, persistent: bool = False
    ) -> "FaultPlan":
        """Fail the fsync at the failpoint (process survives, no barrier).

        ``persistent=True`` models a dead disk: every fsync from the
        ``hit``-th on fails, which is the trigger for degraded mode.
        """
        return self._arm(failpoint, Fault(_FSYNC_ERROR, hit, 0, persistent), probe.ERROR)

    def error(
        self, failpoint: str, hit: int = 1, persistent: bool = False
    ) -> "FaultPlan":
        """Raise :class:`InjectedFaultError` at a survivable error point.

        The readable spelling for non-fsync error points (the chaos
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


class FaultInjector(probe.Observer):
    """Executes a :class:`FaultPlan` against the live probe stream.

    It counts crash, write and error points and passes yield points by.
    Thread-safe: hit counting and the crashed flag are guarded by one
    lock.  Once crashed, *every* subsequent crash, write or error point
    raises :class:`SimulatedCrash` -- the storage layers place one on
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

    def point(self, failpoint: str) -> None:
        """Visit a crash or error point; a yield point passes by."""
        if probe.POINTS[failpoint] == probe.YIELD:
            return
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
        """Visit a write point, performing (or mutilating) the write."""
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
        """The ``faults.*`` counters of ``Database.stats()``."""
        with self._lock:
            return {
                "faults.armed": len(self.plan.failpoints()),
                "faults.hits": self.hits_total,
                "faults.crashes": self.crashes,
                "faults.torn_writes": self.torn_writes,
                "faults.short_writes": self.short_writes,
                "faults.fsync_errors": self.fsync_errors,
            }
