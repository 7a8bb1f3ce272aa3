"""Contention stress harness: concurrent workloads against one database.

Where :mod:`repro.tools.crashmatrix` attacks durability (does the data
survive a dying process?), this harness attacks **liveness and isolation**
under heavy lock contention: many threads hammering few objects, the
workload shapes most likely to deadlock, starve, or lose updates:

* ``hotspot`` -- every thread increments the same handful of counter
  objects through ``db.run_transaction`` (read-modify-write under strict
  2PL).  The classic lost-update shape: SHARED read locks upgrade to
  EXCLUSIVE on write, two upgraders deadlock, the wait-for-graph detector
  must victim one and the retry layer must re-run it.
* ``upgrade_storm`` -- all threads S-lock the *same* object then upgrade,
  maximizing upgrade-upgrade cycles (the deadlock the old timeout-only
  scheme burned a full ``lock_timeout`` on, every time).
* ``newversion_chain`` -- threads race ``newversion`` + write on one
  object, growing a long version chain; exercises the detector while
  each attempt does multiple logged operations.
* ``snapshot_readers`` -- half the threads increment counters through
  ``run_transaction`` while the other half continuously pin
  :meth:`Database.snapshot` views and sum the counters lock-free.
  Verifies *monotonic snapshot visibility* (epochs and observed totals
  never go backwards for any reader), that every pinned view is
  internally consistent, and -- via a final snapshot -- that no
  acknowledged increment was lost.
* ``gc_churn`` -- writers churn version history under a retention policy
  while snapshot readers scan and a dedicated thread runs the online
  collector continuously.  Verifies read-your-acked-writes after every
  commit, that no reader ever observes a missing blob, monotone
  collector progress, and exact post-convergence retention (every object
  at its keep-last-N floor, no zero-ref debris).
* ``server`` -- the same invariants *over the wire*: an in-process
  :class:`~repro.net.server.ServerThread` serves 512 concurrent client
  connections, each counter driven by full wire transactions (BEGIN /
  READ / WRITE / COMMIT, :func:`repro.tools.harness.run_txn`) with a
  lock-free read after every commit.  Verifies no lost updates per
  acknowledged wire commit, read-your-acked-writes on the lock-free
  lane, lock quiescence, and that every session is torn down on
  disconnect.

The default run is the first three.  Every scenario verifies:

1. **No lost updates** -- each counter's final value equals its
   acknowledged increments (the :class:`~repro.tools.harness.Ledger`
   rule, here with no indeterminate commits); every version chain's
   length equals acknowledged ``newversion`` count + 1.
2. **No stuck threads** -- every worker joins within a hard timeout.
3. **No leaked locks** -- :meth:`LockManager.assert_quiescent` passes
   after the workload (no holders, no waiters, no unconsumed victims).
4. **Bounded waiting** -- p99 lock-acquire latency stays under half the
   lock deadline: contention resolves by detection, not by timeout.

Run it:

    PYTHONPATH=src python -m repro.tools.stress [--scenario NAME ...] [--smoke] [-v]
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from functools import partial
from pathlib import Path

from repro import Database
from repro.net.client import OdeClient
from repro.net.server import ServerThread
from repro.tools import harness
from repro.tools.harness import DEADLINE, Counter, Ledger, Result

#: Lock deadline for stress runs.  Deliberately generous: correct runs
#: never get near it (deadlocks resolve by detection in milliseconds),
#: and a run that *does* hit it has a real liveness bug to report.
LOCK_TIMEOUT = 5.0

#: p99 lock-acquire latency must stay under this fraction of the deadline.
P99_BUDGET_FRACTION = 0.5

_JOIN_TIMEOUT = 120.0


def _run_workers(result: Result, worker, threads: int, readers=()) -> None:
    """Run ``threads`` copies of ``worker(wid)`` and, until the last of
    them has finished, each ``reader(done)`` loop; record errors and hangs."""
    done = threading.Event()

    def guarded(fn, arg) -> None:
        try:
            fn(arg)
        except Exception as exc:  # noqa: BLE001 - surfaced as a finding
            name = threading.current_thread().name
            result.problems.append(f"{name} raised {exc!r}")

    def start(name: str, fn, arg) -> threading.Thread:
        thread = threading.Thread(target=guarded, args=(fn, arg), name=name)
        thread.start()
        return thread

    writers = [start(f"stress-w{wid}", worker, wid) for wid in range(threads)]
    loops = [start(f"stress-r{i}", fn, done) for i, fn in enumerate(readers)]
    for group in (writers, loops):
        for thread in group:
            thread.join(timeout=_JOIN_TIMEOUT)
            if thread.is_alive():
                result.problems.append(
                    f"thread {thread.name} stuck (> {_JOIN_TIMEOUT}s)"
                )
        done.set()


def _increment(
    db: Database, result: Result, threads: int, rounds: int, refs, attempts: int,
    readers=(),
) -> Ledger:
    """``threads`` threads each commit ``rounds`` increments, round-robin
    over ``refs`` (a SHARED read upgraded to EXCLUSIVE on write), while
    each of ``readers`` loops; returns the ledger of acknowledged ones."""
    ledger = Ledger(len(refs))

    def worker(wid: int) -> None:
        for j in range(rounds):
            idx = (wid + j) % len(refs)
            ref = refs[idx]

            def increment() -> None:
                base = ref.val  # SHARED
                ref.val = base + 1  # upgrade to EXCLUSIVE

            db.run_transaction(increment, max_attempts=attempts)
            ledger.ack(idx)

    _run_workers(result, worker, threads, readers)
    return ledger


def _finish(db: Database, result: Result) -> None:
    """Common post-workload checks: quiescence, latency, counters."""
    stats = db.stats()
    p99_wait = db.locks.wait_p99()
    result.counts["retries"] += stats["txn.retries"]
    result.counts["deadlocks"] = stats["locks.deadlocks"]
    result.counts["p99_wait_ms"] = p99_wait * 1000
    try:
        db.locks.assert_quiescent()
    except AssertionError as exc:
        result.problems.append(f"locks not quiescent after workload: {exc}")
    budget = LOCK_TIMEOUT * P99_BUDGET_FRACTION
    if p99_wait >= budget:
        result.problems.append(
            f"p99 lock wait {p99_wait:.3f}s >= budget {budget:.3f}s "
            "(contention resolving by timeout, not detection?)"
        )
    if stats["txn.giveups"]:
        result.problems.append(
            f"{stats['txn.giveups']} transaction(s) exhausted their retries"
        )


def _scenario_hotspot(path: Path, workers: int, rounds: int) -> Result:
    """All threads increment a few hot counters; totals must balance."""
    result = Result("hotspot")
    with Database(path, lock_timeout=LOCK_TIMEOUT) as db:
        # Few counters, many threads.
        refs = [db.pnew(Counter(tag=i)) for i in range(max(2, workers // 4))]
        ledger = _increment(db, result, workers, rounds, refs, attempts=40)
        ledger.check([ref.val for ref in refs], result)
        _finish(db, result)
    return result


def _scenario_upgrade_storm(path: Path, workers: int, rounds: int) -> Result:
    """Every thread upgrades S->X on one object -- maximal upgrade cycles."""
    result = Result("upgrade_storm")
    with Database(path, lock_timeout=LOCK_TIMEOUT) as db:
        ref = db.pnew(Counter(tag=0))
        ledger = _increment(db, result, workers, rounds, [ref], attempts=60)
        ledger.check([ref.val], result)
        _finish(db, result)
    return result


def _scenario_newversion_chain(path: Path, workers: int, rounds: int) -> Result:
    """Threads race ``newversion`` on one object; chain length must balance."""
    result = Result("newversion_chain")
    with Database(path, lock_timeout=LOCK_TIMEOUT) as db:
        ref = db.pnew(Counter(tag=0))
        committed = [0] * workers

        def worker(wid: int) -> None:
            for j in range(rounds):

                def derive() -> None:
                    vref = db.newversion(ref)
                    vref.val = wid * 10_000 + j

                db.run_transaction(derive, max_attempts=60)
                committed[wid] += 1

        _run_workers(result, worker, workers)
        expect = 1 + sum(committed)  # the original + every acknowledged derive
        got = db.version_count(ref)
        result.counts["acked"] = sum(committed)
        if got != expect:
            result.problems.append(
                f"version chain: {got} versions != {expect} expected "
                f"(original + acknowledged newversions)"
            )
        _finish(db, result)
    return result


def _scenario_snapshot_readers(path: Path, workers: int, rounds: int) -> Result:
    """Writers increment under 2PL while readers scan pinned snapshots.

    The readers-vs-writers mix from the lock-free read path: writer
    threads do classic read-modify-write increments, reader threads pin
    ``db.snapshot()`` in a loop and sum every counter through the frozen
    view.  Checks, per reader: snapshot epochs never decrease and
    observed totals never decrease (monotonic visibility).  Afterwards:
    a final snapshot must show exactly the acknowledged increments (no
    lost updates) and no reader may leave a snapshot pinned.
    """
    result = Result("snapshot_readers")
    writers = max(1, workers // 2)
    readers = max(1, workers - writers)
    with Database(path, lock_timeout=LOCK_TIMEOUT) as db:
        refs = [db.pnew(Counter(tag=i)) for i in range(max(2, writers))]
        oids = [ref.oid for ref in refs]

        def reader(done: threading.Event) -> None:
            name = threading.current_thread().name
            last_epoch = -1
            last_total = -1
            while not done.is_set():
                # No read-your-acked-writes floor here: publication can
                # lag acknowledgement when the next writer grabs the
                # freed lock and dirties the object before the committer
                # publishes.  The contract is monotonic visibility plus
                # the final no-lost-updates balance below.
                with db.snapshot() as snap:
                    if snap.epoch < last_epoch:
                        result.problems.append(
                            f"{name}: epoch went backwards "
                            f"({snap.epoch} < {last_epoch})"
                        )
                        return
                    last_epoch = snap.epoch
                    total = sum(snap.materialize(snap.latest_vid(oid)).val for oid in oids)
                if total < last_total:
                    result.problems.append(
                        f"{name}: total went backwards "
                        f"({total} < {last_total}) -- non-monotonic visibility"
                    )
                    return
                last_total = total

        ledger = _increment(
            db, result, writers, rounds, refs, attempts=40, readers=[reader] * readers
        )
        with db.snapshot() as snap:
            ledger.check(
                [snap.materialize(snap.latest_vid(oid)).val for oid in oids], result
            )
        stats = db.stats()
        if stats["snap.pinned"] != 0:
            result.problems.append(
                f"{stats['snap.pinned']} snapshot(s) left pinned after workload"
            )
        if stats["snap.lockfree_hits"] == 0:
            result.problems.append(
                "no lock-free read hits recorded -- readers took the locked path?"
            )
        _finish(db, result)
    return result


def _scenario_gc_churn(path: Path, workers: int, rounds: int) -> Result:
    """Writers churn version history while the online GC collects it.

    Half the threads rewrite their own versioned counters (every write a
    ``newversion`` + distinct payload, so history -- and displaced blob
    content -- grows continuously) under a ``keep_last_n`` retention
    policy; the rest continuously pin snapshots and materialize the
    latest version of every object; one dedicated thread runs
    ``db.run_gc`` in a loop the whole time.  Verifies:

    1. **read-your-acked-writes** -- each writer reads its own object
       back immediately after every acknowledged commit and must see the
       value it wrote (the collector never eats an acked write);
    2. **no missing blobs** -- no reader or writer ever observes a
       ``BlobMissingError`` (reclaim never unlinks content a live reader
       can reach);
    3. **monotone GC progress** -- the collector's deleted-versions
       counter never decreases and the final convergence run drains the
       candidate set to zero, leaving exactly the retention keep set.
    """
    from repro.core import gc
    from repro.errors import BlobMissingError

    result = Result("gc_churn")
    writers = max(1, workers // 2)
    readers = max(1, workers - writers - 1)
    keep = 3
    with Database(path, lock_timeout=LOCK_TIMEOUT) as db:
        gc.set_retention(db, Counter, gc.RetentionPolicy(keep_last_n=keep))
        refs = [db.pnew(Counter(tag=i)) for i in range(writers)]
        oids = [ref.oid for ref in refs]
        committed = [0] * writers

        def writer(wid: int) -> None:
            ref = refs[wid]  # private object: churn, not lock contention
            for j in range(rounds):
                val = wid * 1_000_000 + j

                def rewrite() -> None:
                    db.newversion(ref)
                    ref.val = val

                db.run_transaction(rewrite, max_attempts=40)
                committed[wid] += 1
                try:
                    got = ref.val
                except BlobMissingError as exc:
                    result.problems.append(
                        f"writer {wid}: acked write unreadable "
                        f"(BlobMissingError {exc})"
                    )
                    return
                if got != val:
                    result.problems.append(
                        f"writer {wid}: read-your-acked-writes broken "
                        f"(wrote {val}, read {got})"
                    )
                    return

        def reader(done: threading.Event) -> None:
            while not done.is_set():
                try:
                    with db.snapshot() as snap:
                        for oid in oids:
                            snap.materialize(snap.latest_vid(oid))
                except BlobMissingError as exc:
                    result.problems.append(
                        f"{threading.current_thread().name}: "
                        f"BlobMissingError surfaced ({exc})"
                    )
                    return

        def collector(done: threading.Event) -> None:
            last = 0
            while not done.is_set():
                report = db.run_gc(batch_limit=8)
                total = db.stats()["gc.versions_deleted"]
                if total < last:
                    result.problems.append(
                        f"GC progress went backwards ({total} < {last})"
                    )
                    return
                last = total
                if report.versions_deleted == 0 and report.blobs_unlinked == 0:
                    time.sleep(0.002)  # idle pass: let the writers refill

        _run_workers(result, writer, writers, [reader] * readers + [collector])

        # Convergence: a quiet database drains completely in two passes
        # (displacement publishes on the first, reclaim eligibility on
        # the next); allow a couple extra for snapshot-epoch stragglers.
        for _ in range(4):
            report = db.run_gc(batch_limit=256)
            if report.candidates_remaining == 0:
                break
        else:
            result.problems.append(
                f"reclaim did not drain: {report.candidates_remaining} "
                f"candidate(s) remain after the workload went quiet"
            )
        result.counts["acked"] = sum(committed)
        for wid, ref in enumerate(refs):
            if ref.val != wid * 1_000_000 + (rounds - 1):
                result.problems.append(
                    f"writer {wid}: final value {ref.val} != last acked write"
                )
            versions = db.version_count(ref)
            if versions != keep:
                result.problems.append(
                    f"writer {wid}: {versions} versions survive, retention "
                    f"demands exactly {keep}"
                )
        if db.stats()["gc.versions_deleted"] == 0:
            result.problems.append(
                "the collector never deleted anything -- churn misconfigured?"
            )
        stats = db.stats()
        if stats["blobs.count"] != stats["blobs.live"]:
            result.problems.append(
                f"{stats['blobs.count'] - stats['blobs.live']} zero-ref "
                f"index entries remain after convergence"
            )
        _finish(db, result)
    return result


#: Connection count for the ``server`` scenario.  The acceptance floor
#: is 500 live sessions; 512 keeps it a round power of two above it.
SERVER_CONNECTIONS = 512


def _scenario_server(path: Path, workers: int, rounds: int) -> Result:
    """A 512-connection client swarm against the in-process server.

    One pool of 512 connections, opened up front; one worker per counter
    drives full wire transactions through
    :func:`~repro.tools.harness.run_txn` -- BEGIN / READ / WRITE / COMMIT
    frames through the session's stateful lane, then a lock-free read on
    the inline lane.  Invariants:

    1. **No lost updates over the wire** -- the ledger rule for every
       counter: acked <= value <= acked + indeterminate.
    2. **Read-your-acked-writes** -- the lock-free read after an
       acknowledged commit never sees fewer increments than were acked.
    3. **Full swarm concurrency** -- at least 500 sessions live at once.
    4. **Clean teardown** -- every session reaped on disconnect, no
       snapshot left pinned, lock table quiescent.
    """
    txns = max(2, rounds // 4)
    result = Result("server")
    with Database(
        path, lock_timeout=LOCK_TIMEOUT, group_commit_window=0.002
    ) as db:
        oids = harness.counters(db, SERVER_CONNECTIONS)
        ledger = Ledger(SERVER_CONNECTIONS)
        with ServerThread(db) as server:

            async def clients() -> None:
                async with await OdeClient.connect(
                    server.host, server.port,
                    pool_size=SERVER_CONNECTIONS, deadline=DEADLINE,
                ) as client:
                    # The client-side opens complete before the reactor
                    # has processed every accept; poll briefly for the
                    # swarm's true peak.
                    peak = 0
                    deadline = time.monotonic() + 5.0
                    while peak < SERVER_CONNECTIONS and time.monotonic() < deadline:
                        peak = max(peak, db.stats()["net.connections"])
                        await asyncio.sleep(0.02)
                    result.counts["peak_sessions"] = peak
                    await harness.swarm(client, oids, txns, ledger, result)

            asyncio.run(clients())
            if result.counts["peak_sessions"] < 500:
                result.problems.append(
                    f"only {result.counts['peak_sessions']} concurrent "
                    f"sessions (need >= 500)"
                )
            deadline = time.monotonic() + 10.0
            while db.stats()["net.connections"] and time.monotonic() < deadline:
                time.sleep(0.02)
            # Snapshot the counters before the server detaches its
            # stats source on shutdown.
            stats = db.stats()

        if stats["net.connections"] != 0:
            result.problems.append(
                f"{stats['net.connections']} session(s) not torn down on disconnect"
            )
        if stats["snap.pinned"] != 0:
            result.problems.append(
                f"{stats['snap.pinned']} snapshot(s) left pinned after the swarm"
            )
        if stats["net.snapshot_reads"] == 0:
            result.problems.append(
                "no lock-free wire reads recorded -- inline lane never used?"
            )
        with db.snapshot() as snap:
            ledger.check(
                [snap.read_attr(snap.latest_vid(oid), "val") for oid in oids], result
            )
        _finish(db, result)
    return result


SCENARIOS = {
    "hotspot": _scenario_hotspot,
    "upgrade_storm": _scenario_upgrade_storm,
    "newversion_chain": _scenario_newversion_chain,
    "snapshot_readers": _scenario_snapshot_readers,
    "gc_churn": _scenario_gc_churn,
    "server": _scenario_server,
}

DEFAULT = ("hotspot", "upgrade_storm", "newversion_chain")


def scenarios(names, workers: int, rounds: int) -> harness.Scenarios:
    """The named scenarios at ``workers`` threads x ``rounds`` rounds."""
    return {
        name: partial(SCENARIOS[name], workers=workers, rounds=rounds)
        for name in names
    }


def main(argv: list[str] | None = None) -> int:
    return harness.main(
        argv, prog="stress", description="lock-contention stress harness",
        names=list(SCENARIOS), default=DEFAULT,
        select=lambda names, args: scenarios(names, args.workers, args.rounds),
        sizes={"workers": (4, 8), "rounds": (10, 30)},
    )


if __name__ == "__main__":
    sys.exit(main())
