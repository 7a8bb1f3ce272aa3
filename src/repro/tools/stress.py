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
* ``snapshot_readers`` (``--snapshots``) -- half the threads increment
  counters through ``run_transaction`` while the other half continuously
  pin :meth:`Database.snapshot` views and sum the counters lock-free.
  Verifies *monotonic snapshot visibility* (epochs and observed totals
  never go backwards for any reader), that every pinned view is
  internally consistent, and -- via a final snapshot -- that no
  acknowledged increment was lost.
* ``gc_churn`` (``--gc-churn``) -- writers churn version history under a
  retention policy while snapshot readers scan and a dedicated thread
  runs the online collector continuously.  Verifies read-your-acked-
  writes after every commit, that no reader ever observes a missing
  blob, monotone collector progress, and exact post-convergence
  retention (every object at its keep-last-N floor, no zero-ref debris).
* ``server`` (``--server``) -- the same invariants *over the wire*: an
  in-process :class:`~repro.net.server.ServerThread` serves 512
  concurrent client connections, each driving full wire transactions
  (BEGIN / READ / WRITE / COMMIT) against its own counter, with a
  lock-free snapshot read after every commit.  Verifies no lost updates
  per acknowledged wire commit, read-your-acked-writes monotonicity on
  the lock-free lane, lock quiescence, and that every session is torn
  down on disconnect.

Every scenario verifies, from per-thread ledgers:

1. **No lost updates** -- each counter's final value equals the number of
   acknowledged commits against it; every version chain's length equals
   acknowledged ``newversion`` count + 1.
2. **No stuck threads** -- every worker joins within a hard timeout.
3. **No leaked locks** -- :meth:`LockManager.assert_quiescent` passes
   after the workload (no holders, no waiters, no unconsumed victims).
4. **Bounded waiting** -- p99 lock-acquire latency stays under half the
   lock deadline: contention resolves by detection, not by timeout.

Run it:

    PYTHONPATH=src python -m repro.tools.stress [--smoke] [--snapshots] [-v]
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import Database, PersistentObject
from repro.core.persistent import persistent_once
from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    OdeError,
    TransactionAborted,
)

#: Lock deadline for stress runs.  Deliberately generous: correct runs
#: never get near it (deadlocks resolve by detection in milliseconds),
#: and a run that *does* hit it has a real liveness bug to report.
LOCK_TIMEOUT = 5.0

#: p99 lock-acquire latency must stay under this fraction of the deadline.
P99_BUDGET_FRACTION = 0.5

_JOIN_TIMEOUT = 120.0


@persistent_once("stress.Counter")
class Counter(PersistentObject):
    """A shared counter: the lost-update canary."""

    def __init__(self, tag: int = 0, val: int = 0) -> None:
        self.tag = tag
        self.val = val


# -- scenarios ---------------------------------------------------------------


@dataclass
class ScenarioResult:
    name: str
    threads: int
    rounds: int
    commits: int = 0
    retries: int = 0
    deadlocks: int = 0
    p99_wait: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return (
            f"  [{status}] {self.name}: {self.threads} threads x "
            f"{self.rounds} rounds, {self.commits} commits, "
            f"{self.retries} retries, {self.deadlocks} deadlocks, "
            f"p99 wait {self.p99_wait * 1000:.1f}ms"
        )


def _run_workers(
    result: ScenarioResult, worker, threads: int
) -> list[BaseException | None]:
    """Start ``threads`` copies of ``worker(wid)``; record errors/hangs."""
    errors: list[BaseException | None] = [None] * threads

    def run(wid: int) -> None:
        try:
            worker(wid)
        except BaseException as exc:  # noqa: BLE001 - surfaced as a finding
            errors[wid] = exc

    ts = [
        threading.Thread(target=run, args=(wid,), name=f"stress-w{wid}")
        for wid in range(threads)
    ]
    for t in ts:
        t.start()
    for t in ts:
        t.join(timeout=_JOIN_TIMEOUT)
        if t.is_alive():
            result.problems.append(f"thread {t.name} stuck (> {_JOIN_TIMEOUT}s)")
    for wid, exc in enumerate(errors):
        if exc is not None:
            result.problems.append(f"worker {wid} raised {exc!r}")
    return errors


def _finish(db: Database, result: ScenarioResult) -> None:
    """Common post-workload checks: quiescence, latency, counters."""
    stats = db.stats()
    result.retries = stats["txn.retries"]
    result.deadlocks = stats["locks.deadlocks"]
    result.p99_wait = db.locks.wait_p99()
    try:
        db.locks.assert_quiescent()
    except AssertionError as exc:
        result.problems.append(f"locks not quiescent after workload: {exc}")
    budget = LOCK_TIMEOUT * P99_BUDGET_FRACTION
    if result.p99_wait >= budget:
        result.problems.append(
            f"p99 lock wait {result.p99_wait:.3f}s >= budget {budget:.3f}s "
            "(contention resolving by timeout, not detection?)"
        )
    if stats["txn.giveups"]:
        result.problems.append(
            f"{stats['txn.giveups']} transaction(s) exhausted their retries"
        )


def _scenario_hotspot(path: Path, threads: int, rounds: int) -> ScenarioResult:
    """All threads increment a few hot counters; totals must balance."""
    result = ScenarioResult("hotspot", threads, rounds)
    hot = max(2, threads // 4)  # few counters, many threads
    with Database(path, lock_timeout=LOCK_TIMEOUT) as db:
        refs = [db.pnew(Counter(tag=i)) for i in range(hot)]
        committed = [[0] * hot for _ in range(threads)]

        def worker(wid: int) -> None:
            for j in range(rounds):
                ref = refs[(wid + j) % hot]

                def increment() -> None:
                    ref.val = ref.val + 1  # S-read then X-write: upgrades

                db.run_transaction(increment, max_attempts=40)
                committed[wid][(wid + j) % hot] += 1

        _run_workers(result, worker, threads)
        for i, ref in enumerate(refs):
            expect = sum(committed[wid][i] for wid in range(threads))
            got = ref.val
            if got != expect:
                result.problems.append(
                    f"counter {i}: value {got} != {expect} acknowledged "
                    f"increments (lost update)"
                )
            result.commits += expect
        _finish(db, result)
    return result


def _scenario_upgrade_storm(path: Path, threads: int, rounds: int) -> ScenarioResult:
    """Every thread upgrades S->X on one object -- maximal upgrade cycles."""
    result = ScenarioResult("upgrade_storm", threads, rounds)
    with Database(path, lock_timeout=LOCK_TIMEOUT) as db:
        ref = db.pnew(Counter(tag=0))
        committed = [0] * threads

        def worker(wid: int) -> None:
            for _ in range(rounds):

                def upgrade() -> None:
                    base = ref.val  # SHARED
                    ref.val = base + 1  # upgrade to EXCLUSIVE

                db.run_transaction(upgrade, max_attempts=60)
                committed[wid] += 1

        _run_workers(result, worker, threads)
        expect = sum(committed)
        result.commits = expect
        if ref.val != expect:
            result.problems.append(
                f"counter: value {ref.val} != {expect} acknowledged "
                f"increments (lost update)"
            )
        _finish(db, result)
    return result


def _scenario_newversion_chain(
    path: Path, threads: int, rounds: int
) -> ScenarioResult:
    """Threads race ``newversion`` on one object; chain length must balance."""
    result = ScenarioResult("newversion_chain", threads, rounds)
    with Database(path, lock_timeout=LOCK_TIMEOUT) as db:
        ref = db.pnew(Counter(tag=0))
        committed = [0] * threads

        def worker(wid: int) -> None:
            for j in range(rounds):

                def derive() -> None:
                    vref = db.newversion(ref)
                    vref.val = wid * 10_000 + j

                db.run_transaction(derive, max_attempts=60)
                committed[wid] += 1

        _run_workers(result, worker, threads)
        expect = 1 + sum(committed)  # the original + every acknowledged derive
        got = db.version_count(ref)
        result.commits = sum(committed)
        if got != expect:
            result.problems.append(
                f"version chain: {got} versions != {expect} expected "
                f"(original + acknowledged newversions)"
            )
        _finish(db, result)
    return result


def _scenario_snapshot_readers(
    path: Path, threads: int, rounds: int
) -> ScenarioResult:
    """Writers increment under 2PL while readers scan pinned snapshots.

    The readers-vs-writers mix from the lock-free read path: writer
    threads do classic read-modify-write increments, reader threads pin
    ``db.snapshot()`` in a loop and sum every counter through the frozen
    view.  Checks, per reader: snapshot epochs never decrease and
    observed totals never decrease (monotonic visibility).  Afterwards:
    a final snapshot must show exactly the acknowledged increments (no
    lost updates) and no reader may leave a snapshot pinned.
    """
    result = ScenarioResult("snapshot_readers", threads, rounds)
    writers = max(1, threads // 2)
    readers = max(1, threads - writers)
    hot = max(2, writers)
    with Database(path, lock_timeout=LOCK_TIMEOUT) as db:
        refs = [db.pnew(Counter(tag=i)) for i in range(hot)]
        oids = [ref.oid for ref in refs]
        committed = [0] * writers
        acked = threading.Semaphore(0)  # one release per acknowledged commit
        done = threading.Event()

        def writer(wid: int) -> None:
            for j in range(rounds):
                ref = refs[(wid + j) % hot]

                def increment() -> None:
                    ref.val = ref.val + 1

                db.run_transaction(increment, max_attempts=40)
                committed[wid] += 1
                acked.release()

        def reader(rid: int) -> None:
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
                            f"reader {rid}: epoch went backwards "
                            f"({snap.epoch} < {last_epoch})"
                        )
                        return
                    last_epoch = snap.epoch
                    total = sum(snap.materialize(snap.latest_vid(oid)).val for oid in oids)
                if total < last_total:
                    result.problems.append(
                        f"reader {rid}: total went backwards "
                        f"({total} < {last_total}) -- non-monotonic visibility"
                    )
                    return
                last_total = total

        def worker(wid: int) -> None:
            if wid < writers:
                writer(wid)
            else:
                reader(wid - writers)

        # Writers signal completion through the semaphore; flip ``done``
        # once all acknowledged commits are in so readers wind down.
        def closer() -> None:
            for _ in range(writers * rounds):
                acked.acquire()
            done.set()

        stop = threading.Thread(target=closer, name="stress-closer")
        stop.start()
        try:
            _run_workers(result, worker, writers + readers)
        finally:
            done.set()
            stop.join(timeout=_JOIN_TIMEOUT)

        expect = sum(committed)
        result.commits = expect
        with db.snapshot() as snap:
            got = sum(snap.materialize(snap.latest_vid(oid)).val for oid in oids)
        if got != expect:
            result.problems.append(
                f"final snapshot total {got} != {expect} acknowledged "
                f"increments (lost update)"
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


def _scenario_gc_churn(path: Path, threads: int, rounds: int) -> ScenarioResult:
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
    from repro.core.gc import RetentionPolicy
    from repro.errors import BlobMissingError

    result = ScenarioResult("gc_churn", threads, rounds)
    writers = max(1, threads // 2)
    readers = max(1, threads - writers - 1)
    keep = 3
    with Database(path, lock_timeout=LOCK_TIMEOUT) as db:
        db.set_retention(Counter, RetentionPolicy(keep_last_n=keep))
        refs = [db.pnew(Counter(tag=i)) for i in range(writers)]
        oids = [ref.oid for ref in refs]
        committed = [0] * writers
        acked = threading.Semaphore(0)  # one release per acknowledged commit
        done = threading.Event()

        def writer(wid: int) -> None:
            ref = refs[wid]  # private object: churn, not lock contention
            released = 0
            try:
                for j in range(rounds):
                    val = wid * 1_000_000 + j

                    def rewrite() -> None:
                        db.newversion(ref)
                        ref.val = val

                    db.run_transaction(rewrite, max_attempts=40)
                    committed[wid] += 1
                    acked.release()
                    released += 1
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
            finally:
                # An early return (a recorded problem, a raised error)
                # must still unblock the closer below.
                if released < rounds:
                    acked.release(rounds - released)

        def reader(rid: int) -> None:
            while not done.is_set():
                try:
                    with db.snapshot() as snap:
                        for oid in oids:
                            snap.materialize(snap.latest_vid(oid))
                except BlobMissingError as exc:
                    result.problems.append(
                        f"reader {rid}: BlobMissingError surfaced ({exc})"
                    )
                    return

        def collector() -> None:
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

        def worker(wid: int) -> None:
            if wid < writers:
                writer(wid)
            elif wid < writers + readers:
                reader(wid - writers)
            else:
                collector()

        # Writers signal completion through the semaphore; flip ``done``
        # once every acknowledged commit is in so the readers and the
        # collector wind down.
        def closer() -> None:
            for _ in range(writers * rounds):
                acked.acquire()
            done.set()

        stop = threading.Thread(target=closer, name="stress-gc-closer")
        stop.start()
        try:
            _run_workers(result, worker, writers + readers + 1)
        finally:
            done.set()
            stop.join(timeout=_JOIN_TIMEOUT)

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
        result.commits = sum(committed)
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


def _scenario_server(path: Path, threads: int, rounds: int) -> ScenarioResult:
    """A 512-connection client swarm against the in-process server.

    Each connection owns one counter and drives full wire transactions --
    BEGIN / READ / WRITE / COMMIT frames through the session's stateful
    lane -- followed by a lock-free snapshot read on the inline lane.
    Transient transaction errors (deadlock victims, lock timeouts,
    server-side aborts) are retried client-side with backoff, exactly as
    a real wire client would.

    Invariants, checked from per-connection ledgers:

    1. **No lost updates over the wire** -- every counter's final value
       equals that connection's acknowledged wire commits.
    2. **Read-your-acked-writes** -- the lock-free read after an
       acknowledged commit never sees fewer increments than were acked.
    3. **Full swarm concurrency** -- all 512 sessions are live at once.
    4. **Clean teardown** -- every session reaped on disconnect, no
       snapshot left pinned, lock table quiescent.
    """
    from repro.net.client import OdeConnection
    from repro.net.server import ServerThread

    connections = SERVER_CONNECTIONS
    txns = max(2, rounds // 4)
    result = ScenarioResult("server", connections, txns)
    retriable = (DeadlockError, LockTimeoutError, TransactionAborted)
    with Database(
        path, lock_timeout=LOCK_TIMEOUT, group_commit_window=0.002
    ) as db:
        with db.transaction():
            refs = [db.pnew(Counter(tag=i)) for i in range(connections)]
        oids = [ref.oid for ref in refs]
        acked = [0] * connections

        async def drive(idx: int, conn: OdeConnection) -> None:
            oid = oids[idx]
            for j in range(txns):
                for attempt in range(1, 41):
                    try:
                        await conn.begin()
                        val = await conn.read(oid, "val")
                        await conn.write(oid, "val", val + 1)
                        await conn.commit()
                        acked[idx] += 1
                        break
                    except retriable:
                        try:
                            await conn.abort()
                        except OdeError:
                            pass
                        await asyncio.sleep(0.001 * attempt)
                else:
                    result.problems.append(
                        f"connection {idx}: transaction {j} exhausted retries"
                    )
                    return
                # Outside the transaction the session serves this from
                # its pinned snapshot -- the lock-free inline lane.
                got = await conn.read(oid, "val")
                if got < acked[idx]:
                    result.problems.append(
                        f"connection {idx}: lock-free read saw {got} after "
                        f"{acked[idx]} acknowledged commits"
                    )
                    return

        with ServerThread(db) as server:

            async def swarm() -> int:
                conns = await asyncio.gather(
                    *(
                        OdeConnection.open(server.host, server.port)
                        for _ in range(connections)
                    )
                )
                try:
                    # The client-side opens complete before the server
                    # loop has processed every accept; poll briefly for
                    # the swarm's true peak.
                    peak = 0
                    deadline = time.monotonic() + 5.0
                    while peak < connections and time.monotonic() < deadline:
                        peak = max(peak, db.stats()["net.connections"])
                        await asyncio.sleep(0.02)
                    await asyncio.gather(*(drive(i, c) for i, c in enumerate(conns)))
                finally:
                    await asyncio.gather(
                        *(c.close() for c in conns), return_exceptions=True
                    )
                return peak

            peak = asyncio.run(swarm())
            if peak < 500:
                result.problems.append(
                    f"only {peak} concurrent sessions (need >= 500)"
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
        result.commits = sum(acked)
        with db.snapshot() as snap:
            for idx, oid in enumerate(oids):
                got = snap.read_attr(snap.latest_vid(oid), "val")
                if got != acked[idx]:
                    result.problems.append(
                        f"counter {idx}: value {got} != {acked[idx]} acknowledged "
                        f"wire commits (lost update)"
                    )
        _finish(db, result)
    return result


_SCENARIOS = {
    "hotspot": _scenario_hotspot,
    "upgrade_storm": _scenario_upgrade_storm,
    "newversion_chain": _scenario_newversion_chain,
}

#: Opt-in scenarios (``--snapshots``): kept out of ``_SCENARIOS`` so the
#: default run -- and everything that asserts on its exact scenario set --
#: is unchanged.
_SNAPSHOT_SCENARIOS = {
    "snapshot_readers": _scenario_snapshot_readers,
}

#: Opt-in (``--server``): the wire-protocol swarm.  Kept separate for the
#: same reason as the snapshot scenarios -- the default set is stable.
_SERVER_SCENARIOS = {
    "server": _scenario_server,
}

#: Opt-in (``--gc-churn``): writers + snapshot readers vs. the online
#: collector.  Separate so the default set is stable.
_GC_SCENARIOS = {
    "gc_churn": _scenario_gc_churn,
}


# -- the harness -------------------------------------------------------------


@dataclass
class StressReport:
    results: list[ScenarioResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render(self) -> str:
        lines = [
            f"stress: {len(self.results)} scenarios, "
            + ("all OK" if self.ok else "FAILURES")
        ]
        for result in self.results:
            lines.append(result.line())
            lines.extend(f"      - {p}" for p in result.problems)
        return "\n".join(lines)


def run_stress(
    base_dir: Path | None = None,
    threads: int = 8,
    rounds: int = 30,
    verbose: bool = False,
    snapshots: bool = False,
    server: bool = False,
    gc_churn: bool = False,
) -> StressReport:
    """Run every scenario against a fresh database directory.

    ``snapshots=True`` adds the readers-vs-writers snapshot scenarios;
    ``server=True`` adds the 512-connection wire-protocol swarm;
    ``gc_churn=True`` adds the online-GC churn scenario.  All ride on
    top of the default set.
    """
    report = StressReport()
    tmp = None
    if base_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="stress-")
        base_dir = Path(tmp.name)
    scenarios = dict(_SCENARIOS)
    if snapshots:
        scenarios.update(_SNAPSHOT_SCENARIOS)
    if server:
        scenarios.update(_SERVER_SCENARIOS)
    if gc_churn:
        scenarios.update(_GC_SCENARIOS)
    try:
        for name, scenario in scenarios.items():
            result = scenario(base_dir / name, threads, rounds)
            report.results.append(result)
            if verbose:
                print(result.line(), flush=True)
                for problem in result.problems:
                    print(f"      - {problem}", flush=True)
    finally:
        if tmp is not None:
            tmp.cleanup()
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stress", description="lock-contention stress harness"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small thread/round counts -- fast CI subset",
    )
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument(
        "--snapshots", action="store_true",
        help="also run the snapshot readers-vs-writers scenarios",
    )
    parser.add_argument(
        "--server", action="store_true",
        help="also run the 512-connection wire-protocol swarm",
    )
    parser.add_argument(
        "--gc-churn", action="store_true",
        help="also run the online-GC vs. writers/readers churn scenario",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    parser.add_argument(
        "--dir", type=Path, default=None,
        help="run under this directory instead of a temp dir (kept afterwards)",
    )
    args = parser.parse_args(argv)
    threads = args.threads if args.threads is not None else (4 if args.smoke else 8)
    rounds = args.rounds if args.rounds is not None else (10 if args.smoke else 30)
    report = run_stress(
        args.dir, threads=threads, rounds=rounds,
        verbose=args.verbose, snapshots=args.snapshots, server=args.server,
        gc_churn=args.gc_churn,
    )
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
