"""Network chaos harness: does the service tier survive a hostile wire?

:mod:`repro.tools.crashmatrix` attacks durability (a dying process),
:mod:`repro.tools.stress` attacks liveness under contention.  This
harness attacks **availability and correctness under network and shard
failure**: a client swarm drives wire transactions through a
:class:`~repro.net.chaos.ChaosProxy` that delays, duplicates, truncates
and drops traffic, partitions the network mid-run, and kills whole
shards out from under a sharded server -- then the harness checks the
promises the fault-tolerance layer makes:

* ``lossy_wire`` -- a swarm through a seeded chaos plan (latency
  spikes, duplicated chunks, truncate-mid-frame, dropped chunks).
  Connections die and heal with jittered backoff; every op is
  deadline-bounded.  Invariants: **no lost acked writes** (each
  counter's final value covers every acknowledged commit), writes never
  *exceed* acked + indeterminate (a timed-out commit may or may not
  have landed -- tracked, not guessed), **read-your-acked-writes** on
  the lock-free lane, and **bounded op latency** (no attempt takes
  longer than the deadline budget).
* ``partition`` -- a full partition drops in mid-run: established
  connections black-hole (nothing tells the client; only its deadline
  can), new connections are refused.  Invariants: every op during the
  partition fails within its deadline bound, the pool reconnects after
  heal, every planned transaction eventually commits, and no acked
  write is lost.
* ``shard_failover`` -- the swarm runs against a sharded server; one
  shard is killed abruptly (no flush -- WAL recovery is real) with a
  cross-shard 2PC transaction deliberately in doubt on it.  Invariants:
  ops homed on healthy shards **keep serving** (the availability
  floor), ops homed on the dead shard **fail fast** with the retryable
  :class:`~repro.errors.ShardUnavailableError` (no timeout burn), the
  health opcode reports the down shard, and after an online
  ``reattach_shard`` the in-doubt transaction resolves to COMMIT and
  the whole keyspace serves again with nothing lost.

Run it::

    PYTHONPATH=src python -m repro.tools.chaos [--smoke] [--seed N] [-v]
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import PersistentObject
from repro.core.persistent import persistent_once
from repro.errors import (
    ConnectionClosedError,
    DeadlineExceededError,
    NetworkError,
    OdeError,
    ProtocolError,
    ShardUnavailableError,
    TransactionStateError,
)
from repro.net.chaos import C2S, S2C, ChaosPlan, ChaosProxyThread
from repro.net.client import OdeClient, is_retryable
from repro.net.server import ServerThread
from repro.shard import ShardedDatabase
from repro.storage import faults

#: Per-op client deadline for chaos runs: tight enough that a black-holed
#: op fails in bounded time, loose enough that a healthy-but-contended op
#: never trips it.
DEADLINE = 3.0

#: Worst-case budget for one transaction *attempt*: five deadline-bounded
#: ops (begin/read/write/commit + the abort the lease adds on failure)
#: plus scheduling slack.  Any attempt exceeding this is an unbounded-
#: latency bug, which is exactly what the deadline layer exists to rule
#: out.
ATTEMPT_BUDGET = 5 * DEADLINE + 2.0

#: A down shard must fail fast, not burn a timeout: the refusal budget.
FAILFAST_BUDGET = 0.25

_RETRY_CAP = 60


def _should_retry(exc: BaseException) -> bool:
    """The harness's retry predicate, wider than the library's taxonomy:

    * :func:`~repro.net.client.is_retryable` -- the wire taxonomy;
    * :class:`TransactionStateError` -- a begin that raced an orphaned
      server-side transaction (its commit was black-holed mid-flight;
      the lease's abort-on-error already cleared it, a retry is clean);
    * pool-heal exhaustion (:class:`NetworkError` that is not a
      :class:`ProtocolError`) -- the server was unreachable for longer
      than one heal cycle; under a deliberate partition that is
      expected, and trying again after the heal is the whole point.
    """
    if is_retryable(exc) or isinstance(exc, TransactionStateError):
        return True
    return isinstance(exc, NetworkError) and not isinstance(exc, ProtocolError)


@persistent_once("chaos.Account")
class Account(PersistentObject):
    """One counter per swarm connection: the lost-ack canary."""

    def __init__(self, tag: int = 0, val: int = 0) -> None:
        self.tag = tag
        self.val = val


# -- bookkeeping --------------------------------------------------------------


@dataclass
class ScenarioResult:
    name: str
    workers: int
    txns: int
    acked: int = 0
    maybe: int = 0
    retries: int = 0
    failfast: int = 0
    max_attempt_s: float = 0.0
    elapsed: float = 0.0
    problems: list[str] = field(default_factory=list)
    notes: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems

    def line(self) -> str:
        status = "OK " if self.ok else "FAIL"
        extra = " ".join(f"{k}={v}" for k, v in self.notes.items())
        return (
            f"  [{status}] {self.name:<14} workers={self.workers:<3} "
            f"acked={self.acked:<5} maybe={self.maybe:<3} "
            f"retries={self.retries:<4} max_attempt={self.max_attempt_s:.2f}s "
            f"({self.elapsed:.1f}s) {extra}"
        )


class _Ledger:
    """Per-worker ack accounting shared with the final verification."""

    def __init__(self, n: int) -> None:
        self.acked = [0] * n
        self.maybe = [0] * n


async def _run_txn(
    client: OdeClient, oid, idx: int, ledger: _Ledger, result: ScenarioResult
) -> bool:
    """One read-modify-write wire transaction, retried to completion.

    Returns False only when retries are exhausted (recorded as a
    problem).  A commit that fails *indeterminately* (deadline expiry or
    connection loss after the COMMIT frame went out) is counted in
    ``maybe`` and not retried: retrying could double-apply the
    increment, and the point is to verify the harness can bound what it
    does not know.
    """
    for attempt in range(1, _RETRY_CAP + 1):
        t0 = time.perf_counter()
        indeterminate = False
        try:
            async with client.lease() as conn:
                await conn.begin()
                val = await conn.read(oid, "val")
                await conn.write(oid, "val", val + 1)
                try:
                    await conn.commit()
                except (DeadlineExceededError, ConnectionClosedError):
                    indeterminate = True
                    raise
                ledger.acked[idx] += 1
                # Read-your-acked-writes: the post-commit lock-free read
                # must see at least everything this worker was acked.
                try:
                    got = await conn.read(oid, "val")
                    if got < ledger.acked[idx]:
                        result.problems.append(
                            f"worker {idx}: lock-free read saw {got} after "
                            f"{ledger.acked[idx]} acked commits"
                        )
                except OdeError as exc:
                    if not is_retryable(exc):
                        raise
                    # The read-back is best-effort under chaos; a dead
                    # connection here does not unack the commit.
            return True
        except BaseException as exc:  # noqa: BLE001 - classified below
            elapsed = time.perf_counter() - t0
            result.max_attempt_s = max(result.max_attempt_s, elapsed)
            if elapsed > ATTEMPT_BUDGET:
                result.problems.append(
                    f"worker {idx}: attempt took {elapsed:.2f}s "
                    f"(budget {ATTEMPT_BUDGET:.2f}s) -- unbounded latency"
                )
                return False
            if indeterminate:
                ledger.maybe[idx] += 1
                return True  # the txn may have landed; do not re-run it
            if _should_retry(exc):
                result.retries += 1
                await asyncio.sleep(min(0.05 * attempt, 0.5))
                continue
            result.problems.append(
                f"worker {idx}: non-retryable {type(exc).__name__}: {exc}"
            )
            return False
        finally:
            elapsed = time.perf_counter() - t0
            result.max_attempt_s = max(result.max_attempt_s, elapsed)
    result.problems.append(f"worker {idx}: exhausted {_RETRY_CAP} retries")
    return False


def _verify_ledger(
    db: ShardedDatabase, oids, ledger: _Ledger, result: ScenarioResult
) -> None:
    """No lost acked writes; no writes beyond acked + indeterminate."""
    for idx, oid in enumerate(oids):
        obj = db.materialize(db.latest_vid(oid))
        lo, hi = ledger.acked[idx], ledger.acked[idx] + ledger.maybe[idx]
        if not (lo <= obj.val <= hi):
            result.problems.append(
                f"counter {idx}: value {obj.val} outside [{lo}, {hi}] "
                f"(acked={lo}, indeterminate={ledger.maybe[idx]}) -- "
                + ("lost acked write" if obj.val < lo else "phantom commit")
            )
    result.acked = sum(ledger.acked)
    result.maybe = sum(ledger.maybe)


# -- scenarios ----------------------------------------------------------------


def _scenario_lossy_wire(
    path: Path, workers: int, txns: int, seed: int
) -> ScenarioResult:
    """The swarm through a seeded lossy plan: delay/dup/truncate/drop."""
    result = ScenarioResult("lossy_wire", workers, txns)
    start = time.monotonic()
    plan = (
        ChaosPlan(seed=seed)
        .delay(C2S, prob=0.04, min_s=0.0005, max_s=0.01)
        .delay(S2C, prob=0.04, min_s=0.0005, max_s=0.01)
        .duplicate(C2S, prob=0.03)
        .duplicate(S2C, prob=0.03)
        .truncate(S2C, prob=0.01)
        .truncate(C2S, prob=0.01)
        .drop_chunk(S2C, prob=0.01)
    )
    with ShardedDatabase(
        path, nshards=2, lock_timeout=5.0, group_commit_window=0.001
    ) as db:
        with db.transaction():
            oids = [db.pnew(Account(tag=i)).oid for i in range(workers)]
        ledger = _Ledger(workers)
        with ServerThread(db) as server, ChaosProxyThread(
            server.host, server.port, plan
        ) as proxy:

            async def swarm() -> None:
                client = await OdeClient.connect(
                    proxy.host,
                    proxy.port,
                    pool_size=workers,
                    deadline=DEADLINE,
                    reconnect_attempts=10,
                    reconnect_backoff=0.02,
                )
                try:

                    async def drive(idx: int) -> None:
                        for _ in range(txns):
                            if not await _run_txn(
                                client, oids[idx], idx, ledger, result
                            ):
                                return

                    await asyncio.gather(*(drive(i) for i in range(workers)))
                finally:
                    await client.close()
                result.notes["heals"] = client.heals

            asyncio.run(swarm())
            chaos = proxy.stats
            result.notes["chaos_faults"] = (
                chaos.chunks_delayed
                + chaos.chunks_duplicated
                + chaos.chunks_truncated
                + chaos.chunks_dropped
            )
            if chaos.chunks_forwarded == 0:
                result.problems.append("proxy forwarded nothing -- dead run")
            if result.notes["chaos_faults"] == 0:
                result.problems.append(
                    "chaos plan injected no faults -- the run proved nothing"
                )
        _verify_ledger(db, oids, ledger, result)
    result.elapsed = time.monotonic() - start
    return result


def _scenario_partition(
    path: Path, workers: int, txns: int, seed: int
) -> ScenarioResult:
    """Full partition mid-run: bounded failure, then full recovery."""
    result = ScenarioResult("partition", workers, txns)
    start = time.monotonic()
    with ShardedDatabase(
        path, nshards=2, lock_timeout=5.0, group_commit_window=0.001
    ) as db:
        with db.transaction():
            oids = [db.pnew(Account(tag=i)).oid for i in range(workers)]
        ledger = _Ledger(workers)
        with ServerThread(db) as server, ChaosProxyThread(
            server.host, server.port, ChaosPlan(seed=seed)
        ) as proxy:

            async def swarm() -> None:
                client = await OdeClient.connect(
                    proxy.host,
                    proxy.port,
                    pool_size=workers,
                    deadline=1.0,
                    reconnect_attempts=12,
                    reconnect_backoff=0.02,
                )
                cut = asyncio.Event()

                async def controller() -> None:
                    # Let the swarm get going, then cut the cable.  The
                    # workers gate their second half on ``cut`` so their
                    # remaining transactions provably run into the
                    # partition, however fast the healthy half went.
                    await asyncio.sleep(0.1)
                    proxy.partition()
                    cut.set()
                    await asyncio.sleep(1.2)
                    proxy.heal()

                async def drive(idx: int) -> None:
                    for j in range(txns):
                        if j == txns // 2:
                            await cut.wait()
                        if not await _run_txn(
                            client, oids[idx], idx, ledger, result
                        ):
                            return

                try:
                    await asyncio.gather(
                        controller(), *(drive(i) for i in range(workers))
                    )
                finally:
                    await client.close()
                result.notes["heals"] = client.heals

            expired_before = db.stats().get("net.deadline_expired", 0)
            asyncio.run(swarm())
            stats = db.stats()
            if proxy.stats.partitions != 1:
                result.problems.append("partition never engaged")
            if (
                proxy.stats.bytes_blackholed == 0
                and proxy.stats.conns_refused == 0
            ):
                result.problems.append(
                    "partition black-holed nothing and refused nothing -- "
                    "the swarm never felt it"
                )
            if stats.get("net.deadline_expired", 0) <= expired_before:
                result.problems.append(
                    "no deadline expiries during a full partition -- "
                    "something waited unboundedly or never waited at all"
                )
        _verify_ledger(db, oids, ledger, result)
        # Recovery must be total: every planned transaction either acked
        # or (rarely) indeterminate at the partition edge.
        for idx in range(workers):
            done = ledger.acked[idx] + ledger.maybe[idx]
            if done != txns:
                result.problems.append(
                    f"worker {idx}: only {done}/{txns} transactions "
                    "completed after heal -- the pool did not recover"
                )
    result.elapsed = time.monotonic() - start
    return result


def _plant_in_doubt(
    db: ShardedDatabase, oid_a, oid_b, result: ScenarioResult
) -> None:
    """Leave a cross-shard 2PC transaction half-committed.

    The transaction writes ``val=777`` on both shards, logs its durable
    COMMIT verdict, commits the first participant (the lower shard;
    phase two runs in shard order on the calling thread), then "crashes"
    at the ``shard.2pc.post_ack`` failpoint -- the second participant
    stays prepared.  Exactly the state a coordinator crash between
    phase-two deliveries leaves behind; reattach-time resolution must
    commit it.
    """
    sess = db.session(name="in-doubt-planter")
    injector = faults.activate(
        faults.FaultPlan().crash("shard.2pc.post_ack", hit=1)
    )
    try:
        with sess.activate():
            try:
                with db.transaction():
                    db.deref(oid_a).val = 777
                    db.deref(oid_b).val = 777
            except faults.SimulatedCrash:
                pass
        if not injector.fired:
            result.problems.append(
                "in-doubt planting: shard.2pc.post_ack never fired -- the "
                "write was not cross-shard"
            )
    finally:
        faults.deactivate()
    # The planter "process" is dead; its session detaches the decided
    # transaction (never aborts it -- the verdict is durable).
    sess.close()


def _scenario_shard_failover(
    path: Path, workers: int, txns: int, seed: int
) -> ScenarioResult:
    """Kill a shard under the swarm; degrade gracefully; reattach online."""
    nshards = 3
    victim = 1
    result = ScenarioResult("shard_failover", workers, txns)
    start = time.monotonic()
    with ShardedDatabase(
        path, nshards=nshards, lock_timeout=5.0, group_commit_window=0.001
    ) as db:
        with db.transaction():
            oids = [db.pnew(Account(tag=i)).oid for i in range(workers)]
        homes = [db.placement.shard_of(oid) for oid in oids]
        # Two extra objects on distinct shards for the in-doubt 2PC txn.
        with db.transaction():
            pair = [db.pnew(Account(tag=1000 + i)).oid for i in range(nshards)]
        doubt_a = next(o for o in pair if db.placement.shard_of(o) == 0)
        doubt_b = next(o for o in pair if db.placement.shard_of(o) == victim)
        ledger = _Ledger(workers)
        with ServerThread(db) as server:

            async def phase(client: OdeClient, expect_down: bool) -> None:
                async def drive(idx: int) -> None:
                    for _ in range(txns):
                        if expect_down and homes[idx] == victim:
                            # The failure domain: this op must fail FAST
                            # with the retryable shard error.
                            t0 = time.perf_counter()
                            try:
                                async with client.lease() as conn:
                                    await conn.begin()
                                    await conn.read(oids[idx], "val")
                                    await conn.abort()
                                result.problems.append(
                                    f"worker {idx}: op on killed shard "
                                    f"{victim} succeeded"
                                )
                            except ShardUnavailableError:
                                elapsed = time.perf_counter() - t0
                                result.failfast += 1
                                if elapsed > FAILFAST_BUDGET:
                                    result.problems.append(
                                        f"worker {idx}: down-shard refusal "
                                        f"took {elapsed:.3f}s (budget "
                                        f"{FAILFAST_BUDGET}s) -- not fail-fast"
                                    )
                            except OdeError as exc:
                                result.problems.append(
                                    f"worker {idx}: down-shard op raised "
                                    f"{type(exc).__name__}, not "
                                    f"ShardUnavailableError"
                                )
                        else:
                            if not await _run_txn(
                                client, oids[idx], idx, ledger, result
                            ):
                                return

                await asyncio.gather(*(drive(i) for i in range(workers)))

            async def run_all() -> None:
                client = await OdeClient.connect(
                    server.host, server.port, pool_size=workers, deadline=DEADLINE
                )
                try:
                    # Phase 1: healthy fleet.
                    await phase(client, expect_down=False)
                    health = await client.health()
                    if health.get("shards", {}).get(str(victim)) != "up":
                        result.problems.append(
                            f"health opcode reports shard {victim} as "
                            f"{health.get('shards', {}).get(str(victim))!r} "
                            "while up"
                        )
                    # Plant the in-doubt cross-shard txn, then kill.
                    _plant_in_doubt(db, doubt_a, doubt_b, result)
                    db.kill_shard(victim)
                    # Phase 2: degraded fleet -- healthy shards keep
                    # serving, the victim's domain fails fast.
                    await phase(client, expect_down=True)
                    health = await client.health()
                    if health.get("shards", {}).get(str(victim)) != "down":
                        result.problems.append(
                            "health opcode does not report the killed shard "
                            "as down"
                        )
                    # Phase 3: online reattach, then full service again.
                    report = db.reattach_shard(victim)
                    if not any(
                        idx == victim for idx, _ in report.committed
                    ):
                        result.problems.append(
                            "reattach resolution did not commit the planted "
                            f"in-doubt transaction (report: {report})"
                        )
                    await phase(client, expect_down=False)
                finally:
                    await client.close()

            asyncio.run(run_all())
            result.notes["reattaches"] = db.stats()["shard.health.reattaches"]
        # Availability floor: every healthy-homed transaction in every
        # phase must have been acked.  Healthy workers ran all three
        # phases; the victim's workers spent phase 2 in the fail-fast
        # branch (no ledger entries) and ran phases 1 and 3.
        expected = [
            txns * (3 if homes[i] != victim else 2) for i in range(workers)
        ]
        for idx in range(workers):
            done = ledger.acked[idx] + ledger.maybe[idx]
            if done != expected[idx]:
                result.problems.append(
                    f"worker {idx} (shard {homes[idx]}): {done} completed "
                    f"!= {expected[idx]} planned -- availability hole"
                )
        if result.failfast == 0:
            result.problems.append(
                "no down-shard op was exercised -- victim shard owned no "
                "workers (seed/layout bug)"
            )
        # The planted transaction must have resolved to COMMIT on both
        # halves: atomicity across the failure.
        for oid in (doubt_a, doubt_b):
            obj = db.materialize(db.latest_vid(oid))
            if obj.val != 777:
                result.problems.append(
                    f"in-doubt txn half on shard "
                    f"{db.placement.shard_of(oid)} has val={obj.val}, "
                    "not 777 -- resolution lost a committed write"
                )
        _verify_ledger(db, oids, ledger, result)
    result.elapsed = time.monotonic() - start
    return result


_SCENARIOS = {
    "lossy_wire": _scenario_lossy_wire,
    "partition": _scenario_partition,
    "shard_failover": _scenario_shard_failover,
}


# -- the harness --------------------------------------------------------------


@dataclass
class ChaosReport:
    results: list[ScenarioResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render(self) -> str:
        lines = [
            f"chaos: {len(self.results)} scenarios, "
            + ("all OK" if self.ok else "FAILURES")
        ]
        for result in self.results:
            lines.append(result.line())
            lines.extend(f"      - {p}" for p in result.problems)
        return "\n".join(lines)


def run_chaos(
    base_dir: Path | None = None,
    workers: int = 16,
    txns: int = 12,
    seed: int = 7,
    verbose: bool = False,
) -> ChaosReport:
    """Run every scenario against fresh sharded databases."""
    report = ChaosReport()
    tmp = None
    if base_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="chaos-")
        base_dir = Path(tmp.name)
    try:
        for name, scenario in _SCENARIOS.items():
            result = scenario(base_dir / name, workers, txns, seed)
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
        prog="chaos", description="network/shard fault-tolerance harness"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small worker/txn counts -- fast CI subset",
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--txns", type=int, default=None)
    parser.add_argument(
        "--seed", type=int, default=7,
        help="chaos plan seed (same seed + workload => same fault schedule)",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    parser.add_argument(
        "--dir", type=Path, default=None,
        help="run under this directory instead of a temp dir (kept afterwards)",
    )
    args = parser.parse_args(argv)
    workers = args.workers if args.workers is not None else (8 if args.smoke else 16)
    txns = args.txns if args.txns is not None else (6 if args.smoke else 12)
    report = run_chaos(
        args.dir, workers=workers, txns=txns, seed=args.seed,
        verbose=args.verbose,
    )
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
