"""Network chaos harness: does the service tier survive a hostile wire?

:mod:`repro.tools.crashmatrix` attacks durability (a dying process),
:mod:`repro.tools.stress` attacks liveness under contention.  This
harness attacks **availability and correctness under network and shard
failure**: a client swarm drives wire transactions
(:func:`repro.tools.harness.run_txn`) through a
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

    PYTHONPATH=src python -m repro.tools.chaos [--scenario NAME ...] [--smoke] [--seed N] [-v]
"""

from __future__ import annotations

import asyncio
import sys
import time
from functools import partial
from pathlib import Path

from repro import probe
from repro.errors import OdeError, ShardUnavailableError
from repro.net.chaos import C2S, S2C, ChaosPlan, ChaosProxyThread
from repro.net.client import OdeClient
from repro.net.server import ServerThread
from repro.shard import ShardedDatabase
from repro.storage import faults
from repro.tools import harness
from repro.tools.harness import DEADLINE, Ledger, Result, counters, run_txn, swarm

#: A down shard must fail fast, not burn a timeout: the refusal budget.
FAILFAST_BUDGET = 0.25


def _check(db: ShardedDatabase, oids, ledger: Ledger, result: Result) -> None:
    """No lost acked writes; no writes beyond acked + indeterminate."""
    ledger.check([db.materialize(db.latest_vid(oid)).val for oid in oids], result)


def _scenario_lossy_wire(path: Path, workers: int, rounds: int, seed: int) -> Result:
    """The swarm through a seeded lossy plan: delay/dup/truncate/drop."""
    result = Result("lossy_wire")
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
        oids = counters(db, workers)
        ledger = Ledger(workers)
        with ServerThread(db) as server, ChaosProxyThread(
            server.host, server.port, plan
        ) as proxy:

            async def clients() -> None:
                async with await OdeClient.connect(
                    proxy.host,
                    proxy.port,
                    pool_size=workers,
                    deadline=DEADLINE,
                    reconnect_attempts=10,
                    reconnect_backoff=0.02,
                ) as client:
                    await swarm(client, oids, rounds, ledger, result)
                result.counts["heals"] = client.heals

            asyncio.run(clients())
            chaos = proxy.stats
            result.counts["chaos_faults"] = (
                chaos.chunks_delayed
                + chaos.chunks_duplicated
                + chaos.chunks_truncated
                + chaos.chunks_dropped
            )
            if chaos.chunks_forwarded == 0:
                result.problems.append("proxy forwarded nothing -- dead run")
            if result.counts["chaos_faults"] == 0:
                result.problems.append(
                    "chaos plan injected no faults -- the run proved nothing"
                )
        _check(db, oids, ledger, result)
    return result


def _scenario_partition(path: Path, workers: int, rounds: int, seed: int) -> Result:
    """Full partition mid-run: bounded failure, then full recovery."""
    result = Result("partition")
    with ShardedDatabase(
        path, nshards=2, lock_timeout=5.0, group_commit_window=0.001
    ) as db:
        oids = counters(db, workers)
        ledger = Ledger(workers)
        with ServerThread(db) as server, ChaosProxyThread(
            server.host, server.port, ChaosPlan(seed=seed)
        ) as proxy:

            async def clients() -> None:
                cut = asyncio.Event()

                async def controller() -> None:
                    # Let the swarm get going, then cut the cable.
                    await asyncio.sleep(0.1)
                    proxy.partition()
                    cut.set()
                    await asyncio.sleep(1.2)
                    proxy.heal()

                async def halves() -> None:
                    # The second half waits for ``cut``, so it provably
                    # runs into the partition, however fast the healthy
                    # half went.
                    await swarm(client, oids, rounds // 2, ledger, result)
                    await cut.wait()
                    await swarm(client, oids, rounds - rounds // 2, ledger, result)

                async with await OdeClient.connect(
                    proxy.host,
                    proxy.port,
                    pool_size=workers,
                    deadline=1.0,
                    reconnect_attempts=12,
                    reconnect_backoff=0.02,
                ) as client:
                    await asyncio.gather(controller(), halves())
                result.counts["heals"] = client.heals

            expired_before = db.stats().get("net.deadline_expired", 0)
            asyncio.run(clients())
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
        _check(db, oids, ledger, result)
        # Recovery must be total: every planned transaction either acked
        # or (rarely) indeterminate at the partition edge.
        for idx in range(workers):
            done = ledger.acked[idx] + ledger.maybe[idx]
            if done != rounds:
                result.problems.append(
                    f"worker {idx}: only {done}/{rounds} transactions "
                    "completed after heal -- the pool did not recover"
                )
    return result


def _plant_in_doubt(
    db: ShardedDatabase, oid_a, oid_b, result: Result
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
    injector = probe.attach(
        faults.FaultInjector(faults.FaultPlan().crash("shard.2pc.post_ack", hit=1))
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
        probe.detach()
    # The planter "process" is dead; its session detaches the decided
    # transaction (never aborts it -- the verdict is durable).
    sess.close()


def _scenario_shard_failover(
    path: Path, workers: int, rounds: int, seed: int
) -> Result:
    """Kill a shard under the swarm; degrade gracefully; reattach online."""
    nshards = 3
    victim = 1
    result = Result("shard_failover")
    with ShardedDatabase(
        path, nshards=nshards, lock_timeout=5.0, group_commit_window=0.001
    ) as db:
        oids = counters(db, workers)
        homes = [db.placement.shard_of(oid) for oid in oids]
        # Extra objects on distinct shards for the in-doubt 2PC txn.
        pair = counters(db, nshards)
        doubt_a = next(o for o in pair if db.placement.shard_of(o) == 0)
        doubt_b = next(o for o in pair if db.placement.shard_of(o) == victim)
        ledger = Ledger(workers)
        with ServerThread(db) as server:

            async def phase(client: OdeClient, expect_down: bool) -> None:
                async def drive(idx: int) -> None:
                    for _ in range(rounds):
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
                                result.counts["failfast"] += 1
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
                        elif not await run_txn(client, oids[idx], idx, ledger, result):
                            return

                await asyncio.gather(*(drive(i) for i in range(workers)))

            async def run_all() -> None:
                async with await OdeClient.connect(
                    server.host, server.port, pool_size=workers, deadline=DEADLINE
                ) as client:
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

            asyncio.run(run_all())
            result.counts["reattaches"] = db.stats()["shard.health.reattaches"]
        # Availability floor: every healthy-homed transaction in every
        # phase must have been acked.  Healthy workers ran all three
        # phases; the victim's workers spent phase 2 in the fail-fast
        # branch (no ledger entries) and ran phases 1 and 3.
        expected = [
            rounds * (3 if homes[i] != victim else 2) for i in range(workers)
        ]
        for idx in range(workers):
            done = ledger.acked[idx] + ledger.maybe[idx]
            if done != expected[idx]:
                result.problems.append(
                    f"worker {idx} (shard {homes[idx]}): {done} completed "
                    f"!= {expected[idx]} planned -- availability hole"
                )
        if result.counts["failfast"] == 0:
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
        _check(db, oids, ledger, result)
    return result


SCENARIOS = {
    "lossy_wire": _scenario_lossy_wire,
    "partition": _scenario_partition,
    "shard_failover": _scenario_shard_failover,
}


def scenarios(names, workers: int, rounds: int, seed: int) -> harness.Scenarios:
    """The named scenarios: ``workers`` counters, ``rounds`` transactions
    each, ``seed`` for the chaos plan."""
    return {
        name: partial(SCENARIOS[name], workers=workers, rounds=rounds, seed=seed)
        for name in names
    }


def main(argv: list[str] | None = None) -> int:
    return harness.main(
        argv, prog="chaos", description="network/shard fault-tolerance harness",
        names=list(SCENARIOS), default=list(SCENARIOS),
        select=lambda names, a: scenarios(names, a.workers, a.rounds, a.seed),
        sizes={"workers": (8, 16), "rounds": (6, 12)}, seed=7,
    )


if __name__ == "__main__":
    sys.exit(main())
