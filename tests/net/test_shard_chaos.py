"""Chaos under 2PC at the wire: a shard dies under cross-shard commits.

The PR-8 follow-up the parallel-2PC work makes urgent: with PREPAREs and
phase-2 COMMITs now fanning out *concurrently*, a shard killed while a
wire client's cross-shard commit is in flight exercises every in-doubt
window at once.  The contract is unchanged from the serial protocol:

* each commit either applies on **both** shards or on **neither** --
  conservation holds across the kill, the chaos proxy and the reattach;
* reattach-time resolution converges: nothing stays in doubt, no
  verdict record lingers once the fleet is whole;
* the healed fleet immediately accepts new cross-shard work.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import PersistentObject, persistent
from repro.errors import OdeError, TransactionStateError
from repro.net.chaos import ChaosProxyThread
from repro.net.client import OdeClient, is_retryable
from repro.net.server import ServerThread
from repro.shard import ShardedDatabase


@persistent(name="tests.net.WireAcct")
class WireAcct(PersistentObject):
    def __init__(self, bal: int = 0) -> None:
        self.bal = bal


PAIRS = 4          # concurrent transfer streams
TXNS = 12          # transfers per stream
AMOUNT = 1         # moved per transfer


def test_shard_killed_under_wire_2pc_converges_at_reattach(tmp_path):
    victim = 1
    with ShardedDatabase(
        tmp_path / "shards", nshards=3, lock_timeout=5.0
    ) as db:
        # One (src, dst) account pair per stream, src and dst on
        # *different* shards with dst on the victim -- every transfer is
        # a cross-shard 2PC touching the shard we kill.
        with db.transaction():
            seed = [db.pnew(WireAcct(bal=100)).oid for _ in range(6 * PAIRS)]
        srcs = [o for o in seed if db.placement.shard_of(o) == 0][:PAIRS]
        dsts = [o for o in seed if db.placement.shard_of(o) == victim][:PAIRS]
        assert len(srcs) == PAIRS and len(dsts) == PAIRS
        total = 200 * PAIRS
        db.checkpoint()

        with ServerThread(db) as server:
            with ChaosProxyThread(server.host, server.port) as proxy:

                async def settle(conn):
                    """Leave no transaction attached to the pooled server
                    session: abort an undecided one; a *decided* one may
                    only be completed, so retry its commit (idempotent
                    phase-2 redelivery) and otherwise leave it to
                    restart resolution."""
                    try:
                        await conn.abort()
                    except OdeError:
                        try:
                            await conn.commit()
                        except OdeError:
                            pass

                async def transfer_stream(client, i):
                    """TXNS transfers; failures are fine (the kill), torn
                    commits are not (checked after reattach)."""
                    for _ in range(TXNS):
                        try:
                            async with client.lease() as conn:
                                try:
                                    await conn.begin()
                                    src = await conn.read(srcs[i], "bal")
                                    dst = await conn.read(dsts[i], "bal")
                                    await conn.write(
                                        srcs[i], "bal", src - AMOUNT
                                    )
                                    await conn.write(
                                        dsts[i], "bal", dst + AMOUNT
                                    )
                                    await conn.commit()
                                except BaseException:
                                    if not conn.closed:
                                        await settle(conn)
                                    raise
                        except OdeError as exc:
                            # Retryable chaos, plus the session-level
                            # "already active" a poisoned lease surfaces
                            # before settle() has run on it.
                            if not is_retryable(exc) and not isinstance(
                                exc, TransactionStateError
                            ):
                                raise
                            await asyncio.sleep(0.01)

                async def run():
                    client = await OdeClient.connect(
                        proxy.host, proxy.port, pool_size=PAIRS, deadline=10.0
                    )
                    try:
                        streams = [
                            asyncio.ensure_future(transfer_stream(client, i))
                            for i in range(PAIRS)
                        ]
                        # Let commits get in flight, then axe the victim
                        # mid-stream: some 2PC is mid-prepare or
                        # mid-phase-2 right now.
                        await asyncio.sleep(0.05)
                        db.kill_shard(victim)
                        await asyncio.sleep(0.15)
                        report = db.reattach_shard(victim)
                        assert not report.deferred, (
                            "in-doubt resolution deferred with the whole "
                            f"fleet up: {report.deferred}"
                        )
                        await asyncio.gather(*streams)
                    finally:
                        await client.close()

                asyncio.run(run())

        # Convergence: nothing in doubt, no verdicts retained, and every
        # transfer applied atomically -- the money is conserved.  The
        # last commits' verdicts are held until their participants' logs
        # are next forced; the quiescent checkpoint does that.
        db.checkpoint()
        assert db.stats()["shard.2pc.decisions_held"] == 0
        for idx, shard in enumerate(db.shards):
            assert not shard.in_doubt_txns(), f"shard {idx} still in doubt"
            assert not shard.coordinator_decisions(), (
                f"shard {idx} retains verdicts"
            )
        balances = [db.deref(o).bal for o in srcs + dsts]
        assert sum(balances) == total, (
            f"torn cross-shard commit: sum {sum(balances)} != {total}"
        )
        # The healed fleet takes new cross-shard work immediately.
        with db.transaction():
            db.deref(srcs[0]).bal -= 5
            db.deref(dsts[0]).bal += 5
        assert sum(db.deref(o).bal for o in srcs + dsts) == total
