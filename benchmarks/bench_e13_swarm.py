"""E13 -- client-swarm scale: the network service layer under load.

The embedded kernel behind a socket (:mod:`repro.net`): a one-thread
reactor handing kernel calls to a worker pool, read-only requests served
inline from the lock-free snapshot path, concurrent commits grouped
into the WAL's group-commit window.  This suite measures:

* pipelining vs. one-request-per-roundtrip at 256 connections (a
  window of 64 must arrive at >= 32 frames per server read; the
  throughput of both arms is recorded);
* throughput and tail latency for read-mostly / write-heavy / mixed
  profiles as the swarm scales from 100 toward 2000 connections;
* that read-only traffic takes **zero** lock-table acquisitions;
* that concurrent wire commits overlap into shared WAL flushes; and
* the per-connection lane's hop counts: one lane run per awaited
  stateful frame and per pipelined transaction, on a thread census that
  does not grow with the connection count.
"""

from __future__ import annotations

import asyncio
import gc
import socket
import threading
import time

import pytest

from repro import persistent
from repro.net import protocol
from repro.net.client import OdeConnection
from repro.net.server import ServerThread

#: Objects seeded into the server database; reads fan out across all of
#: them, writes hash each connection onto one so write-write contention
#: stays bounded (this is a service-layer bench, not a 2PL storm -- the
#: stress harness owns that).
HOT_OBJECTS = 64

#: In-flight requests per connection in pipelined mode.  Deep enough
#: that a whole burst rides one socket write and one server chunk.
PIPELINE_WINDOW = 64


@persistent(name="bench.E13Obj")
class E13Obj:
    def __init__(self, slot: int = 0, n: int = 0) -> None:
        self.slot = slot
        self.n = n


@pytest.fixture()
def swarm_server(tmp_path):
    """A served database seeded with the hot set; yields (db, host, port, oids)."""
    from benchmarks.conftest import make_db

    db = make_db(tmp_path, "e13_server", group_commit_window=0.002)
    with db.transaction():
        refs = [db.pnew(E13Obj(slot=i)) for i in range(HOT_OBJECTS)]
    oids = [ref.oid for ref in refs]
    server = ServerThread(db)
    server.start()
    try:
        yield db, server.host, server.port, oids
    finally:
        server.stop()
        db.close()


# -- the swarm driver --------------------------------------------------------


async def _run_swarm(
    host: str,
    port: int,
    *,
    connections: int,
    requests: int,
    op,
    pipelined: bool,
    window: int = PIPELINE_WINDOW,
    latencies: bool = True,
) -> dict:
    """Open ``connections`` sockets, push ``requests`` ops down each.

    ``op(conn, idx, j)`` issues one request via :meth:`OdeConnection.
    send` and returns its response future.  ``pipelined=False`` is the
    one-request-per-roundtrip client: every connection awaits each
    response before sending the next request.  ``pipelined=True`` keeps
    up to ``window`` correlated requests in flight per connection.
    """
    conns = await asyncio.gather(
        *(OdeConnection.open(host, port) for _ in range(connections))
    )
    lat: list[float] = []

    def issue(conn: OdeConnection, idx: int, j: int):
        fut = op(conn, idx, j)
        if latencies:
            t0 = time.perf_counter()
            fut.add_done_callback(
                lambda _f: lat.append(time.perf_counter() - t0)
            )
        return fut

    async def drive(idx: int, conn: OdeConnection) -> None:
        if pipelined:
            for start in range(0, requests, window):
                burst = min(window, requests - start)
                await asyncio.gather(
                    *(issue(conn, idx, start + j) for j in range(burst))
                )
        else:
            for j in range(requests):
                await issue(conn, idx, j)

    try:
        t0 = time.perf_counter()
        await asyncio.gather(*(drive(i, c) for i, c in enumerate(conns)))
        elapsed = time.perf_counter() - t0
    finally:
        await asyncio.gather(*(c.close() for c in conns), return_exceptions=True)

    total = connections * requests
    measured = {
        "requests": total,
        "elapsed_s": elapsed,
        "throughput_rps": total / elapsed,
    }
    if latencies:
        lat.sort()
        pct = lambda q: lat[min(len(lat) - 1, int(q * len(lat)))]
        measured["p50_ms"] = pct(0.50) * 1e3
        measured["p99_ms"] = pct(0.99) * 1e3
    return measured


def _read_op(oids):
    def op(conn, idx, j):
        return conn.send(
            protocol.OP_READ, (oids[(idx + j) % len(oids)], "n")
        )

    return op


def _write_op(oids):
    def op(conn, idx, j):
        return conn.send(
            protocol.OP_WRITE, (oids[idx % len(oids)], "n", j)
        )

    return op


def _txn_write_op(oids):
    """One wire transaction per op: BEGIN + WRITE + COMMIT, pipelined.

    Stateful frames run FIFO per session, so the triple is safe to keep
    in flight; the returned future is the COMMIT's.  Each connection
    owns one object, so there is no write-write contention -- this op
    exists to put many concurrent *commits* in front of the WAL.
    """

    def op(conn, idx, j):
        conn.send(protocol.OP_BEGIN)
        conn.send(protocol.OP_WRITE, (oids[idx % len(oids)], "n", j))
        return conn.send(protocol.OP_COMMIT)

    return op


def _profile_op(profile: str, oids):
    """read_mostly = 90/10 reads, mixed = 50/50, write_heavy = 10/90."""
    read, write = _read_op(oids), _write_op(oids)
    write_every = {"read_mostly": 10, "mixed": 2, "write_heavy": 10}[profile]
    flip = profile == "write_heavy"  # the modulus picks *reads* instead

    def op(conn, idx, j):
        hit = (idx + j) % write_every == 0
        return write(conn, idx, j) if hit != flip else read(conn, idx, j)

    return op


def _locks_totals(db) -> dict:
    return {k: v for k, v in db.stats().items() if k.startswith("locks.")}


def _wait_net_quiesced(db, timeout: float = 5.0) -> dict:
    """Poll until the server has reaped every disconnected session."""
    deadline = time.monotonic() + timeout
    while True:
        stats = db.stats()
        if stats["net.connections"] == 0 or time.monotonic() >= deadline:
            return stats
        time.sleep(0.02)


def _record(benchmark, db, measured: dict) -> None:
    benchmark.extra_info.update({k: round(v, 2) for k, v in measured.items()})
    stats = db.stats()
    for key in (
        "net.connections_total",
        "net.requests",
        "net.errors",
        "net.pipeline_max",
        "net.snapshot_reads",
        "net.commits",
        "net.commits_overlapped",
    ):
        benchmark.extra_info[key] = stats[key]
    assert stats["net.errors"] == 0, "server reported request errors"


# -- E13.1: pipelining vs one-request-per-roundtrip --------------------------


#: Floor on frames per reactor read for the pipelined arm at window 64.
#: Both sides of the reactor rewrite read exactly 64.00 (every burst in
#: one ``recv``; the serial arm 1.00), EXPERIMENTS.md E26; half the
#: window leaves room for a burst the kernel splits in two.
FRAMES_PER_READ_FLOOR = PIPELINE_WINDOW / 2


@pytest.mark.smoke
def test_e13_pipelining_speedup(swarm_server, benchmark):
    """256 connections, read-only: a pipelined window of 64 frames must
    reach the server in few reads -- >= 32 frames per reactor ``recv``
    (``net.requests`` / ``net.reads``), where the serial client, which
    awaits each response, sends one.

    That count is what pipelining buys (one syscall carries many frames,
    one wakeup drains many responses), and unlike the throughput ratio
    it once asserted, a faster serial arm cannot move it.  Throughput of
    both arms is recorded, not asserted: both loops share the box's
    cores, so it is hostage to GIL-timeslice luck.
    """
    db, host, port, oids = swarm_server
    op = _read_op(oids)
    # Warm caches and code paths (first requests pin session snapshots).
    asyncio.run(
        _run_swarm(host, port, connections=8, requests=8, op=op, pipelined=True)
    )

    def arm(pipelined: bool) -> tuple[float, float]:
        before = db.stats()
        measured = asyncio.run(
            _run_swarm(
                host, port, connections=256, requests=64,
                op=op, pipelined=pipelined, latencies=False,
            )
        )
        after = db.stats()
        reads = after["net.reads"] - before["net.reads"]
        frames = after["net.requests"] - before["net.requests"]
        return measured["throughput_rps"], frames / max(1, reads)

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        serial_rps, serial_fpr = arm(pipelined=False)
        pipelined_rps, pipelined_fpr = arm(pipelined=True)
    finally:
        if gc_was_enabled:
            gc.enable()

    benchmark.extra_info.update(
        serial_rps=round(serial_rps, 1),
        pipelined_rps=round(pipelined_rps, 1),
        serial_frames_per_read=round(serial_fpr, 2),
        pipelined_frames_per_read=round(pipelined_fpr, 2),
    )
    print(
        f"E13.1: serial {serial_rps:.0f} rps at {serial_fpr:.2f} frames/read, "
        f"pipelined {pipelined_rps:.0f} rps at {pipelined_fpr:.2f} frames/read"
    )
    assert db.stats()["net.pipeline_max"] >= min(PIPELINE_WINDOW, 16)
    assert serial_fpr == 1.0, f"the serial client sent {serial_fpr:.2f} frames per read"
    assert pipelined_fpr >= FRAMES_PER_READ_FLOOR, (
        f"pipelined window {PIPELINE_WINDOW} arrived at only {pipelined_fpr:.2f} "
        f"frames per reactor read (floor {FRAMES_PER_READ_FLOOR:.0f})"
    )
    benchmark(lambda: None)


# -- E13.2: profiles across swarm sizes --------------------------------------


@pytest.mark.parametrize("profile", ["read_mostly", "mixed", "write_heavy"])
def test_e13_profile(swarm_server, benchmark, profile):
    """Throughput + tail latency per workload profile at 100 connections."""
    db, host, port, oids = swarm_server
    measured = asyncio.run(
        _run_swarm(
            host, port,
            connections=100, requests=20,
            op=_profile_op(profile, oids), pipelined=True,
        )
    )
    _record(benchmark, db, measured)
    benchmark(lambda: None)


@pytest.mark.parametrize(
    "connections",
    [100, 500, pytest.param(1000, marks=pytest.mark.slow),
     pytest.param(2000, marks=pytest.mark.slow)],
)
def test_e13_swarm_scale(swarm_server, benchmark, connections):
    """Read-mostly throughput as the swarm grows 100 -> 2000 connections."""
    db, host, port, oids = swarm_server
    measured = asyncio.run(
        _run_swarm(
            host, port,
            connections=connections, requests=10,
            op=_profile_op("read_mostly", oids), pipelined=True,
        )
    )
    _record(benchmark, db, measured)
    benchmark.extra_info["connections"] = connections
    stats = _wait_net_quiesced(db)
    assert stats["net.connections_total"] >= connections
    assert stats["net.connections"] == 0, "swarm connections not torn down"
    benchmark(lambda: None)


# -- E13.3: read-only traffic never touches the lock table -------------------


@pytest.mark.smoke
def test_e13_read_swarm_zero_locks(swarm_server, benchmark):
    """A read-only swarm must complete with zero lock acquisitions.

    Reads outside a transaction ride the session's pinned snapshot --
    the PR-4 lock-free path -- so the whole swarm's traffic leaves the
    lock manager's counters untouched.
    """
    db, host, port, oids = swarm_server
    before = _locks_totals(db)
    measured = asyncio.run(
        _run_swarm(
            host, port,
            connections=100, requests=20,
            op=_read_op(oids), pipelined=True,
        )
    )
    after = _locks_totals(db)
    delta = {k: after[k] - before.get(k, 0) for k in after if after[k] != before.get(k, 0)}
    assert not delta, f"read-only swarm acquired locks: {delta}"
    assert db.stats()["net.snapshot_reads"] >= measured["requests"]
    _record(benchmark, db, measured)
    benchmark(lambda: None)


# -- E13.4: wire commits share WAL flushes -----------------------------------


def test_e13_commit_grouping(swarm_server, benchmark):
    """Concurrent wire commits overlap into the group-commit window."""
    db, host, port, oids = swarm_server
    start_piggy = db.stats()["wal.group_piggybacks"]
    measured = asyncio.run(
        _run_swarm(
            host, port,
            connections=64, requests=12,
            op=_txn_write_op(oids), pipelined=True,
        )
    )
    stats = db.stats()
    piggy = stats["wal.group_piggybacks"] - start_piggy
    benchmark.extra_info["group_piggybacks"] = piggy
    benchmark.extra_info["commits_overlapped"] = stats["net.commits_overlapped"]
    assert stats["net.commits"] >= measured["requests"]
    assert stats["net.commits_overlapped"] > 0, (
        "no wire commits overlapped -- the server is serializing writers"
    )
    assert piggy > 0, "no WAL piggybacks -- group commit never batched"
    _record(benchmark, db, measured)
    benchmark(lambda: None)


# -- E13.5: the lane's hop counts ---------------------------------------------


@pytest.mark.smoke
def test_e13_lane_hops_are_counted(tmp_path, benchmark):
    """Counted gate on the commit path's plumbing (counts, not times).

    Per *awaited* stateful frame: exactly one lane run (BEGIN, and a
    WRITE or NEWVERSION inside a transaction, are not awaited and ride
    with the next frame).  So an awaited BEGIN/WRITE/COMMIT is one lane
    run of three frames, and BEGIN/NEWVERSION/WRITE/COMMIT one of four.  Per
    *pipelined* BEGIN/WRITE/COMMIT triple: exactly one lane run for all
    three frames.  And the threads that do it: one
    reactor and no worker for 256 idle connections, never more than
    1 + ``workers`` once lanes run.
    """
    from benchmarks.conftest import make_db

    db = make_db(tmp_path, "e13_lane")
    with db.transaction():
        oid = db.pnew(E13Obj(slot=0)).oid
    workers = 4
    server = ServerThread(db, workers=workers).start()

    def census() -> list[str]:
        return [t.name for t in threading.enumerate() if t.name.startswith("ode-net")]

    def lanes() -> tuple[int, int]:
        stats = db.stats()
        return stats["net.lane_runs"], stats["net.lane_frames"]

    txns = 50

    async def run() -> dict:
        conn = await OdeConnection.open(server.host, server.port)
        try:
            await conn.begin()  # the first also awaits a health check
            await conn.abort()
            start = lanes()
            await conn.begin()
            after_begin = lanes()  # the BEGIN is still corked
            await conn.abort()
            aborted = lanes()
            for j in range(txns):
                await conn.begin()
                await conn.write(oid, "n", j)
                await conn.commit()
            awaited = lanes()
            for j in range(txns):
                await conn.begin()
                vid = await conn.newversion(oid)
                await conn.write(vid, "n", j)
                await conn.commit()
            versioned = lanes()
            for j in range(txns):
                conn.send(protocol.OP_BEGIN)
                conn.send(protocol.OP_WRITE, (oid, "n", -j))
                await conn.send(protocol.OP_COMMIT)
            burst = lanes()
            return {
                "begin_runs": after_begin[0] - start[0],
                "awaited_runs": awaited[0] - aborted[0],
                "awaited_frames": awaited[1] - aborted[1],
                "versioned_runs": versioned[0] - awaited[0],
                "versioned_frames": versioned[1] - awaited[1],
                "burst_runs": burst[0] - versioned[0],
                "burst_frames": burst[1] - versioned[1],
            }
        finally:
            await conn.close()

    idle = [socket.create_connection((server.host, server.port)) for _ in range(256)]
    try:
        give_up = time.monotonic() + 10.0
        while db.stats()["net.connections"] < len(idle) and time.monotonic() < give_up:
            time.sleep(0.01)
        idle_census = census()
        counts = asyncio.run(run())
        busy_census = census()
    finally:
        for sock in idle:
            sock.close()
        server.stop()
        db.close()
    benchmark.extra_info.update(
        counts, idle_threads=len(idle_census), busy_threads=len(busy_census)
    )
    assert counts["begin_runs"] == 0, "a BEGIN must ride with the frame behind it"
    # BEGIN and WRITE ride with COMMIT: one lane run of three frames.
    assert (counts["awaited_runs"], counts["awaited_frames"]) == (txns, 3 * txns)
    # NEWVERSION answers a promise the WRITE targets: all ride with COMMIT.
    assert (counts["versioned_runs"], counts["versioned_frames"]) == (txns, 4 * txns)
    assert (counts["burst_runs"], counts["burst_frames"]) == (txns, 3 * txns)
    assert idle_census == ["ode-net-reactor"], idle_census
    assert len(busy_census) <= 1 + workers, busy_census
    benchmark(lambda: None)
