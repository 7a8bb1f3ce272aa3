"""E14 -- horizontal sharding: scale-out throughput and the 2PC tax.

The sharded router (:mod:`repro.shard`) partitions the oid space across
N embedded shard databases, each with its own WAL, page pool, lock table
and snapshot registry.  This suite measures the two claims that justify
the layer:

* **Scale-out**: a write-heavy workload of single-shard transactions
  must run >= 2x faster on 4 shards than on 1 (same per-shard
  resources -- this is the scale-*out* framing: adding a shard adds a
  WAL, a pool and a storage mutex, and disjoint transactions stop
  queueing on one kernel's serial points);
* **No 2PC tax on the fast path**: transactions that touch one shard
  must run the ordinary local commit -- zero prepares, zero decision
  records, zero protocol fsyncs -- and cost about what the same
  workload costs on a bare embedded ``Database``.

Cross-shard transactions *do* pay for their atomicity (one PREPARE
flush per participant plus the coordinator's decision flush); the bench
reports that overhead honestly rather than gating on it.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import persistent
from repro.shard import ShardedDatabase

#: Hot set: 96 x 16 KiB documents, spread round-robin across the shards.
NOBJ = 96
PAYLOAD_BYTES = 16 * 1024

#: Worker threads driving disjoint partitions (``refs[t::NTHREADS]``) --
#: no write-write conflicts, so retries never muddy the timing.
NTHREADS = 8

#: Transactions per thread per measured run.
ROUNDS = 24

@persistent(name="bench.E14Doc")
class E14Doc:
    def __init__(self, slot: int = 0, body: str = "") -> None:
        self.slot = slot
        self.body = body


def _build(tmp_path, name: str, nshards: int):
    router = ShardedDatabase(tmp_path / name, nshards=nshards)
    body = "x" * PAYLOAD_BYTES
    refs = [router.pnew(E14Doc(slot=i, body=body)) for i in range(NOBJ)]
    router.checkpoint()
    return router, refs


def _hammer(router, refs, rounds: int = ROUNDS) -> float:
    """Run the disjoint-partition write workload; return txns/second.

    Every transaction rewrites one whole 16 KiB document -- a
    single-object, therefore single-shard, therefore fast-path commit.
    Thread ``t`` owns ``refs[t::NTHREADS]`` and steps through its
    partition with a stride-7 walk, so the hot set is covered evenly
    but no two threads ever share an object.
    """
    body = "y" * PAYLOAD_BYTES
    barrier = threading.Barrier(NTHREADS + 1)
    errors: list[BaseException] = []

    def worker(t: int) -> None:
        mine = refs[t::NTHREADS]
        barrier.wait()
        try:
            for j in range(rounds):
                ref = mine[(j * 7) % len(mine)]

                def txn() -> None:
                    ref.body = body

                router.run_transaction(txn)
        except BaseException as exc:  # noqa: BLE001 - surfaced in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(NTHREADS)]
    for th in threads:
        th.start()
    barrier.wait()
    start = time.perf_counter()
    for th in threads:
        th.join()
    elapsed = time.perf_counter() - start
    assert not errors, errors
    return (NTHREADS * rounds) / elapsed


@pytest.mark.smoke
def test_e14_scale_out_4_shards_at_least_2x(tmp_path, benchmark):
    """The headline gate: 4 shards >= 2x the 1-shard throughput."""
    solo, solo_refs = _build(tmp_path, "e14_1shard", nshards=1)
    quad, quad_refs = _build(tmp_path, "e14_4shard", nshards=4)
    try:
        # Warm both (page pools, lazily-opened sessions), then take the
        # best of two measured runs each -- scheduler noise only ever
        # slows a run down.
        _hammer(solo, solo_refs, rounds=4)
        _hammer(quad, quad_refs, rounds=4)
        solo_tps = max(_hammer(solo, solo_refs) for _ in range(2))
        quad_tps = max(_hammer(quad, quad_refs) for _ in range(2))
    finally:
        solo.close()
        quad.close()

    speedup = quad_tps / solo_tps
    benchmark.extra_info["tps_1shard"] = round(solo_tps, 1)
    benchmark.extra_info["tps_4shard"] = round(quad_tps, 1)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= 2.0, (
        f"4 shards must give >= 2x over 1 shard, got {speedup:.2f}x "
        f"({solo_tps:.0f} -> {quad_tps:.0f} txn/s)"
    )
    benchmark(lambda: None)


@pytest.mark.smoke
def test_e14_single_shard_transactions_pay_no_2pc_tax(tmp_path, benchmark):
    """Fast-path accounting: the workload above, on 4 shards, runs zero
    2PC protocol actions -- and costs about what a bare Database does."""
    from benchmarks.conftest import make_db

    quad, refs = _build(tmp_path, "e14_tax_router", nshards=4)
    raw = make_db(tmp_path, "e14_tax_raw")
    body = "x" * PAYLOAD_BYTES
    with raw.transaction():
        raw_refs = [raw.pnew(E14Doc(slot=i, body=body)) for i in range(NOBJ)]
    raw.checkpoint()
    try:
        _hammer(quad, refs, rounds=4)  # warm
        router_tps = _hammer(quad, refs)
        stats = quad.stats()

        # The protocol counters must not have moved at all.
        assert stats["shard.2pc.commits_cross"] == 0
        assert stats["shard.2pc.prepares"] == 0
        assert stats["shard.2pc.decisions"] == 0
        assert stats["shard.2pc.forgets"] == 0
        assert stats["shard.2pc.commits_single"] >= NTHREADS * ROUNDS

        # And the router adds only routing, not protocol: single-thread
        # latency through the router tracks the bare embedded kernel.
        def serial(db, rs, n=64):
            start = time.perf_counter()
            for j in range(n):
                ref = rs[(j * 7) % len(rs)]

                def txn() -> None:
                    ref.body = body

                db.run_transaction(txn)
            return n / (time.perf_counter() - start)

        serial(raw, raw_refs, n=8)  # warm
        serial(quad, refs, n=8)
        raw_tps = max(serial(raw, raw_refs) for _ in range(2))
        routed_tps = max(serial(quad, refs) for _ in range(2))
    finally:
        quad.close()
        raw.close()

    ratio = routed_tps / raw_tps
    benchmark.extra_info["router_tps_8thread"] = round(router_tps, 1)
    benchmark.extra_info["serial_tps_raw"] = round(raw_tps, 1)
    benchmark.extra_info["serial_tps_routed"] = round(routed_tps, 1)
    benchmark.extra_info["router_vs_raw"] = round(ratio, 2)
    assert ratio >= 0.5, (
        f"single-shard txns through the router cost {1/ratio:.1f}x the "
        f"bare kernel -- the fast path is supposed to be (nearly) free"
    )
    benchmark(lambda: None)


def test_e14_cross_shard_2pc_overhead_reported(tmp_path, benchmark):
    """Cross-shard transfers vs single-shard writes: the atomicity bill.

    No gate on the ratio -- 2PC buys atomicity with one prepare flush
    per participant plus the decision flush, and the bench's job is to
    report that price, not hide it.  The accounting *is* gated: every
    cross-shard commit runs exactly one decision and two prepares.
    """
    router, refs = _build(tmp_path, "e14_2pc", nshards=4)
    body = "z" * PAYLOAD_BYTES
    try:
        n = 48

        def single(j):
            ref = refs[j % NOBJ]

            def txn() -> None:
                ref.body = body

            router.run_transaction(txn)

        def cross(j):
            a, b = refs[j % NOBJ], refs[(j + 1) % NOBJ]  # adjacent = 2 shards

            def txn() -> None:
                a.slot, b.slot = b.slot, a.slot

            router.run_transaction(txn)

        for j in range(8):
            single(j), cross(j)  # warm
        base = router.stats()

        start = time.perf_counter()
        for j in range(n):
            single(j)
        single_tps = n / (time.perf_counter() - start)

        start = time.perf_counter()
        for j in range(n):
            cross(j)
        cross_tps = n / (time.perf_counter() - start)
        stats = router.stats()
    finally:
        router.close()

    did = stats["shard.2pc.commits_cross"] - base["shard.2pc.commits_cross"]
    assert did == n
    assert stats["shard.2pc.prepares"] - base["shard.2pc.prepares"] == 2 * n
    assert stats["shard.2pc.decisions"] - base["shard.2pc.decisions"] == n
    # A verdict is forgotten once both COMMITs are durable, which a later
    # commit's flushes bring about: released by now, or still held.
    assert (
        stats["shard.2pc.forgets"] - base["shard.2pc.forgets"]
        + stats["shard.2pc.decisions_held"] - base["shard.2pc.decisions_held"]
    ) == n
    benchmark.extra_info["single_shard_tps"] = round(single_tps, 1)
    benchmark.extra_info["cross_shard_tps"] = round(cross_tps, 1)
    benchmark.extra_info["2pc_overhead_x"] = round(single_tps / cross_tps, 2)
    benchmark(lambda: None)
