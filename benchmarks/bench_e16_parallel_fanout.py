"""E16 -- parallel cross-shard execution: scatter-gather and parallel 2PC.

PR 9 gave the router a shared :class:`~repro.shard.ShardExecutor` and
made every cross-shard operation scatter: fan-out queries materialize
their per-shard parts on pool workers, and 2PC scatters the phase-1
PREPARE flushes of a transaction's remote writers.  This suite measures
the two claims that justify the layer:

* **Scatter-gather fan-out**: a cold fan-out query at 4 shards must run
  >= 2x faster with the parallel scatter than with the serial loop,
  because per-shard I/O stalls overlap instead of adding up;
* **2PC forces one file once per writer shard**: an *n*-writer commit
  flushes n-1 remote PREPAREs, then the coordinator shard's PREPARE and
  the verdict in one flush; COMMIT records are appended, never forced,
  and the payloads ride in the log, so no pack is forced either.  Those
  are *counts* (2 log flushes and 2 fsyncs at two writers, 4 and 4 at
  four) and are gated as such.
  With two writers there is a single remote prepare and nothing to
  overlap, so parallel == serial there; at four writers the three
  remote prepares overlap, and under the disk-latency model a commit
  waits for ~2 fsyncs in parallel against ~4 serial.  The raw overhead
  (vs a single-shard fast-path commit, the way E14 reported its ~2.5x
  baseline) must still land below that baseline.

**The storage latency model.**  CI containers run on overlay/tmpfs
storage where ``fsync`` costs ~30us and every page read is cached --
which measures Python dispatch overhead, not protocol structure.  The
latency-sensitive measurements therefore run under a *stated* disk
model: a GIL-releasing ``time.sleep`` at the disk boundary
(``DiskManager.read_page`` for reads, every ``os.fsync`` -- log, pack or
data file -- for forced writes), which behaves exactly like real device
latency as far as thread overlap is concerned.  ``READ_US=500`` models a network-attached page store (EBS /
cold-NVMe class); ``FSYNC_MS=2`` models a commodity SSD barrier.  The
unmodeled (raw container) numbers are measured and reported alongside.

``python benchmarks/bench_e16_parallel_fanout.py --json out.json`` runs
the full 2/4/8-shard sweep standalone and emits machine-readable JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

import pytest

from repro import persistent
from repro.shard import ShardedDatabase

#: Hot set for fan-out scans: 128 x 8 KiB documents round-robin across
#: the shards (the modulo placement spreads consecutive oids evenly).
NOBJ = 128
PAYLOAD_BYTES = 8 * 1024

#: The disk model (see module docstring).
READ_US = 500.0
FSYNC_MS = 2.0

#: Measured rounds: medians over these many repetitions.
SCAN_ROUNDS = 5
COMMIT_ROUNDS = 60
MODELED_COMMIT_ROUNDS = 25

#: Gates.
FANOUT_SPEEDUP_FLOOR = 2.0   # parallel vs serial cold fan-out, 4 shards
E14_OVERHEAD_BASELINE = 2.5  # the cross-shard overhead E14 reported


@persistent(name="bench.E16Doc")
class E16Doc:
    def __init__(self, slot: int = 0, body: str = "") -> None:
        self.slot = slot
        self.body = body


def _build(tmp_path, name: str, nshards: int):
    router = ShardedDatabase(tmp_path / name, nshards=nshards)
    body = "x" * PAYLOAD_BYTES
    refs = [router.pnew(E16Doc(slot=i, body=body)) for i in range(NOBJ)]
    router.checkpoint()
    return router, refs


def _model_disk(router, read_us: float) -> None:
    """Install the stated read-latency model on every shard.

    ``time.sleep`` releases the GIL exactly like a blocking ``pread``
    would, so overlap across scattered workers is measured faithfully;
    only the magnitude is simulated.
    """
    for shard in router.shards:
        disk = shard._disk
        orig_read = disk.read_page

        def read_page(page_id, _orig=orig_read):
            time.sleep(read_us / 1e6)
            return _orig(page_id)

        disk.read_page = read_page


@contextmanager
def _fsync_model(fsync_ms: float = FSYNC_MS):
    """The stated forced-write model: every ``os.fsync`` (whichever file)
    sleeps ``fsync_ms`` first, for as long as the block runs."""
    real = os.fsync

    def fsync(fd: int) -> None:
        time.sleep(fsync_ms / 1e3)
        real(fd)

    os.fsync = fsync
    try:
        yield
    finally:
        os.fsync = real


@contextmanager
def _counted_fsyncs():
    """Count fsyncs while the block runs, split by caller: the garbage
    pacer's (reclaim cost, after the commit is durable) and the rest."""
    counts = {"commit": 0, "paced": 0}
    real = os.fsync

    def fsync(fd: int) -> None:
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "_pace_reclaim":
            frame = frame.f_back
        counts["commit" if frame is None else "paced"] += 1
        real(fd)

    os.fsync = fsync
    try:
        yield counts
    finally:
        os.fsync = real


def _chill(router) -> None:
    """Evict every cache so the next fan-out reads from 'disk' again:
    the decoded-object and bytes caches, then the page pool (clean
    frames only -- nothing is dirty between measured rounds)."""
    for shard in router.shards:
        shard.store._bytes_cache.clear()
        shard.store._decoded_cache.clear()
        shard._pool.drop_clean()


def _median_ms(fn, rounds: int) -> float:
    lat = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        lat.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(lat)


# -- measurements ------------------------------------------------------------------


def _serially(router, fn) -> None:
    """The serial reference: run ``fn`` as a task of the router's own
    executor.  A scatter issued from inside one never waits on the pool
    it occupies -- fan-outs loop over the shards and 2PC prepares one
    writer after the other, on this thread."""
    ((_, error),) = router._exec.run_all([None], lambda _item: fn())
    if error is not None:
        raise error


def fanout_scan_ms(router, parallel: bool, rounds: int = SCAN_ROUNDS) -> float:
    """Median latency of a cold fan-out query (chilled caches every
    round, so each round pays the modeled per-page read latency)."""
    expected = NOBJ

    def scatter() -> None:
        n = router.query(E16Doc).suchthat(lambda d: d.slot >= 0).count()
        assert n == expected, n

    scan = scatter if parallel else (lambda: _serially(router, scatter))
    scan()  # warm the workers and the code paths (caches get chilled anyway)

    lat = []
    for _ in range(rounds):
        _chill(router)
        t0 = time.perf_counter()
        scan()
        lat.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(lat)


def _by_shard(router, refs):
    by = {}
    for ref in refs:
        by.setdefault(router.placement.shard_of(ref.oid), []).append(ref)
    return by


def single_commit_ms(router, refs, rounds: int = COMMIT_ROUNDS) -> float:
    """Median latency of the fast path: one transaction, one shard."""
    by = _by_shard(router, refs)
    a, b = by[0][0], by[0][1]

    def txn() -> None:
        with router.transaction():
            a.slot, b.slot = b.slot, a.slot

    txn()
    return _median_ms(txn, rounds)


def cross_commit_ms(
    router, refs, parallel: bool, participants: int = 2,
    rounds: int = COMMIT_ROUNDS,
) -> float:
    """Median latency of a cross-shard commit touching ``participants``
    distinct shards (every one a 2PC writer participant)."""
    by = _by_shard(router, refs)
    targets = [by[i][0] for i in range(participants)]

    def commit() -> None:
        with router.transaction():
            for t in targets:
                t.slot += 1

    txn = commit if parallel else (lambda: _serially(router, commit))
    txn()
    return _median_ms(txn, rounds)


# -- standalone sweep --------------------------------------------------------------


def run_sweep(tmp_path, shard_counts=(2, 4, 8)) -> dict:
    """The full sequential-vs-parallel sweep; returns plain data."""
    results: dict = {
        "bench": "e16_parallel_fanout",
        "model": {"read_us": READ_US, "fsync_ms": FSYNC_MS},
        "config": {"nobj": NOBJ, "payload_bytes": PAYLOAD_BYTES},
        "fanout": {},
        "twopc": {},
    }
    for nshards in shard_counts:
        router, refs = _build(tmp_path, f"e16_scan_{nshards}", nshards)
        try:
            _model_disk(router, READ_US)
            serial = fanout_scan_ms(router, parallel=False)
            par = fanout_scan_ms(router, parallel=True)
        finally:
            router.close()
        results["fanout"][str(nshards)] = {
            "serial_ms": round(serial, 2),
            "parallel_ms": round(par, 2),
            "speedup_x": round(serial / par, 2),
        }

        router, refs = _build(tmp_path, f"e16_2pc_{nshards}", nshards)
        try:
            raw_single = single_commit_ms(router, refs)
            raw_serial = cross_commit_ms(router, refs, parallel=False)
            raw_par = cross_commit_ms(router, refs, parallel=True)
            parts = min(nshards, 4)
            with _fsync_model():
                mod_single = single_commit_ms(router, refs, MODELED_COMMIT_ROUNDS)
                mod_serial = cross_commit_ms(
                    router, refs, False, parts, MODELED_COMMIT_ROUNDS
                )
                mod_par = cross_commit_ms(
                    router, refs, True, parts, MODELED_COMMIT_ROUNDS
                )
        finally:
            router.close()
        results["twopc"][str(nshards)] = {
            "raw": {
                "single_ms": round(raw_single, 3),
                "serial_overhead_x": round(raw_serial / raw_single, 2),
                "parallel_overhead_x": round(raw_par / raw_single, 2),
            },
            "modeled": {
                "participants": parts,
                "single_ms": round(mod_single, 3),
                "serial_overhead_x": round(mod_serial / mod_single, 2),
                "parallel_overhead_x": round(mod_par / mod_single, 2),
            },
        }
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="E16: parallel cross-shard execution benchmark"
    )
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write machine-readable results to PATH")
    parser.add_argument("--shards", default="2,4,8",
                        help="comma-separated shard counts (default 2,4,8)")
    parser.add_argument("--dir", default=None,
                        help="scratch directory (default: a temp dir)")
    args = parser.parse_args(argv)
    shard_counts = tuple(int(s) for s in args.shards.split(","))

    import pathlib
    import tempfile

    scratch = args.dir or tempfile.mkdtemp(prefix="bench_e16_")
    results = run_sweep(pathlib.Path(scratch), shard_counts)

    for nshards in shard_counts:
        fo = results["fanout"][str(nshards)]
        tp = results["twopc"][str(nshards)]
        print(
            f"{nshards} shards | fan-out {fo['serial_ms']}ms -> "
            f"{fo['parallel_ms']}ms ({fo['speedup_x']}x) | "
            f"2PC overhead raw {tp['raw']['serial_overhead_x']}x -> "
            f"{tp['raw']['parallel_overhead_x']}x, modeled "
            f"{tp['modeled']['serial_overhead_x']}x -> "
            f"{tp['modeled']['parallel_overhead_x']}x "
            f"({tp['modeled']['participants']} participants)"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


# -- gated smoke tests -------------------------------------------------------------


@pytest.mark.smoke
def test_e16_parallel_fanout_speedup_smoke(tmp_path, benchmark):
    """Cold fan-out at 4 shards: the parallel scatter must be >= 2x the
    serial loop under the stated read-latency model.

    The per-shard scan is dominated by modeled page reads (GIL released,
    like real device reads); the serial loop pays them shard after
    shard, the scatter overlaps them across pool workers.
    """
    router, _refs = _build(tmp_path, "e16_fanout", nshards=4)
    try:
        _model_disk(router, READ_US)
        serial = fanout_scan_ms(router, parallel=False)
        par = fanout_scan_ms(router, parallel=True)
        stats = router.stats()
    finally:
        router.close()

    speedup = serial / par
    assert speedup >= FANOUT_SPEEDUP_FLOOR, (
        f"parallel fan-out {par:.1f}ms vs serial {serial:.1f}ms: "
        f"{speedup:.2f}x < {FANOUT_SPEEDUP_FLOOR}x"
    )
    # The scatter actually scattered: pool workers ran concurrently.
    assert stats["shard.exec.tasks"] > 0
    assert stats["shard.exec.max_concurrency"] >= 2
    benchmark.extra_info["serial_ms"] = round(serial, 2)
    benchmark.extra_info["parallel_ms"] = round(par, 2)
    benchmark.extra_info["speedup_x"] = round(speedup, 2)
    benchmark.extra_info["exec_max_concurrency"] = stats[
        "shard.exec.max_concurrency"
    ]
    benchmark(lambda: None)


@pytest.mark.smoke
def test_e16_parallel_2pc_overhead_smoke(tmp_path, benchmark):
    """Cross-shard commit cost: forced writes, counted and modeled.

    Gates:

    * counted: a 2-writer commit flushes the WAL twice, a 4-writer one
      four times (one per remote PREPARE, one for the coordinator
      shard's PREPARE + verdict; no COMMIT is forced), and each of those
      flushes is the one fsync its shard pays -- the rewritten payloads
      ride in the log, no pack is forced.  The in-place rewrites also
      feed the commit-path garbage pacer, whose tombstone flush and pack
      sync are reclaim, not commit cost, and are counted apart;
    * raw (container storage): the 2PC overhead lands below the ~2.5x
      baseline E14 reported, and parallel is no slower than serial;
    * modeled (2 ms per fsync, the sleep model -- not a measurement): at
      four writers the three remote prepares overlap -- ~2 fsync waits
      against the serial loop's ~4.  At two writers there is one remote
      prepare and nothing to overlap, so no ratio is gated there; the
      modeled latencies are reported.

    The 2PC accounting is gated like E14's: each 2-participant commit
    runs two prepares and one decision, and its verdict is either
    forgotten by now or still held for a participant's next flush.
    """
    router, refs = _build(tmp_path, "e16_2pc", nshards=4)
    try:
        raw_single = single_commit_ms(router, refs)
        raw_serial = cross_commit_ms(router, refs, parallel=False)

        base = router.stats()
        n = COMMIT_ROUNDS + 1  # cross_commit_ms runs one warm txn + rounds
        with _counted_fsyncs() as fsyncs2:
            raw_par = cross_commit_ms(router, refs, parallel=True)
        stats = router.stats()
        assert stats["shard.2pc.prepares"] - base["shard.2pc.prepares"] == 2 * n
        assert stats["shard.2pc.decisions"] - base["shard.2pc.decisions"] == n

        def settled(key: str) -> int:
            return stats[f"shard.2pc.{key}"] - base[f"shard.2pc.{key}"]

        assert settled("forgets") + settled("decisions_held") == n

        def forced(before: dict, after: dict) -> float:
            paced = after["gc.paced_runs"] - before["gc.paced_runs"]
            return (after["wal.flushes"] - before["wal.flushes"] - paced) / n

        flushes2 = forced(base, stats)
        with _counted_fsyncs() as fsyncs4:
            raw_par4 = cross_commit_ms(router, refs, True, 4)
        after = router.stats()
        flushes4 = forced(stats, after)
        paced_runs = after["gc.paced_runs"] - base["gc.paced_runs"]

        with _fsync_model():
            mod_serial2 = cross_commit_ms(
                router, refs, False, 2, MODELED_COMMIT_ROUNDS
            )
            mod_par2 = cross_commit_ms(router, refs, True, 2, MODELED_COMMIT_ROUNDS)
            mod_serial4 = cross_commit_ms(
                router, refs, False, 4, MODELED_COMMIT_ROUNDS
            )
            mod_par4 = cross_commit_ms(router, refs, True, 4, MODELED_COMMIT_ROUNDS)
    finally:
        router.close()

    assert (flushes2, flushes4) == (2, 4), (
        f"forced log writes per commit: {flushes2} at 2 writers, "
        f"{flushes4} at 4 -- expected one per writer shard"
    )
    per_commit = (fsyncs2["commit"] / n, fsyncs4["commit"] / n)
    assert per_commit == (2, 4), (
        f"fsyncs per commit: {per_commit} at (2, 4) writers -- expected "
        f"one per writer shard"
    )

    raw_par_x = raw_par / raw_single
    raw_serial_x = raw_serial / raw_single
    assert raw_par_x < E14_OVERHEAD_BASELINE, (
        f"parallel 2PC overhead {raw_par_x:.2f}x not below the E14 "
        f"{E14_OVERHEAD_BASELINE}x baseline"
    )
    assert raw_par <= raw_serial * 1.05, (
        f"parallel 2PC ({raw_par:.2f}ms) slower than serial "
        f"({raw_serial:.2f}ms) in the same run"
    )
    # Structural gate under the fsync model: three remote prepares
    # overlap (2 waits) or add up (4 waits).  The raw commit costs about
    # one modelled wait itself, hence 0.85, not 0.5.
    assert mod_par4 <= mod_serial4 * 0.85, (
        f"4 participants: parallel {mod_par4:.1f}ms vs serial "
        f"{mod_serial4:.1f}ms -- the remote prepares did not overlap"
    )
    benchmark.extra_info["wal_flushes_per_commit_2p"] = flushes2
    benchmark.extra_info["gc_paced_runs"] = paced_runs
    benchmark.extra_info["wal_flushes_per_commit_4p"] = flushes4
    benchmark.extra_info["fsyncs_per_commit_2p"] = per_commit[0]
    benchmark.extra_info["fsyncs_per_commit_4p"] = per_commit[1]
    benchmark.extra_info["paced_fsyncs"] = fsyncs2["paced"] + fsyncs4["paced"]
    benchmark.extra_info["modeled_fsync_waits_2p"] = round(
        (mod_par2 - raw_par) / FSYNC_MS, 2
    )
    benchmark.extra_info["modeled_fsync_waits_4p"] = round(
        (mod_par4 - raw_par4) / FSYNC_MS, 2
    )
    benchmark.extra_info["modeled_fsync_waits_4p_serial"] = round(
        (mod_serial4 - raw_par4) / FSYNC_MS, 2
    )
    benchmark.extra_info["raw_single_ms"] = round(raw_single, 3)
    benchmark.extra_info["raw_serial_overhead_x"] = round(raw_serial_x, 2)
    benchmark.extra_info["raw_parallel_overhead_x"] = round(raw_par_x, 2)
    benchmark.extra_info["modeled_serial_2p_ms"] = round(mod_serial2, 2)
    benchmark.extra_info["modeled_parallel_2p_ms"] = round(mod_par2, 2)
    benchmark.extra_info["modeled_serial_4p_ms"] = round(mod_serial4, 2)
    benchmark.extra_info["modeled_parallel_4p_ms"] = round(mod_par4, 2)
    benchmark(lambda: None)


def test_e16_full_sweep(tmp_path, benchmark):
    """The 2/4/8-shard sweep (not part of the smoke gate): records the
    whole latency table for the benchmark trajectory."""
    results = run_sweep(tmp_path)
    for nshards, fo in results["fanout"].items():
        benchmark.extra_info[f"fanout_{nshards}sh_speedup_x"] = fo["speedup_x"]
    for nshards, tp in results["twopc"].items():
        benchmark.extra_info[f"twopc_{nshards}sh_raw_parallel_x"] = tp["raw"][
            "parallel_overhead_x"
        ]
        benchmark.extra_info[f"twopc_{nshards}sh_modeled_parallel_x"] = tp[
            "modeled"
        ]["parallel_overhead_x"]
    benchmark(lambda: None)


if __name__ == "__main__":
    sys.exit(main())
