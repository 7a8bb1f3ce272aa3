"""E17 -- content-addressed version storage and the snapshot-safe online GC.

PR 10 moved every version payload (full copies and deltas alike) into a
sha256-keyed content-addressed blob store and added retention policies
plus an incremental, crash-safe collector.  This suite measures the
four claims that justify the layer:

* **Dedup**: identical payloads across objects and versions are stored
  once.  A workload whose writes draw from a small value pool must show
  logical bytes >= 2x the live (stored) bytes -- the content-addressed
  floor a copy-per-version store can never reach.
* **Reclamation**: after version churn under a ``keep_last_n`` retention
  policy, a converged collector leaves the on-disk blob footprint at or
  below 1.2x the live payload bytes (nothing unreachable survives; the
  20% headroom covers not-yet-eligible stragglers under the epoch
  signal).
* **Online**: the collector runs next to readers without getting in
  their way -- snapshot-read p99 latency while a GC churns concurrently
  must stay within 10% of the quiet baseline (plus a 100us absolute
  guard: sub-100us deltas on shared CI runners are scheduler noise, not
  collector interference).
* **Pacing**: with no retention policy and no collector at all, in-place
  rewrites keep garbage (displaced plus dead bytes) within one body of
  the live bytes after every commit -- counted: one pacer run per
  live-sized batch, each forcing one tombstone flush, one seal and two
  retire syncs, and under a pinned snapshot no more attempts than
  live-sized batches.

``python benchmarks/bench_e17_cas_gc.py --json out.json`` runs the full
sweep standalone and emits machine-readable JSON; the ``-m smoke``
pytest subset gates the four claims in CI.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import threading
import time

import pytest

from repro import Database, persistent
from repro.core.gc import RetentionPolicy

#: Objects and versions for the dedup / reclamation workloads.
NOBJ = 24
VERSIONS = 12

#: The shared-payload pool: many writers, few distinct contents.
PAYLOAD_BYTES = 4 * 1024
POOL_SIZE = 4

#: Retention floor for the churn workloads.
KEEP = 3

#: Reader-impact sampling.  The busy window must span several collector
#: cycles (each cycle is fsync-bound: the tombstone record is flushed
#: before any unlink), so the sample count buys wall-clock width.
READ_SAMPLES = 4000

#: Garbage pacing: PACE_OBJECTS objects, each rewritten in place
#: PACE_REWRITES times with a distinct PACE_BODY-byte body.
PACE_OBJECTS = 8
PACE_REWRITES = 6
PACE_BODY = 2048

#: Gates.
DEDUP_FLOOR_X = 2.0
FOOTPRINT_CEILING_X = 1.2
READER_IMPACT_CEILING = 0.10
READER_IMPACT_GUARD_S = 100e-6


@persistent(name="bench.E17Doc")
class E17Doc:
    def __init__(self, slot: int = 0, body: str = "") -> None:
        self.slot = slot
        self.body = body


def _pool() -> list[str]:
    return [chr(ord("a") + i) * PAYLOAD_BYTES for i in range(POOL_SIZE)]


def _p99(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]


# -- the measurements --------------------------------------------------------


def measure_dedup(db: Database) -> dict:
    """Pool-drawn writes across NOBJ objects x VERSIONS versions."""
    pool = _pool()
    refs = [db.pnew(E17Doc(slot=i, body=pool[i % POOL_SIZE])) for i in range(NOBJ)]
    for ref in refs:
        for v in range(1, VERSIONS):
            db.newversion(ref)
            ref.body = pool[(ref.slot + v) % POOL_SIZE]
    stats = db.stats()
    return {
        "versions": NOBJ * VERSIONS,
        "logical_bytes": stats["blobs.logical_bytes"],
        "live_bytes": stats["blobs.live_bytes"],
        "dedup_x": round(
            stats["blobs.logical_bytes"] / max(1, stats["blobs.live_bytes"]), 2
        ),
        "dedup_hits": stats["blobs.dedup_hits"],
    }


def measure_reclamation(db: Database) -> dict:
    """Churn *distinct* payloads under keep_last_n, then collect to done."""
    db.set_retention(E17Doc, RetentionPolicy(keep_last_n=KEEP))
    refs = [db.pnew(E17Doc(slot=i)) for i in range(NOBJ)]
    for ref in refs:
        for v in range(1, VERSIONS):
            db.newversion(ref)
            # Unique content per (object, version): no dedup rescue --
            # every displaced version is real garbage.
            ref.body = f"{ref.slot}:{v}:" + "y" * PAYLOAD_BYTES
    before = db.store.blobs.total_bytes()
    deleted = 0
    for _ in range(6):
        report = db.run_gc(batch_limit=64)
        deleted += report.versions_deleted
        if report.candidates_remaining == 0:
            break
    stats = db.stats()
    footprint = db.store.blobs.total_bytes()
    live = stats["blobs.live_bytes"]
    return {
        "versions_deleted": deleted,
        "blob_bytes_before_gc": before,
        "blob_bytes_after_gc": footprint,
        "live_bytes": live,
        "footprint_x": round(footprint / max(1, live), 3),
        "gc_bytes_freed": stats["gc.bytes_freed"],
    }


def measure_reader_impact(db: Database) -> dict:
    """Snapshot-read p99 while the collector churns vs. at rest.

    The doomed backlog is built *before* sampling (writes are
    fsync-bound and would otherwise dominate the window); the collector
    thread then cycles ``run_gc`` with a tiny batch limit, pruning and
    reclaiming through the busy sample."""
    db.set_retention(E17Doc, RetentionPolicy(keep_last_n=KEEP))
    refs = [db.pnew(E17Doc(slot=i, body="z" * PAYLOAD_BYTES)) for i in range(NOBJ)]
    oids = [ref.oid for ref in refs]
    for ref in refs:
        for v in range(1, 2 * VERSIONS):
            db.newversion(ref)
            ref.body = f"{ref.slot}:{v}:" + "g" * PAYLOAD_BYTES
    # Drain the version-deletion phase up front (a single pass deletes
    # the whole doomed backlog, however deep).  Its prune commits feed
    # the commit-path pacer, which reclaims most of the blob backlog on
    # the way; the collector below dooms a fresh version whenever a pass
    # finds nothing, so every cycle in the busy window still prunes and
    # reclaims.
    db.run_gc(batch_limit=2)

    def sample() -> list[float]:
        out = []
        for i in range(READ_SAMPLES):
            oid = oids[i % NOBJ]
            t0 = time.perf_counter()
            with db.snapshot() as snap:
                snap.materialize(snap.latest_vid(oid))
            out.append(time.perf_counter() - t0)
        return out

    sample()  # warm every cache once
    quiet = sample()

    done = threading.Event()
    runs_before = db.stats()["gc.runs"]

    def collect() -> None:
        j = 2 * VERSIONS
        while not done.is_set():
            report = db.run_gc(batch_limit=2)
            if report.versions_deleted == 0 and report.blobs_unlinked == 0:
                # Backlog drained: doom one more version so the
                # collector never idles through the sample window.
                j += 1
                ref = refs[j % NOBJ]
                db.newversion(ref)
                ref.body = f"{ref.slot}:{j}:" + "g" * PAYLOAD_BYTES

    collector = threading.Thread(target=collect, name="e17-gc")
    collector.start()
    try:
        busy = sample()
    finally:
        done.set()
        collector.join()

    p99_quiet, p99_busy = _p99(quiet), _p99(busy)
    return {
        "samples": READ_SAMPLES,
        "p99_quiet_us": round(p99_quiet * 1e6, 1),
        "p99_busy_us": round(p99_busy * 1e6, 1),
        "impact": round((p99_busy - p99_quiet) / p99_quiet, 3),
        "gc_runs": db.stats()["gc.runs"] - runs_before,
    }


def _pace_body(slot: int, k: int) -> str:
    """Rewrite ``k`` of object ``slot``: distinct, and always PACE_BODY long."""
    return f"{slot}:{k}:".ljust(PACE_BODY, "p")


def _fsync_caller(fd: int) -> str:
    """Who forced ``fd``: the commit itself, or the garbage pacer's
    tombstone flush, a seal (``BlobStore._seal``) or the sync that
    retires emptied packs (``BlobStore.sync``) -- the last two split
    into the pack file and the blob directory."""
    names, frame = set(), sys._getframe(2)
    while frame is not None:
        names.add(frame.f_code.co_name)
        frame = frame.f_back
    if "_pace_reclaim" not in names:
        return "commit"
    if "_seal" in names:
        step = "seal"
    elif "sync" in names:
        step = "retire"
    else:
        return "tombstone"
    return step + ("_dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "_pack")


def measure_pacing(db: Database, pinned: bool) -> dict:
    """In-place rewrites, no retention, no explicit reclaim: the only
    reclaim is the commit-path pacer's.  Checks the garbage bound after
    every commit and counts pacer attempts and the fsyncs they add.

    With ``pinned`` one snapshot is held across the whole loop, so no
    attempt can reclaim anything; hysteresis must keep the attempts to
    one per live-sized batch of garbage, and the first attempt after the
    pin closes must reclaim all of it.
    """
    refs = [db.pnew(E17Doc(slot=i, body=_pace_body(i, 0))) for i in range(PACE_OBJECTS)]
    live = db.stats()["blobs.live_bytes"]
    body = live // PACE_OBJECTS  # one stored body (all encode alike)
    snap = db.snapshot() if pinned else None
    fsyncs = dict.fromkeys(
        ("commit", "tombstone", "seal_pack", "seal_dir", "retire_pack", "retire_dir"), 0
    )
    real_fsync = os.fsync

    def counting_fsync(fd: int) -> None:
        fsyncs[_fsync_caller(fd)] += 1
        real_fsync(fd)

    worst_over = -live  # max of garbage - live after any commit
    os.fsync = counting_fsync
    try:
        for k in range(1, PACE_REWRITES + 1):
            for ref in refs:
                ref.body = _pace_body(ref.slot, k)
                stats = db.stats()
                garbage = stats["blobs.pending_reclaim_bytes"] + stats["blobs.dead_bytes"]
                worst_over = max(worst_over, garbage - stats["blobs.live_bytes"])
    finally:
        os.fsync = real_fsync
    commits = PACE_OBJECTS * PACE_REWRITES
    stats = db.stats()
    out = {
        "commits": commits,
        "body_bytes": body,
        "live_bytes": live,
        "paced_runs": stats["gc.paced_runs"],
        "paced_bytes_freed": stats["gc.paced_bytes_freed"],
        "worst_garbage_over_live": worst_over,
        "fsyncs_by_caller": fsyncs,
    }
    if snap is not None:
        snap.close()
        # Rewrite on until the next attempt (at most two live-sized batches).
        extra = 0
        while db.stats()["gc.paced_runs"] == out["paced_runs"] and extra < 2 * PACE_OBJECTS:
            ref = refs[extra % PACE_OBJECTS]
            extra += 1
            ref.body = _pace_body(ref.slot, PACE_REWRITES + extra)
        out["commits_after_pin"] = extra
        out["pending_after_pin"] = db.stats()["blobs.pending_reclaim_bytes"]
    return out


def run_sweep(base_dir) -> dict:
    results = {}
    with Database(base_dir / "e17_dedup") as db:
        results["dedup"] = measure_dedup(db)
    with Database(base_dir / "e17_reclaim") as db:
        results["reclamation"] = measure_reclamation(db)
    with Database(base_dir / "e17_readers") as db:
        results["reader_impact"] = measure_reader_impact(db)
    for pinned in (False, True):
        with Database(base_dir / f"e17_pacing_{int(pinned)}") as db:
            results["pacing_pinned" if pinned else "pacing"] = measure_pacing(db, pinned)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="E17: content-addressed storage + online GC benchmark"
    )
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write machine-readable results to PATH")
    parser.add_argument("--dir", default=None,
                        help="scratch directory (default: a temp dir)")
    args = parser.parse_args(argv)

    import pathlib
    import tempfile

    scratch = pathlib.Path(args.dir or tempfile.mkdtemp(prefix="bench_e17_"))
    results = run_sweep(scratch)

    d, r, i = results["dedup"], results["reclamation"], results["reader_impact"]
    print(
        f"dedup: {d['versions']} versions, {d['logical_bytes']} logical -> "
        f"{d['live_bytes']} stored bytes ({d['dedup_x']}x, "
        f"{d['dedup_hits']} hits)"
    )
    print(
        f"reclaim: {r['versions_deleted']} versions collected, blob bytes "
        f"{r['blob_bytes_before_gc']} -> {r['blob_bytes_after_gc']} "
        f"({r['footprint_x']}x live)"
    )
    print(
        f"readers: p99 {i['p99_quiet_us']}us quiet -> {i['p99_busy_us']}us "
        f"under GC ({i['impact'] * 100:+.1f}%, {i['gc_runs']} collector runs)"
    )
    for key in ("pacing", "pacing_pinned"):
        p = results[key]
        print(
            f"{key}: {p['paced_runs']} paced run(s) over {p['commits']} commits, "
            f"{p['paced_bytes_freed']} bytes freed, worst garbage - live "
            f"{p['worst_garbage_over_live']}, {p['fsyncs_added_per_run']:.2f} "
            "fsyncs added per run"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


# -- gated smoke tests --------------------------------------------------------


@pytest.mark.smoke
def test_e17_dedup_smoke(db, benchmark):
    """Pool-drawn payloads must dedup >= 2x: the content-addressed store
    keeps one copy per distinct content, not one per version."""
    result = measure_dedup(db)
    assert result["dedup_x"] >= DEDUP_FLOOR_X, (
        f"dedup {result['dedup_x']}x < {DEDUP_FLOOR_X}x "
        f"({result['logical_bytes']} logical / {result['live_bytes']} stored)"
    )
    assert result["dedup_hits"] > 0
    benchmark.extra_info.update(result)
    benchmark(lambda: None)


@pytest.mark.smoke
def test_e17_post_gc_footprint_smoke(db, benchmark):
    """A converged collector leaves the blob directory at <= 1.2x the
    live payload bytes -- displaced content actually leaves the disk."""
    result = measure_reclamation(db)
    assert result["versions_deleted"] > 0, "the collector never collected"
    assert result["footprint_x"] <= FOOTPRINT_CEILING_X, (
        f"post-GC footprint {result['blob_bytes_after_gc']} bytes is "
        f"{result['footprint_x']}x live ({result['live_bytes']}), "
        f"ceiling {FOOTPRINT_CEILING_X}x"
    )
    assert result["blob_bytes_after_gc"] < result["blob_bytes_before_gc"]
    benchmark.extra_info.update(result)
    benchmark(lambda: None)


@pytest.mark.smoke
def test_e17_reader_impact_smoke(db, benchmark):
    """Snapshot readers barely notice a concurrently-churning collector:
    p99 within 10% of quiet (or within the 100us CI-noise guard)."""
    result = measure_reader_impact(db)
    assert result["gc_runs"] > 0, "the collector never ran during sampling"
    delta_s = (result["p99_busy_us"] - result["p99_quiet_us"]) / 1e6
    assert (
        result["impact"] <= READER_IMPACT_CEILING
        or delta_s <= READER_IMPACT_GUARD_S
    ), (
        f"reader p99 {result['p99_quiet_us']}us -> {result['p99_busy_us']}us "
        f"under GC: {result['impact'] * 100:+.1f}% > "
        f"{READER_IMPACT_CEILING * 100:.0f}% (and beyond the "
        f"{READER_IMPACT_GUARD_S * 1e6:.0f}us noise guard)"
    )
    benchmark.extra_info.update(result)
    benchmark(lambda: None)


@pytest.mark.smoke
def test_e17_pacing_bounds_garbage_smoke(db, benchmark):
    """With no retention and no reclaim call, the commit-path pacer keeps
    garbage (displaced plus dead bytes) within one body of the live bytes
    after every commit: exactly one run per live-sized batch of displaced
    bodies.  Forced writes are counted per caller.  A commit forces the
    WAL alone (the body rides in it).  Each run adds its tombstone flush,
    one seal of the active pack its dead frames fill, and the sync of the
    pack the survivors are copied into, with its directory entry, before
    the emptied pack goes.  A seal syncs the pack once; the first one
    also syncs the directory entry of the pack the loads created, which
    no fsync had covered (a commit forces no pack)."""
    result = measure_pacing(db, pinned=False)
    assert result["worst_garbage_over_live"] <= result["body_bytes"], result
    runs = result["paced_runs"]
    assert runs == PACE_REWRITES, result  # every PACE_OBJECTS commits
    assert result["fsyncs_by_caller"] == {
        "commit": result["commits"],
        "tombstone": runs,
        "seal_pack": runs,
        "seal_dir": 1,
        "retire_pack": runs,
        "retire_dir": runs,
    }, result
    assert result["paced_bytes_freed"] == result["live_bytes"] * PACE_REWRITES, result
    benchmark.extra_info.update(result)
    benchmark(lambda: None)


@pytest.mark.smoke
def test_e17_pacing_hysteresis_under_a_pin_smoke(db, benchmark):
    """A snapshot pinned across the loop blocks every candidate.  Blocked
    garbage raises the pacer's mark, so attempts stay at one per
    live-sized batch (not one per commit), and the first attempt after
    the pin closes reclaims everything."""
    result = measure_pacing(db, pinned=True)
    batches = PACE_OBJECTS * PACE_REWRITES * result["body_bytes"] // result["live_bytes"]
    assert result["paced_runs"] <= batches, result
    assert result["paced_bytes_freed"] == 0, result
    assert result["commits_after_pin"] <= PACE_OBJECTS, result
    assert result["pending_after_pin"] == 0, result
    benchmark.extra_info.update(result)
    benchmark(lambda: None)


if __name__ == "__main__":
    import sys

    sys.exit(main())
