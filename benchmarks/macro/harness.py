"""Run one workload in this process: set-up, warm-up, measured segments, verify.

The untraced run (``trace=False``) yields the seven end-to-end metrics
and never imports ``probes.py``.  The traced run installs the layer
probes, drives one connection with one request in flight through a
quarter of the ops, then removes the probes and repeats a short
*reference* phase with the same connection shape -- the difference is the
tracing overhead, and the reference phase supplies the ``client.*``
harness-health numbers.

Work is fixed, not time: ``--seconds`` only scales the per-segment op
count, so the same ``(workload, seed, seconds, scale)`` always issues the
same requests and the count-type metrics repeat exactly.

Times are reported at *reference host speed*: this sandbox shares its
cores, and the same code runs up to 1.8x slower for seconds at a time.
Between slices of every segment the harness times a fixed
standard-library task (``calibrate``) on the same CPU and divides it out
(see README.md, "Reference-speed estimators").
"""

from __future__ import annotations

import asyncio
import gc
import io
import json
import os
import pickle
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any

from repro import StoragePolicy
from repro.core.gc import RetentionPolicy
from repro.core.identity import Vid
from repro.net import protocol
from repro.net.client import OdeConnection
from repro.net.server import ServerThread
from repro.shard import ShardedDatabase
from repro.storage import serialization
from repro.tools.check import check_database

from benchmarks.macro import OUT_DIR, benchmark_spec
from benchmarks.macro.workloads import (
    KNOWN_STORE_BUGS,
    NCONNS,
    NSHARDS,
    SPECS,
    Doc,
    Ledger,
    Mix,
    Obj,
    Spec,
    check_doc,
    edit_body,
    scaled,
)

#: Measured segments per phase (untraced; traced; the reference phase that
#: follows a traced one), and the slices a segment is cut into: after each
#: slice every connection has been answered and the host's speed is sampled.
SEGMENTS = 30
SLICES = 8

#: A measured phase that has used this many times its nominal duration is
#: cut short, and the run is then not ``correct``: the driver's per-run cap
#: must hold even when a neighbour takes the machine, but a run that did
#: less than the fixed work may not pass for one that did all of it.
OVERRUN_FACTOR = 5.0

#: The reference task's CPU time on this sandbox when no neighbour shares
#: the core.  Only a scale: times are multiplied by REF_CAL_MS / (the
#: reference task's time measured next to them), so on a quiet machine they
#: read as measured.
REF_CAL_MS = 1.85

#: How much of the reference task's slow-down a store op shares.  When a
#: neighbour takes part of the core, the pure-interpreter reference task
#: slows most; the part of a store op spent in the kernel and in C
#: libraries slows less (system calls and sha256/memcpy measured 1.4x when
#: the reference task measured 1.8x).  Exponents fitted per workload over
#: three sets of runs lay between 0.77 and 1.03.
SENSITIVITY = 0.9

_REFERENCE_DOC = {
    f"k{i}": [{"a": j, "b": "x" * (j % 17), "c": [j, j + 1, float(j)]} for j in range(12)]
    for i in range(8)
}


def calibrate() -> float:
    """CPU milliseconds the calling thread needs for the reference task now.

    The task is the standard library's pure-Python pickler and JSON
    encoder over a fixed document: interpreter-bound like the store, and
    no code of the store.  Thread CPU time, so another thread holding the
    GIL (the collector on ``mixed_gc``) does not read as a slow host.
    """
    start = time.thread_time()
    pickle._Pickler(io.BytesIO(), 4).dump(_REFERENCE_DOC)
    json.loads(json.dumps(_REFERENCE_DOC, indent=1))   # indent: the pure-Python encoder
    return (time.thread_time() - start) * 1e3


def host_speed(cal_ms: list[float]) -> float:
    """Speed of the host relative to the reference (1.0), from calibration samples."""
    return REF_CAL_MS / statistics.mean(cal_ms)


def at_reference(speed: float) -> float:
    """The factor that turns a time measured at ``speed`` into reference-speed time."""
    return speed ** SENSITIVITY


def pin_to_one_cpu() -> int | None:
    """Pin this process to its highest-numbered CPU; returns it.

    Under the GIL a second vCPU buys no throughput, only cross-CPU
    hand-offs and -- on a shared host -- a hypervisor wake-up on every
    thread switch (measured here: 20-40% steal unpinned, ~0% pinned, at
    a *higher* op rate).  One CPU is the quiet configuration.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def cpu_ticks(cpu: int | None) -> tuple[int, int]:
    """(steal, total) jiffies of ``cpu`` from /proc/stat; zeros if unreadable."""
    label = "cpu" if cpu is None else f"cpu{cpu}"
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                fields = line.split()
                if fields[0] == label:
                    ticks = [int(f) for f in fields[1:9]]
                    return ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):
        pass
    return 0, 0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


class FsyncShim:
    """Counts every ``os.fsync`` / ``os.fdatasync`` call and issues none.

    Always on: this *is* the benchmark's disk model.  Data files sit in
    the page cache (or on tmpfs) and no call waits for a device, so device
    cost is reported as counts, never as time.  ``on_call`` lets the
    traced run attribute each call to the layer span that made it.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.on_call = None
        self._saved = (os.fsync, os.fdatasync)

    def _sync(self, fd: int) -> None:
        self.calls += 1
        if self.on_call is not None:
            self.on_call()

    def install(self) -> "FsyncShim":
        os.fsync = os.fdatasync = self._sync
        return self

    def uninstall(self) -> None:
        os.fsync, os.fdatasync = self._saved


@dataclass
class Config:
    workload: str
    seed: int = 1
    seconds: float | None = None    # None: BENCHMARK.json's run_seconds
    scale: float = 1.0
    trace: bool = False
    data_root: str | None = None


@dataclass
class Segment:
    """One segment as measured; ``at_reference(speed)`` scales its times."""

    ops: int
    wall: float           # calibration pauses excluded
    cpu: float            # process CPU, the calibrations' own excluded
    p50_ms: float
    steal: float          # share of the pinned CPU the hypervisor withheld
    speed: float          # host speed over the segment (see host_speed)


@dataclass
class Phase:
    """One measured phase: its segments and every op latency in it."""

    segments: list[Segment] = field(default_factory=list)
    latencies: list[tuple[float, float]] = field(default_factory=list)  # (start, seconds)
    wall: float = 0.0
    truncated: bool = False     # cut short by the overrun budget

    @property
    def ops(self) -> int:
        return sum(s.ops for s in self.segments)

    def estimates(self) -> dict[str, float]:
        """Medians over the segments of each segment's reference-speed value."""
        segs = self.segments
        return {
            # Wall time the hypervisor gave to someone else is not the store's.
            "ops_s": statistics.median(
                s.ops / (s.wall * (1.0 - s.steal) * at_reference(s.speed)) for s in segs
            ),
            "p50_ms": statistics.median(s.p50_ms * at_reference(s.speed) for s in segs),
            "cpu_ms_per_op": statistics.median(
                s.cpu * at_reference(s.speed) / s.ops * 1e3 for s in segs
            ),
        }


def dir_bytes(path: str, skip: str | None = None) -> int:
    """Bytes of every file under ``path`` (except files named ``skip``)."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            if name == skip:
                continue
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass  # unlinked by the collector mid-walk
    return total


class GcRunner:
    """Retention GC beside the foreground: one cycle per measured segment.

    A cycle is ``run_gc`` + ``reclaim_blobs`` on a harness thread.  Every
    segment starts one and ends when both its ops and its cycle are done,
    so all segments carry the same background work and no segment's
    numbers are those of a store the collector left alone.  The
    traced phase finishes the cycle *before* the segment's ops (a barrier),
    which is what makes its counts repeat exactly.
    """

    def __init__(self, db: ShardedDatabase, data_dir: str) -> None:
        self.db = db
        self.data_dir = data_dir
        self.cycles: list[dict[str, float]] = []
        self.on_cycle = None      # traced run: marks the cycle's thread as background

    def cycle(self) -> None:
        if self.on_cycle is not None:
            self.on_cycle()
        start = time.perf_counter()
        report = self.db.run_gc()
        unlinked, _freed, _remaining = self.db.reclaim_blobs()
        end = time.perf_counter()
        self.cycles.append(
            {
                "start": start,
                "end": end,
                "versions_pruned": report.versions_deleted,
                "blobs_reclaimed": report.blobs_unlinked + unlinked,
                # Heap files and blobs; the WAL only grows between checkpoints.
                "footprint": dir_bytes(self.data_dir, skip="wal.log"),
            }
        )

    def drain(self) -> None:
        """Collect to convergence (untimed, before the footprint is read)."""
        for _ in range(64):
            report = self.db.run_gc()
            unlinked, _freed, remaining = self.db.reclaim_blobs()
            if not (report.versions_deleted or unlinked or remaining):
                return
        raise RuntimeError("retention GC did not converge")


# -- set-up ---------------------------------------------------------------------


def open_db(spec: Spec, data_dir: str) -> ShardedDatabase:
    kwargs: dict[str, Any] = {}
    if spec.cache_budget is not None:
        kwargs["cache_budget"] = spec.cache_budget
    return ShardedDatabase(
        data_dir, nshards=NSHARDS, policy=StoragePolicy(*spec.policy), **kwargs
    )


def load(db: ShardedDatabase, ledger: Ledger, seed: int) -> list[float]:
    """Build the data set in equal object slices; returns each slice's wall.

    Every slice is one transaction that creates its objects at full
    version depth, so the slices do equal work and the median slice, at
    reference speed, prices the whole load.
    """
    spec = ledger.spec
    rng = random.Random(f"{seed}:{spec.name}:load")
    per_batch = spec.objects // spec.batches
    walls: list[float] = []
    cal = calibrate()
    for batch in range(spec.batches):
        start = time.perf_counter()
        with db.transaction():
            for i in range(per_batch):
                slot = batch * per_batch + i
                body = rng.randbytes(spec.body)
                doc = Doc(slot, body)
                ref = db.pnew(doc)
                obj = Obj(
                    slot=slot,
                    oid=ref.oid,
                    shard=db.placement.shard_of(ref.oid),
                    body=body,
                    overhead=len(serialization.encode(doc)) - len(body),
                )
                ledger.objs.append(obj)
                ledger.record_version(obj, 1, body)
                for _ in range(spec.versions - 1):
                    body = edit_body(rng, body, spec.edit)
                    vref = db.newversion(ref.oid)
                    db.write_version(vref.vid, Doc(slot, body))
                    ledger.record_version(obj, vref.vid.serial, body)
        ledger.commits += 1
        wall = time.perf_counter() - start
        before, cal = cal, calibrate()
        walls.append(wall * at_reference(host_speed([before, cal])))
    return walls


# -- the closed-loop driver ------------------------------------------------------


def slice_sizes(per_conn: int, window: int) -> list[int]:
    """``per_conn`` ops cut into at most SLICES near-equal runs of whole windows."""
    windows = max(1, per_conn // window)
    slices = min(SLICES, windows)
    base, extra = divmod(windows, slices)
    return [(base + (i < extra)) * window for i in range(slices)]


class Driver:
    """Closed-loop load over a fixed set of connections."""

    def __init__(
        self,
        ledger: Ledger,
        conns: list[OdeConnection],
        window: int,
        seed: int,
        gc_runner: GcRunner | None,
        cpu: int | None = None,
    ) -> None:
        self.cpu = cpu
        self.ledger = ledger
        self.conns = conns
        self.window = window
        self.mixes = [Mix(ledger, i, seed) for i in range(len(conns))]
        self.gc_runner = gc_runner
        self.gc_barrier = False    # traced phase: finish the cycle before the ops
        self.tracer: Any = None

    async def _one(self, conn: OdeConnection, mix: Mix, lat: list) -> None:
        tracer = self.tracer
        start = time.perf_counter()
        if tracer is not None:
            tracer.op_begin(start)
        try:
            op = mix.next_op(conn)
            if type(op) is tuple:
                op[1](await op[0])
            else:
                await op
        except Exception as exc:
            self.ledger.fail(f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
        lat.append((start, end - start))
        if tracer is not None:
            tracer.op_end(end)

    async def _burst(self, conn: OdeConnection, mix: Mix, n: int, lat: list) -> None:
        ledger = self.ledger
        futures = []
        for _ in range(n):
            start = time.perf_counter()
            future, check = mix.next_op(conn)

            def done(fut, start=start, check=check) -> None:
                lat.append((start, time.perf_counter() - start))
                try:
                    check(fut.result())
                except Exception as exc:
                    ledger.fail(f"{type(exc).__name__}: {exc}")

            future.add_done_callback(done)
            futures.append(future)
        await asyncio.wait(futures)

    async def _drive(self, conn: OdeConnection, mix: Mix, ops: int, lat: list) -> None:
        done = 0
        while done < ops:
            n = min(self.window, ops - done)
            if self.window == 1:
                await self._one(conn, mix, lat)
            else:
                await self._burst(conn, mix, n, lat)
            done += n
            self.ledger.attempted += n

    async def segment(self, seg_ops: int) -> tuple[Segment, list]:
        """One segment: the host's speed is sampled before it and after each slice."""
        per_conn = seg_ops // len(self.conns)
        lat: list[tuple[float, float]] = []
        steal0, ticks0 = cpu_ticks(self.cpu)
        cal_ms = [calibrate()]
        cpu0 = time.process_time()
        start = time.perf_counter()
        paused = 0.0
        cycle = None
        if self.gc_runner is not None:
            cycle = asyncio.get_running_loop().run_in_executor(None, self.gc_runner.cycle)
            if self.gc_barrier:
                await cycle
        for n in slice_sizes(per_conn, self.window):
            await asyncio.gather(
                *(self._drive(c, m, n, lat) for c, m in zip(self.conns, self.mixes))
            )
            mark = time.perf_counter()
            cal_ms.append(calibrate())
            paused += time.perf_counter() - mark
        if cycle is not None:
            await cycle
        wall = time.perf_counter() - start - paused
        cpu = time.process_time() - cpu0 - sum(cal_ms[1:]) / 1e3
        steal1, ticks1 = cpu_ticks(self.cpu)
        steal = (steal1 - steal0) / max(1, ticks1 - ticks0)
        p50 = statistics.median(seconds for _start, seconds in lat) * 1e3
        ops = per_conn * len(self.conns)
        return Segment(ops, wall, cpu, p50, steal, host_speed(cal_ms)), lat

    async def phase(self, seg_ops: int, segments: int, budget: float) -> Phase:
        out = Phase()
        start = time.perf_counter()
        for i in range(segments):
            seg, lat = await self.segment(seg_ops)
            out.segments.append(seg)
            out.latencies.extend(lat)
            if i + 1 < segments and time.perf_counter() - start > budget:
                out.truncated = True
                break
        out.wall = sum(s.wall for s in out.segments)
        return out


async def open_conns(server: ServerThread, n: int) -> list[OdeConnection]:
    return [await OdeConnection.open(server.host, server.port) for _ in range(n)]


# -- verification -----------------------------------------------------------------


async def verify_wire(server: ServerThread, ledger: Ledger) -> list[str]:
    """A fresh snapshot read of every object's latest version == last acked write."""
    problems: list[str] = []
    (conn,) = await open_conns(server, 1)
    try:
        objs = ledger.objs
        for at in range(0, len(objs), 64):
            chunk = objs[at : at + 64]
            docs = await asyncio.gather(
                *(conn.send(protocol.OP_READ, (o.oid, None)) for o in chunk)
            )
            for obj, doc in zip(chunk, docs):
                try:
                    check_doc(obj, obj.latest, doc)
                except AssertionError as exc:
                    problems.append(f"wire: {exc} (latest != last acked write)")
    finally:
        await conn.close()
    return problems


def verify_reopened(spec: Spec, data_dir: str, ledger: Ledger) -> list[str]:
    """Reopen the store; every alive version per the ledger reads back; fsck."""
    problems: list[str] = []
    db = open_db(spec, data_dir)
    try:
        for obj in ledger.objs:
            if db.version_count(obj.oid) != len(obj.crcs):
                problems.append(
                    f"reopen: slot {obj.slot} has {db.version_count(obj.oid)} "
                    f"versions, ledger says {len(obj.crcs)}"
                )
            if db.latest_vid(obj.oid).serial != obj.latest:
                problems.append(f"reopen: slot {obj.slot} latest serial differs")
            for serial in obj.crcs:
                try:
                    check_doc(obj, serial, db.materialize(Vid(obj.oid, serial)))
                except AssertionError as exc:
                    problems.append(f"reopen: {exc}")
        for idx, shard in enumerate(db.shards):
            report = check_database(shard, strict=True)
            problems.extend(f"check shard {idx}: {p}" for p in report.problems)
    finally:
        db.close()
    return problems[:16]


# -- one run -----------------------------------------------------------------------


def disk_model(data_root: str) -> str:
    kind = "tmpfs" if os.path.realpath(data_root).startswith("/dev/shm") else "pagecache"
    return f"{kind}+fsync-counted-not-issued"


def run(cfg: Config) -> dict[str, Any]:
    """Run one workload; returns the full report (metrics, segments, config)."""
    if cfg.workload not in SPECS:
        raise SystemExit(f"unknown workload {cfg.workload!r}; choose from {list(SPECS)}")
    # The op counts in workloads.SPECS apply as written at run_seconds.
    ref_seconds = benchmark_spec()["run_seconds"]
    if cfg.seconds is None:
        cfg.seconds = ref_seconds
    spec = scaled(SPECS[cfg.workload], cfg.scale, cfg.scale * cfg.seconds / ref_seconds)
    if spec.name in KNOWN_STORE_BUGS["heap-stub-growth"]:
        # Steered: every op takes an object that has no second version yet, so
        # the table must hold one per op (it does at --scale 1 --seconds 10).
        ops = max((SEGMENTS + 1) * spec.seg_ops, NCONNS * (2 * SEGMENTS + 1) * spec.traced_seg_ops)
        per_batch = max(spec.objects, ops + spec.batches - 1) // spec.batches
        spec = replace(spec, objects=per_batch * spec.batches)
    data_root = cfg.data_root or OUT_DIR
    os.makedirs(data_root, exist_ok=True)
    data_dir = os.path.join(data_root, f"data-{spec.name}-{os.getpid()}")
    shutil.rmtree(data_dir, ignore_errors=True)
    shim = FsyncShim().install()
    cpu = pin_to_one_cpu()
    try:
        report = asyncio.run(_run(cfg, spec, data_dir, shim, cpu))
    finally:
        shim.uninstall()
        shutil.rmtree(data_dir, ignore_errors=True)
    report["config"] = {
        "workload": spec.name,
        "seed": cfg.seed,
        "seconds": cfg.seconds,
        "scale": cfg.scale,
        "trace": cfg.trace,
        "disk_model": disk_model(data_root),
        "objects": spec.objects,
        "seg_ops": spec.seg_ops,
        "steered_around": [bug for bug, names in KNOWN_STORE_BUGS.items() if spec.name in names],
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
    }
    return report


async def _run(
    cfg: Config, spec: Spec, data_dir: str, shim: FsyncShim, cpu: int | None
) -> dict[str, Any]:
    tracer = None
    if cfg.trace:
        from benchmarks.macro import probes  # the untraced run never imports it

        tracer = probes.Tracer(shim)
        tracer.install()   # before the store opens, so callbacks bound at open are wrapped

    # -- set-up: open, load in equal slices, checkpoint, serve, connect, warm up -------
    # Each part is timed on its own and brought to reference speed with the
    # calibrations around it; setup_s is their sum, the load priced as
    # n_batches x the median batch.
    ledger = Ledger(spec)
    steal0, ticks0 = cpu_ticks(cpu)
    setup_start = time.perf_counter()
    cal = calibrate()
    db = open_db(spec, data_dir)
    if spec.keep_last_n is not None:
        db.set_retention(Doc, RetentionPolicy(keep_last_n=spec.keep_last_n))
    open_wall = time.perf_counter() - setup_start
    open_s = open_wall * at_reference(host_speed([cal, calibrate()]))
    batch_walls = load(db, ledger, cfg.seed)
    cal = calibrate()
    mark = time.perf_counter()
    db.checkpoint()
    server = ServerThread(db).start()
    nconns, window = (1, 1) if cfg.trace else (NCONNS, spec.window)
    conns = await open_conns(server, nconns)
    serve_wall = time.perf_counter() - mark
    serve_s = serve_wall * at_reference(host_speed([cal, calibrate()]))
    gc_runner = GcRunner(db, data_dir) if spec.keep_last_n is not None else None
    driver = Driver(ledger, conns, window, cfg.seed, gc_runner, cpu)
    seg_ops = spec.traced_seg_ops if cfg.trace else spec.seg_ops
    warm_up, _ = await driver.segment(seg_ops)   # its ops are discarded
    setup_wall_s = time.perf_counter() - setup_start
    setup_parts = {
        "open_s": open_s,
        "load_s": len(batch_walls) * statistics.median(batch_walls),
        "serve_s": serve_s,
        "warm_up_s": warm_up.wall * at_reference(warm_up.speed),
    }
    steal1, ticks1 = cpu_ticks(cpu)
    setup_s = sum(setup_parts.values()) * (1.0 - (steal1 - steal0) / max(1, ticks1 - ticks0))

    gc.collect()
    gc.freeze()
    budget = cfg.seconds * OVERRUN_FACTOR
    attempted0, failed0 = ledger.attempted, ledger.failed
    trace_ctx: dict[str, Any] = {}
    if tracer is None:
        phase = await driver.phase(seg_ops, SEGMENTS, budget)
    else:
        # Traced phase: probes recording, GC cycles at barriers.
        commits0, written0 = ledger.commits, ledger.written_bytes
        driver.tracer = tracer
        driver.gc_barrier = True
        if gc_runner is not None:
            gc_runner.cycles.clear()
            gc_runner.on_cycle = tracer.mark_gc_thread
        # The server counts a response's bytes just after writing it: let the
        # last one land before each stats snapshot, or byte counts race.
        await asyncio.sleep(0.05)
        stats_before = tracer.snapshot_stats(db)
        tracer.start()
        traced = await driver.phase(seg_ops, SEGMENTS, budget)
        tracer.stop()
        await asyncio.sleep(0.05)
        trace_ctx = dict(
            traced=traced,
            stats_before=stats_before,
            stats_after=tracer.snapshot_stats(db),
            ops=ledger.attempted - attempted0,
            commits=ledger.commits - commits0,
            commits_since_start=ledger.commits,
            fsyncs_since_start=shim.calls,
            written_bytes=ledger.written_bytes - written0,
            gc_cycles=list(gc_runner.cycles) if gc_runner else [],
        )
        # Reference phase: same connection shape, probes removed, GC concurrent.
        tracer.uninstall()
        driver.tracer = None
        driver.gc_barrier = False
        if gc_runner is not None:
            gc_runner.cycles.clear()
            gc_runner.on_cycle = None
        phase = await driver.phase(seg_ops, SEGMENTS, budget)
        trace_ctx["gc_cycles_reference"] = list(gc_runner.cycles) if gc_runner else []

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fsyncs, commits = shim.calls, ledger.commits
    attempted = ledger.attempted - attempted0
    failed = ledger.failed - failed0

    # -- everything below is untimed verification ------------------------------------
    problems = await verify_wire(server, ledger)
    for conn in conns:
        await conn.close()
    server.stop()
    if gc_runner is not None:
        gc_runner.drain()
    db.checkpoint()
    stored = dir_bytes(data_dir)
    db.close()
    problems += verify_reopened(spec, data_dir, ledger)
    if gc_runner is not None and tracer is None:
        # Levelled off: reclaim makes the per-cycle footprint a sawtooth, so
        # compare thirds of the phase, not neighbouring cycles.
        sizes = [c["footprint"] for c in gc_runner.cycles]
        third = len(sizes) // 3
        middle = statistics.mean(sizes[third : 2 * third])
        last = statistics.mean(sizes[2 * third :])
        if abs(last - middle) > 0.10 * middle:
            problems.append(
                f"footprint has not levelled off: middle third {middle:.0f} B, last third {last:.0f} B"
            )

    for name, measured in (("measured", phase), ("traced", trace_ctx.get("traced"))):
        if measured is not None and measured.truncated:
            problems.append(
                f"{name} phase overran {budget:.0f} s and was cut short after "
                f"{len(measured.segments)}/{SEGMENTS} segments: not the fixed work"
            )

    est = phase.estimates()
    lat_ms = sorted(seconds * 1e3 for _start, seconds in phase.latencies)
    mean_ops_s = phase.ops / phase.wall
    client = {
        "client.p95_ms": percentile(lat_ms, 0.95),
        "client.p99_ms": percentile(lat_ms, 0.99),
        "client.samples": len(lat_ms),
        "client.mean_ops_s": mean_ops_s,
        "client.interference_ratio": est["ops_s"] / mean_ops_s,
        "client.host_speed": statistics.median(s.speed for s in phase.segments),
        "client.steal_pct": 100.0 * statistics.mean(s.steal for s in phase.segments),
        "client.setup_wall_s": setup_wall_s,
        "client.attempted_ops": attempted,
        "client.failed_ops": failed,
        "client.retries_per_op": ledger.retries / max(1, attempted),
    }
    report: dict[str, Any] = dict(
        correct=not problems and failed == 0,
        attempted=attempted,
        failed=failed,
        problems=problems + ledger.errors,
        segments=[[s.ops, s.wall, s.cpu, s.p50_ms, s.steal, s.speed] for s in phase.segments],
        client=client,
        setup_parts=setup_parts,
        gc_cycles=len(gc_runner.cycles) if gc_runner else 0,
    )
    if tracer is None:
        report["end_to_end"] = {
            "setup_s": setup_s,
            "ops_s": est["ops_s"],
            "p50_ms": est["p50_ms"],
            "cpu_ms_per_op": est["cpu_ms_per_op"],
            "peak_rss_mb": peak_rss_mb,
            "stored_bytes_per_user_byte": stored / ledger.user_bytes(),
            "fsyncs_per_commit": fsyncs / commits,
        }
    else:
        report["per_layer"], layer_self = tracer.metrics(
            reference=phase, client=client, **trace_ctx
        )
        report["traced"] = {
            "layer_self_ms_per_op": layer_self,
            "latency_ms_per_op": sum(layer_self.values()),
            "segments": len(trace_ctx["traced"].segments),
            "ops": trace_ctx["ops"],
            "commits": trace_ctx["commits"],
            "fsyncs_per_commit_since_start":
                trace_ctx["fsyncs_since_start"] / trace_ctx["commits_since_start"],
            "fsyncs_unattributed": tracer.device["other"],
            "probes_missing": tracer.missing,
        }
        tracer.write(
            os.path.join(OUT_DIR, f"trace_{spec.name}.json"),
            {"workload": spec.name, "seed": cfg.seed, "seconds": cfg.seconds, "scale": cfg.scale},
        )
    return report
