"""Outside-in layer probes for the traced run.

Nothing under ``src/`` knows about tracing.  :data:`LAYER_PROBES` names
the public functions at each layer boundary; :class:`Tracer` swaps a
timing wrapper in for each (and for every by-name import of it inside
``repro``), keeps the spans in memory, and afterwards folds them into
the per-layer metrics.  A probe whose target no longer resolves is
skipped: the metrics that needed it read ``null`` and
``trace.probes_missing`` counts it.

Spans are ``(probe, start, end, parent, op, tag)``.  The traced run
keeps exactly one request in flight, so a span that starts on a server
thread with no parent belongs to the op the client is waiting on; work
scattered through the shard executor carries its parent across threads;
the GC harness thread marks its own spans as background (op ``-1``).
A span's *self* time is its duration minus the part its children cover.
``net.server`` has no public function to wrap -- its surface is the
socket -- so its self time is the residual: the client-observed latency
minus every root span recorded on either side of the wire.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

_now = time.perf_counter


@dataclass(frozen=True)
class Probe:
    span: str                 # "<layer>.<function>"; the layer is all but the last part
    target: str               # "module:attr.path" of the function to wrap
    tag: Callable | None = None   # (args, result) -> small value stored on the span
    carry: bool = False       # args[1] is a thunk run elsewhere: carry the parent along


def _cache_get_tag(args, result):
    return (id(args[0]), result is not None, type(result) is bytes)   # which cache, hit, bytes hit


def _cache_put_tag(args, result):
    return (id(args[0]), type(args[2]) is bytes)     # which cache, and is it a bytes cache


_ROUTER = "repro.shard.router:ShardedDatabase."
_READER = "repro.shard.router:ShardedReader."
_CUT = "repro.shard.snapshot:GlobalSnapshot."
_DB = "repro.core.database:Database."
_TXN = "repro.core.transactions:Transaction."
_STORE = "repro.core.store:VersionStore."
_SNAP = "repro.core.snapshot:Snapshot."
_SER = "repro.storage.serialization:"

LAYER_PROBES: tuple[Probe, ...] = (
    # -- wire ---------------------------------------------------------------------
    Probe("net.client.send", "repro.net.client:OdeConnection.send"),
    Probe("net.protocol.encode", "repro.net.protocol:build_frame_into",
          tag=lambda args, result: args[2]),                       # the cid
    Probe("net.protocol.decode", "repro.net.protocol:FrameDecoder.feed"),
    # -- router, cut, executor, coordinator --------------------------------------
    Probe("shard.router.begin", _ROUTER + "begin"),
    Probe("shard.router.newversion", _ROUTER + "newversion"),
    Probe("shard.router.write_version", _ROUTER + "write_version"),
    Probe("shard.router.materialize", _ROUTER + "materialize"),
    Probe("shard.router.read_attr", _ROUTER + "read_attr"),
    Probe("shard.router.latest_vid", _ROUTER + "latest_vid"),
    Probe("shard.router.run_gc", _ROUTER + "run_gc"),
    Probe("shard.router.reclaim_blobs", _ROUTER + "reclaim_blobs"),
    Probe("shard.router.stats", _ROUTER + "stats"),
    Probe("shard.router.current_cut", "repro.shard.router:RouterSession.current_cut"),
    Probe("shard.router.reader_read_latest_attr", _READER + "read_latest_attr"),
    Probe("shard.router.reader_materialize", _READER + "materialize"),
    Probe("shard.router.reader_read_attr", _READER + "read_attr"),
    Probe("shard.router.reader_latest_vid", _READER + "latest_vid"),
    Probe("shard.router.shard_of", "repro.shard.placement:ModuloPlacement.shard_of",
          tag=lambda args, result: result),
    Probe("shard.snapshot.cut", _ROUTER + "snapshot"),
    Probe("shard.snapshot.read_latest_attr", _CUT + "read_latest_attr"),
    Probe("shard.snapshot.materialize", _CUT + "materialize"),
    Probe("shard.snapshot.read_attr", _CUT + "read_attr"),
    Probe("shard.snapshot.latest_vid", _CUT + "latest_vid"),
    Probe("shard.executor.submit", "repro.shard.executor:ShardExecutor.submit", carry=True),
    Probe("shard.executor.run_all", "repro.shard.executor:ShardExecutor.run_all"),
    Probe("shard.coordinator.commit", "repro.shard.coordinator:GlobalTransaction.commit"),
    Probe("shard.coordinator.commit_global", "repro.shard.coordinator:commit_global"),
    Probe("shard.coordinator.abort_global", "repro.shard.coordinator:abort_global"),
    # -- the shard kernel: facade, transactions, store, snapshots, caches, GC -------
    Probe("core.database.begin", _DB + "begin"),
    Probe("core.database.newversion", _DB + "newversion"),
    Probe("core.database.write_version", _DB + "write_version"),
    Probe("core.database.materialize", _DB + "materialize"),
    Probe("core.database.read_attr", _DB + "read_attr"),
    Probe("core.database.latest_vid", _DB + "latest_vid"),
    Probe("core.database.pdelete", _DB + "pdelete"),
    Probe("core.database.snapshot", _DB + "snapshot"),
    Probe("core.database.log_decision", _DB + "log_coordinator_decision"),
    Probe("core.database.forget_decision", _DB + "forget_coordinator_decision"),
    Probe("core.transactions.commit", _TXN + "commit"),
    Probe("core.transactions.prepare", _TXN + "prepare"),
    Probe("core.transactions.abort", _TXN + "abort"),
    Probe("core.transactions.lock", _TXN + "lock"),
    Probe("core.transactions.lock_acquire", "repro.core.transactions:LockManager.acquire"),
    Probe("core.store.newversion", _STORE + "newversion"),
    Probe("core.store.write_version", _STORE + "write_version"),
    Probe("core.store.materialize", _STORE + "materialize"),
    Probe("core.store.read_attr", _STORE + "read_attr"),
    Probe("core.store.pdelete", _STORE + "pdelete"),
    Probe("core.store.publish_snapshot", _STORE + "publish_snapshot"),
    Probe("core.snapshot.publish", "repro.core.snapshot:SnapshotRegistry.publish"),
    Probe("core.snapshot.pin", "repro.core.snapshot:SnapshotRegistry.pin"),
    Probe("core.snapshot.stash_bytes", "repro.core.snapshot:SnapshotRegistry.stash_bytes"),
    Probe("core.snapshot.materialize", _SNAP + "materialize"),
    Probe("core.snapshot.read_latest_attr", _SNAP + "read_latest_attr"),
    Probe("core.snapshot.read_attr", _SNAP + "read_attr"),
    Probe("core.snapshot.latest_vid", _SNAP + "latest_vid"),
    Probe("core.cache.get", "repro.core.cache:BudgetedLRU.get", tag=_cache_get_tag),
    Probe("core.cache.put", "repro.core.cache:BudgetedLRU.put", tag=_cache_put_tag),
    Probe("core.gc.collect", "repro.core.gc:collect"),
    Probe("core.gc.reclaim_blobs", _DB + "reclaim_blobs"),
    # -- storage ---------------------------------------------------------------------
    Probe("storage.wal.append", "repro.storage.wal:LogManager.append"),
    Probe("storage.wal.flush", "repro.storage.wal:LogManager.flush"),
    Probe("storage.wal.truncate", "repro.storage.wal:LogManager.truncate"),
    Probe("storage.wal.encode", "repro.storage.wal:LogRecord.to_bytes",
          tag=lambda args, result: len(result) + 8),               # + frame header
    Probe("storage.blobs.put", "repro.storage.blobs:BlobStore.put"),
    Probe("storage.blobs.get", "repro.storage.blobs:BlobStore.get"),
    Probe("storage.blobs.unlink", "repro.storage.blobs:BlobStore.unlink"),
    Probe("storage.delta.compute", "repro.storage.delta:compute_delta",
          tag=lambda args, result: (len(result), len(args[1]))),   # delta, target bytes
    Probe("storage.delta.apply", "repro.storage.delta:apply_delta"),
    Probe("storage.heap.insert", "repro.storage.heap:HeapFile.insert"),
    Probe("storage.heap.read", "repro.storage.heap:HeapFile.read"),
    Probe("storage.heap.update", "repro.storage.heap:HeapFile.update"),
    Probe("storage.heap.delete", "repro.storage.heap:HeapFile.delete"),
    Probe("storage.buffer.fetch", "repro.storage.buffer:BufferPool.fetch"),
    Probe("storage.buffer.new_page", "repro.storage.buffer:BufferPool.new_page"),
    Probe("storage.buffer.flush_all", "repro.storage.buffer:BufferPool.flush_all"),
    Probe("storage.disk.read_page", "repro.storage.disk:DiskManager.read_page"),
    Probe("storage.disk.write_page", "repro.storage.disk:DiskManager.write_page"),
    Probe("storage.disk.allocate_page", "repro.storage.disk:DiskManager.allocate_page"),
    Probe("storage.disk.sync", "repro.storage.disk:DiskManager.sync"),
    Probe("storage.serialization.encode", _SER + "encode"),
    Probe("storage.serialization.encode", _SER + "encode_into"),
    Probe("storage.serialization.decode", _SER + "decode"),
    Probe("storage.serialization.decode", _SER + "decode_from"),
)

#: The layers whose spans own an fsync made beneath them.
_DEVICE_LAYERS = {"storage.wal": "wal", "storage.blobs": "blob", "storage.disk": "disk"}

#: Span index positions.
_PROBE, _START, _END, _PARENT, _OP, _TAG = range(6)

#: The trace file keeps at most this many spans (the metrics use them all).
_MAX_WRITTEN_SPANS = 50_000


class MissingProbe(Exception):
    """A metric needs a span whose probe did not resolve."""


class Tracer:
    """Installs the probes, records spans, derives the per-layer metrics."""

    def __init__(self, shim: Any) -> None:
        self.shim = shim
        self.recording = False
        self.spans: list[list] = []
        self.ops: list[list[float]] = []          # [start, end] per traced op
        self.missing: list[str] = []
        self.device = {"wal": 0, "blob": 0, "disk": 0, "other": 0}
        self._names = sorted({p.span for p in LAYER_PROBES}) + ["shard.executor.task"]
        self._index = {name: i for i, name in enumerate(self._names)}
        self._device_of = [
            _DEVICE_LAYERS.get(name.rsplit(".", 1)[0]) for name in self._names
        ]
        self._tls = threading.local()
        self._op = -1
        self._patches: list[tuple[Any, str, Any]] = []

    # -- installing ------------------------------------------------------------------

    def install(self) -> None:
        for probe in LAYER_PROBES:
            try:
                owner, name, original = _resolve(probe.target)
            except (ImportError, AttributeError):
                self.missing.append(probe.span)
                continue
            wrapped = self._wrap(probe, original)
            self._patch(owner, name, wrapped)
            if inspect.ismodule(owner):
                # ``from module import fn`` elsewhere in the package bound the
                # original under another global: rebind those too.
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro.") and module is not owner:
                        for alias, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, alias, wrapped)
        self.shim.on_call = self._note_fsync

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self.shim.on_call = None

    def _stack(self) -> list:
        try:
            return self._tls.stack
        except AttributeError:
            self._tls.stack = []
            self._tls.op = None
            return self._tls.stack

    def _open(self, idx: int, stack: list) -> Any:
        """Push a span (or, when not recording, just its probe index)."""
        if not self.recording:
            stack.append(idx)
            return None
        parent = stack[-1] if stack else None
        if type(parent) is list:
            op = parent[_OP]
        else:
            parent = None
            op = self._tls.op
            if op is None:
                op = self._op
        rec = [idx, 0.0, 0.0, parent, op, None]
        stack.append(rec)
        rec[_START] = _now()
        return rec

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        idx = self._index[probe.span]
        tag = probe.tag
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    stack = tracer._stack()
                    rec = tracer._open(idx, stack)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        if rec is not None:
                            rec[_END] = _now()
                            tracer.spans.append(rec)
                        stack.pop()
                    yield item

            return gen_wrapper

        if probe.carry:
            task_idx = self._index["shard.executor.task"]

            def carry_wrapper(executor, thunk):
                stack = tracer._stack()
                rec = tracer._open(idx, stack)
                try:
                    if rec is None:
                        return fn(executor, thunk)
                    submitted = _now()
                    submitter = threading.get_ident()

                    # The task outlives submit(): whoever called submit waits
                    # for it, so that caller's span is the task's parent.
                    waiter = rec[_PARENT] if rec[_PARENT] is not None else rec

                    def carried():
                        here = tracer._stack()
                        task = [task_idx, _now(), 0.0, waiter, rec[_OP], None]
                        task[_TAG] = (task[_START] - submitted, threading.get_ident() == submitter)
                        here.append(task)
                        try:
                            return thunk()
                        finally:
                            task[_END] = _now()
                            here.pop()
                            tracer.spans.append(task)

                    return fn(executor, carried)
                finally:
                    if rec is not None:
                        rec[_END] = _now()
                        tracer.spans.append(rec)
                    stack.pop()

            return carry_wrapper

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            rec = tracer._open(idx, stack)
            try:
                result = fn(*args, **kwargs)
                if rec is not None and tag is not None:
                    rec[_TAG] = tag(args, result)
                return result
            finally:
                if rec is not None:
                    rec[_END] = _now()
                    tracer.spans.append(rec)
                stack.pop()

        return wrapper

    def _note_fsync(self) -> None:
        for entry in reversed(self._stack()):
            device = self._device_of[entry[_PROBE] if type(entry) is list else entry]
            if device is not None:
                self.device[device] += 1
                return
        self.device["other"] += 1

    # -- the harness side ------------------------------------------------------------------

    def start(self) -> None:
        self.recording = True

    def stop(self) -> None:
        self.recording = False

    def op_begin(self, start: float) -> None:
        self._op = len(self.ops)
        self.ops.append([start, start])

    def op_end(self, end: float) -> None:
        self.ops[self._op][1] = end

    def mark_gc_thread(self) -> None:
        """Spans rooted on the calling thread are background work (op -1)."""
        self._stack()
        self._tls.op = -1

    def snapshot_stats(self, db: Any) -> dict[str, float]:
        """``db.stats()`` reduced to its numeric counters."""
        return {
            k: v for k, v in db.stats().items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }

    # -- folding spans into metrics ----------------------------------------------------------

    def fold(self) -> dict[str, Any]:
        """Per-span-name totals over the foreground (op >= 0) spans.

        Self time is wall-clock: a span's duration minus the union of its
        children.  Children that overlap each other (shard-executor tasks
        running side by side) are scaled down together so that they sum
        to the interval they jointly cover -- an op's self times then add
        up to the wall-clock its root spans span, not to CPU-seconds.
        """
        names = self._names
        n = len(names)
        count = [0] * n
        incl = [0.0] * n
        self_t = [0.0] * n
        children: dict[int, list[list]] = {}
        for rec in self.spans:
            parent = rec[_PARENT]
            if parent is not None:
                children.setdefault(id(parent), []).append(rec)
        weight: dict[int, float] = {}
        root_time = [0.0] * len(self.ops)
        tags: dict[int, list] = {}
        for rec in sorted(self.spans, key=lambda r: r[_START]):   # parents first
            if rec[_OP] < 0:
                continue
            idx = rec[_PROBE]
            duration = rec[_END] - rec[_START]
            w = weight.pop(id(rec), 1.0)
            kids = children.get(id(rec))
            covered = 0.0
            if kids:
                covered, summed = _coverage(rec, kids)
                if summed > covered:
                    for kid in kids:
                        weight[id(kid)] = w * covered / summed
                elif w != 1.0:
                    for kid in kids:
                        weight[id(kid)] = w
            count[idx] += 1
            incl[idx] += duration
            self_t[idx] += w * (duration - covered)
            if rec[_PARENT] is None:
                root_time[rec[_OP]] += duration
            if rec[_TAG] is not None:
                tags.setdefault(idx, []).append(rec)
        latency = [end - start for start, end in self.ops]
        residual = sum(max(0.0, lat - roots) for lat, roots in zip(latency, root_time))
        layers: dict[str, float] = {"net.server": residual}
        for name, seconds in zip(names, self_t):
            layer = name.rsplit(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return {
            "count": dict(zip(names, count)),
            "incl": dict(zip(names, incl)),
            "self": dict(zip(names, self_t)),
            "layers": layers,
            "tags": {names[i]: recs for i, recs in tags.items()},
            "latency": sum(latency),
            "residual": residual,
        }

    def metrics(self, **ctx: Any) -> tuple[dict[str, float | None], dict[str, float]]:
        """(the per-layer metrics, each layer's self milliseconds per op)."""
        fold = self.fold()
        view = _View(self, fold, ctx)
        out: dict[str, float | None] = {}
        for name, _unit, _better, formula in PER_LAYER:
            try:
                out[name] = float(formula(view))
            except MissingProbe:
                out[name] = None
        layers = {
            layer: seconds * 1e3 / view.ops
            for layer, seconds in sorted(fold["layers"].items())
        }
        return out, layers

    def write(self, path: str, meta: dict[str, Any]) -> None:
        """Dump the spans (times in microseconds from the first op) as JSON."""
        origin = self.ops[0][0] if self.ops else 0.0
        position = {id(rec): i for i, rec in enumerate(self.spans)}

        def us(t: float) -> int:
            return round((t - origin) * 1e6)

        spans = [
            [rec[_PROBE], us(rec[_START]), us(rec[_END]),
             position.get(id(rec[_PARENT]), -1) if rec[_PARENT] is not None else -1,
             rec[_OP], rec[_TAG]]
            for rec in self.spans[:_MAX_WRITTEN_SPANS]
        ]
        doc = {
            "meta": meta,
            "columns": ["probe", "start_us", "end_us", "parent", "op", "tag"],
            "probes": self._names,
            "missing": self.missing,
            "ops": [[us(s), us(e)] for s, e in self.ops],
            "spans_total": len(self.spans),
            "spans": spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _resolve(target: str) -> tuple[Any, str, Any]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name, inspect.getattr_static(owner, name) if parents else getattr(owner, name)


def _coverage(rec: list, kids: list[list]) -> tuple[float, float]:
    """(union, sum) of the children's intervals, clamped to ``rec``'s own."""
    lo, hi = rec[_START], rec[_END]
    union = summed = 0.0
    reach = lo
    for start, end in sorted((k[_START], k[_END]) for k in kids):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        summed += end - start
        if end > reach:
            union += end - max(start, reach)
            reach = end
    return union, summed


# -- the per-layer metric table ------------------------------------------------------------------


class _View:
    """What a metric formula may read; raises MissingProbe for absent spans."""

    def __init__(self, tracer: Tracer, fold: dict[str, Any], ctx: dict[str, Any]) -> None:
        self.tracer = tracer
        self.fold = fold
        self.ctx = ctx
        self.ops = max(1, ctx["ops"])
        self.commits = max(1, ctx["commits"])
        self.missing = set(tracer.missing)
        before, after = ctx["stats_before"], ctx["stats_after"]
        self._delta = {k: after[k] - before.get(k, 0) for k in after}

    def _need(self, *spans: str) -> None:
        for span in spans:
            if span in self.missing:
                raise MissingProbe(span)

    def count(self, *spans: str) -> int:
        self._need(*spans)
        return sum(self.fold["count"][s] for s in spans)

    def ms(self, *spans: str) -> float:
        """Inclusive milliseconds spent in the named spans."""
        self._need(*spans)
        return sum(self.fold["incl"][s] for s in spans) * 1e3

    def self_ms(self, layer: str) -> float:
        """Self milliseconds of every span of one layer (or one exact span)."""
        spans = [n for n in self.fold["self"] if n == layer or n.rsplit(".", 1)[0] == layer]
        self._need(*spans)
        return sum(self.fold["self"][s] for s in spans) * 1e3

    def tagged(self, span: str) -> list:
        """The spans of one name that carry a tag."""
        self._need(span)
        return self.fold["tags"].get(span, [])

    def tags(self, span: str) -> list:
        return [rec[_TAG] for rec in self.tagged(span)]

    def stat(self, key: str) -> float:
        return self._delta.get(key, 0)

    def ratio(self, num: float, den: float) -> float:
        return num / den if den else 0.0


def _bytes_hit_rate(v: _View) -> float:
    """Hits over lookups of the stores' materialized-bytes caches."""
    gets = v.tags("core.cache.get")
    is_bytes_cache = {ident for ident, holds_bytes in v.tags("core.cache.put") if holds_bytes}
    is_bytes_cache.update(ident for ident, _hit, bytes_hit in gets if bytes_hit)
    hits = lookups = 0
    for ident, hit, _bytes_hit in gets:
        if ident in is_bytes_cache:
            lookups += 1
            hits += hit
    return v.ratio(hits, lookups)


_ATTR_READS = ("core.snapshot.read_latest_attr", "core.snapshot.read_attr", "core.store.read_attr")


def _decoded_hit_rate(v: _View) -> float:
    """Attribute reads served from an already-decoded object (no decode beneath)."""
    v._need("storage.serialization.decode", *_ATTR_READS)
    names = v.tracer._names
    missed = set()
    for rec in v.tracer.spans:
        if rec[_OP] >= 0 and names[rec[_PROBE]] == "storage.serialization.decode":
            up = rec[_PARENT]
            while up is not None:
                if names[up[_PROBE]] in _ATTR_READS:
                    missed.add(id(up))
                    break
                up = up[_PARENT]
    reads = v.count(*_ATTR_READS)
    return v.ratio(reads - len(missed), reads)


def _shards_touched(v: _View) -> float:
    per_op: dict[int, set] = {}
    for rec in v.tagged("shard.router.shard_of"):
        per_op.setdefault(rec[_OP], set()).add(rec[_TAG])
    return sum(len(s) for s in per_op.values()) / v.ops


def _twopc_phase(v: _View, second: bool) -> float:
    """Milliseconds per commit before / after the decision record is durable."""
    v._need("shard.coordinator.commit_global", "core.database.log_decision")
    total = 0.0
    decided = {}
    names = v.tracer._names
    for rec in v.tracer.spans:
        if rec[_OP] >= 0 and names[rec[_PROBE]] == "core.database.log_decision":
            decided[id(rec[_PARENT])] = rec[_END]
    for rec in v.tracer.spans:
        if rec[_OP] >= 0 and names[rec[_PROBE]] == "shard.coordinator.commit_global":
            at = decided.get(id(rec))
            if at is not None:
                total += (rec[_END] - at) if second else (at - rec[_START])
    return total * 1e3 / v.commits


def _task_tags(v: _View) -> list:
    v._need("shard.executor.submit")
    return v.tags("shard.executor.task")


def _gc(v: _View, key: str) -> float:
    cycles = v.ctx["gc_cycles"]
    return v.ratio(sum(c[key] for c in cycles), len(cycles))


def _gc_p95(v: _View, during: bool) -> float:
    cycles = v.ctx["gc_cycles_reference"]
    picked = sorted(
        seconds * 1e3
        for start, seconds in v.ctx["reference"].latencies
        if any(c["start"] <= start <= c["end"] for c in cycles) is during
    )
    if not cycles or not picked:
        return 0.0
    return picked[min(len(picked) - 1, int(0.95 * len(picked)))]


def _overhead(v: _View) -> float:
    traced = v.ctx["traced"].estimates()["cpu_ms_per_op"]
    plain = v.ctx["reference"].estimates()["cpu_ms_per_op"]
    return (traced / plain - 1.0) * 100.0


def _self_sum(v: _View) -> float:
    layers = sum(v.fold["self"].values()) + v.fold["residual"]
    return v.ratio(layers, v.fold["latency"]) * 100.0


_MATERIALIZE = ("core.store.materialize", "core.snapshot.materialize")
_HEAP_WRITES = ("storage.heap.insert", "storage.heap.update", "storage.heap.delete")

#: (name, unit, better, formula).  README.md tabulates which end-to-end
#: metric each of these should move, and on which workload.
PER_LAYER: tuple[tuple[str, str, str, Callable[[_View], float]], ...] = (
    ("net.client.self_ms_per_op", "ms", "lower", lambda v: v.self_ms("net.client") / v.ops),
    ("net.protocol.encode_ms_per_op", "ms", "lower", lambda v: v.ms("net.protocol.encode") / v.ops),
    ("net.protocol.decode_ms_per_op", "ms", "lower", lambda v: v.ms("net.protocol.decode") / v.ops),
    ("net.protocol.wire_bytes_per_op", "B", "lower",
     lambda v: (v.stat("net.bytes_in") + v.stat("net.bytes_out")) / v.ops),
    ("net.server.self_ms_per_op", "ms", "lower", lambda v: v.fold["residual"] * 1e3 / v.ops),
    ("net.server.inline_share", "ratio", "higher",
     lambda v: v.ratio(v.stat("net.snapshot_reads"), v.stat("net.requests"))),
    ("net.server.commits_overlapped_share", "ratio", "higher",
     lambda v: v.ratio(v.stat("net.commits_overlapped"), v.stat("net.commits"))),
    ("shard.router.self_ms_per_op", "ms", "lower", lambda v: v.self_ms("shard.router") / v.ops),
    ("shard.router.shards_touched_per_op", "count", "lower", _shards_touched),
    ("shard.snapshot.cuts_per_op", "count", "lower", lambda v: v.count("shard.snapshot.cut") / v.ops),
    ("shard.snapshot.cut_ms_per_op", "ms", "lower", lambda v: v.ms("shard.snapshot.cut") / v.ops),
    ("shard.executor.tasks_per_op", "count", "lower", lambda v: len(_task_tags(v)) / v.ops),
    ("shard.executor.queue_wait_ms_per_task", "ms", "lower",
     lambda v: v.ratio(sum(w for w, _ in _task_tags(v)) * 1e3, len(_task_tags(v)))),
    ("shard.executor.inline_share", "ratio", "lower",
     lambda v: v.ratio(sum(inline for _, inline in _task_tags(v)), len(_task_tags(v)))),
    ("shard.coordinator.commit_global_ms_per_commit", "ms", "lower",
     lambda v: v.ms("shard.coordinator.commit_global") / v.commits),
    ("shard.coordinator.phase1_ms_per_commit", "ms", "lower", lambda v: _twopc_phase(v, False)),
    ("shard.coordinator.phase2_ms_per_commit", "ms", "lower", lambda v: _twopc_phase(v, True)),
    ("shard.coordinator.prepares_per_commit", "count", "lower",
     lambda v: v.count("core.transactions.prepare") / v.commits),
    ("shard.coordinator.twopc_share", "ratio", "lower",
     lambda v: v.ratio(v.stat("shard.2pc.commits_cross"),
                       v.stat("shard.2pc.commits_cross") + v.stat("shard.2pc.commits_single"))),
    ("core.transactions.commit_self_ms_per_commit", "ms", "lower",
     lambda v: v.self_ms("core.transactions.commit") / v.commits),
    ("core.transactions.lock_acquires_per_op", "count", "lower",
     lambda v: v.stat("locks.acquires") / v.ops),
    ("core.transactions.lock_wait_ms_per_op", "ms", "lower",
     lambda v: v.stat("locks.wait_time") * 1e3 / v.ops),
    ("core.transactions.aborts_per_op", "count", "lower",
     lambda v: v.count("core.transactions.abort") / v.ops),
    ("core.store.materialize_ms_per_op", "ms", "lower", lambda v: v.ms(*_MATERIALIZE) / v.ops),
    ("core.store.materialize_calls_per_op", "count", "lower", lambda v: v.count(*_MATERIALIZE) / v.ops),
    ("core.store.newversion_ms_per_commit", "ms", "lower",
     lambda v: v.ms("core.store.newversion") / v.commits),
    ("core.store.write_version_ms_per_commit", "ms", "lower",
     lambda v: v.ms("core.store.write_version") / v.commits),
    ("core.cache.bytes_hit_rate", "ratio", "higher", _bytes_hit_rate),
    ("core.cache.decoded_hit_rate", "ratio", "higher", _decoded_hit_rate),
    ("core.cache.evictions_per_op", "count", "lower",
     lambda v: (v.stat("cache.bytes_evictions") + v.stat("cache.decoded_evictions")) / v.ops),
    ("core.snapshot.read_latest_attr_ms_per_op", "ms", "lower",
     lambda v: v.ms("core.snapshot.read_latest_attr") / v.ops),
    ("core.snapshot.publish_ms_per_commit", "ms", "lower",
     lambda v: v.ms("core.snapshot.publish") / v.commits),
    ("core.snapshot.publishes_per_commit", "count", "lower",
     lambda v: v.stat("snap.published") / v.commits),
    ("core.gc.collect_ms_per_cycle", "ms", "lower",
     lambda v: v.ratio(sum(c["end"] - c["start"] for c in v.ctx["gc_cycles"]) * 1e3,
                       len(v.ctx["gc_cycles"]))),
    ("core.gc.versions_pruned_per_cycle", "count", "higher", lambda v: _gc(v, "versions_pruned")),
    ("core.gc.blobs_reclaimed_per_cycle", "count", "higher", lambda v: _gc(v, "blobs_reclaimed")),
    ("core.gc.busy_share", "ratio", "lower",
     lambda v: sum(c["end"] - c["start"] for c in v.ctx["gc_cycles"]) / v.ctx["traced"].wall),
    ("core.gc.p95_ms_during_cycle", "ms", "lower", lambda v: _gc_p95(v, True)),
    ("core.gc.p95_ms_outside_cycle", "ms", "lower", lambda v: _gc_p95(v, False)),
    ("storage.wal.append_ms_per_commit", "ms", "lower", lambda v: v.ms("storage.wal.append") / v.commits),
    ("storage.wal.flush_ms_per_commit", "ms", "lower", lambda v: v.ms("storage.wal.flush") / v.commits),
    ("storage.wal.flushes_per_commit", "count", "lower", lambda v: v.stat("wal.flushes") / v.commits),
    ("storage.wal.records_per_commit", "count", "lower", lambda v: v.count("storage.wal.append") / v.commits),
    ("storage.wal.bytes_per_user_byte", "ratio", "lower",
     lambda v: v.ratio(sum(v.tags("storage.wal.encode")), v.ctx["written_bytes"])),
    ("storage.blobs.put_ms_per_commit", "ms", "lower", lambda v: v.ms("storage.blobs.put") / v.commits),
    ("storage.blobs.puts_per_commit", "count", "lower", lambda v: v.count("storage.blobs.put") / v.commits),
    ("storage.blobs.put_dedup_share", "ratio", "higher",
     lambda v: v.ratio(v.stat("blobs.dedup_hits"), v.stat("blobs.puts"))),
    ("storage.blobs.get_ms_per_op", "ms", "lower", lambda v: v.ms("storage.blobs.get") / v.ops),
    ("storage.blobs.gets_per_op", "count", "lower", lambda v: v.count("storage.blobs.get") / v.ops),
    ("storage.blobs.unlinks_per_cycle", "count", "higher",
     lambda v: v.ratio(v.stat("blobs.unlinks"), len(v.ctx["gc_cycles"]))),
    ("storage.delta.compute_ms_per_commit", "ms", "lower",
     lambda v: v.ms("storage.delta.compute") / v.commits),
    ("storage.delta.apply_ms_per_op", "ms", "lower", lambda v: v.ms("storage.delta.apply") / v.ops),
    ("storage.delta.deltas_applied_per_materialize", "count", "lower",
     lambda v: v.ratio(v.count("storage.delta.apply"), v.count(*_MATERIALIZE))),
    ("storage.delta.delta_bytes_per_full_byte", "ratio", "lower",
     lambda v: v.ratio(sum(d for d, _ in v.tags("storage.delta.compute")),
                       sum(t for _, t in v.tags("storage.delta.compute")))),
    ("storage.heap.write_ms_per_commit", "ms", "lower", lambda v: v.ms(*_HEAP_WRITES) / v.commits),
    ("storage.heap.read_ms_per_op", "ms", "lower", lambda v: v.ms("storage.heap.read") / v.ops),
    ("storage.heap.reads_per_op", "count", "lower", lambda v: v.count("storage.heap.read") / v.ops),
    ("storage.buffer.hit_rate", "ratio", "higher",
     lambda v: v.ratio(v.stat("pool.hits"), v.stat("pool.hits") + v.stat("pool.misses"))),
    ("storage.buffer.fetches_per_op", "count", "lower", lambda v: v.count("storage.buffer.fetch") / v.ops),
    ("storage.buffer.evictions_per_op", "count", "lower", lambda v: v.stat("pool.evictions") / v.ops),
    ("storage.disk.page_reads_per_op", "count", "lower", lambda v: v.count("storage.disk.read_page") / v.ops),
    ("storage.disk.page_writes_per_commit", "count", "lower",
     lambda v: v.count("storage.disk.write_page") / v.commits),
    ("storage.serialization.encode_ms_per_op", "ms", "lower",
     lambda v: v.ms("storage.serialization.encode") / v.ops),
    ("storage.serialization.decode_ms_per_op", "ms", "lower",
     lambda v: v.ms("storage.serialization.decode") / v.ops),
    ("device.fsyncs_wal_per_commit", "count", "lower",
     lambda v: v.tracer.device["wal"] / v.ctx["commits_since_start"]),
    ("device.fsyncs_blob_per_commit", "count", "lower",
     lambda v: v.tracer.device["blob"] / v.ctx["commits_since_start"]),
    ("device.fsyncs_disk_per_commit", "count", "lower",
     lambda v: v.tracer.device["disk"] / v.ctx["commits_since_start"]),
    ("client.p95_ms", "ms", "lower", lambda v: v.ctx["client"]["client.p95_ms"]),
    ("client.p99_ms", "ms", "lower", lambda v: v.ctx["client"]["client.p99_ms"]),
    ("client.mean_ops_s", "ops/s", "higher", lambda v: v.ctx["client"]["client.mean_ops_s"]),
    ("client.interference_ratio", "ratio", "lower", lambda v: v.ctx["client"]["client.interference_ratio"]),
    ("client.host_speed", "ratio", "higher", lambda v: v.ctx["client"]["client.host_speed"]),
    ("client.setup_wall_s", "s", "lower", lambda v: v.ctx["client"]["client.setup_wall_s"]),
    ("client.attempted_ops", "count", "higher", lambda v: v.ctx["client"]["client.attempted_ops"]),
    ("client.failed_ops", "count", "lower", lambda v: v.ctx["client"]["client.failed_ops"]),
    ("client.retries_per_op", "count", "lower", lambda v: v.ctx["client"]["client.retries_per_op"]),
    ("trace.overhead_pct", "%", "lower", _overhead),
    ("trace.self_sum_pct", "%", "lower", _self_sum),
    ("trace.probes_missing", "count", "lower", lambda v: len(v.tracer.missing)),
)
