"""The five wire workloads: sizes, op mixes, and the harness ledger.

Every workload is a closed loop of *ops* issued over
:class:`~repro.net.client.OdeConnection` sockets; a ``begin ... commit``
transaction is one op.  The ledger records what every acknowledged write
left behind, so each read is checked inline and the whole store is
re-verified after the run (see ``harness.verify``).

Sizes are chosen for a 2-core sandbox and a ~10 s measured phase; the
``why`` of each workload (which layers it stresses, which it must leave
alone) is in README.md next to the size table.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import persistent
from repro.core.identity import Oid, Vid
from repro.net import protocol
from repro.net.client import OdeConnection, is_retryable

#: Shards behind the router, and wire connections driving it (= nproc).
NSHARDS = 4
NCONNS = 2

#: A transaction op that hits a retryable conflict is re-run this many
#: times before it counts as failed.
MAX_RETRIES = 3

#: Bugs of the store that a workload is steered around, because a benchmark
#: workload may not contain failing ops.  Every report and ledger row names
#: them (``steered_around``); when one is fixed under ``src/``, a
#: benchmark-only change removes its entry, the steering goes with it, and
#: the baseline is measured again.
#:
#: heap-stub-growth: ``HeapFile.update`` of a record that was relocated once
#: and must move again rewrites its forward stub in place.  A stub that
#: points past page 63 is one byte longer than one that does not, and in a
#: packed home page it no longer fits: ``PageFullError``, and the client's
#: ``newversion`` fails.  With i.i.d. object choice ``commit_single`` crosses
#: page 64 mid-run and hit this in 2 of 20 runs (1 op in ~2 000).
KNOWN_STORE_BUGS = {"heap-stub-growth": ("commit_single",)}


@persistent(name="macro.Doc")
class Doc:
    """The benchmark's only persistent type: a slot number and a body."""

    def __init__(self, slot: int = 0, body: bytes = b"") -> None:
        self.slot = slot
        self.body = body


@dataclass(frozen=True)
class Spec:
    """One workload's fixed shape (before ``--scale``)."""

    name: str
    why: str
    objects: int          # persistent objects loaded at set-up
    batches: int          # equal object slices the load runs in (>= 20)
    versions: int         # versions per object built at set-up
    body: int             # body bytes per version
    edit: float           # fraction of the body a new version rewrites
    policy: tuple[str, int]       # StoragePolicy(kind, keyframe_interval)
    cache_budget: int | None      # bytes-cache budget per shard (None: default)
    window: int           # requests in flight per connection
    seg_ops: int          # ops per measured segment, both connections together
    traced_seg_ops: int   # ops per segment of the traced run (1 connection, window 1)
    keep_last_n: int | None = None    # RetentionPolicy; set => one GC cycle per segment


SPECS: dict[str, Spec] = {
    s.name: s
    for s in (
        Spec(
            name="read_latest",
            why="generic reference: cached 1 KiB objects on the inline snapshot lane; WAL, blobs, 2PC and GC idle",
            objects=2000, batches=20, versions=1, body=1024, edit=0.0,
            policy=("full", 16), cache_budget=None, window=8, seg_ops=5376, traced_seg_ops=400,
        ),
        Spec(
            name="read_history",
            why="specific reference: read(vid) over delta chains ~4x larger than the bytes cache (the checkout axis)",
            objects=40, batches=20, versions=24, body=4096, edit=0.01,
            policy=("delta", 16), cache_budget=256 * 1024, window=1, seg_ops=912, traced_seg_ops=200,
        ),
        Spec(
            name="commit_single",
            why="newversion path: one object, one shard, local fast-path commit; delta compute, blob put, WAL, publish",
            objects=2000, batches=20, versions=1, body=2048, edit=0.05,
            policy=("delta", 16), cache_budget=None, window=1, seg_ops=64, traced_seg_ops=14,
        ),
        Spec(
            name="commit_cross",
            why="in-place writes to two objects on different shards: 2PC coordinator and executor scatter on top of the commit path",
            objects=2000, batches=20, versions=1, body=2048, edit=0.05,
            policy=("full", 16), cache_budget=None, window=1, seg_ops=64, traced_seg_ops=12,
        ),
        Spec(
            name="mixed_gc",
            why="80% reads beside 20% newversion commits with retention GC running in the background: invalidation, publish vs pins, reclaim",
            objects=256, batches=32, versions=4, body=2048, edit=0.05,
            policy=("delta", 16), cache_budget=None, window=1, seg_ops=224, traced_seg_ops=40,
            keep_last_n=4,
        ),
    )
}

WORKLOADS = tuple(SPECS)


def scaled(spec: Spec, data_scale: float, ops_scale: float) -> Spec:
    """Apply ``--scale`` (objects and ops) and ``--seconds`` (ops only)."""
    per_batch = max(1, round(spec.objects * data_scale / spec.batches))
    quantum = NCONNS * spec.window
    seg_ops = max(quantum, round(spec.seg_ops * ops_scale / quantum) * quantum)
    return Spec(
        **{
            **spec.__dict__,
            "objects": per_batch * spec.batches,
            "seg_ops": seg_ops,
            "traced_seg_ops": max(1, round(spec.traced_seg_ops * ops_scale)),
        }
    )


# -- the ledger ---------------------------------------------------------------


@dataclass
class Obj:
    """What the harness knows about one persistent object."""

    slot: int
    oid: Oid
    shard: int
    body: bytes                       # content of the latest version
    overhead: int                     # encoded bytes beyond the body
    crcs: dict[int, int] = field(default_factory=dict)   # alive serial -> body crc

    @property
    def latest(self) -> int:
        return max(self.crcs)


class Ledger:
    """Last acknowledged state of every object, plus op accounting."""

    def __init__(self, spec: Spec) -> None:
        self.spec = spec
        self.objs: list[Obj] = []
        self.attempted = 0
        self.failed = 0
        self.retries = 0
        self.commits = 0          # acknowledged commits, set-up included
        self.written_bytes = 0    # body bytes of acknowledged measured writes
        self.errors: list[str] = []

    def record_version(self, obj: Obj, serial: int, body: bytes) -> None:
        obj.body = body
        obj.crcs[serial] = zlib.crc32(body)
        keep = self.spec.keep_last_n
        if keep is not None and len(obj.crcs) > keep:
            for old in sorted(obj.crcs)[:-keep]:
                del obj.crcs[old]

    def user_bytes(self) -> int:
        """Encoded bytes of every version alive per the ledger."""
        return sum(
            len(o.crcs) * (o.overhead + self.spec.body) for o in self.objs
        )

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 8:
            self.errors.append(what)


def edit_body(rng: random.Random, body: bytes, fraction: float) -> bytes:
    """``body`` with one random slice of ``fraction`` of its bytes rewritten."""
    n = max(1, int(len(body) * fraction))
    at = rng.randrange(0, len(body) - n + 1)
    return body[:at] + rng.randbytes(n) + body[at + n:]


# -- ops ----------------------------------------------------------------------
#
# ``Mix.next_op`` returns the connection's next op in one of two forms: a
# read is ``(future, check)`` -- the request is already corked on the
# socket, so a window of them shares one write, and ``check(result)``
# raises on a wrong answer; a transaction is a coroutine that raises on
# failure.  Neither form retries reads: a failed op counts as failed.


def check_doc(obj: Obj, serial: int, doc: Any) -> None:
    if type(doc) is not Doc or doc.slot != obj.slot:
        raise AssertionError(f"slot {obj.slot}: read returned {doc!r:.60}")
    if zlib.crc32(doc.body) != obj.crcs[serial]:
        raise AssertionError(f"slot {obj.slot} v{serial}: body crc mismatch")


def read_attr(conn: OdeConnection, obj: Obj):
    def check(value: Any) -> None:
        if value != obj.slot:
            raise AssertionError(f"slot {obj.slot}: attr read returned {value!r}")

    return conn.send(protocol.OP_READ, (obj.oid, "slot")), check


def read_object(conn: OdeConnection, obj: Obj):
    serial = obj.latest
    return (
        conn.send(protocol.OP_READ, (obj.oid, None)),
        lambda doc: check_doc(obj, serial, doc),
    )


def read_version(conn: OdeConnection, obj: Obj, serial: int):
    return (
        conn.send(protocol.OP_READ, (Vid(obj.oid, serial), None)),
        lambda doc: check_doc(obj, serial, doc),
    )


async def commit_newversion(
    conn: OdeConnection, ledger: Ledger, obj: Obj, body: bytes
) -> None:
    await conn.begin()
    vid = await conn.newversion(obj.oid)
    await conn.write(vid, "body", body)
    await conn.commit()
    ledger.commits += 1
    ledger.written_bytes += len(body)
    ledger.record_version(obj, vid.serial, body)


async def commit_pair(
    conn: OdeConnection, ledger: Ledger, a: Obj, b: Obj, body_a: bytes, body_b: bytes
) -> None:
    await conn.begin()
    await conn.write(a.oid, "body", body_a)
    await conn.write(b.oid, "body", body_b)
    await conn.commit()
    ledger.commits += 1
    ledger.written_bytes += len(body_a) + len(body_b)
    ledger.record_version(a, a.latest, body_a)
    ledger.record_version(b, b.latest, body_b)


async def transactional(conn: OdeConnection, ledger: Ledger, run: Callable) -> None:
    """Run one transaction op, re-running it on a retryable conflict."""
    for attempt in range(MAX_RETRIES + 1):
        try:
            await run()
            return
        except Exception as exc:
            try:
                await conn.abort()
            except Exception:
                pass  # nothing open (the failure was the commit itself)
            if attempt == MAX_RETRIES or not is_retryable(exc):
                raise
            ledger.retries += 1


class Mix:
    """One connection's op stream for one workload."""

    def __init__(self, ledger: Ledger, conn_idx: int, seed: int) -> None:
        self.ledger = ledger
        self.spec = ledger.spec
        self.rng = random.Random(f"{seed}:{self.spec.name}:conn{conn_idx}")
        objs = ledger.objs
        #: Writes stay inside the connection's own partition (no lock
        #: conflicts between connections); every partition spans all shards.
        self.mine = [o for o in objs if (o.slot // NSHARDS) % NCONNS == conn_idx]
        self.by_shard: dict[int, list[Obj]] = {}
        for o in self.mine:
            self.by_shard.setdefault(o.shard, []).append(o)
        #: Steering around heap-stub-growth: the partition is walked in one
        #: shuffled cycle, so no object-table record is relocated twice.
        self.cycle: list[Obj] | None = None
        if self.spec.name in KNOWN_STORE_BUGS["heap-stub-growth"]:
            self.cycle = list(self.mine)
            self.rng.shuffle(self.cycle)

    def next_op(self, conn: OdeConnection):
        """The next op: ``(future, check)`` for a read, a coroutine for a txn."""
        name = self.spec.name
        rng = self.rng
        ledger = self.ledger
        if name == "read_latest":
            obj = rng.choice(ledger.objs)
            return read_attr(conn, obj) if rng.random() < 0.8 else read_object(conn, obj)
        if name == "read_history":
            obj = rng.choice(ledger.objs)
            return read_version(conn, obj, rng.choice(list(obj.crcs)))
        if name == "commit_single":
            if self.cycle is None:
                return self._newversion(conn, rng.choice(self.mine))
            return self._newversion(conn, self.cycle.pop())   # harness.run sized the table
        if name == "commit_cross":
            sa, sb = rng.sample(sorted(self.by_shard), 2)
            a, b = rng.choice(self.by_shard[sa]), rng.choice(self.by_shard[sb])
            body_a = edit_body(rng, a.body, self.spec.edit)
            body_b = edit_body(rng, b.body, self.spec.edit)
            return transactional(
                conn, ledger, lambda: commit_pair(conn, ledger, a, b, body_a, body_b)
            )
        if name == "mixed_gc":
            obj = rng.choice(self.mine)
            roll = rng.random()
            if roll < 0.2:
                return self._newversion(conn, obj)
            if roll < 0.6:
                return read_attr(conn, obj)
            return read_version(conn, obj, rng.choice(list(obj.crcs)))
        raise ValueError(f"unknown workload {name!r}")

    def _newversion(self, conn: OdeConnection, obj: Obj):
        body = edit_body(self.rng, obj.body, self.spec.edit)
        ledger = self.ledger
        return transactional(
            conn, ledger, lambda: commit_newversion(conn, ledger, obj, body)
        )
