"""The shard executor: one bounded thread pool for every fan-out.

Every cross-shard operation -- fan-out queries, cluster scans, stats
aggregation, and the 2PC prepares -- scatters its per-shard work through one shared :class:`ShardExecutor`
owned by the router.  One pool, sized to the shard count, so the
parallelism budget is a property of the topology rather than of whoever
happens to call first; concurrent fan-outs queue behind each other
instead of multiplying threads.

Why a bespoke pool instead of ``concurrent.futures``:

* **Crash semantics.**  :class:`~repro.storage.faults.SimulatedCrash`
  derives from ``BaseException`` so no ordinary handler can swallow it.
  A worker must catch ``BaseException``, hand the crash back to the
  scattering thread verbatim, and *survive* -- the pool belongs to the
  router, not to the transaction that just "died".
* **Self-reaping workers.**  The crash matrix abandons routers without
  closing them (a dead process closes nothing), so workers are daemon
  threads that exit after an idle timeout; an abandoned pool costs
  nothing within seconds and never pins the interpreter.
* **Nested-scatter inlining.**  A task that itself fans out (a fan-out
  query materialized inside another fan-out) would deadlock a bounded
  pool waiting for workers it occupies.  :meth:`in_worker` lets the
  router detect that and degrade to the serial loop.
* **Queue-wait accounting.**  The ``shard.exec.*`` stats (tasks, max
  observed concurrency, queue-wait p99) are first-class, not bolted on.

The scatter-gather primitive is :meth:`run_all`: submit one task per
item but the last, run that one on the scattering thread, wait for the
rest, and return per-item outcomes so the caller decides how failures
compose (2PC wants "did *any* participant crash";
fan-outs want "fence the lowest failing shard").
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Callable, Sequence

from repro import probe

__all__ = ["ShardExecutor"]

#: Hard cap on pool size regardless of shard count -- beyond this the
#: GIL and the disk stop rewarding extra threads anyway.
_MAX_WORKERS = 16

#: Idle worker lifetime.  Long enough that a steady fan-out workload
#: never respawns, short enough that an abandoned router's daemons
#: disappear promptly.  Read when a worker goes idle, so a test can
#: patch it.
_IDLE_TIMEOUT = 5.0

_pool_ids = itertools.count(1)


class _Task:
    """One scattered unit: a thunk, its outcome, and a completion event."""

    __slots__ = ("fn", "enqueued_at", "done", "result", "error")

    def __init__(self, fn: Callable[[], Any]) -> None:
        self.fn = fn
        self.enqueued_at = time.monotonic()
        self.done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None

    def run(self) -> "_Task":
        """Execute the thunk here; capture its outcome, never raise."""
        try:
            self.result = self.fn()
        except BaseException as exc:  # noqa: BLE001 - crash-carrying
            # SimulatedCrash included: the outcome travels back to the
            # scattering thread; whoever ran the task survives.
            self.error = exc
        self.done.set()
        return self

    def wait(self) -> None:
        self.done.wait()


class ShardExecutor:
    """A bounded, lazily-spawned, self-reaping thread pool.

    ``size`` workers at most (clamped to ``{max_workers}``); workers are
    spawned on demand when a task arrives and no idle worker exists, and
    exit after :data:`_IDLE_TIMEOUT` seconds without work.  ``close()`` is
    best-effort and optional -- an unclosed pool reaps itself.
    """.format(max_workers=_MAX_WORKERS)

    def __init__(self, size: int, name: str | None = None) -> None:
        self.size = max(1, min(int(size), _MAX_WORKERS))
        self.name = name or f"shard-exec-{next(_pool_ids)}"
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: deque[_Task | None] = deque()
        self._workers = 0          # threads alive
        self._idle = 0             # threads blocked waiting for work
        self._running = 0          # tasks mid-execution
        self._closed = False
        self._worker_seq = itertools.count(1)
        self._local = threading.local()
        # -- counters (read by ShardedDatabase.stats) ----------------------
        self._tasks = 0
        self._max_concurrency = 0
        self._workers_spawned = 0
        self._waits_ms = probe.Histogram()

    # -- worker-side ---------------------------------------------------------

    def in_worker(self) -> bool:
        """True on a pool worker thread -- the nested-scatter guard.

        A bounded pool must never *wait* for itself: a task that fans
        out again runs its sub-work inline instead of deadlocking on
        workers it already occupies.
        """
        return getattr(self._local, "in_worker", False)

    def _worker(self) -> None:
        self._local.in_worker = True
        try:
            while True:
                with self._cond:
                    deadline = time.monotonic() + _IDLE_TIMEOUT
                    self._idle += 1
                    try:
                        while not self._queue:
                            if self._closed:
                                return
                            remaining = deadline - time.monotonic()
                            if remaining <= 0:
                                return  # idle reap
                            self._cond.wait(remaining)
                    finally:
                        self._idle -= 1
                    task = self._queue.popleft()
                    if task is None:  # close() sentinel
                        return
                    self._running += 1
                    if self._running > self._max_concurrency:
                        self._max_concurrency = self._running
                    self._waits_ms.record(
                        (time.monotonic() - task.enqueued_at) * 1000.0
                    )
                try:
                    task.run()
                finally:
                    with self._lock:
                        self._running -= 1
        finally:
            with self._cond:
                self._workers -= 1
                self._cond.notify_all()

    # -- submission ----------------------------------------------------------

    def submit(self, fn: Callable[[], Any]) -> _Task:
        """Enqueue ``fn``; spawn a worker if none is idle and the bound
        allows.  A closed pool runs the task inline (degraded, never
        refused -- fan-outs must not start failing because close raced),
        and so does a submission *from a pool worker*: a bounded pool
        waiting on workers it occupies would deadlock, so nested work
        degrades to the caller's thread (the router's ``_scatter`` checks
        :meth:`in_worker` first anyway; this is the backstop)."""
        task = _Task(fn)
        if self.in_worker():
            return task.run()
        with self._cond:
            if self._closed:
                spawn = None
            else:
                self._tasks += 1
                self._queue.append(task)
                # Spawn whenever queued work exceeds the idle workers
                # (up to the bound).  The weaker "spawn only when none
                # idle" starves a burst: a scatter of N tasks arriving
                # at a pool with one parked worker would see it still
                # counted idle for every submission and enqueue all N
                # behind that single thread.
                spawn = (
                    self._workers < self.size
                    and len(self._queue) > self._idle
                )
                if spawn:
                    self._workers += 1
                    self._workers_spawned += 1
                self._cond.notify()
        if spawn is None:
            return task.run()
        if spawn:
            thread = threading.Thread(
                target=self._worker,
                name=f"{self.name}-w{next(self._worker_seq)}",
                daemon=True,
            )
            thread.start()
        return task

    def run_all(
        self, items: Sequence[Any], fn: Callable[[Any], Any]
    ) -> list[tuple[Any, BaseException | None]]:
        """Scatter ``fn(item)`` across the pool; gather every outcome.

        **Caller-runs:** the last item runs on the scattering thread,
        which would otherwise only wait -- N-1 hand-offs, same overlap,
        and a 1-item scatter touches no pool thread.  That item sees
        :meth:`in_worker` true like its pooled siblings, so a nested
        scatter degrades to the serial loop wherever it runs.

        Returns ``[(result, error), ...]`` in ``items`` order -- exactly
        one of the pair is meaningful per item.  Never raises: failure
        composition (which error wins, what cleanup runs) is protocol
        policy and belongs to the caller.
        """
        if not items:
            return []
        tasks = [self.submit(lambda item=item: fn(item)) for item in items[:-1]]
        nested = self.in_worker()
        self._local.in_worker = True
        tasks.append(_Task(lambda: fn(items[-1])).run())  # never raises
        self._local.in_worker = nested
        for task in tasks:
            task.wait()
        return [(task.result, task.error) for task in tasks]

    # -- lifecycle -----------------------------------------------------------

    def close(self, timeout: float = 1.0) -> None:
        """Stop accepting work and wake every worker.  Idempotent,
        best-effort: daemon workers that miss the window reap themselves."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            for _ in range(self._workers):
                self._queue.append(None)
            self._cond.notify_all()
            deadline = time.monotonic() + timeout
            while self._workers:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)

    # -- stats ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> dict[str, Any]:
        """``shard.exec.*`` counters for the router's :meth:`stats`."""
        with self._lock:
            return {
                "shard.exec.size": self.size,
                "shard.exec.tasks": self._tasks,
                "shard.exec.workers": self._workers,
                "shard.exec.workers_spawned": self._workers_spawned,
                "shard.exec.max_concurrency": self._max_concurrency,
                "shard.exec.queue_wait_p99_ms": round(
                    self._waits_ms.quantile(0.99), 3
                ),
            }

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{self._workers} worker(s)"
        return f"ShardExecutor({self.name!r}, size={self.size}, {state})"
