"""Cooperative scheduler: one runnable thread at a time, chosen explicitly.

The explorer (see :mod:`repro.verify.explorer`) runs a concurrency
scenario under this scheduler to make thread interleaving a pure function
of a *decision sequence*: at every step exactly one registered thread
runs, and whenever more than one is runnable the scheduler consults its
schedule (an explicit list of choice indices, a seeded RNG, or the
default "always pick the first") to decide which.  Replaying the same
decision sequence against the same scenario reproduces the same
interleaving byte for byte.

Thread lifecycle (states of :class:`_ThreadState`):

``new``
    Spawned, not yet arrived at its start point.
``parked``
    Stopped at a yield point (:func:`repro.probe.point`), runnable --
    waiting for the scheduler's grant.
``blocked``
    Inside a lock wait (:func:`repro.probe.wait` or the
    scheduler-aware storage mutex).  Not runnable: granting it would just
    spin.  A wake event (:func:`repro.probe.notify`, fired
    after lock releases) promotes it to ``wake``.
``wake``
    Blocked but wake-pending: runnable.  When granted it retries its
    acquisition; if still blocked it re-parks as ``blocked`` -- at most
    one retry per wake event, so there is no spinning and the candidate
    set stays deterministic.
``running`` / ``finished``
    Exactly one thread runs at a time; the controller waits for it to
    yield (park, block, or finish) before taking the next decision.

The *candidate set* at each decision is the parked + wake threads in
spawn order; a decision is an index into that list.  The recorded
``decisions`` list of ``(choice, branching)`` pairs is what the explorer
enumerates (exhaustive DFS) or minimizes (failure repro).
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable

from repro import probe

NEW = "new"
PARKED = "parked"
BLOCKED = "blocked"
WAKE = "wake"
RUNNING = "running"
FINISHED = "finished"

_RUNNABLE = (PARKED, WAKE)


class SchedulerStuck(RuntimeError):
    """The scheduled run cannot make progress (harness-level deadlock)."""


class _ThreadState:
    __slots__ = ("name", "thread", "state", "point", "grant", "result", "error")

    def __init__(self, name: str) -> None:
        self.name = name
        self.thread: threading.Thread | None = None
        self.state = NEW
        self.point = "<new>"
        self.grant = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None


class _SchedulerMutex:
    """Storage-mutex stand-in installed while a scheduler is attached.

    The real storage mutex is a C-level RLock: a registered thread parked
    at a sched point *inside* a storage-mutex region would hold it natively
    and any other granted thread touching storage would block the whole
    harness.  This wrapper turns contention into a cooperative ``blocked``
    park instead, and turns release into a wake event.  Re-entrancy comes
    from the inner RLock (a non-blocking acquire by the owner succeeds).
    Unregistered threads (scenario setup/teardown) fall through to native
    blocking.
    """

    def __init__(self, scheduler: "CooperativeScheduler") -> None:
        self._inner = threading.RLock()
        self._sched = scheduler

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if self._inner.acquire(blocking=False):
            return True
        if not blocking:
            return False
        if self._sched._current() is None:
            return self._inner.acquire(True, timeout)
        while not self._inner.acquire(blocking=False):
            self._sched._yield_blocked("storage-mutex")
        return True

    def release(self) -> None:
        self._inner.release()
        self._sched.notify()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()


class CooperativeScheduler(probe.Observer):
    """Serialize registered threads at named yield points.

    The probe plane's second observer: it parks at yield points only and
    passes crash, write and error points by.

    Parameters
    ----------
    schedule:
        Explicit choice indices consumed decision by decision.  Positions
        beyond the list fall back to the RNG (if seeded) or to choice 0.
        Out-of-range indices clamp to the last candidate, so a schedule
        recorded against one run shape replays safely against another.
    seed:
        Seed for random choices beyond the explicit schedule prefix.
    max_steps:
        Backstop against runaway scenarios.
    wall_timeout:
        Wall-clock bound on the whole run; expiry raises
        :class:`SchedulerStuck` (a reportable harness finding, not a
        scenario verdict).
    """

    def __init__(
        self,
        schedule: list[int] | None = None,
        seed: int | None = None,
        max_steps: int = 20000,
        wall_timeout: float = 30.0,
    ) -> None:
        self._mon = threading.Condition()
        self._order: list[_ThreadState] = []
        self._by_ident: dict[int, _ThreadState] = {}
        self._schedule = list(schedule or ())
        self._rng = random.Random(seed) if seed is not None else None
        self._max_steps = max_steps
        self._wall_timeout = wall_timeout
        self._running: _ThreadState | None = None
        self._forced_wakes = 0
        self._finished_seen = 0
        #: (thread name, yield point) per granted step, in order.
        self.trace: list[tuple[str, str]] = []
        #: (chosen index, candidate count) per decision, in order.
        self.decisions: list[tuple[int, int]] = []

    # -- registration ----------------------------------------------------------

    def spawn(self, name: str, fn: Callable[..., Any], *args: Any) -> None:
        """Register and start a scenario thread; it parks until granted."""
        st = _ThreadState(name)
        self._order.append(st)

        def body() -> None:
            with self._mon:
                self._by_ident[threading.get_ident()] = st
            self._park(st, "start", PARKED)
            try:
                st.result = fn(*args)
            except BaseException as exc:  # collected, reported by run()
                st.error = exc
            finally:
                with self._mon:
                    st.state = FINISHED
                    self._mon.notify_all()

        st.thread = threading.Thread(target=body, name=f"sched-{name}", daemon=True)
        st.thread.start()

    def _current(self) -> _ThreadState | None:
        return self._by_ident.get(threading.get_ident())

    # -- probe hooks (called from instrumented kernel code) ---------------------

    def point(self, name: str) -> None:
        if probe.POINTS[name] != probe.YIELD:
            return
        st = self._current()
        if st is None:
            return
        self._park(st, name, PARKED)

    def wait(self, cond: threading.Condition, timeout: float | None) -> bool:
        st = self._current()
        if st is None:
            return cond.wait(timeout)
        cond.release()
        try:
            self._park(st, "lock-wait", BLOCKED)
        finally:
            cond.acquire()
        return True

    def notify(self) -> None:
        with self._mon:
            for st in self._order:
                if st.state == BLOCKED:
                    st.state = WAKE

    def _yield_blocked(self, what: str) -> None:
        st = self._current()
        assert st is not None
        self._park(st, what, BLOCKED)

    def _park(self, st: _ThreadState, point: str, state: str) -> None:
        with self._mon:
            st.point = point
            st.state = state
            self._mon.notify_all()
        st.grant.wait()
        st.grant.clear()

    # -- instrumentation -------------------------------------------------------

    def instrument(self, db: Any) -> Callable[[], None]:
        """Swap ``db``'s storage mutex for a scheduler-aware one.

        Returns a restore callable; call it (after :meth:`run`, before any
        further use of ``db``) to put the original RLock back so detached
        operation keeps its zero-overhead native mutex.
        """
        original = db._storage_mutex
        db._storage_mutex = _SchedulerMutex(self)

        def restore() -> None:
            db._storage_mutex = original

        return restore

    # -- the controller --------------------------------------------------------

    def run(self) -> None:
        """Drive all spawned threads to completion, one grant at a time.

        Call from the controlling (unregistered) thread after
        ``probe.attach(self)`` and all :meth:`spawn` calls.  Scenario
        thread exceptions are captured on their ``_ThreadState`` (see
        :attr:`errors`), not raised here; :class:`SchedulerStuck` is
        raised for harness-level deadlock or timeout.
        """
        deadline = time.monotonic() + self._wall_timeout
        self._await(deadline, lambda: all(st.state != NEW for st in self._order))
        while True:
            chosen = self._next_grant(deadline)
            if chosen is None:
                break
            chosen.grant.set()
        for st in self._order:
            assert st.thread is not None
            st.thread.join(timeout=max(0.0, deadline - time.monotonic()) + 1.0)

    def _next_grant(self, deadline: float) -> _ThreadState | None:
        with self._mon:
            self._await_locked(
                deadline,
                lambda: self._running is None or self._running.state != RUNNING,
            )
            self._running = None
            live = [st for st in self._order if st.state != FINISHED]
            if not live:
                return None
            # Progress = a thread parked at a real sched point or finished;
            # WAKE threads that merely re-block do not count, so a true
            # cross-thread deadlock (not resolved by the lock manager)
            # surfaces as SchedulerStuck instead of spinning to the step
            # limit on forced retries.
            finished = sum(1 for st in self._order if st.state == FINISHED)
            if finished > self._finished_seen or any(
                st.state == PARKED for st in self._order
            ):
                self._forced_wakes = 0
                self._finished_seen = finished
            runnable = [st for st in self._order if st.state in _RUNNABLE]
            if not runnable:
                self._forced_wakes += 1
                if self._forced_wakes > 4 * len(self._order) + 8:
                    raise SchedulerStuck(
                        "no runnable threads: "
                        + ", ".join(f"{st.name}={st.state}@{st.point}" for st in live)
                    )
                for st in live:
                    if st.state == BLOCKED:
                        st.state = WAKE
                runnable = [st for st in self._order if st.state in _RUNNABLE]
                if not runnable:
                    raise SchedulerStuck(
                        "threads neither runnable nor wakeable: "
                        + ", ".join(f"{st.name}={st.state}@{st.point}" for st in live)
                    )
            if len(self.trace) >= self._max_steps:
                raise SchedulerStuck(f"step limit {self._max_steps} exceeded")
            chosen = runnable[self._choose(len(runnable))]
            self.trace.append((chosen.name, chosen.point))
            chosen.state = RUNNING
            self._running = chosen
            return chosen

    def _choose(self, n: int) -> int:
        i = len(self.decisions)
        if i < len(self._schedule):
            choice = min(self._schedule[i], n - 1)
        elif self._rng is not None:
            choice = self._rng.randrange(n)
        else:
            choice = 0
        self.decisions.append((choice, n))
        return choice

    def _await(self, deadline: float, pred: Callable[[], bool]) -> None:
        with self._mon:
            self._await_locked(deadline, pred)

    def _await_locked(self, deadline: float, pred: Callable[[], bool]) -> None:
        while not pred():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                states = ", ".join(
                    f"{st.name}={st.state}@{st.point}" for st in self._order
                )
                raise SchedulerStuck(f"wall-clock timeout ({states})")
            self._mon.wait(min(remaining, 0.5))

    # -- results ---------------------------------------------------------------

    @property
    def errors(self) -> dict[str, BaseException]:
        """Uncaught exceptions per scenario thread (empty on clean runs)."""
        return {st.name: st.error for st in self._order if st.error is not None}

    @property
    def results(self) -> dict[str, Any]:
        """Return values per scenario thread."""
        return {st.name: st.result for st in self._order}
