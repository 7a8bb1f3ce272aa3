"""Unit tests for the cooperative scheduler and its kernel hooks."""

from __future__ import annotations

import pytest

from repro import probe
from repro.verify.scheduler import CooperativeScheduler, SchedulerStuck


@pytest.fixture
def attached():
    """Attach a fresh scheduler for the test; always detach after."""

    def make(**kwargs) -> CooperativeScheduler:
        sched = CooperativeScheduler(**kwargs)
        probe.attach(sched)
        return sched

    yield make
    probe.detach()


#: Step labels -> the declared yield points the steppers park at.
_YIELDS = {"p1": "txn.lock", "p2": "txn.commit", "p3": "txn.release", "p": "snap.read"}


def _stepper(points: list[str], out: list[str], tag: str):
    def body() -> str:
        for point in points:
            probe.point(_YIELDS[point])
            out.append(f"{tag}:{point}")
        return tag

    return body


def test_unattached_hooks_are_noops():
    assert probe.attached() is None
    probe.point("txn.commit")  # must fall straight through
    probe.notify()


def test_default_schedule_runs_threads_in_spawn_order(attached):
    out: list[str] = []
    sched = attached()
    sched.spawn("A", _stepper(["p1", "p2"], out, "A"))
    sched.spawn("B", _stepper(["p1", "p2"], out, "B"))
    sched.run()
    # Choice 0 at every decision: A runs to completion, then B.
    assert out == ["A:p1", "A:p2", "B:p1", "B:p2"]
    assert sched.errors == {}
    assert sched.results == {"A": "A", "B": "B"}


def test_explicit_schedule_controls_interleaving(attached):
    out: list[str] = []
    # Decision 1 at the first step picks B (candidates sorted in spawn
    # order), then default-0 choices let the remaining steps interleave
    # deterministically.
    sched = attached(schedule=[1])
    sched.spawn("A", _stepper(["p1", "p2"], out, "A"))
    sched.spawn("B", _stepper(["p1", "p2"], out, "B"))
    sched.run()
    # The first grant released B from its start park, ahead of A.
    assert sched.trace[0] == ("B", "start")
    assert sched.decisions[0] == (1, 2)
    # Preferring B at every decision runs B to completion first.
    b_first = CooperativeScheduler(schedule=[1] * 8)
    probe.detach()
    probe.attach(b_first)
    out2: list[str] = []
    b_first.spawn("A", _stepper(["p1", "p2"], out2, "A"))
    b_first.spawn("B", _stepper(["p1", "p2"], out2, "B"))
    b_first.run()
    assert out2 == ["B:p1", "B:p2", "A:p1", "A:p2"]


def test_same_schedule_replays_identical_trace(attached):
    def run_once(schedule):
        sched = CooperativeScheduler(schedule=schedule)
        probe.attach(sched)
        try:
            out: list[str] = []
            sched.spawn("A", _stepper(["p1", "p2", "p3"], out, "A"))
            sched.spawn("B", _stepper(["p1", "p2", "p3"], out, "B"))
            sched.run()
            return out, list(sched.trace), list(sched.decisions)
        finally:
            probe.detach()

    probe.detach()  # run_once manages its own attach/detach
    first = run_once([1, 0, 1, 1])
    second = run_once([1, 0, 1, 1])
    assert first == second


def test_seeded_schedules_are_deterministic(attached):
    def run_once(seed):
        sched = CooperativeScheduler(seed=seed)
        probe.attach(sched)
        try:
            out: list[str] = []
            sched.spawn("A", _stepper(["p"] * 4, out, "A"))
            sched.spawn("B", _stepper(["p"] * 4, out, "B"))
            sched.run()
            return out, list(sched.decisions)
        finally:
            probe.detach()

    probe.detach()
    assert run_once(7) == run_once(7)


def test_out_of_range_choices_clamp(attached):
    out: list[str] = []
    sched = attached(schedule=[99, 99, 99])
    sched.spawn("A", _stepper(["p1"], out, "A"))
    sched.spawn("B", _stepper(["p1"], out, "B"))
    sched.run()  # must terminate; 99 clamps to the last candidate
    assert sorted(out) == ["A:p1", "B:p1"]


def test_unregistered_threads_pass_through(attached):
    attached()
    # The test's own (unregistered) thread hits a yield point: no parking.
    probe.point("txn.commit")


def test_wall_timeout_raises_scheduler_stuck(attached):
    import threading

    gate = threading.Event()
    sched = attached(wall_timeout=0.3)

    def stall() -> None:
        probe.point("txn.prepare")
        gate.wait(10.0)  # blocks natively, invisible to the scheduler

    sched.spawn("A", stall)
    try:
        with pytest.raises(SchedulerStuck):
            sched.run()
    finally:
        gate.set()


def test_fault_points_do_not_park(attached):
    """Only yield points are scheduling decisions: a registered thread
    passes crash, write and error points by."""
    sched = attached()

    def body() -> None:
        probe.point("wal.append")
        probe.point("wal.flush.fsync")
        probe.point("txn.commit")

    sched.spawn("A", body)
    sched.run()
    assert sched.errors == {}
    assert [point for _, point in sched.trace] == ["start", "txn.commit"]
