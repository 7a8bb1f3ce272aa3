"""Parallel cross-shard execution: the executor, the cut, the races.

Three promises under test (the E16 tentpole):

* the shared :class:`~repro.shard.executor.ShardExecutor` scatters
  fan-out work with exact serial semantics -- ordered results, crash
  outcomes carried back verbatim, nested scatters inlined, workers
  bounded and self-reaping, never leaked;
* a :class:`~repro.shard.snapshot.GlobalSnapshot` is one **consistent
  cut**: a writer committing across two shards mid-fan-out is entirely
  visible or entirely invisible, never half (the acceptance regression);
* the parallel paths survive the same chaos the serial ones did --
  ``kill_shard`` racing a fan-out degrades or fences, a crash landing
  mid-parallel-prepare still resolves to a clean presumed abort.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import PersistentObject, persistent, probe
from repro.core.query import Query
from repro.errors import ShardUnavailableError
from repro.shard import ShardedDatabase, ShardExecutor, executor
from repro.storage.faults import FaultInjector, FaultPlan, SimulatedCrash


@persistent(name="tests.shard.PxAcct")
class PxAcct(PersistentObject):
    def __init__(self, bal: int = 0, tag: int = 0) -> None:
        self.bal = bal
        self.tag = tag


@pytest.fixture
def trio(tmp_path):
    """A 3-shard database with one account homed on each shard."""
    router = ShardedDatabase(tmp_path / "shards", nshards=3)
    refs = [router.pnew(PxAcct(bal=100, tag=i)) for i in range(3)]
    by_home = {router.placement.shard_of(r.oid): r.oid for r in refs}
    assert set(by_home) == {0, 1, 2}
    router.checkpoint()
    yield router, by_home
    router.close()


# -- the executor itself ------------------------------------------------------


def test_run_all_preserves_item_order():
    exe = ShardExecutor(4)
    try:
        outcomes = exe.run_all(list(range(8)), lambda i: i * i)
        assert [r for r, _ in outcomes] == [i * i for i in range(8)]
        assert all(err is None for _, err in outcomes)
    finally:
        exe.close()


def test_run_all_carries_errors_without_raising():
    exe = ShardExecutor(4)
    try:
        def boom(i):
            if i == 2:
                raise ValueError(f"shard {i}")
            return i

        outcomes = exe.run_all([0, 1, 2, 3], boom)
        assert [r for r, _ in outcomes[:2]] == [0, 1]
        assert isinstance(outcomes[2][1], ValueError)
        assert outcomes[3] == (3, None)
    finally:
        exe.close()


def test_simulated_crash_travels_back_and_the_worker_survives():
    """SimulatedCrash is a BaseException: an ordinary pool would lose the
    worker (or the crash).  Ours hands it back and keeps serving."""
    exe = ShardExecutor(2)
    try:
        def die(i):
            raise SimulatedCrash("injected")

        outcomes = exe.run_all([0, 1], die)
        assert all(isinstance(err, SimulatedCrash) for _, err in outcomes)
        # The same workers take the next batch -- nothing died with the task.
        again = exe.run_all([10, 20], lambda i: i + 1)
        assert [r for r, _ in again] == [11, 21]
        assert exe.stats()["shard.exec.workers_spawned"] <= 2
    finally:
        exe.close()


def test_nested_scatter_runs_inline_not_deadlocked():
    """A task that fans out again must not wait on workers it occupies."""
    exe = ShardExecutor(1)  # one worker: a nested wait would deadlock
    try:
        def outer(i):
            assert exe.in_worker()
            inner = exe.run_all([1, 2, 3], lambda j: j * 10)
            return [r for r, _ in inner]

        # Guard with a timeout by doing the wait ourselves.
        done = threading.Event()
        result: list = []

        def drive():
            result.append(exe.run_all([0], outer))
            done.set()

        t = threading.Thread(target=drive, daemon=True)
        t.start()
        assert done.wait(5.0), "nested scatter deadlocked the bounded pool"
        assert result[0][0][0] == [10, 20, 30]
    finally:
        exe.close()


def test_workers_are_bounded_and_reaped(monkeypatch):
    monkeypatch.setattr(executor, "_IDLE_TIMEOUT", 0.05)
    exe = ShardExecutor(3)
    try:
        exe.run_all(list(range(12)), lambda i: time.sleep(0.01) or i)
        stats = exe.stats()
        assert stats["shard.exec.size"] == 3
        assert stats["shard.exec.workers"] <= 3
        assert stats["shard.exec.max_concurrency"] <= 3
        assert stats["shard.exec.tasks"] == 11  # the 12th ran on the caller
        # Idle reap: without close(), the daemons exit on their own.
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            if exe.stats()["shard.exec.workers"] == 0:
                break
            time.sleep(0.02)
        assert exe.stats()["shard.exec.workers"] == 0, "idle workers not reaped"
    finally:
        exe.close()


def test_closed_pool_runs_inline():
    exe = ShardExecutor(2)
    exe.close()
    outcomes = exe.run_all([1, 2], lambda i: i + 100)
    assert [r for r, _ in outcomes] == [101, 102]


# -- caller-runs scatter --------------------------------------------------------


def test_caller_runs_the_last_item_and_outcomes_keep_item_order():
    """N items cost N-1 pool hand-offs: the last runs on the scattering
    thread, the rest on pool workers, and outcomes come back in item
    order whichever finished first."""
    exe = ShardExecutor(4)
    try:
        def where(i):
            if i < 3:
                time.sleep(0.02 * (3 - i))  # pooled items finish in reverse
            return i, threading.get_ident()

        outcomes = exe.run_all([0, 1, 2, 3], where)
        assert [r[0] for r, _ in outcomes] == [0, 1, 2, 3]
        me = threading.get_ident()
        assert outcomes[3][0][1] == me, "the last item must run on the caller"
        assert all(r[1] != me for r, _ in outcomes[:3]), "the rest are pooled"
        assert exe.stats()["shard.exec.tasks"] == 3, "only submits are pool traffic"
        assert not exe.in_worker(), "the caller's worker mark must not leak"
    finally:
        exe.close()


def test_single_item_scatter_touches_no_pool_thread():
    exe = ShardExecutor(4)
    try:
        assert exe.run_all([7], lambda i: (i, threading.get_ident())) == [
            ((7, threading.get_ident()), None)
        ]
        assert exe.run_all([], lambda i: i) == []
        stats = exe.stats()
        assert stats["shard.exec.workers_spawned"] == 0
        assert stats["shard.exec.tasks"] == 0
    finally:
        exe.close()


@pytest.mark.parametrize("victim", [0, 2], ids=["pooled-item", "caller-run-item"])
def test_crash_travels_back_verbatim_from_either_side(victim):
    """SimulatedCrash on a pooled item *or* on the caller-run item is an
    outcome, never an exception out of run_all; every sibling's outcome
    is still gathered, and the pool serves the next scatter."""
    exe = ShardExecutor(3)
    try:
        crash = SimulatedCrash("injected")

        def maybe_die(i):
            if i == victim:
                raise crash
            return i * 10

        outcomes = exe.run_all([0, 1, 2], maybe_die)
        for i, (result, err) in enumerate(outcomes):
            if i == victim:
                assert err is crash and result is None
            else:
                assert (result, err) == (i * 10, None)
        assert not exe.in_worker()
        assert [r for r, _ in exe.run_all([1, 2], lambda i: -i)] == [-1, -2]
    finally:
        exe.close()


def test_nested_scatter_from_the_caller_run_item_degrades_inline():
    """The caller-run item sees in_worker() like its pooled siblings, so
    a nested scatter runs inline on whichever thread hosts the item --
    and the mark is restored to what it was, at every nesting depth."""
    exe = ShardExecutor(2)
    try:
        def outer(i):
            assert exe.in_worker()
            here = threading.get_ident()
            inner = exe.run_all(
                [1, 2, 3], lambda j: (i * 10 + j, threading.get_ident() == here)
            )
            assert exe.in_worker(), "an inner scatter must not clear the mark"
            return [r for r, _ in inner]

        outcomes = exe.run_all([1, 2], outer)
        assert [err for _, err in outcomes] == [None, None]
        assert outcomes[0][0] == [(11, True), (12, True), (13, True)]
        assert outcomes[1][0] == [(21, True), (22, True), (23, True)]
        assert not exe.in_worker()
        # Only the outer pooled item was handed to a pool thread.
        assert exe.stats()["shard.exec.workers_spawned"] == 1
    finally:
        exe.close()


# -- the consistent cut (the acceptance regression) ---------------------------


def test_global_snapshot_is_one_consistent_cut(trio):
    """A cross-shard transfer mid-fan-out is entirely visible or entirely
    invisible: every cut conserves the total, none shows a torn half."""
    router, oids = trio
    a, b = router.deref(oids[0]), router.deref(oids[1])
    total = a.bal + b.bal
    stop = threading.Event()
    writer_errors: list[BaseException] = []

    def transfer_loop():
        sess = router.session(name="cut-writer")
        try:
            with sess.activate():
                while not stop.is_set():
                    with router.transaction():
                        a.bal -= 1
                        b.bal += 1
        except BaseException as exc:  # pragma: no cover - surfaced below
            writer_errors.append(exc)
        finally:
            sess.close()

    t = threading.Thread(target=transfer_loop, daemon=True)
    t.start()
    try:
        for _ in range(50):
            with router.snapshot() as cut:
                seen = cut.read_latest_attr(oids[0], "bal") + cut.read_latest_attr(
                    oids[1], "bal"
                )
                assert seen == total, (
                    f"torn cut: sum {seen} != {total} -- a cross-shard "
                    "commit was half-visible"
                )
    finally:
        stop.set()
        t.join(10.0)
    assert not writer_errors, writer_errors
    stats = router.stats()
    assert stats["shard.snap.cuts"] >= 50


def test_snapshot_read_transaction_reads_at_its_begin_cut(trio):
    """A snapshot-read global transaction observes one global point even
    while a concurrent writer commits across shards under it."""
    router, oids = trio
    gtxn = router.begin(snapshot_reads=True)
    try:
        before_a = router.deref(oids[0]).bal
        # A rival commits a cross-shard transfer while our txn is open.
        done = threading.Event()

        def rival():
            sess = router.session(name="rival")
            with sess.activate():
                with router.transaction():
                    router.deref(oids[0]).bal = 1
                    router.deref(oids[1]).bal = 199
            sess.close()
            done.set()

        threading.Thread(target=rival, daemon=True).start()
        assert done.wait(10.0)
        # Both shards still serve the begin-time cut.
        assert router.deref(oids[0]).bal == before_a == 100
        assert router.deref(oids[1]).bal == 100
    finally:
        gtxn.abort()
    # Outside the transaction the rival's write is visible on both sides.
    assert router.deref(oids[0]).bal == 1
    assert router.deref(oids[1]).bal == 199


def test_reader_epoch_spans_shards_and_down_shard_is_minus_one(trio):
    router, oids = trio
    sess = router.session(name="epoch-probe")
    with sess.activate():
        reader = sess.pin()
        assert len(reader.epoch) == 3
        assert all(e >= 0 for e in reader.epoch)
    router.kill_shard(2)
    with sess.activate():
        assert sess.reader().epoch[2] == -1
    sess.close()


# -- one failure rule for every fan-out ---------------------------------------


@pytest.mark.parametrize("surface", ["router", "cut"])
def test_fanout_query_fails_by_the_scatter_rule(tmp_path, monkeypatch, surface):
    """A query's parts fail on shard 1 (plain error) and shard 3 (simulated
    crash): materializing raises the crash, as every other scatter does --
    not the first failing part."""
    router = ShardedDatabase(tmp_path / "shards", nshards=4)
    try:
        for i in range(8):
            router.pnew(PxAcct(tag=i))
        cut = router.snapshot() if surface == "cut" else None
        host = router if cut is None else cut
        sources = router.shards if cut is None else cut.parts
        real_iter = Query.__iter__

        def failing_iter(query):
            if query._store is sources[1]:
                raise ValueError("shard 1 failed")
            if query._store is sources[3]:
                raise SimulatedCrash("shard 3 crashed")
            return real_iter(query)

        monkeypatch.setattr(Query, "__iter__", failing_iter)
        with pytest.raises(SimulatedCrash, match="shard 3"):
            host.query(PxAcct).all()
        monkeypatch.undo()
        assert sorted(acct.tag for acct in host.query(PxAcct)) == list(range(8))
        if cut is not None:
            cut.close()
    finally:
        router.close()


# -- chaos: fan-outs and 2PC racing shard death -------------------------------


def test_fanout_racing_kill_shard_degrades_and_never_deadlocks(trio):
    """Queries fan out in parallel while a shard dies under them: each
    fan-out either degrades (partial results, counted) or fences to
    ShardUnavailableError -- and the executor neither deadlocks nor
    leaks workers."""
    router, oids = trio
    with router.transaction():
        for i in range(30):
            router.pnew(PxAcct(bal=i, tag=100 + i))
    stop = threading.Event()
    problems: list[str] = []

    def hammer():
        while not stop.is_set():
            try:
                n = sum(1 for _ in router.query(PxAcct))
                if not 0 <= n <= 33:
                    problems.append(f"impossible fan-out count {n}")
                router.stats()
            except ShardUnavailableError:
                pass  # fenced: the documented failure shape
            except BaseException as exc:  # pragma: no cover
                problems.append(f"unexpected {type(exc).__name__}: {exc}")
                return

    threads = [threading.Thread(target=hammer, daemon=True) for _ in range(3)]
    for t in threads:
        t.start()
    time.sleep(0.05)
    router.kill_shard(1)
    time.sleep(0.15)
    router.reattach_shard(1)
    time.sleep(0.05)
    stop.set()
    for t in threads:
        t.join(10.0)
        assert not t.is_alive(), "fan-out thread wedged: executor deadlock"
    assert not problems, problems
    stats = router.stats()
    assert stats["shard.exec.workers"] <= stats["shard.exec.size"]
    # The healthy fleet serves complete fan-outs again.
    assert sum(1 for _ in router.query(PxAcct)) == 33


def test_crash_mid_parallel_prepare_resolves_to_presumed_abort(tmp_path):
    """A crash landing while PREPAREs are in flight *concurrently* must
    recover exactly like the serial protocol: no verdict, both legs
    rolled back, nothing in doubt."""
    path = tmp_path / "shards"
    router = ShardedDatabase(path, nshards=3)
    src = router.pnew(PxAcct(bal=100))
    dst = router.pnew(PxAcct(bal=100))
    oids = (src.oid, dst.oid)
    router.checkpoint()
    injector = probe.attach(FaultInjector(FaultPlan().crash("shard.2pc.post_prepare", hit=1)))
    try:
        with pytest.raises(SimulatedCrash):
            with router.transaction():
                src.bal = 1
                dst.bal = 199
        assert injector.fired
    finally:
        probe.detach()

    reopened = ShardedDatabase(path)
    try:
        assert reopened.deref(oids[0]).bal == 100
        assert reopened.deref(oids[1]).bal == 100
        for shard in reopened.shards:
            assert not shard.in_doubt_txns()
            assert not shard.coordinator_decisions()
    finally:
        reopened.close()


def test_kill_shard_mid_prepare_converges_at_reattach(trio, monkeypatch):
    """PR-8 follow-up: the shard dies *mid-prepare* (after its PREPARE
    record went durable, before the decision) with parallel prepare in
    play.  The commit fails undecided; reattach-time resolution rolls the
    prepared half back and the fleet converges."""
    router, oids = trio
    victim = 1
    real_fire = probe.point

    def fire_and_kill(name, *args, **kwargs):
        if name == "shard.2pc.post_prepare" and not router._shard_down[victim]:
            router.kill_shard(victim)
        return real_fire(name, *args, **kwargs)

    monkeypatch.setattr(probe, "point", fire_and_kill)
    a, b = router.deref(oids[0]), router.deref(oids[victim])
    planter = router.session(name="mid-prepare-planter")
    with planter.activate():
        with pytest.raises(ShardUnavailableError):
            with router.transaction():
                a.bal = 1
                b.bal = 199
    # The client "process" dies; a decided transaction is detached (its
    # fate belongs to resolution), an undecided one was already aborted.
    planter.close()
    monkeypatch.setattr(probe, "point", real_fire)

    report = router.reattach_shard(victim)
    assert not report.deferred
    # The kill raced the *other* participant's prepare: depending on
    # which PREPARE finished first, the transaction died undecided
    # (presumed abort everywhere) or its verdict went durable before the
    # failure (resolution commits the dead shard's half).  Either way
    # the outcome is atomic -- both legs or neither, nothing lingering.
    balances = (router.deref(oids[0]).bal, router.deref(oids[victim]).bal)
    assert balances in {(100, 100), (1, 199)}, (
        f"torn 2PC outcome after reattach: {balances}"
    )
    for shard in router.shards:
        assert not shard.in_doubt_txns()
        assert not shard.coordinator_decisions()
    # The fleet takes new cross-shard work immediately.
    with router.transaction():
        a.bal = 50
        b.bal = 150
    assert (a.bal, b.bal) == (50, 150)
