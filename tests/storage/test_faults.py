"""Unit tests for the deterministic fault-injection subsystem."""

from __future__ import annotations

import io

import pytest

from repro import Database, probe
from repro.storage.faults import (
    Fault,
    FaultInjector,
    FaultPlan,
    InjectedFaultError,
    SimulatedCrash,
)

from tests.test_probe import call_sites


@pytest.fixture(autouse=True)
def _clean_injector():
    probe.detach()
    yield
    probe.detach()


# -- plan construction -------------------------------------------------------


def test_plan_rejects_unknown_failpoint():
    with pytest.raises(ValueError):
        FaultPlan().crash("no.such.failpoint")


def test_plan_rejects_torn_write_at_non_write_site():
    with pytest.raises(ValueError):
        FaultPlan().torn_write("wal.append", keep=4)


def test_plan_rejects_fsync_error_at_non_fsync_site():
    with pytest.raises(ValueError):
        FaultPlan().fsync_error("wal.append")


def test_plan_rejects_duplicate_arm():
    plan = FaultPlan().crash("wal.append")
    with pytest.raises(ValueError):
        plan.crash("wal.append")


def test_keep_bytes_semantics():
    assert Fault("torn_write", keep=7).keep_bytes(100) == 7
    assert Fault("torn_write", keep=200).keep_bytes(100) == 100
    # Negative keep drops bytes from the tail.
    assert Fault("torn_write", keep=-3).keep_bytes(100) == 97
    assert Fault("torn_write", keep=-200).keep_bytes(100) == 0


# -- triggering --------------------------------------------------------------


def test_crash_fires_on_exact_nth_hit():
    probe.attach(FaultInjector(FaultPlan().crash("wal.append", hit=3)))
    probe.point("wal.append")
    probe.point("wal.append")
    with pytest.raises(SimulatedCrash):
        probe.point("wal.append")


def test_unarmed_failpoints_do_not_fire():
    injector = probe.attach(FaultInjector(FaultPlan().crash("wal.append", hit=1)))
    visited = 0
    for name, kind in probe.POINTS.items():
        if name != "wal.append" and kind != probe.WRITE:
            probe.point(name)  # must not raise
            visited += kind != probe.YIELD
    assert injector.hits_total == visited


def test_crashed_state_blocks_all_io():
    """After the crash, the process is dead: every failpoint raises and
    no write reaches the file -- abort handlers cannot repair anything."""
    injector = probe.attach(FaultInjector(FaultPlan().crash("heap.insert.pre", hit=1)))
    with pytest.raises(SimulatedCrash):
        probe.point("heap.insert.pre")
    assert injector.crashed
    with pytest.raises(SimulatedCrash):
        probe.point("disk.sync.pre")  # a different, unarmed failpoint
    buf = io.BytesIO()
    with pytest.raises(SimulatedCrash):
        probe.write("wal.flush.write", buf, b"payload")
    assert buf.getvalue() == b""


def test_torn_write_truncates_then_crashes():
    probe.attach(FaultInjector(FaultPlan().torn_write("wal.flush.write", hit=1, keep=4)))
    buf = io.BytesIO()
    with pytest.raises(SimulatedCrash):
        probe.write("wal.flush.write", buf, b"abcdefgh")
    assert buf.getvalue() == b"abcd"


def test_short_write_truncates_and_raises_oserror():
    probe.attach(FaultInjector(FaultPlan().short_write("wal.flush.write", hit=1, keep=2)))
    buf = io.BytesIO()
    with pytest.raises(InjectedFaultError):
        probe.write("wal.flush.write", buf, b"abcdefgh")
    assert buf.getvalue() == b"ab"
    # A short write is an error, not a crash: later I/O proceeds.
    probe.write("wal.flush.write", buf, b"ij")
    assert buf.getvalue() == b"abij"


def test_fsync_error_is_not_a_crash():
    probe.attach(FaultInjector(FaultPlan().fsync_error("wal.flush.fsync", hit=1)))
    with pytest.raises(InjectedFaultError):
        probe.point("wal.flush.fsync")
    probe.point("wal.flush.fsync")  # fires once, then the point is spent


def test_write_passes_through_when_inactive():
    buf = io.BytesIO()
    probe.write("wal.flush.write", buf, b"data")
    assert buf.getvalue() == b"data"
    probe.point("wal.append")  # no-op


# -- registry hygiene --------------------------------------------------------


def test_every_failpoint_is_referenced_in_source():
    """The table and the instrumented code must not drift apart: every
    declared point, of every kind, has a hook call site."""
    called = {name for _, name, _ in call_sites()}
    missing = [name for name in probe.POINTS if name not in called]
    assert not missing, f"probe points never visited in source: {missing}"


def test_write_and_error_failpoints_are_registered():
    def kind(k):
        return {name for name, of in probe.POINTS.items() if of == k}

    assert kind(probe.WRITE) == {
        "wal.flush.write", "disk.write_page.write", "disk.write_meta.write", "blobs.append"
    }
    assert kind(probe.ERROR) == {
        "wal.flush.fsync", "disk.sync.fsync", "blobs.sync.fsync",
        "net.proxy.accept", "net.proxy.forward.c2s", "net.proxy.forward.s2c",
    }
    assert len(kind(probe.CRASH)) == 44


# -- stats surface -----------------------------------------------------------


def test_db_stats_expose_fault_counters(tmp_path):
    with Database(tmp_path / "db") as db:
        stats = db.stats()
        assert stats["faults.armed"] == 0
        assert stats["faults.hits"] == 0

    db = Database(tmp_path / "db2")
    probe.attach(
        FaultInjector(FaultPlan().fsync_error("disk.sync.fsync", hit=1))
    )
    try:
        with pytest.raises(InjectedFaultError):
            db.checkpoint()
        stats = db.stats()
        assert stats["faults.armed"] == 1
        assert stats["faults.fsync_errors"] == 1
        assert stats["faults.hits"] > 0
        assert stats["faults.crashes"] == 0
    finally:
        probe.detach()
        db.close()
