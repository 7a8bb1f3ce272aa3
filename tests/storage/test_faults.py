"""Unit tests for the deterministic fault-injection subsystem."""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from repro import Database
from repro.storage import faults
from repro.storage.faults import (
    ERROR_FAILPOINTS,
    FAILPOINTS,
    Fault,
    FaultPlan,
    InjectedFaultError,
    SimulatedCrash,
    WRITE_FAILPOINTS,
)

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture(autouse=True)
def _clean_injector():
    faults.deactivate()
    yield
    faults.deactivate()


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
    faults.activate(FaultPlan().crash("wal.append", hit=3))
    faults.fire("wal.append")
    faults.fire("wal.append")
    with pytest.raises(SimulatedCrash):
        faults.fire("wal.append")


def test_unarmed_failpoints_do_not_fire():
    faults.activate(FaultPlan().crash("wal.append", hit=1))
    for name in FAILPOINTS:
        if name != "wal.append":
            faults.fire(name)  # must not raise


def test_crashed_state_blocks_all_io():
    """After the crash, the process is dead: every failpoint raises and
    no write reaches the file -- abort handlers cannot repair anything."""
    injector = faults.activate(FaultPlan().crash("heap.insert.pre", hit=1))
    with pytest.raises(SimulatedCrash):
        faults.fire("heap.insert.pre")
    assert injector.crashed
    with pytest.raises(SimulatedCrash):
        faults.fire("disk.sync.pre")  # a different, unarmed failpoint
    buf = io.BytesIO()
    with pytest.raises(SimulatedCrash):
        faults.write("wal.flush.write", buf, b"payload")
    assert buf.getvalue() == b""


def test_torn_write_truncates_then_crashes():
    faults.activate(FaultPlan().torn_write("wal.flush.write", hit=1, keep=4))
    buf = io.BytesIO()
    with pytest.raises(SimulatedCrash):
        faults.write("wal.flush.write", buf, b"abcdefgh")
    assert buf.getvalue() == b"abcd"


def test_short_write_truncates_and_raises_oserror():
    faults.activate(FaultPlan().short_write("wal.flush.write", hit=1, keep=2))
    buf = io.BytesIO()
    with pytest.raises(InjectedFaultError):
        faults.write("wal.flush.write", buf, b"abcdefgh")
    assert buf.getvalue() == b"ab"
    # A short write is an error, not a crash: later I/O proceeds.
    faults.write("wal.flush.write", buf, b"ij")
    assert buf.getvalue() == b"abij"


def test_fsync_error_is_not_a_crash():
    faults.activate(FaultPlan().fsync_error("wal.flush.fsync", hit=1))
    with pytest.raises(InjectedFaultError):
        faults.fire("wal.flush.fsync")
    faults.fire("wal.flush.fsync")  # fires once, then the point is spent


def test_write_passes_through_when_inactive():
    buf = io.BytesIO()
    faults.write("wal.flush.write", buf, b"data")
    assert buf.getvalue() == b"data"
    faults.fire("wal.append")  # no-op


# -- registry hygiene --------------------------------------------------------


def test_every_failpoint_is_referenced_in_source():
    """The registry and the instrumented code must not drift apart."""
    source = "\n".join(
        path.read_text()
        for path in SRC.rglob("*.py")
        if path.name not in ("faults.py", "crashmatrix.py")
    )
    missing = [name for name in FAILPOINTS if f'"{name}"' not in source]
    assert not missing, f"failpoints never referenced in source: {missing}"


def test_write_and_error_failpoints_are_registered():
    assert WRITE_FAILPOINTS <= set(FAILPOINTS)
    assert ERROR_FAILPOINTS <= set(FAILPOINTS)


# -- stats surface -----------------------------------------------------------


def test_db_stats_expose_fault_counters(tmp_path):
    with Database(tmp_path / "db") as db:
        stats = db.stats()
        assert stats["faults.armed"] == 0
        assert stats["faults.hits"] == 0

    db = Database(tmp_path / "db2")
    faults.activate(
        FaultPlan().fsync_error("disk.sync.fsync", hit=1)
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
        faults.deactivate()
        db.close()
