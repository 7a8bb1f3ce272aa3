"""``version_as_of`` bisect edge cases: exact boundaries and ctime ties.

``VersionGraph.latest_at`` is a ``bisect_right`` over the parallel ctime
list, so the subtle cases are (a) a timestamp exactly equal to a version's
creation time (must be inclusive) and (b) several versions sharing one
creation time (the temporally latest must win, matching a linear scan).
Each case is checked against the live database AND against a pinned
snapshot, which resolves through the frozen published graph.  The suite is
engine-agnostic: here it runs on a database under each storage policy,
``tests/shard/test_engine_suites.py`` runs it on the routers.
"""

from __future__ import annotations

import pytest

from tests.conftest import Doc

ENGINE_KINDS = ("full", "delta")


@pytest.fixture
def clocked(engine, monkeypatch):
    """A database whose versions were created at t=10,20,20,20,30."""
    import repro.core.store as store_mod

    times = iter([10.0, 20.0, 20.0, 20.0, 30.0])
    monkeypatch.setattr(store_mod.time, "time", lambda: next(times))
    ref = engine.pnew(Doc("v1"))
    vids = [engine.latest_vid(ref.oid)]
    for i in range(2, 6):
        v = engine.newversion(ref)
        v.text = f"v{i}"
        vids.append(v.vid)
    return engine, ref, vids


def _serial_at(reader, target, ts):
    vref = reader.version_as_of(target, ts)
    return None if vref is None else vref.vid.serial


def test_before_first_version(clocked):
    db, ref, _vids = clocked
    assert _serial_at(db, ref, 9.999) is None
    with db.snapshot() as snap:
        assert _serial_at(snap, ref.oid, 9.999) is None


def test_exact_boundary_is_inclusive(clocked):
    db, ref, _vids = clocked
    assert _serial_at(db, ref, 10.0) == 1
    assert _serial_at(db, ref, 30.0) == 5
    with db.snapshot() as snap:
        assert _serial_at(snap, ref.oid, 10.0) == 1
        assert _serial_at(snap, ref.oid, 30.0) == 5


def test_between_versions(clocked):
    db, ref, _vids = clocked
    assert _serial_at(db, ref, 15.0) == 1
    assert _serial_at(db, ref, 29.999) == 4
    assert _serial_at(db, ref, 1e9) == 5
    with db.snapshot() as snap:
        assert _serial_at(snap, ref.oid, 15.0) == 1
        assert _serial_at(snap, ref.oid, 29.999) == 4
        assert _serial_at(snap, ref.oid, 1e9) == 5


def test_equal_ctime_run_resolves_to_temporally_latest(clocked):
    db, ref, _vids = clocked
    # Versions 2, 3, 4 all carry ctime 20: a linear scan would return the
    # last one created, and the bisect must agree.
    assert _serial_at(db, ref, 20.0) == 4
    with db.snapshot() as snap:
        assert _serial_at(snap, ref.oid, 20.0) == 4


def test_as_of_against_pinned_snapshot_ignores_later_versions(clocked, monkeypatch):
    db, ref, _vids = clocked
    import repro.core.store as store_mod

    with db.snapshot() as snap:
        monkeypatch.setattr(store_mod.time, "time", lambda: 40.0)
        v6 = db.newversion(ref)
        # Live resolution sees the new version; the snapshot never does.
        assert _serial_at(db, ref, 40.0) == 6
        assert _serial_at(snap, ref.oid, 40.0) == 5
        assert _serial_at(snap, ref.oid, 1e9) == 5
    assert db.version_exists(v6.vid)


def test_as_of_after_deleting_inside_equal_ctime_run(clocked):
    db, ref, vids = clocked
    with db.snapshot() as snap:
        db.pdelete(db.deref(vids[3]))  # serial 4, the run's winner
        # Live: the run's remaining latest (serial 3) takes over.
        assert _serial_at(db, ref, 20.0) == 3
        # The pinned snapshot still resolves to the deleted version --
        # and can still materialize it.
        assert _serial_at(snap, ref.oid, 20.0) == 4
        assert snap.deref(vids[3]).text == "v4"
    assert _serial_at(db, ref, 20.0) == 3
