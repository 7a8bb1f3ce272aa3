"""Retention GC plans from committed state and re-plans under the lock.

Two races, each sequenced with the probe plane's ``txn.lock`` point (no
sleeps): the collector's pass runs on a thread of its own while another
thread holds an uncommitted change to the object, and that change is
ended only once the collector has planned -- when it asks for its first
lock, or when it has finished without asking for any.

* An uncommitted ``newversion`` that then aborts must not count towards
  ``keep_last_n``: planning on the live graph would count it, and delete
  a committed version the policy protects.
* A ``pdelete`` committed after the plan must not let the collector take
  the history below ``keep_last_n`` either: the victims are checked
  again once the collector holds the object's lock.
"""

from __future__ import annotations

import threading

import pytest

from repro import probe
from repro.core.gc import RetentionPolicy
from repro.core.identity import Vid
from tests.conftest import Part

ENGINE_KINDS = ("database", "router-4")


class _Planned(probe.Observer):
    """Sets ``gate`` when any thread asks for a lock it does not hold."""

    def __init__(self, gate: threading.Event) -> None:
        self.gate = gate

    def point(self, name: str) -> None:
        if name == "txn.lock":
            self.gate.set()


def _history(db, versions: int):
    with db.transaction():
        oid = db.pnew(Part("p", 0)).oid
        for _ in range(versions - 1):
            db.newversion(oid)
    return oid


def _serials(db, oid) -> list[int]:
    return [vref.vid.serial for vref in db.versions(oid)]


def _collect_beside(db, change, commit: bool) -> None:
    """Run ``change()`` in a transaction on another thread, run GC while
    it is open, and end it (commit or abort) once GC has planned."""
    held, end, gate = threading.Event(), threading.Event(), threading.Event()
    errors: list[BaseException] = []

    class Ended(Exception):
        pass

    def holder() -> None:
        try:
            with db.transaction():
                change()
                held.set()
                end.wait(10)
                if not commit:
                    raise Ended
        except Ended:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
            held.set()

    def collector() -> None:
        try:
            db.run_gc()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            gate.set()

    writer = threading.Thread(target=holder)
    writer.start()
    assert held.wait(10)
    probe.attach(_Planned(gate))
    try:
        gc = threading.Thread(target=collector)
        gc.start()
        assert gate.wait(10)  # planned: waiting for the lock, or done
        end.set()
        writer.join(10)
        gc.join(10)
    finally:
        probe.detach()
    assert not errors, errors


def test_an_uncommitted_newversion_does_not_count_towards_keep_last_n(db):
    """Committed ``[1, 2]`` with ``keep_last_n=2`` and a third version
    uncommitted (then aborted) beside the pass: both stay."""
    oid = _history(db, 2)
    db.set_retention(Part, RetentionPolicy(keep_last_n=2))
    _collect_beside(db, lambda: db.newversion(oid), commit=False)
    assert _serials(db, oid) == [1, 2]


def test_a_pdelete_committed_after_the_plan_keeps_the_last_n(db):
    """Committed ``[1, 2, 3]`` with ``keep_last_n=2``: the plan displaces
    1; a concurrent ``pdelete`` of 2 commits before the pass gets the
    lock, so 1 is among the last two again and stays."""
    oid = _history(db, 3)
    db.set_retention(Part, RetentionPolicy(keep_last_n=2))
    _collect_beside(db, lambda: db.pdelete(Vid(oid, 2)), commit=True)
    assert _serials(db, oid) == [1, 3]


@pytest.mark.parametrize("versions", [3, 5])
def test_without_a_concurrent_writer_the_pass_still_prunes(db, versions):
    oid = _history(db, versions)
    db.set_retention(Part, RetentionPolicy(keep_last_n=2))
    report = db.run_gc()
    assert _serials(db, oid) == [versions - 1, versions]
    assert report.versions_deleted == versions - 2
    assert report.versions_examined == versions
