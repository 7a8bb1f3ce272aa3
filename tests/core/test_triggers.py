"""Unit tests for the trigger facility (O++ once/perpetual triggers)."""

from __future__ import annotations

import pytest

from repro.core.triggers import ONCE, PERPETUAL, TriggerManager
from tests.conftest import Part


def test_perpetual_trigger_fires_every_time(db):
    fired = []
    db.triggers.register(lambda e, o, v: fired.append(e), events="update")
    ref = db.pnew(Part("t", 1))
    ref.weight = 2
    ref.weight = 3
    assert fired == ["update", "update"]


def test_once_trigger_fires_once(db):
    fired = []
    db.triggers.register(lambda e, o, v: fired.append(e), events="update", mode=ONCE)
    ref = db.pnew(Part("t", 1))
    ref.weight = 2
    ref.weight = 3
    assert fired == ["update"]


def test_trigger_scoped_to_one_object(db):
    fired = []
    a = db.pnew(Part("a", 1))
    b = db.pnew(Part("b", 1))
    db.triggers.register(lambda e, o, v: fired.append(o), events="update", oid=a.oid)
    a.weight = 2
    b.weight = 2
    assert fired == [a.oid]


def test_trigger_condition_filters(db):
    fired = []
    ref = db.pnew(Part("t", 1))

    def heavy_only(event, oid, vid):
        return db.deref(vid).weight > 10

    db.triggers.register(
        lambda e, o, v: fired.append(v), events="update", condition=heavy_only
    )
    ref.weight = 5
    ref.weight = 50
    assert len(fired) == 1


def test_trigger_on_newversion(db):
    fired = []
    db.triggers.register(lambda e, o, v: fired.append(v), events="newversion")
    ref = db.pnew(Part("t", 1))
    v2 = db.newversion(ref)
    assert fired == [v2.vid]


def test_trigger_on_delete_events(db):
    fired = []
    db.triggers.register(
        lambda e, o, v: fired.append(e), events=["delete_version", "delete_object"]
    )
    ref = db.pnew(Part("t", 1))
    v2 = db.newversion(ref)
    db.pdelete(v2)
    db.pdelete(ref)
    assert fired == ["delete_version", "delete_object"]


def test_trigger_all_events_by_default(db):
    fired = []
    db.triggers.register(lambda e, o, v: fired.append(e))
    ref = db.pnew(Part("t", 1))
    db.newversion(ref)
    assert fired == ["create", "newversion"]


def test_deactivate_and_remove(db):
    fired = []
    trigger = db.triggers.register(lambda e, o, v: fired.append(e), events="update")
    ref = db.pnew(Part("t", 1))
    ref.weight = 2
    db.triggers.deactivate(trigger)
    ref.weight = 3
    assert fired == ["update"]
    assert not any(t.active for t in db.triggers.triggers())
    db.triggers.remove(trigger)
    assert db.triggers.triggers() == []


def test_trigger_history_recorded(db):
    seen = []
    trigger = db.triggers.register(lambda e, o, v: seen.append((e, o)), events="update")
    ref = db.pnew(Part("t", 1))
    ref.weight = 2
    assert trigger.fire_count == 1
    assert seen == [("update", ref.oid)]


def test_trigger_action_may_mutate_store(db):
    """Re-entrant dispatch: an action creating a version must not loop."""
    audit = db.pnew(Part("audit", 0))

    def bump(event, oid, vid):
        if oid != audit.oid:
            with audit.modify() as a:
                a.weight += 1

    db.triggers.register(bump, events="newversion")
    ref = db.pnew(Part("t", 1))
    db.newversion(ref)
    db.newversion(ref)
    assert audit.weight == 2


def test_invalid_mode_rejected():
    manager = TriggerManager()
    with pytest.raises(ValueError):
        manager.register(lambda e, o, v: None, mode="sometimes")


def test_trigger_exception_propagates(db):
    def bomb(event, oid, vid):
        raise RuntimeError("trigger action failed")

    db.triggers.register(bomb, events="update")
    ref = db.pnew(Part("t", 1))
    with pytest.raises(RuntimeError):
        ref.weight = 2


# -- timed triggers (O++'s `within T` form) ------------------------------------


def test_timed_trigger_fires_before_deadline(db):
    fired = []
    trigger = db.triggers.register(
        lambda e, o, v: fired.append(e), events="update", within=60.0
    )
    ref = db.pnew(Part("t", 1))
    ref.weight = 2
    assert fired == ["update"]
    assert trigger.deadline is None  # met its deadline; no longer timed
    assert not trigger.timed_out


def test_timed_trigger_expires(db):
    fired = []
    timeouts = []
    trigger = db.triggers.register(
        lambda e, o, v: fired.append(e),
        events="update",
        within=0.0,  # expires immediately
        on_timeout=lambda: timeouts.append(1),
    )
    assert db.triggers.reap_expired() == 1
    ref = db.pnew(Part("t", 1))
    ref.weight = 2
    assert fired == []
    assert timeouts == [1]
    assert trigger.timed_out
    assert not trigger.active


def test_expired_trigger_reaped_lazily_by_dispatch(db):
    timeouts = []
    db.triggers.register(
        lambda e, o, v: None, events="update", within=0.0,
        on_timeout=lambda: timeouts.append(1),
    )
    ref = db.pnew(Part("t", 1))  # this dispatch reaps the expired trigger
    assert timeouts == [1]


def test_timeout_action_runs_once(db):
    timeouts = []
    db.triggers.register(
        lambda e, o, v: None, within=0.0, on_timeout=lambda: timeouts.append(1)
    )
    db.triggers.reap_expired()
    db.triggers.reap_expired()
    assert timeouts == [1]


def test_negative_within_rejected(db):
    import pytest as _pytest

    with _pytest.raises(ValueError):
        db.triggers.register(lambda e, o, v: None, within=-1.0)
