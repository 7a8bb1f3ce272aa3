"""Concurrency scenarios for the interleaving explorer.

Each scenario is a declarative seed (replayable against both the real
database and the reference model), a fixed set of named thread bodies,
and the object keys the final-state check compares.  Bodies record every
semantic operation and observation into their
:class:`~repro.verify.oracle.ThreadLog`; the oracle decides afterwards
whether some serial order explains what they saw.

Scenario rules:

* Every observation happens under two-phase locking (attribute reads
  inside explicit transactions S-lock the object; traversal-only
  transactions take an explicit SHARED lock first, because the facade's
  traversals are deliberately lock-free) or through a pinned snapshot.
  Bare unlocked live-store reads are *documented* to see in-flight state
  and would make any interleaving "non-serializable" by construction.
* Bodies catch only the expected concurrency-control outcomes (deadlock
  victim, lock deadline) and record them as aborts.  Anything else is a
  thread error the explorer reports as a harness failure.
* Bodies are deterministic apart from scheduling: no clocks, no RNG.

``small`` scenarios (2 transactions) are the bounded-exhaustive set; the
``mixed_*`` scenarios are for seeded random exploration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import PersistentObject, Vid, persistent
from repro.core.transactions import SHARED
from repro.errors import DeadlockError, LockTimeoutError, TransactionAborted
from repro.verify.oracle import ThreadLog

#: Concurrency-control outcomes a scenario body absorbs as an abort.
CONFLICTS = (DeadlockError, LockTimeoutError, TransactionAborted)


@persistent(name="verify.Cell")
class Cell(PersistentObject):
    """One versioned integer -- the smallest observable unit of state."""

    def __init__(self, value: int = 0) -> None:
        self.value = value


class _Rollback(Exception):
    """Deliberate scenario-internal abort signal."""


@dataclass(frozen=True)
class Scenario:
    name: str
    doc: str
    #: Oracle-shaped event tuples replayed against the db and the model.
    seed: tuple[tuple, ...]
    #: (thread name, body) in spawn order; body(db, refs, log).
    threads: tuple[tuple[str, Callable], ...]
    #: Object keys compared in the final-state check.
    keys: tuple[str, ...]
    #: True for the 2-txn bounded-exhaustive set.
    small: bool = True


# -- thread body builders ------------------------------------------------------


def _rmw(key: str, delta: int):
    """Read-modify-write transaction: the classic lost-update shape."""

    def body(db, refs, log: ThreadLog) -> None:
        ref = refs[key]
        log.begin()
        try:
            with db.transaction():
                value = ref.value  # S-locks, upgrades to X on the write
                log.read(key, value)
                ref.value = value + delta
                log.write(key, value + delta)
        except CONFLICTS as exc:
            log.abort(type(exc).__name__)
        else:
            log.commit()

    return body


def _derive(key: str, value: int):
    """newversion from the latest, then fill in the new version."""

    def body(db, refs, log: ThreadLog) -> None:
        ref = refs[key]
        log.begin()
        try:
            with db.transaction():
                vref = db.newversion(ref)  # X-locks the object
                serial = vref.vid.serial
                parent = db.dprevious(vref)
                log.newversion(key, serial, parent.vid.serial if parent else None)
                vref.value = value
                log.write(key, value, serial)
        except CONFLICTS as exc:
            log.abort(type(exc).__name__)
        else:
            log.commit()

    return body


def _write_then_rollback(key: str, value: int):
    """Write uncommitted state, then abort -- must be visible to no one."""

    def body(db, refs, log: ThreadLog) -> None:
        ref = refs[key]
        log.begin()
        try:
            with db.transaction():
                ref.value = value
                log.write(key, value)
                raise _Rollback()
        except _Rollback:
            log.abort("rollback")
        except CONFLICTS as exc:
            log.abort(type(exc).__name__)

    return body


def _write_pair(key_a: str, key_b: str, value: int):
    """Commit the same value into two objects -- torn views are detectable."""

    def body(db, refs, log: ThreadLog) -> None:
        log.begin()
        try:
            with db.transaction():
                refs[key_a].value = value
                log.write(key_a, value)
                refs[key_b].value = value
                log.write(key_b, value)
        except CONFLICTS as exc:
            log.abort(type(exc).__name__)
        else:
            log.commit()

    return body


def _snap_reader(keys: tuple[str, ...], pins: int):
    """Pin a snapshot ``pins`` times; each pinned view must be one prefix."""

    def body(db, refs, log: ThreadLog) -> None:
        for _ in range(pins):
            with db.snapshot() as snap:
                log.pin()
                for key in keys:
                    log.read(key, snap.deref(refs[key].oid).value)
                log.unpin()

    return body


def _vdelete(key: str, serial: int):
    """Delete one mid-chain version inside a transaction."""

    def body(db, refs, log: ThreadLog) -> None:
        oid = refs[key].oid
        log.begin()
        try:
            with db.transaction():
                db.pdelete(db.deref(Vid(oid, serial)))
                log.vdelete(key, serial)
        except CONFLICTS as exc:
            log.abort(type(exc).__name__)
        else:
            log.commit()

    return body


def _traverse(key: str, serial: int):
    """Observe the derivation/temporal shape around one version.

    The facade's traversals are lock-free by design, so the transaction
    takes an explicit SHARED lock first -- without it a concurrent
    uncommitted ``pdelete`` would be legitimately visible.
    """

    def body(db, refs, log: ThreadLog) -> None:
        oid = refs[key].oid
        log.begin()
        try:
            with db.transaction() as txn:
                txn.lock(oid, SHARED)
                vref = db.deref(Vid(oid, serial))
                log.history(
                    key, serial, [v.vid.serial for v in db.history(vref)]
                )
                tprev = db.tprevious(vref)
                log.tprevious(key, serial, tprev.vid.serial if tprev else None)
        except CONFLICTS as exc:
            log.abort(type(exc).__name__)
        else:
            log.commit()

    return body


def _mixed(read_key: str, delta: int, derive_key: str):
    """RMW one object and grow another's chain in a single transaction."""

    def body(db, refs, log: ThreadLog) -> None:
        log.begin()
        try:
            with db.transaction():
                value = refs[read_key].value
                log.read(read_key, value)
                refs[read_key].value = value + delta
                log.write(read_key, value + delta)
                vref = db.newversion(refs[derive_key])
                parent = db.dprevious(vref)
                log.newversion(
                    derive_key, vref.vid.serial, parent.vid.serial if parent else None
                )
        except CONFLICTS as exc:
            log.abort(type(exc).__name__)
        else:
            log.commit()

    return body


# -- the registry --------------------------------------------------------------

SCENARIOS: dict[str, Scenario] = {}


def _register(scenario: Scenario) -> None:
    SCENARIOS[scenario.name] = scenario


_register(
    Scenario(
        name="lost_update",
        doc="Two read-modify-write transactions increment the same cell; "
        "strict 2PL must serialize them or victim one (upgrade-upgrade "
        "deadlock), never lose an increment.",
        seed=(("pnew", "x", 0),),
        threads=(("T1", _rmw("x", 1)), ("T2", _rmw("x", 1))),
        keys=("x",),
    )
)

_register(
    Scenario(
        name="newversion_race",
        doc="Two transactions race newversion on one object; serials and "
        "derivation parents must match some serial order.",
        seed=(("pnew", "x", 10),),
        threads=(("T1", _derive("x", 21)), ("T2", _derive("x", 22))),
        keys=("x",),
    )
)

_register(
    Scenario(
        name="uncommitted_read",
        doc="A transaction writes then rolls back while a reader pins "
        "snapshots; the uncommitted value must never be observable.",
        seed=(("pnew", "x", 10),),
        threads=(
            ("T1", _write_then_rollback("x", 101)),
            ("R1", _snap_reader(("x",), pins=2)),
        ),
        keys=("x",),
    )
)

_register(
    Scenario(
        name="rollback_then_rmw",
        doc="A transaction writes then rolls back while another "
        "read-modify-writes the same cell; the abort must restore memory "
        "before it releases its lock, or the RMW reads the undone write.",
        seed=(("pnew", "x", 10),),
        threads=(("T1", _write_then_rollback("x", 101)), ("T2", _rmw("x", 1))),
        keys=("x",),
    )
)

_register(
    Scenario(
        name="write_vs_snapshot",
        doc="A transaction commits the same value into two cells while a "
        "reader pins snapshots; every pinned view must be untorn and "
        "visibility monotone across pins.",
        seed=(("pnew", "x", 1), ("pnew", "y", 1)),
        threads=(
            ("T1", _write_pair("x", "y", 2)),
            ("R1", _snap_reader(("x", "y"), pins=2)),
        ),
        keys=("x", "y"),
    )
)

_register(
    Scenario(
        name="delete_vs_traverse",
        doc="One transaction deletes a mid-chain version (re-parenting its "
        "child) while another observes the derivation shape under a "
        "SHARED lock; both serial orders are legal, a mix is not.",
        seed=(
            ("pnew", "x", 10),
            ("newversion", "x", None, 2, 1),
            ("write", "x", 2, 20),
            ("newversion", "x", None, 3, 2),
            ("write", "x", 3, 30),
        ),
        threads=(("T1", _vdelete("x", 2)), ("T2", _traverse("x", 3))),
        keys=("x",),
    )
)

_register(
    Scenario(
        name="mixed_3txn",
        doc="Three transactions over two objects: RMW, RMW+derive, derive. "
        "Seeded-random exploration territory.",
        seed=(("pnew", "x", 0), ("pnew", "y", 0)),
        threads=(
            ("T1", _rmw("x", 1)),
            ("T2", _mixed("y", 5, "x")),
            ("T3", _derive("y", 7)),
        ),
        keys=("x", "y"),
        small=False,
    )
)

_register(
    Scenario(
        name="mixed_4way",
        doc="Three writer transactions plus a pinned snapshot reader over "
        "two objects -- the widest random-exploration scenario.",
        seed=(("pnew", "x", 0), ("pnew", "y", 0)),
        threads=(
            ("T1", _rmw("x", 1)),
            ("T2", _mixed("y", 5, "x")),
            ("T3", _rmw("y", 3)),
            ("R1", _snap_reader(("x", "y"), pins=2)),
        ),
        keys=("x", "y"),
        small=False,
    )
)


def small_scenarios() -> list[Scenario]:
    """The 2-txn bounded-exhaustive set, registry order."""
    return [s for s in SCENARIOS.values() if s.small]
