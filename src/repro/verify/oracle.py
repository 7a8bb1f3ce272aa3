"""Model-based serializability oracle for recorded concurrent histories.

Scenario threads record *semantic* operations and observations into a
:class:`ThreadLog` -- reads with the value they saw, ``newversion`` with
the serial/dprev it got, commits and aborts, snapshot pins.  After the
scheduled run the oracle searches for a **serial order** of the committed
transactions that the sequential reference model
(:class:`repro.verify.model.ModelStore`) reproduces exactly:

* every committed transaction, replayed atomically at its position,
  observes precisely what it observed in the real run;
* the real database's final state equals the model's final state, whole
  histories and serial high-water marks included;
* every *aborted* transaction observed some committed prefix plus its own
  ops (its effects must appear nowhere else -- the final-state check and
  the committed replays enforce that);
* non-transactional reads each match some committed prefix, prefixes
  non-decreasing in program order (a thread never travels back in time);
* reads inside one snapshot pin all match a *single* prefix (pinned views
  are frozen), and prefixes are monotone across successive pins.

A history passes if at least one order satisfies everything; with at most
four transactions the 4! search is trivially cheap.  The snapshot rules
above subsume the paper-level guarantee that a generic reference never
observes uncommitted or rolled-back versions: an uncommitted value
matches no committed prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Any, Hashable

from repro.verify.model import ModelError, ModelStore

Key = Hashable


class ThreadLog:
    """Per-thread recorder handed to scenario bodies.

    Events are plain tuples; the first element names the op.  Observation
    events carry what the real run returned, replay compares them against
    the model.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.events: list[tuple] = []

    # transaction boundaries
    def begin(self) -> None:
        self.events.append(("begin",))

    def commit(self) -> None:
        self.events.append(("commit",))

    def abort(self, reason: str = "") -> None:
        self.events.append(("abort", reason))

    # snapshot boundaries
    def pin(self) -> None:
        self.events.append(("pin",))

    def unpin(self) -> None:
        self.events.append(("unpin",))

    # operations and observations
    def read(self, key: Key, value: Any, serial: int | None = None) -> None:
        self.events.append(("read", key, serial, value))

    def write(self, key: Key, value: Any, serial: int | None = None) -> None:
        self.events.append(("write", key, serial, value))

    def pnew(self, key: Key, value: Any) -> None:
        self.events.append(("pnew", key, value))

    def newversion(
        self, key: Key, serial: int, dprev: int | None, base: int | None = None
    ) -> None:
        self.events.append(("newversion", key, base, serial, dprev))

    def vdelete(self, key: Key, serial: int) -> None:
        self.events.append(("vdelete", key, serial))

    def odelete(self, key: Key) -> None:
        self.events.append(("odelete", key))

    def latest(self, key: Key, serial: int) -> None:
        self.events.append(("latest", key, serial))

    def history(self, key: Key, serial: int, path: list[int]) -> None:
        self.events.append(("history", key, serial, tuple(path)))

    def tprevious(self, key: Key, serial: int, observed: int | None) -> None:
        self.events.append(("tprevious", key, serial, observed))

    def dnext(self, key: Key, serial: int, observed: list[int]) -> None:
        self.events.append(("dnext", key, serial, tuple(observed)))


@dataclass
class _TxnUnit:
    label: str
    thread: str
    order: int  # program order within its thread
    events: list[tuple]
    outcome: str  # "committed" | "aborted"


@dataclass
class _ReadGroup:
    thread: str
    pinned: bool
    events: list[tuple]


@dataclass
class Verdict:
    serializable: bool
    witness: tuple[str, ...] | None = None
    reason: str | None = None
    permutations_checked: int = 0
    details: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.serializable


def _apply(model: ModelStore, event: tuple) -> str | None:
    """Replay one event; returns a mismatch description or None."""
    kind = event[0]
    try:
        if kind == "read":
            _, key, serial, observed = event
            got = model.read(key, serial)
            if got != observed:
                return f"read({key!r}, {serial}) saw {observed!r}, model has {got!r}"
        elif kind == "write":
            _, key, serial, value = event
            model.write(key, value, serial)
        elif kind == "pnew":
            _, key, value = event
            model.pnew(key, value)
        elif kind == "newversion":
            _, key, base, serial, dprev = event
            got_serial, got_dprev = model.newversion(key, base)
            if (got_serial, got_dprev) != (serial, dprev):
                return (
                    f"newversion({key!r}, base={base}) got serial {serial} "
                    f"dprev {dprev}, model gives {got_serial}/{got_dprev}"
                )
        elif kind == "vdelete":
            _, key, serial = event
            model.vdelete(key, serial)
        elif kind == "odelete":
            model.odelete(event[1])
        elif kind == "latest":
            _, key, serial = event
            got = model.latest(key)
            if got != serial:
                return f"latest({key!r}) saw {serial}, model has {got}"
        elif kind == "history":
            _, key, serial, path = event
            got = tuple(model.history(key, serial))
            if got != path:
                return f"history({key!r}, {serial}) saw {path}, model has {got}"
        elif kind == "tprevious":
            _, key, serial, observed = event
            got = model.tprevious(key, serial)
            if got != observed:
                return f"tprevious({key!r}, {serial}) saw {observed}, model has {got}"
        elif kind == "dnext":
            _, key, serial, observed = event
            got = tuple(model.dnext(key, serial))
            if got != observed:
                return f"dnext({key!r}, {serial}) saw {observed}, model has {got}"
        else:
            return f"unknown event {event!r}"
    except ModelError as exc:
        return f"{kind} on {event[1:]!r}: {exc}"
    return None


def _replay(model: ModelStore, events: list[tuple]) -> str | None:
    for event in events:
        mismatch = _apply(model, event)
        if mismatch is not None:
            return mismatch
    return None


def _split(name: str, events: list[tuple]) -> tuple[list[_TxnUnit], list[_ReadGroup]]:
    """Partition a thread's events into transaction units and read groups."""
    txns: list[_TxnUnit] = []
    groups: list[_ReadGroup] = []
    i = 0
    order = 0
    n = len(events)
    while i < n:
        kind = events[i][0]
        if kind == "begin":
            j = i + 1
            while j < n and events[j][0] not in ("commit", "abort"):
                j += 1
            if j >= n:
                raise ValueError(f"thread {name}: unterminated transaction")
            outcome = "committed" if events[j][0] == "commit" else "aborted"
            txns.append(
                _TxnUnit(f"{name}#{order}", name, order, events[i + 1 : j], outcome)
            )
            order += 1
            i = j + 1
        elif kind == "pin":
            j = i + 1
            while j < n and events[j][0] != "unpin":
                j += 1
            if j >= n:
                raise ValueError(f"thread {name}: unterminated snapshot pin")
            groups.append(_ReadGroup(name, True, events[i + 1 : j]))
            i = j + 1
        else:
            groups.append(_ReadGroup(name, False, [events[i]]))
            i += 1
    return txns, groups


def check(
    seed_events: list[tuple],
    logs: dict[str, ThreadLog],
    final_state: dict,
    keys: list[Key],
) -> Verdict:
    """Search for a reproducing serial order; see the module docstring.

    ``seed_events`` build the pre-run state (same event tuples as recorded
    ops).  ``final_state`` is the real database's post-run state over
    ``keys``, in :meth:`ModelStore.export` shape (see
    :func:`repro.verify.model.history`).
    """
    all_txns: list[_TxnUnit] = []
    reader_groups: dict[str, list[_ReadGroup]] = {}
    for name in sorted(logs):
        txns, groups = _split(name, logs[name].events)
        all_txns.extend(txns)
        if groups:
            reader_groups[name] = groups

    base = ModelStore()
    seed_problem = _replay(base, seed_events)
    if seed_problem is not None:
        raise ValueError(f"seed replay failed: {seed_problem}")

    committed = [t for t in all_txns if t.outcome == "committed"]
    aborted = [t for t in all_txns if t.outcome == "aborted"]

    details: list[str] = []
    checked = 0
    for perm in permutations(committed):
        # Same-thread transactions happen sequentially in real time: the
        # serial order must respect program order.
        seen: dict[str, int] = {}
        ok_order = True
        for t in perm:
            if seen.get(t.thread, -1) > t.order:
                ok_order = False
                break
            seen[t.thread] = t.order
        if not ok_order:
            continue
        checked += 1
        label = "->".join(t.label for t in perm) or "<empty>"

        # Committed prefix states: states[i] == model after first i txns.
        states = [base.clone()]
        mismatch = None
        for t in perm:
            nxt = states[-1].clone()
            mismatch = _replay(nxt, t.events)
            if mismatch is not None:
                mismatch = f"txn {t.label}: {mismatch}"
                break
            states.append(nxt)
        if mismatch is None and states[-1].export(keys) != final_state:
            mismatch = (
                f"final state mismatch: model {states[-1].export(keys)!r} "
                f"vs real {final_state!r}"
            )
        if mismatch is None:
            for t in aborted:
                if not any(
                    _replay(states[i].clone(), t.events) is None
                    for i in range(len(states))
                ):
                    mismatch = (
                        f"aborted txn {t.label}: no committed prefix "
                        f"reproduces its observations"
                    )
                    break
        if mismatch is None:
            for name, groups in reader_groups.items():
                floor = 0
                for gi, group in enumerate(groups):
                    # Greedy smallest feasible prefix >= floor is optimal
                    # for the existence of a monotone assignment.
                    match = next(
                        (
                            i
                            for i in range(floor, len(states))
                            if _replay(states[i].clone(), group.events) is None
                        ),
                        None,
                    )
                    if match is None:
                        what = "pinned reads" if group.pinned else "read"
                        mismatch = (
                            f"reader {name} group {gi}: {what} match no "
                            f"committed prefix >= {floor}"
                        )
                        break
                    floor = match
                if mismatch is not None:
                    break
        if mismatch is None:
            return Verdict(True, tuple(t.label for t in perm), None, checked)
        details.append(f"[{label}] {mismatch}")

    reason = (
        "no serial order of committed transactions reproduces the history"
        if checked
        else "no valid serial order (program-order constraints unsatisfiable)"
    )
    return Verdict(False, None, reason, checked, details)
