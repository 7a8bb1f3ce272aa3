"""Triggers: O++'s active facility, the paper's substitute for built-in
change notification.

Paper §2: "we decided against a built-in change notification facility [13]
because users can implement such a facility using O++ triggers."  O++
triggers are predicates attached to objects with an associated action; they
come in *once-only* and *perpetual* flavours (a perpetual trigger re-arms
itself after firing).  This module reproduces that facility over the
version store's event stream, and :mod:`repro.policies.notification` then
builds the change-notification policy on top -- demonstrating the paper's
primitives-not-policies claim.

A trigger watches either one object (by :class:`~repro.core.identity.Oid`)
or a whole event kind, optionally filtered by a condition over
``(event, oid, vid)``.  Events are the store's: ``create``,
``newversion``, ``update``, ``delete_version``, ``delete_object``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.identity import Oid, Vid

#: Once-only triggers deactivate after the first firing (O++ `once`).
ONCE = "once"
#: Perpetual triggers re-arm after every firing (O++ `perpetual`).
PERPETUAL = "perpetual"

Condition = Callable[[str, Oid, "Vid | None"], bool]
Action = Callable[[str, Oid, "Vid | None"], Any]
TimeoutAction = Callable[[], Any]


@dataclass
class Trigger:
    """One registered trigger."""

    trigger_id: int
    events: frozenset[str]
    oid: Oid | None
    condition: Condition | None
    action: Action
    mode: str
    #: Restrict to one cluster (stable type name).  Type-scoped triggers
    #: cannot fire for ``delete_object`` -- the type is no longer
    #: resolvable once the object is gone.
    type_name: str | None = None
    active: bool = True
    fire_count: int = 0
    #: Timed triggers (O++'s ``within T`` form): monotonic deadline after
    #: which the trigger disarms, and the action to run when it expires
    #: without ever having fired.
    deadline: float | None = None
    on_timeout: TimeoutAction | None = None
    timed_out: bool = False

    def matches(self, event: str, oid: Oid, vid: Vid | None) -> bool:
        """True if this trigger should fire for the event."""
        if not self.active:
            return False
        if self.events and event not in self.events:
            return False
        if self.oid is not None and oid != self.oid:
            return False
        if self.condition is not None and not self.condition(event, oid, vid):
            return False
        return True


class TriggerManager:
    """Registry and dispatcher for triggers, fed by store events.

    Attach with ``store.add_observer(manager.dispatch)`` (the database
    facade does this).  Actions run synchronously in the mutating call --
    the O++ semantics -- so an action that raises propagates to the caller.
    """

    def __init__(self, type_resolver: Callable[[Oid], str] | None = None) -> None:
        self._triggers: dict[int, Trigger] = {}
        self._ids = itertools.count(1)
        #: Resolves an Oid to its stable type name (wired by the database);
        #: required only for type-scoped triggers.
        self.type_resolver = type_resolver
        #: Re-entrancy guard depth: actions that mutate the store produce
        #: nested dispatches; we allow them but track depth for tests.
        self._depth = 0

    def register(
        self,
        action: Action,
        events: str | list[str] | None = None,
        oid: Oid | None = None,
        condition: Condition | None = None,
        mode: str = PERPETUAL,
        within: float | None = None,
        on_timeout: TimeoutAction | None = None,
        type_name: str | None = None,
    ) -> Trigger:
        """Register a trigger and return its handle.

        ``events`` limits the event kinds (None = all); ``oid`` limits to
        one object; ``condition`` is an arbitrary predicate; ``mode`` is
        :data:`ONCE` or :data:`PERPETUAL`.

        ``within`` makes the trigger *timed* (O++'s ``within T`` form): if
        it has not fired ``within`` seconds of registration it disarms,
        running ``on_timeout`` (if given).  Expiry is detected lazily --
        at the next event dispatch or an explicit :meth:`reap_expired`.
        """
        if mode not in (ONCE, PERPETUAL):
            raise ValueError(f"unknown trigger mode {mode!r}")
        if isinstance(events, str):
            events = [events]
        if within is not None and within < 0:
            raise ValueError("'within' must be non-negative")
        trigger = Trigger(
            trigger_id=next(self._ids),
            events=frozenset(events or ()),
            oid=oid,
            condition=condition,
            action=action,
            mode=mode,
            type_name=type_name,
            deadline=None if within is None else self._now() + within,
        )
        trigger.on_timeout = on_timeout
        self._triggers[trigger.trigger_id] = trigger
        return trigger

    def _now(self) -> float:
        import time

        return time.monotonic()

    def reap_expired(self) -> int:
        """Disarm timed triggers past their deadline; returns the count.

        Each expired trigger's ``on_timeout`` runs once.  Called
        automatically before every event dispatch.
        """
        now = self._now()
        expired = 0
        for trigger in list(self._triggers.values()):
            if (
                trigger.active
                and trigger.deadline is not None
                and now >= trigger.deadline
            ):
                trigger.active = False
                trigger.timed_out = True
                expired += 1
                if trigger.on_timeout is not None:
                    trigger.on_timeout()
        return expired

    def deactivate(self, trigger: Trigger | int) -> None:
        """Disarm a trigger (it remains registered, with its history)."""
        trigger_id = trigger if isinstance(trigger, int) else trigger.trigger_id
        self._triggers[trigger_id].active = False

    def remove(self, trigger: Trigger | int) -> None:
        """Unregister a trigger entirely."""
        trigger_id = trigger if isinstance(trigger, int) else trigger.trigger_id
        del self._triggers[trigger_id]

    def dispatch(self, event: str, oid: Oid, vid: Vid | None) -> None:
        """Deliver one store event to every matching trigger (observer hook)."""
        self.reap_expired()
        self._depth += 1
        try:
            for trigger in list(self._triggers.values()):
                if trigger.type_name is not None:
                    if self.type_resolver is None or event == "delete_object":
                        continue
                    try:
                        actual = self.type_resolver(oid)
                    except Exception:
                        continue
                    if actual != trigger.type_name:
                        continue
                if trigger.matches(event, oid, vid):
                    trigger.fire_count += 1
                    trigger.deadline = None  # a timed trigger met its deadline
                    if trigger.mode == ONCE:
                        trigger.active = False
                    trigger.action(event, oid, vid)
        finally:
            self._depth -= 1

    def triggers(self) -> list[Trigger]:
        """All registered triggers (copy)."""
        return list(self._triggers.values())
