"""Change notification built entirely on triggers.

Paper §2: "we decided against a built-in change notification facility [13]
because users can implement such a facility using O++ triggers."  This
module is that implementation, with the two delivery modes the ORION
change-notification design [13] distinguishes:

* **message** (immediate) notification -- the subscriber's callback runs
  synchronously inside the mutating operation;
* **flag** (deferred) notification -- changes accumulate per subscriber
  and are observed when the subscriber polls.

Both ride on :class:`~repro.core.triggers.TriggerManager`; no kernel
support is used beyond the event stream that triggers already consume,
which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.database import Database
from repro.core.identity import Oid, Vid
from repro.core.pointers import Ref
from repro.core.surface import plain_id
from repro.core.triggers import PERPETUAL, Trigger

#: Events that constitute a "change" for notification purposes.
CHANGE_EVENTS = ("update", "newversion", "delete_version", "delete_object")


@dataclass(frozen=True)
class Notification:
    """One observed change."""

    event: str
    oid: Oid
    vid: Vid | None


class Subscription:
    """A deferred (flag-style) subscription: poll with :meth:`drain`."""

    def __init__(self, notifier: "ChangeNotifier", trigger: Trigger) -> None:
        self._notifier = notifier
        self._trigger = trigger
        self._queue: list[Notification] = []

    def _deliver(self, event: str, oid: Oid, vid: Vid | None) -> None:
        self._queue.append(Notification(event, oid, vid))

    def pending(self) -> int:
        """Number of undrained notifications."""
        return len(self._queue)

    def drain(self) -> list[Notification]:
        """Return and clear the accumulated notifications."""
        out = list(self._queue)
        self._queue.clear()
        return out

    def process(
        self,
        handler: Callable[[Notification], None],
        *,
        max_attempts: int = 5,
        backoff: float = 0.01,
    ) -> int:
        """Drain the queue through ``handler``, one transaction each.

        Every notification is handled inside
        :meth:`~repro.core.database.Database.run_transaction`, so a
        handler that reads or mutates the database survives deadlocks
        and lock timeouts by re-running.  If a notification's handler
        still fails after ``max_attempts``, the notification (and
        everything behind it, preserving order) is put back at the head
        of the queue and the error propagates -- nothing is dropped.

        Returns the number of notifications successfully handled.
        """
        pending = self.drain()
        handled = 0
        while pending:
            note = pending[0]
            try:
                self._notifier._db.run_transaction(
                    lambda: handler(note),
                    max_attempts=max_attempts,
                    backoff=backoff,
                )
            except BaseException:
                # Requeue in order, ahead of anything delivered meanwhile.
                self._queue[:0] = pending
                raise
            pending.pop(0)
            handled += 1
        return handled

    def cancel(self) -> None:
        """Stop receiving notifications."""
        self._notifier._triggers.remove(self._trigger)


class ChangeNotifier:
    """Subscribe to changes of one object or a whole cluster.

    Built on the database's trigger manager -- construct one per database
    and subscribe::

        notifier = ChangeNotifier(db)
        sub = notifier.subscribe(part_ref)
        ...
        for note in sub.drain(): ...
    """

    def __init__(self, db: Database) -> None:
        self._db = db
        self._triggers = db.triggers

    def subscribe(
        self,
        target: Ref | Oid | None = None,
        events: tuple[str, ...] = CHANGE_EVENTS,
    ) -> Subscription:
        """Deferred notification for ``target`` (None = every object)."""
        oid = plain_id(target)
        holder: list[Subscription] = []

        def action(event: str, ev_oid: Oid, vid: Vid | None) -> None:
            holder[0]._deliver(event, ev_oid, vid)

        trigger = self._triggers.register(
            action, events=list(events), oid=oid, mode=PERPETUAL
        )
        subscription = Subscription(self, trigger)
        holder.append(subscription)
        return subscription

    def on_change(
        self,
        callback: Callable[[Notification], None],
        target: Ref | Oid | None = None,
        events: tuple[str, ...] = CHANGE_EVENTS,
    ) -> Trigger:
        """Immediate (message-style) notification via ``callback``."""
        oid = plain_id(target)

        def action(event: str, ev_oid: Oid, vid: Vid | None) -> None:
            callback(Notification(event, ev_oid, vid))

        return self._triggers.register(
            action, events=list(events), oid=oid, mode=PERPETUAL
        )
