"""Restart resolution of in-doubt cross-shard transactions.

Runs at every :class:`~repro.shard.router.ShardedDatabase` open, after
every shard's own WAL recovery, and again -- online -- whenever a down
shard is reattached.  Each shard surfaces two things: its
prepared-but-undecided participants (effects already replayed, undo
images retained) and the coordinator commit verdicts surviving in its
WAL.  A participant's ``COMMIT`` record is appended without a force
(see :mod:`repro.shard.coordinator`), so a transaction whose commit was
acknowledged can come back in doubt: its durability rests on the
verdict, and this module is what cashes it in.  Resolution is presumed
abort:

* an in-doubt participant whose gtxid has a durable ``COORD_COMMIT`` on
  *any* reachable shard commits (the verdict was the commit point);
* one whose gtxid appears nowhere aborts -- without a durable verdict no
  participant can have committed, so rolling back loses nothing -- but
  **only when its coordinator shard is reachable**.  The verdict lives in
  exactly one WAL (the coordinator's); while that shard is down, "no
  verdict found" is inconclusive, and presuming abort would roll back a
  globally-committed transaction whose verdict is merely unreachable.
  Such participants stay in doubt until the coordinator returns.

Verdicts are read across **all** up shards before any participant is
resolved, and none is forgotten here except through the router's one
release rule (:func:`~repro.shard.coordinator.release_verdicts`): a
verdict found in a WAL is enrolled as held, a held verdict's participant
is re-marked only once it is durably out of doubt, and whatever that
leaves uncovered -- a participant still down, a live commit between its
decision and its ``COMMIT`` appends -- stays held.  A crash
mid-resolution re-runs it idempotently (compensation ops are logged,
commits are plain ``COMMIT`` appends, and re-delivering a verdict to an
already-resolved participant is a no-op because the participant is no
longer in-doubt).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import DatabaseDegradedError, TransactionStateError
from repro.shard.coordinator import HeldVerdict, settle_verdicts

if TYPE_CHECKING:
    from repro.shard.router import ShardedDatabase


@dataclass
class ResolutionReport:
    """What open-time resolution did -- asserted on by the crash matrix."""

    #: (shard index, local txid) pairs committed by a surviving verdict.
    committed: list[tuple[int, int]] = field(default_factory=list)
    #: (shard index, local txid) pairs rolled back by presumed abort.
    aborted: list[tuple[int, int]] = field(default_factory=list)
    #: (shard index, local txid) pairs left in doubt: no verdict was
    #: found, but the coordinator shard that could hold one is down.
    deferred: list[tuple[int, int]] = field(default_factory=list)
    #: Verdicts released after resolution (gtxids).
    forgotten: list[tuple] = field(default_factory=list)

    @property
    def resolved(self) -> int:
        return len(self.committed) + len(self.aborted)


def resolve_in_doubt(router: "ShardedDatabase") -> ResolutionReport:
    """Resolve every in-doubt participant on the router's up shards.

    Down shards are skipped: their participants wait for their reattach,
    and a verdict-less participant whose *coordinator* shard is down is
    deferred (left in doubt), not presumed aborted -- the unreachable WAL
    may hold its ``COORD_COMMIT``.
    """
    report = ResolutionReport()
    up = set(router._up_shards())

    # Collect verdicts from every reachable shard first: a participant
    # on shard A may have been coordinated by shard B.
    decisions: dict[tuple, tuple[int, tuple[int, ...]]] = {}
    for idx in sorted(up):
        for gtxid, parts in router.shards[idx].coordinator_decisions().items():
            decisions[gtxid] = (idx, parts)

    touched: set[int] = set()
    for idx in sorted(up):
        db = router.shards[idx]
        for txid, info in sorted(db.in_doubt_txns().items()):
            commit = info.gtxid in decisions
            if not commit and info.coordinator not in up:
                # No verdict found -- but the coordinator shard, the one
                # WAL that could hold it, is unreachable.  The outcome is
                # unknowable: presumed abort here would roll back a
                # globally-committed transaction whose verdict is merely
                # on a down shard.  Stay in doubt until it returns.
                report.deferred.append((idx, txid))
                continue
            db.resolve_in_doubt(txid, commit=commit)
            touched.add(idx)
            (report.committed if commit else report.aborted).append((idx, txid))

    with router._held_mutex:
        for gtxid, (coord_idx, parts) in decisions.items():
            # A verdict that outlived whatever logged it (the previous
            # process, or a killed generation of its shard) is held like a
            # live one, every mark stale.
            router._held.setdefault(
                gtxid, HeldVerdict(gtxid, coord_idx, {p: (-1, None) for p in parts})
            )
        for held in router._held.values():
            for idx, (gen, _seq) in held.marks.items():
                if idx not in up or gen == router._shard_gen[idx]:
                    continue
                # The participant ran under a generation of its shard that
                # is gone.  Out of doubt on the shard's current generation
                # means its outcome is durable there: the COMMIT reached
                # disk before the shard went down, or was forced just now.
                if not any(
                    info.gtxid == held.gtxid
                    for info in router.shards[idx].in_doubt_txns().values()
                ):
                    held.marks[idx] = (router._shard_gen[idx], 0)
    for held in settle_verdicts(router):
        touched.add(held.coordinator)
        report.forgotten.append(held.gtxid)
    for idx in sorted(touched):
        # The checkpoint is only the WAL-truncation opportunity, not
        # part of resolution's correctness.  At open it always succeeds
        # (no sessions yet); during *online* reattach a touched shard
        # may be running live transactions, and checkpoint refuses
        # non-quiescent -- skip, the next quiescent checkpoint truncates.
        try:
            router.shards[idx].checkpoint()
        except (DatabaseDegradedError, TransactionStateError):
            pass
    return report
