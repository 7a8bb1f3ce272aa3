"""Stateful property test: held verdicts under failover.

Hypothesis interleaves two sessions' cross-shard transfers with
single-shard commits (which force one shard's log), checkpoints and
``kill_shard`` / ``reattach_shard``, and checks two things the lazy
participant COMMIT makes worth checking:

* **conservation** -- each session moves money between its own three
  accounts (one per shard), so its sum never changes, whatever was
  killed when, and whatever resolution had to finish;
* **no verdict is released before its COMMITs are durable** -- checked
  independently of the router's sequence bookkeeping: every
  ``COORD_END`` append is intercepted and each participant's *WAL file*
  is read back.  A participant whose ``PREPARE`` for that gtxid is still
  in the file must have its ``COMMIT`` there too (a file without the
  ``PREPARE`` was truncated by a checkpoint after the commit reached the
  data pages).
"""

from __future__ import annotations

import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import PersistentObject, persistent
from repro.core.database import Database
from repro.errors import OdeError
from repro.shard import ShardedDatabase
from repro.storage import serialization
from repro.storage.wal import COMMIT, PREPARE

NSHARDS = 3
BALANCE = 100


@persistent(name="tests.shard.HvAcct")
class HvAcct(PersistentObject):
    def __init__(self, bal: int = 0) -> None:
        self.bal = bal


def _commit_is_durable(shard: Database, gtxid: tuple) -> bool:
    """Read shard's WAL *file*: PREPARE(gtxid) present implies COMMIT present."""
    prepared: set[int] = set()
    committed: set[int] = set()
    for rec in shard._log.records():
        if rec.kind == PREPARE and serialization.decode(rec.payload)[0] == gtxid:
            prepared.add(rec.txid)
        elif rec.kind == COMMIT:
            committed.add(rec.txid)
    return prepared <= committed


class HeldVerdictMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self._dir = tempfile.mkdtemp(prefix="ode-held-")
        self.router = ShardedDatabase(self._dir, nshards=NSHARDS, lock_timeout=0.5)
        # Session s owns accounts s*3 .. s*3+2, homed on shards 0, 1, 2.
        oids = [self.router.pnew(HvAcct(BALANCE)).oid for _ in range(2 * NSHARDS)]
        self.oids = [oids[:NSHARDS], oids[NSHARDS:]]
        self.router.checkpoint()
        self.sessions = [self.router.session(name=f"s{i}") for i in range(2)]
        self.open: list = [None, None]
        self.violations: list[str] = []
        machine = self
        real_forget = Database.forget_coordinator_decision

        def checked_forget(db: Database, gtxid: tuple) -> None:
            router = machine.router
            for idx in db.coordinator_decisions().get(gtxid, ()):
                if router._shard_down[idx]:
                    machine.violations.append(f"{gtxid}: participant {idx} is down")
                elif not _commit_is_durable(router.shards[idx], gtxid):
                    machine.violations.append(
                        f"{gtxid}: shard {idx}'s COMMIT is not in its WAL file"
                    )
            real_forget(db, gtxid)

        self._real_forget = real_forget
        Database.forget_coordinator_decision = checked_forget

    def _all_up(self) -> bool:
        return not any(self.router._shard_down)

    def _drop(self, who: int) -> None:
        """The session's transaction failed: settle it and start afresh (a
        decided one is detached for resolution, never aborted)."""
        self.open[who] = None
        self.sessions[who].close()
        self.sessions[who] = self.router.session(name=f"s{who}")

    # -- the two sessions ---------------------------------------------------

    @precondition(lambda self: self._all_up())
    @rule(who=st.integers(0, 1), src=st.integers(0, 2), hop=st.integers(1, 2),
          amount=st.integers(1, 9))
    def begin_transfer(self, who: int, src: int, hop: int, amount: int) -> None:
        if self.open[who] is not None:
            return
        a, b = self.oids[who][src], self.oids[who][(src + hop) % NSHARDS]
        try:
            with self.sessions[who].activate():
                gtxn = self.router.begin()
                self.router.deref(a).bal -= amount
                self.router.deref(b).bal += amount
            self.open[who] = gtxn
        except OdeError:
            self._drop(who)

    @rule(who=st.integers(0, 1))
    def commit(self, who: int) -> None:
        gtxn = self.open[who]
        if gtxn is None:
            return
        try:
            with self.sessions[who].activate():
                gtxn.commit()
            self.open[who] = None
        except OdeError:
            self._drop(who)

    @precondition(lambda self: self._all_up())
    @rule(who=st.integers(0, 1), shard=st.integers(0, 2))
    def single_shard_commit(self, who: int, shard: int) -> None:
        """A fast-path commit: forces this shard's log, sweeps verdicts."""
        if self.open[who] is not None:
            return
        try:
            with self.sessions[who].activate():
                with self.router.transaction():
                    ref = self.router.deref(self.oids[who][shard])
                    ref.bal = ref.bal
        except OdeError:
            self._drop(who)

    # -- the operator ----------------------------------------------------------

    @rule(shard=st.integers(0, 2))
    def kill(self, shard: int) -> None:
        self.router.kill_shard(shard)

    @rule(shard=st.integers(0, 2))
    def reattach(self, shard: int) -> None:
        if self.router._shard_down[shard]:
            self.router.reattach_shard(shard)

    @precondition(lambda self: self._all_up() and self.open == [None, None])
    @rule()
    def checkpoint(self) -> None:
        self.router.checkpoint()

    # -- invariants --------------------------------------------------------------

    @invariant()
    def no_verdict_released_early(self) -> None:
        assert not self.violations, self.violations

    @invariant()
    def held_verdicts_are_still_journaled(self) -> None:
        """A held verdict is one its (up) coordinator shard still knows."""
        router = self.router
        for gtxid, held in list(router._held.items()):
            if not router._shard_down[held.coordinator] and all(
                seq is not None for _gen, seq in held.marks.values()
            ):
                assert gtxid in router.shards[held.coordinator].coordinator_decisions()

    @invariant()
    def money_is_conserved(self) -> None:
        if not self._all_up() or self.open != [None, None]:
            return
        for who in range(2):
            total = sum(self.router.deref(oid).bal for oid in self.oids[who])
            assert total == NSHARDS * BALANCE, f"session {who} holds {total}"

    def teardown(self) -> None:
        Database.forget_coordinator_decision = self._real_forget
        try:
            for who in range(2):
                self._drop(who)
            for shard in range(NSHARDS):
                if self.router._shard_down[shard]:
                    self.router.reattach_shard(shard)
            self.router.close()
            # What a restart finds: conservation again, nothing left over.
            reopened = ShardedDatabase(self._dir)
            try:
                for who in range(2):
                    total = sum(reopened.deref(oid).bal for oid in self.oids[who])
                    assert total == NSHARDS * BALANCE, f"session {who} holds {total}"
                for shard in reopened.shards:
                    assert not shard.in_doubt_txns()
                    assert not shard.coordinator_decisions()
            finally:
                reopened.close()
        finally:
            shutil.rmtree(self._dir, ignore_errors=True)


TestHeldVerdictMachine = HeldVerdictMachine.TestCase
TestHeldVerdictMachine.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
