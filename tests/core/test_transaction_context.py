"""``with engine.transaction():`` -- the exit rules, on every engine.

Written once in :class:`~repro.core.session.SessionHost` and run here on
the embedded database; ``tests/shard/test_engine_suites.py`` collects the
module again on a one-shard and a four-shard router.
"""

from __future__ import annotations

import pytest

from tests.conftest import Part


class Boom(Exception):
    pass


def test_a_failed_commit_never_stays_attached(engine):
    """The commit raises and leaves the transaction active (here: before
    it did anything).  The context aborts it, so the session is free for
    the next ``begin`` and the write is gone; the commit's error surfaces."""
    ref = engine.pnew(Part("p", 1))

    def failing_commit():
        raise Boom("commit")

    with pytest.raises(Boom, match="commit"):
        with engine.transaction() as txn:
            ref.weight = 2
            txn.commit = failing_commit
    assert txn.state == "aborted"
    assert engine.current_transaction() is None
    with engine.transaction():
        assert ref.weight == 1
        ref.weight = 3
    assert ref.weight == 3


def test_a_decided_transaction_is_not_aborted(engine):
    """Once the verdict is durable the context must not roll back, whatever
    the body or the commit raised: completing it is recovery's job."""
    ref = engine.pnew(Part("p", 1))
    with pytest.raises(Boom):
        with engine.transaction() as txn:
            ref.weight = 2
            txn.decided = True
            raise Boom
    assert txn.state == "active" and engine.current_transaction() is txn
    txn.decided = False
    txn.commit()
    assert ref.weight == 2 and engine.current_transaction() is None


def test_an_error_in_the_body_aborts(engine):
    ref = engine.pnew(Part("p", 1))
    with pytest.raises(Boom):
        with engine.transaction() as txn:
            ref.weight = 2
            raise Boom
    assert txn.state == "aborted" and ref.weight == 1
    assert engine.current_transaction() is None
