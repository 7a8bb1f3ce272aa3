"""Unit tests for the serializability oracle over hand-built histories."""

from __future__ import annotations

import pytest

from repro.verify.model import ModelStore
from repro.verify.oracle import ThreadLog, check


def _final(seed, *txn_event_lists, keys=("x",)):
    """The model's export after replaying ``seed`` then each event list in order."""
    model = ModelStore()
    for event in seed:
        _apply(model, event)
    for events in txn_event_lists:
        for event in events:
            _apply(model, event)
    return model.export(list(keys))


def _apply(model, event):
    kind = event[0]
    if kind == "pnew":
        model.pnew(event[1], event[2])
    elif kind == "write":
        model.write(event[1], event[3], event[2])
    elif kind == "newversion":
        model.newversion(event[1], event[2])
    elif kind == "vdelete":
        model.vdelete(event[1], event[2])
    # reads need no state change


SEED = [("pnew", "x", 0)]


def test_accepts_clean_serial_rmw_history():
    t1, t2 = ThreadLog("T1"), ThreadLog("T2")
    t1.begin(); t1.read("x", 0); t1.write("x", 1); t1.commit()
    t2.begin(); t2.read("x", 1); t2.write("x", 2); t2.commit()
    final = _final(SEED, [("write", "x", None, 2)])
    verdict = check(SEED, {"T1": t1, "T2": t2}, final, ["x"])
    assert verdict
    assert verdict.witness == ("T1#0", "T2#0")


def test_rejects_lost_update():
    t1, t2 = ThreadLog("T1"), ThreadLog("T2")
    # Both read 0 and both commit a write of 1: no serial order has the
    # second transaction reading 0.
    t1.begin(); t1.read("x", 0); t1.write("x", 1); t1.commit()
    t2.begin(); t2.read("x", 0); t2.write("x", 1); t2.commit()
    final = _final(SEED, [("write", "x", None, 1)])
    verdict = check(SEED, {"T1": t1, "T2": t2}, final, ["x"])
    assert not verdict
    assert verdict.permutations_checked == 2
    assert verdict.details


def test_rejects_wrong_final_state():
    t1 = ThreadLog("T1")
    t1.begin(); t1.write("x", 5); t1.commit()
    final = _final(SEED)  # real state never got the write
    verdict = check(SEED, {"T1": t1}, final, ["x"])
    assert not verdict


def test_aborted_txn_must_not_leak():
    t1, r1 = ThreadLog("T1"), ThreadLog("R1")
    t1.begin(); t1.write("x", 101); t1.abort("rollback")
    r1.pin(); r1.read("x", 0); r1.unpin()
    final = _final(SEED)
    assert check(SEED, {"T1": t1, "R1": r1}, final, ["x"])

    dirty = ThreadLog("R1")
    dirty.pin(); dirty.read("x", 101); dirty.unpin()  # saw the rollback
    verdict = check(SEED, {"T1": t1, "R1": dirty}, final, ["x"])
    assert not verdict


def test_pinned_reads_must_be_one_prefix():
    t1, r1 = ThreadLog("T1"), ThreadLog("R1")
    t1.begin(); t1.write("x", 2); t1.write("y", 2); t1.commit()
    # A single pin observing x before the commit and y after it: torn.
    r1.pin(); r1.read("x", 1); r1.read("y", 2); r1.unpin()
    seed = [("pnew", "x", 1), ("pnew", "y", 1)]
    final = _final(seed, [("write", "x", None, 2), ("write", "y", None, 2)], keys=("x", "y"))
    verdict = check(seed, {"T1": t1, "R1": r1}, final, ["x", "y"])
    assert not verdict

    clean = ThreadLog("R1")
    clean.pin(); clean.read("x", 1); clean.read("y", 1); clean.unpin()
    assert check(seed, {"T1": t1, "R1": clean}, final, ["x", "y"])


def test_successive_pins_must_be_monotone():
    t1, r1 = ThreadLog("T1"), ThreadLog("R1")
    t1.begin(); t1.write("x", 2); t1.commit()
    # Second pin travels back in time: 2 then 0 again.
    r1.pin(); r1.read("x", 2); r1.unpin()
    r1.pin(); r1.read("x", 0); r1.unpin()
    final = _final(SEED, [("write", "x", None, 2)])
    verdict = check(SEED, {"T1": t1, "R1": r1}, final, ["x"])
    assert not verdict


def test_program_order_constrains_same_thread_txns():
    t1 = ThreadLog("T1")
    t1.begin(); t1.read("x", 0); t1.write("x", 1); t1.commit()
    t1.begin(); t1.read("x", 1); t1.write("x", 2); t1.commit()
    final = _final(SEED, [("write", "x", None, 2)])
    verdict = check(SEED, {"T1": t1}, final, ["x"])
    assert verdict
    # Only the program order is even tried: T1#0 before T1#1.
    assert verdict.permutations_checked == 1


def test_newversion_serials_checked():
    t1 = ThreadLog("T1")
    t1.begin(); t1.newversion("x", 2, 1); t1.commit()
    model = ModelStore(); model.pnew("x", 0); model.newversion("x")
    assert check(SEED, {"T1": t1}, model.export(["x"]), ["x"])

    wrong = ThreadLog("T1")
    wrong.begin(); wrong.newversion("x", 7, 1); wrong.commit()
    assert not check(SEED, {"T1": wrong}, model.export(["x"]), ["x"])


def test_unterminated_transaction_is_a_harness_error():
    t1 = ThreadLog("T1")
    t1.begin(); t1.write("x", 1)
    with pytest.raises(ValueError):
        check(SEED, {"T1": t1}, _final(SEED), ["x"])


def test_bad_seed_raises():
    t1 = ThreadLog("T1")
    with pytest.raises(ValueError):
        check([("read", "x", None, 99)], {"T1": t1}, {}, ["x"])
