"""Differential traces: the reference model vs the kernel and the baselines.

One canonical trace of versioning operations runs against the sequential
reference model (:class:`~repro.verify.model.ModelStore`), the real
kernel (:class:`~repro.Database`), and each related-work baseline.  The
model and the kernel must agree exactly; each baseline must agree up to
its **documented deltas** -- the places where the paper says those
systems differ (linear-only histories, default-version generic
dereference, declared versionability).  A baseline agreeing where it
should diverge, or diverging where it should agree, fails the test.

The canonical trace (single object, ``v`` is its payload field):

1. create with ``v=1``
2. overwrite the latest version's contents with ``v=2``
3. ``newversion`` (copy of latest), then overwrite with ``v=3``
4. branch: derive a second child from version 1 (``v=4``)
"""

from __future__ import annotations

import pytest

from repro import Database, PersistentObject, Vid, persistent
from repro.baselines.encore import EncoreStore, HistoryBearingEntity
from repro.baselines.iris import IrisStore
from repro.baselines.linear import LinearityError, LinearStore
from repro.baselines.orion import OrionStore
from repro.errors import BaselineError
from repro.storage.serialization import register_type
from repro.verify.model import ModelStore


@persistent(name="tests.EquivCell")
class EquivCell(PersistentObject):
    def __init__(self, v: int) -> None:
        self.v = v


@register_type
class EquivHBE(HistoryBearingEntity):
    def __init__(self, v: int) -> None:
        super().__init__()
        self.v = v


#: What every faithful implementation of the trace must observe.
EXPECTED = {
    "serials": [1, 2, 3],
    "contents": {1: 2, 2: 3, 3: 4},
    "parents": {1: None, 2: 1, 3: 1},
    "branch_supported": True,
}


def test_model_runs_the_trace():
    model = ModelStore()
    model.pnew("x", 1)
    model.write("x", 2)
    serial, dprev = model.newversion("x")
    assert (serial, dprev) == (2, 1)
    model.write("x", 3)
    serial, dprev = model.newversion("x", base=1)
    assert (serial, dprev) == (3, 1)
    model.write("x", 4, serial=3)

    assert model.serials("x") == EXPECTED["serials"]
    assert {s: model.read("x", s) for s in model.serials("x")} == EXPECTED["contents"]
    assert {s: model.dprevious("x", s) for s in model.serials("x")} == EXPECTED["parents"]
    assert model.leaves("x") == [2, 3]


def test_kernel_matches_model_exactly(tmp_path):
    db = Database(tmp_path / "db")
    try:
        ref = db.pnew(EquivCell(1))
        ref.v = 2
        v2 = db.newversion(ref)
        v2.v = 3
        v3 = db.newversion(db.deref(Vid(ref.oid, 1)))
        v3.v = 4

        serials = [vr.vid.serial for vr in db.versions(ref)]
        assert serials == EXPECTED["serials"]
        contents = {s: db.deref(Vid(ref.oid, s)).v for s in serials}
        assert contents == EXPECTED["contents"]
        parents = {}
        for s in serials:
            parent = db.dprevious(db.deref(Vid(ref.oid, s)))
            parents[s] = parent.vid.serial if parent else None
        assert parents == EXPECTED["parents"]
    finally:
        db.close()


def test_linear_baseline_diverges_exactly_at_branching():
    """GemStone/POSTGRES style: the trace works until step 4, where the
    linear constraint rejects the branch (the paper's §3 critique)."""
    store = LinearStore()
    oid = store.create({"v": 1})
    store.update(oid, {"v": 2})
    store.new_version(oid)
    store.update(oid, {"v": 3})
    assert store.deref(oid) == {"v": 3}
    assert store.as_of(oid, 0) == {"v": 2}  # linear history retained

    # Documented delta: branching from a non-latest version is impossible.
    with pytest.raises(LinearityError):
        store.new_version(oid, base=0)
    # The workaround costs identity: branch_by_copy makes a NEW object.
    branch = store.branch_by_copy(oid, 0)
    assert branch != oid
    assert store.deref(branch) == {"v": 2}
    assert store.version_count(oid) == 2  # the original chain is untouched


def test_orion_baseline_branches_but_generic_deref_follows_default():
    """ORION supports the full trace, but only for classes declared
    versionable, and generic dereference resolves the *default* version
    rather than the temporally latest (the paper's §7 distinction)."""
    store = OrionStore()
    store.declare_versionable("EquivCell")
    oid = store.create("EquivCell", {"v": 1})
    store.update_transient(oid, 1, {"v": 2})
    store.checkin(oid, 1)  # promote the initial transient to working
    n2 = store.checkout(oid, 1)
    store.update_transient(oid, n2, {"v": 3})
    n3 = store.derive(oid, 1)
    store.update_transient(oid, n3, {"v": 4})

    assert store.versions_of(oid) == EXPECTED["serials"]
    contents = {s: store.deref_specific(oid, s)["v"] for s in store.versions_of(oid)}
    assert contents == EXPECTED["contents"]

    # Documented delta: the generic reference follows the default version
    # (version 1 here, checked in), not the newest derivative.
    assert store.deref_generic(oid) == {"v": 2}
    store.set_default(oid, n3)
    assert store.deref_generic(oid) == {"v": 4}


def test_iris_baseline_needs_transformation_and_stays_linear():
    """IRIS versions anything -- after an explicit transformation -- and
    its ``new_version`` derives only from the default (no branch bases)."""
    store = IrisStore()
    oid = store.create({"v": 1})
    store.update(oid, {"v": 2})

    # Documented delta: versioning requires the transformation first.
    with pytest.raises(BaselineError):
        store.new_version(oid)
    store.transform_to_versioned(oid)

    n2 = store.new_version(oid)
    store.update(oid, {"v": 3}, number=n2)
    assert store.versions_of(oid) == [1, 2]
    assert store.deref_specific(oid, 1) == {"v": 2}
    assert store.deref_generic(oid) == {"v": 3}
    # Documented delta: new_version takes no base -- branching from
    # version 1 cannot even be expressed in the API.
    import inspect

    assert list(inspect.signature(store.new_version).parameters) == ["object_id"]


def test_encore_baseline_matches_via_version_sets():
    """ENCORE expresses the full trace (alternatives included) but only
    for HBE types, and resolution always indirects through the set."""
    store = EncoreStore()
    oid = store.create(EquivHBE(1))
    vset = store.version_set(oid)
    vset.update(1, EquivHBE(2))
    n2 = store.new_version(oid)
    vset.update(n2, EquivHBE(3))
    n3 = store.new_version(oid, alternative_to=1)
    vset.update(n3, EquivHBE(4))

    assert vset.versions() == EXPECTED["serials"]
    contents = {s: store.deref_specific(oid, s).v for s in vset.versions()}
    assert contents == EXPECTED["contents"]
    parents = {s: vset.previous_of(s) for s in vset.versions()}
    assert parents == EXPECTED["parents"]

    # Documented delta: non-HBE objects are rejected outright.
    with pytest.raises(BaselineError):
        store.create(object())


# -- retention: the kernel's collector vs. the reference model ----------------

#: Policy grid for the differential retention trace.  ``keep_days`` uses
#: version *index* distances (the trace below assigns ctimes 1..N), so
#: ``days`` here means "versions of age" -- the arithmetic is identical.
_RETENTION_GRID = [
    {"keep_last_n": 3, "keep_days": None, "keep_tagged": True},
    {"keep_last_n": 1, "keep_days": None, "keep_tagged": True},
    {"keep_last_n": 3, "keep_days": None, "keep_tagged": False},
    {"keep_last_n": None, "keep_days": 4 / 86400.0, "keep_tagged": True},
    {"keep_last_n": 2, "keep_days": 6 / 86400.0, "keep_tagged": True},
    {"keep_last_n": None, "keep_days": None, "keep_tagged": True},  # inactive
]


@pytest.mark.parametrize("policy_kw", _RETENTION_GRID)
def test_retention_matches_model_exactly(tmp_path, policy_kw):
    """Differential retention: for each policy in the grid, the kernel's
    doomed-version selection and its post-GC survivors must equal the
    reference model's, version for version, content for content."""
    from repro.core import gc as gc_engine
    from repro.core.gc import RetentionPolicy
    from repro.verify.model import ModelStore

    n_versions = 8
    tagged_serial = 2

    db = Database(tmp_path / "db")
    model = ModelStore()
    try:
        ref = db.pnew(EquivCell(0))
        for serial in range(2, n_versions + 1):
            db.newversion(ref)
            ref.v = serial * 10
        gc_engine.tag_version(db, db.deref(Vid(ref.oid, tagged_serial)), "milestone")

        # Mirror the kernel's actual ctimes into the model so keep_days
        # horizons compute over the same timeline.
        nodes = list(db.store.graph(ref.oid).walk_temporal())
        model.pnew("x", 0, ctime=nodes[0].ctime)
        for node in nodes[1:]:
            model.newversion("x", ctime=node.ctime)
            model.write("x", node.serial * 10)
        now = nodes[-1].ctime + 1.0

        # The pure selections agree, in order.
        policy = RetentionPolicy(**policy_kw)
        doomed = gc_engine.doomed_versions(
            db, ref.oid, policy, gc_engine.version_tags(db, ref), now
        )
        model_doomed = model.doomed("x", tags=[tagged_serial], now=now, **policy_kw)
        assert [vid.serial for vid in doomed] == model_doomed

        # Applying them agrees too: survivors and payloads match.
        gc_engine.set_retention(db, ref, policy)
        db.run_gc(now=now)
        model.apply_retention("x", tags=[tagged_serial], now=now, **policy_kw)
        survivors = [vr.vid.serial for vr in db.versions(ref)]
        assert survivors == model.serials("x")
        for serial in survivors:
            assert db.deref(Vid(ref.oid, serial)).v == model.read("x", serial)

        # Retention never dooms the latest, and tags shield iff keep_tagged.
        assert n_versions in survivors
        if policy.active and policy_kw["keep_tagged"]:
            assert tagged_serial in survivors
    finally:
        db.close()
