"""One read surface, six hosts: every traversal answers the same everywhere.

``repro.core.surface.VersionReads`` implements ``deref`` and the paper-§4
traversals once; ``VersionStore``, ``Database``, ``Snapshot``,
``ShardedDatabase``, ``GlobalSnapshot`` and ``ShardedReader`` inherit it.
This suite asks every host the same questions about the paper's figure
(v0 -> v1, v0 -> v2, v1 -> v3) with every kind of argument, inside and
outside transactions, and requires equal answers by ``(oid, serial)``,
results bound to the surface that was asked, and the same two domain
errors everywhere.  The three sharded hosts take their per-object reads
from ``repro.shard.snapshot.Routed``, whose signatures must be the
kernel's own.
"""

from __future__ import annotations

import inspect
from contextlib import nullcontext

import pytest

from repro import Database, persistent
from repro.core.identity import Oid, Vid
from repro.core.pointers import Ref, VersionRef
from repro.errors import UnknownObjectError, UnknownVersionError
from repro.shard import ShardedDatabase
from repro.shard.snapshot import Routed

SURFACES = ("store", "database", "snapshot", "router-1", "router-4", "cut", "reader")
KINDS = ("ref", "oid", "vref", "vid")
MODES = ("autocommit", "txn", "snapshot-txn")

#: Serials of the figure's versions, in creation order.
V0, V1, V2, V3 = 1, 2, 3, 4
FAR_FUTURE = 1e18


@persistent(name="conformance.Figure")
class Figure:
    def __init__(self, state: str) -> None:
        self.state = state

    def label(self) -> str:
        """A pure reader method (writes nothing back)."""
        return f"<{self.state}>"


class World:
    """The figure, built on one engine, and the surface under test."""

    def __init__(self, kind: str, path) -> None:
        if kind.startswith("router") or kind in ("cut", "reader"):
            nshards = 1 if kind == "router-1" else 4
            self.engine = ShardedDatabase(path, nshards=nshards)
        else:
            self.engine = Database(path)
        engine = self.engine
        # Padding objects first, so the figure's oid is not every shard's
        # first one and the 4-shard router really routes.
        for i in range(3):
            engine.pnew(Figure(f"pad{i}"))
        p = engine.pnew(Figure("v0"))
        v0 = p.pin()
        v1 = engine.newversion(p)
        v1.state = "v1"
        v2 = engine.newversion(v0)
        v2.state = "v2"
        v3 = engine.newversion(v1)
        v3.state = "v3"
        assert [v.vid.serial for v in (v0, v1, v2, v3)] == [V0, V1, V2, V3]
        self.oid = p.oid
        self._session = None
        if kind == "store":
            self.surface = engine.store
        elif kind in ("snapshot", "cut"):
            self.surface = engine.snapshot()
        elif kind == "reader":
            self._session = engine.session("conformance")
            self.surface = self._session.pin()
        else:
            self.surface = engine

    def close(self) -> None:
        if self._session is not None:
            self._session.close()
        elif self.surface is not self.engine and hasattr(self.surface, "close"):
            self.surface.close()
        self.engine.close()

    def target(self, kind: str, serial: int = V3):
        """``serial`` as the given argument kind; the generic kinds can
        only name the latest version (v3)."""
        if kind == "ref":
            return Ref(self.surface, self.oid)
        if kind == "oid":
            return self.oid
        vid = Vid(self.oid, serial)
        return VersionRef(self.surface, vid) if kind == "vref" else vid

    def mode(self, mode: str):
        if mode == "autocommit":
            return nullcontext()
        return self.engine.transaction(snapshot_reads=mode == "snapshot-txn")


@pytest.fixture(scope="module", params=SURFACES)
def world(request, tmp_path_factory):
    w = World(request.param, tmp_path_factory.mktemp("conformance") / "db")
    yield w
    w.close()


def _plain(surface, answer):
    """An answer as plain serials, after checking what it is bound to."""
    if answer is None or isinstance(answer, int):
        return answer
    if isinstance(answer, list):
        return [_plain(surface, item) for item in answer]
    assert isinstance(answer, VersionRef)
    assert object.__getattribute__(answer, "_store") is surface
    return answer.vid.serial


#: traversal -> (call, expected answer when the argument names v3 / the object).
TRAVERSALS = {
    "dprevious": (lambda s, t: s.dprevious(t), V1),
    "dnext": (lambda s, t: s.dnext(t), []),
    "tprevious": (lambda s, t: s.tprevious(t), V2),
    "tnext": (lambda s, t: s.tnext(t), None),
    "history": (lambda s, t: s.history(t), [V3, V1, V0]),
    "versions": (lambda s, t: s.versions(t), [V0, V1, V2, V3]),
    "version_as_of": (lambda s, t: s.version_as_of(t, FAR_FUTURE), V3),
    "leaves": (lambda s, t: s.leaves(t), [V2, V3]),
    "alternatives": (lambda s, t: s.alternatives(t), [[V0, V1, V3], [V0, V2]]),
    "version_count": (lambda s, t: s.version_count(t), 4),
    "graph": (lambda s, t: s.graph(t).serials(), [V0, V1, V2, V3]),
}
VERSION_SCOPED = ("dprevious", "dnext", "tprevious", "tnext", "history")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("traversal", TRAVERSALS)
def test_every_argument_kind_gets_the_same_answer(world, traversal, kind):
    call, expected = TRAVERSALS[traversal]
    for mode in MODES:
        with world.mode(mode):
            answer = call(world.surface, world.target(kind))
            assert _plain(world.surface, answer) == expected, mode


@pytest.mark.parametrize("kind", ("vref", "vid"))
def test_specific_ids_name_their_own_version(world, kind):
    s = world.surface
    assert _plain(s, s.dprevious(world.target(kind, V0))) is None
    assert _plain(s, s.dnext(world.target(kind, V0))) == [V1, V2]
    assert _plain(s, s.tnext(world.target(kind, V0))) == V1
    assert _plain(s, s.tprevious(world.target(kind, V0))) is None
    assert _plain(s, s.history(world.target(kind, V2))) == [V2, V0]
    # Object-scoped reads take the object of whatever version they get.
    assert _plain(s, s.leaves(world.target(kind, V0))) == [V2, V3]
    assert _plain(s, s.version_as_of(world.target(kind, V0), 0.0)) is None


def test_results_read_through_the_surface_asked(world):
    s = world.surface
    v1 = s.dprevious(world.target("oid"))
    assert v1.state == "v1"
    assert v1.label() == "<v1>"
    assert [v.state for v in s.history(v1)] == ["v1", "v0"]


def test_deref_binds_to_the_surface(world):
    s = world.surface
    ref = s.deref(world.oid)
    assert isinstance(ref, Ref) and object.__getattribute__(ref, "_store") is s
    assert ref.state == "v3"
    vref = s.deref(Vid(world.oid, V2))
    assert isinstance(vref, VersionRef) and object.__getattribute__(vref, "_store") is s
    assert vref.state == "v2"
    with pytest.raises(TypeError):
        s.deref("not an id")


@pytest.mark.parametrize("kind", ("vref", "vid"))
@pytest.mark.parametrize("traversal", VERSION_SCOPED)
def test_dead_serial_is_unknown_version(world, traversal, kind):
    call, _ = TRAVERSALS[traversal]
    with pytest.raises(UnknownVersionError):
        call(world.surface, world.target(kind, 99))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("traversal", TRAVERSALS)
def test_missing_object_is_unknown_object(world, traversal, kind):
    call, _ = TRAVERSALS[traversal]
    missing = Oid(world.oid.value + 4000)
    target = {
        "ref": Ref(world.surface, missing),
        "oid": missing,
        "vref": VersionRef(world.surface, Vid(missing, 1)),
        "vid": Vid(missing, 1),
    }[kind]
    with pytest.raises(UnknownObjectError):
        call(world.surface, target)


@pytest.mark.parametrize("traversal", TRAVERSALS)
def test_a_non_id_argument_is_a_type_error(world, traversal):
    call, _ = TRAVERSALS[traversal]
    with pytest.raises(TypeError):
        call(world.surface, "not an id")


ROUTED_READS = sorted(name for name in vars(Routed) if not name.startswith("_"))


@pytest.mark.parametrize("name", ROUTED_READS)
def test_routed_reads_have_the_kernels_signatures(name):
    """The router and the kernel speak one op: same parameters, same
    annotations, for every read the sharded surfaces inherit."""
    assert inspect.signature(getattr(Routed, name)) == inspect.signature(
        getattr(Database, name)
    )


def test_cluster_names_and_object_count_agree(world):
    s = world.surface
    for mode in MODES:
        with world.mode(mode):
            assert s.cluster_names() == ["conformance.Figure"], mode
            assert s.object_count() == 4, mode
