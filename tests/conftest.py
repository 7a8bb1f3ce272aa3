"""Shared fixtures: temporary databases and common persistent test types."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings

from repro import Database, PersistentObject, StoragePolicy, persistent, probe
from repro.shard import ShardedDatabase

#: Session seed for randomized tests: override with REPRO_TEST_SEED=<int>
#: to replay a failing run; printed in the pytest header either way.
TEST_SEED = int(os.environ.get("REPRO_TEST_SEED", "0") or "0")


#: ``--hypothesis-profile=ci`` (the blocking CI job): the examples are
#: derived from each test, not from a random seed, so a verdict is a
#: function of the tree.  The default profile stays random.
settings.register_profile("ci", derandomize=True)


def pytest_report_header(config):
    return f"REPRO_TEST_SEED={TEST_SEED} (set the env var to replay)"


@pytest.fixture(autouse=True)
def _isolate_process_globals():
    """Reset cross-test process-global state, before and after each test.

    The probe plane's observer slot (a fault injector or the verify
    scheduler) is a process global by design (zero-overhead when empty);
    a test that fails mid-setup must not leak it into the next test.
    """
    probe.detach()
    yield
    probe.detach()


@pytest.fixture
def test_seed():
    """The session seed; also reseeds ``random`` for the test body."""
    random.seed(TEST_SEED)
    return TEST_SEED


@persistent(name="tests.Part")
class Part(PersistentObject):
    """The running example object: a part with a name and a weight."""

    def __init__(self, name: str, weight: int) -> None:
        self.name = name
        self.weight = weight

    def reweigh(self, delta: int) -> int:
        """Mutating method (exercises write-back through references)."""
        self.weight += delta
        return self.weight


@persistent(name="tests.Doc")
class Doc(PersistentObject):
    """A document with free-form text."""

    def __init__(self, text: str) -> None:
        self.text = text


@persistent(name="tests.Node")
class Node(PersistentObject):
    """An object that references other objects (for pointer-chain tests)."""

    def __init__(self, label: str, next_ref=None) -> None:
        self.label = label
        self.next_ref = next_ref


@pytest.fixture
def db(engine) -> Database:
    """A fresh full-copy database: the :func:`engine` of the default kind.

    (A suite whose tests only use ``db`` is thereby engine-agnostic --
    see :func:`engine_kind`.)
    """
    return engine


@pytest.fixture
def delta_db(tmp_path) -> Database:
    """A fresh delta-storage database, closed after the test."""
    database = Database(
        tmp_path / "delta_db", policy=StoragePolicy(kind="delta", keyframe_interval=8)
    )
    yield database
    database.close()


@pytest.fixture(params=["full", "delta"])
def any_db(tmp_path, request) -> Database:
    """Parametrized over both storage policies -- behaviour must not differ."""
    database = open_engine(request.param, tmp_path / f"{request.param}_db")
    yield database
    database.close()


#: The engines an engine-agnostic suite must pass on: the embedded
#: database, and the router over one shard and over four.
ENGINES = ("database", "router-1", "router-4")


def open_engine(kind: str, path):
    """Open the engine a kind names: ``database``, ``router-<nshards>``, or
    ``full`` / ``delta`` (a database under that storage policy)."""
    if kind.startswith("router-"):
        return ShardedDatabase(path, nshards=int(kind[len("router-"):]))
    if kind == "database":
        return Database(path)
    return Database(path, policy=StoragePolicy(kind=kind, keyframe_interval=4))


def pytest_generate_tests(metafunc):
    """A module that sets ``ENGINE_KINDS`` runs every test of its that
    opens an engine once per kind (ids ``test_x[<kind>]``)."""
    kinds = getattr(metafunc.module, "ENGINE_KINDS", None)
    if kinds and "engine_kind" in metafunc.fixturenames:
        metafunc.parametrize("engine_kind", kinds, indirect=True)


@pytest.fixture
def engine_kind(request) -> str:
    """Which engine :func:`engine` opens: ``database``, unless the test's
    module sets ``ENGINE_KINDS``.

    Suites written against ``engine`` (or ``db``, which is the same
    object) thus keep their plain test ids on the embedded database;
    ``tests/shard/test_engine_suites.py`` collects the engine-agnostic
    ones again over the routers, so together they cover :data:`ENGINES`.
    """
    return getattr(request, "param", "database")


@pytest.fixture
def engine(engine_kind, tmp_path):
    """A fresh engine of the requested kind, closed after the test."""
    eng = open_engine(engine_kind, tmp_path / "db")
    yield eng
    eng.close()
