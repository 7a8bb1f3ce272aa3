"""Rewound-clock regression tests for version creation times.

The temporal chain is ordered by creation, and ``latest_at`` bisects the
creation times along it -- so a wall clock stepping backwards (NTP)
between ``newversion`` calls used to silently break ``version_as_of``.
``create`` now clamps a rewound ctime to the newest live version's, and
``validate`` rejects unsorted chains outright.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.core import store as store_module
from repro.core.vgraph import VersionGraph
from repro.errors import GraphInvariantError
from tests.conftest import Part


def test_create_clamps_rewound_clock():
    graph = VersionGraph()
    graph.create(1, None, 100.0)
    graph.create(2, 1, 50.0)  # the clock stepped back 50 seconds
    graph.create(3, 2, 60.0)  # still behind version 1
    assert graph.node(2).ctime == 100.0
    assert graph.node(3).ctime == 100.0
    graph.validate()
    # A recovered clock resumes real timestamps.
    graph.create(4, 3, 200.0)
    assert graph.node(4).ctime == 200.0
    graph.validate()


def test_latest_at_stays_correct_across_rewind():
    graph = VersionGraph()
    graph.create(1, None, 100.0)
    graph.create(2, 1, 50.0)
    graph.create(3, 2, 200.0)
    assert graph.latest_at(99.0) is None or graph.latest_at(99.0) == 1
    assert graph.latest_at(100.0) == 2  # both clamp to 100.0; newest wins
    assert graph.latest_at(250.0) == 3


def test_validate_rejects_unsorted_ctimes():
    graph = VersionGraph()
    graph.create(1, None, 100.0)
    graph.create(2, 1, 150.0)
    # Corrupt the chain the way the old bug did.
    graph.node(2).ctime = 10.0
    with pytest.raises(GraphInvariantError):
        graph.validate()


def test_build_rejects_unsorted_node_rows():
    """Node rows are written with the clamped ctime, so rows whose ctimes
    run backwards along the serials are refused, not repaired."""
    rows = [(1, None, 100.0, None), (2, 1, 10.0, None)]
    with pytest.raises(GraphInvariantError):
        VersionGraph.build(rows, 2)


def test_newversion_with_rewound_wall_clock(tmp_path, monkeypatch):
    """End-to-end: time.time() rewinds between newversion calls and the
    database still validates, orders versions, and answers as-of queries."""
    clock = iter([1000.0, 1000.0, 900.0, 950.0, 2000.0, 2000.0, 2000.0])
    fallback = 2000.0

    def fake_time() -> float:
        return next(clock, fallback)

    monkeypatch.setattr(store_module.time, "time", fake_time)
    with Database(tmp_path / "db") as db:
        ref = db.pnew(Part(name="p", weight=1))
        db.newversion(ref)  # created at a rewound timestamp
        db.newversion(ref)
        versions = db.versions(ref)
        assert [v.vid.serial for v in versions] == sorted(
            v.vid.serial for v in versions
        )
        graph = db.graph(ref)
        graph.validate()
        # As-of the far future, the answer is the latest version.
        latest = db.version_as_of(ref, 1e12)
        assert latest is not None
        assert latest.vid.serial == versions[-1].vid.serial
