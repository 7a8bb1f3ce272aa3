"""Operational tools: inspection, integrity checking, and vacuum.

What a downstream user reaches for when a database directory looks odd:

* :func:`repro.tools.inspect.inspect_database` / ``python -m repro.tools.inspect``
  -- human-readable summary of a database directory;
* :func:`repro.tools.check.check_database` -- fsck-style deep integrity
  verification (every version materializes, every graph validates, no
  orphan payload records);
* :func:`repro.tools.vacuum.vacuum` -- rewrite a database into a fresh
  compact directory, dropping dead pages and fragmentation.

Three harnesses share one scenario runner, report and CLI
(:mod:`repro.tools.harness`); each picks its scenarios with
``--scenario NAME`` (repeatable):

* ``python -m repro.tools.crashmatrix`` -- deterministic fault-injection
  crash matrix: crash/torn-write/short-write/fsync-failure at every
  storage failpoint, then recovery verification against the strict
  integrity check (matrices ``plain``, ``twopc``, ``gc``);
* ``python -m repro.tools.stress`` -- multi-threaded contention stress
  with lost-update and quiescence invariants;
* ``python -m repro.tools.chaos`` -- a client swarm through a hostile
  wire and failing shards.

``python -m repro.tools.explore`` is the deterministic interleaving
explorer: it replays 2-4-transaction scenarios under the cooperative
scheduler (:mod:`repro.verify`) and judges every interleaving with the
model-based serializability oracle (see ``docs/TESTING.md``).

The CLI-first tools (the harnesses, ``explore``) are import-on-demand
rather than re-exported here: they pull in scenario/workload machinery
that the inspection helpers above never need, and ``python -m`` must
find them unimported.
"""

from repro.tools.check import CheckReport, check_database
from repro.tools.dump import DumpError, dump_database, load_database
from repro.tools.inspect import DatabaseSummary, inspect_database
from repro.tools.migrate import (
    MigrationError,
    MigrationReport,
    add_field,
    drop_field,
    migrate_cluster,
    rename_field,
)
from repro.tools.vacuum import VacuumReport, vacuum

__all__ = [
    "CheckReport",
    "check_database",
    "DumpError",
    "dump_database",
    "load_database",
    "MigrationError",
    "MigrationReport",
    "add_field",
    "drop_field",
    "migrate_cluster",
    "rename_field",
    "DatabaseSummary",
    "inspect_database",
    "VacuumReport",
    "vacuum",
]
