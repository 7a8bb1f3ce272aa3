"""Portable dump/load: move a database between machines or versions.

``dump_database`` walks every object and emits a plain-data document
(nested lists/dicts/strings/ints only -- JSON-compatible apart from bytes,
which are hex-encoded) that fully describes the database: objects, their
version graphs and high-water marks, each version's whole encoded payload
(independent of the storage policy and page layout) and the id counter.
The objects are ``VersionStore.export``'s records, lowered to JSON;
retention rules and version tags are among them (:mod:`repro.core.gc`).

``load_database`` raises them back and fills the target the way vacuum
does (``repro.tools.vacuum.fill``, over ``VersionStore.install``),
preserving every Oid/Vid, derivation edge, and temporal position -- so
stored references inside payloads stay valid.

The dump format is versioned; loading rejects every other format version.
"""

from __future__ import annotations

from repro.errors import OdeError
from repro.core.database import Database
from repro.core.identity import Oid
from repro.tools.vacuum import fill

#: Format 3 has no catalog roots (retention rules and tags are objects);
#: formats 1 and 2 are not read.
FORMAT_VERSION = 3


class DumpError(OdeError):
    """A dump document is malformed or from an unknown format version."""


def dump_database(db: Database) -> dict:
    """Produce the portable document for an open database."""
    return {
        "format": FORMAT_VERSION,
        "oid_counter": db.catalog.peek_value("ode.oid"),
        "objects": [
            {
                "oid": oid.value,
                "type": type_name,
                "max_serial": max_serial,
                "versions": [
                    {
                        "serial": serial,
                        "dprev": dprev,
                        "ctime": ctime,
                        "payload": content.hex(),
                    }
                    for serial, dprev, ctime, content in versions
                ],
            }
            for oid, type_name, max_serial, versions in db.export()
        ],
    }


def load_database(dump: dict, db: Database) -> int:
    """Rebuild a dumped database into a freshly created, empty ``db``.

    Returns the number of objects loaded.  Raises :class:`DumpError` for
    other formats and refuses non-empty targets.
    """
    if dump.get("format") != FORMAT_VERSION:
        raise DumpError(f"unsupported dump format {dump.get('format')!r}")
    if db.store.object_count() != 0:
        raise DumpError("load target must be an empty database")
    objects = (
        (
            Oid(record["oid"]),
            record["type"],
            record["max_serial"],
            [
                (v["serial"], v["dprev"], v["ctime"], bytes.fromhex(v["payload"]))
                for v in record["versions"]
            ],
        )
        for record in dump["objects"]
    )
    return fill(db, objects, dump["oid_counter"])[0]
