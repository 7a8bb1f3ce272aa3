"""Portable dump/load: move a database between machines or versions.

``dump_database`` walks every object and emits a plain-data document
(nested lists/dicts/strings/ints only -- JSON-compatible apart from bytes,
which are hex-encoded) that fully describes the database: objects, their
version graphs and high-water marks, each version's whole encoded payload
(independent of the storage policy and page layout), the catalog roots
(retention policies, version tags) and the id counter.  The objects are
``VersionStore.export``'s records, lowered to JSON.

``load_database`` raises them back and fills the target the way vacuum
does (``repro.tools.vacuum.fill``, over ``VersionStore.install``),
preserving every Oid/Vid, derivation edge, and temporal position -- so
stored references inside payloads stay valid.

The dump format is versioned; loading rejects every other format version.
"""

from __future__ import annotations

from typing import Any

from repro.errors import OdeError
from repro.core.database import Database
from repro.core.identity import Oid, Vid
from repro.tools.vacuum import fill

#: Format 2 carries the catalog roots; format 1 (without them) is not read.
FORMAT_VERSION = 2


class DumpError(OdeError):
    """A dump document is malformed or from an unknown format version."""


def _encode_value(value: Any) -> Any:
    """Lower a codec value into JSON-compatible plain data."""
    if isinstance(value, Oid):
        return {"$oid": value.value}
    if isinstance(value, Vid):
        return {"$vid": [value.oid.value, value.serial]}
    if isinstance(value, bytes):
        return {"$bytes": value.hex()}
    if isinstance(value, tuple):
        return {"$tuple": [_encode_value(v) for v in value]}
    if isinstance(value, set):
        return {"$set": [_encode_value(v) for v in sorted(value, key=repr)]}
    if isinstance(value, frozenset):
        return {"$frozenset": [_encode_value(v) for v in sorted(value, key=repr)]}
    if isinstance(value, list):
        return [_encode_value(v) for v in value]
    if isinstance(value, dict):
        return {
            "$dict": [[_encode_value(k), _encode_value(v)] for k, v in value.items()]
        }
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise DumpError(f"cannot dump value of type {type(value).__qualname__}")


def _decode_value(value: Any) -> Any:
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    if isinstance(value, dict):
        if "$oid" in value:
            return Oid(value["$oid"])
        if "$vid" in value:
            oid_value, serial = value["$vid"]
            return Vid(Oid(oid_value), serial)
        if "$bytes" in value:
            return bytes.fromhex(value["$bytes"])
        if "$tuple" in value:
            return tuple(_decode_value(v) for v in value["$tuple"])
        if "$set" in value:
            return {_decode_value(v) for v in value["$set"]}
        if "$frozenset" in value:
            return frozenset(_decode_value(v) for v in value["$frozenset"])
        if "$dict" in value:
            return {
                _decode_value(k): _decode_value(v) for k, v in value["$dict"]
            }
        raise DumpError(f"unknown tagged value: {sorted(value)}")
    return value


def dump_database(db: Database) -> dict:
    """Produce the portable document for an open database."""
    catalog = db.catalog
    return {
        "format": FORMAT_VERSION,
        "oid_counter": catalog.peek_value("ode.oid"),
        "roots": {
            name: _encode_value(catalog.get_root(name))
            for name in catalog.root_names()
        },
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
    roots = {name: _decode_value(value) for name, value in dump["roots"].items()}
    return fill(db, objects, roots, dump["oid_counter"])[0]
