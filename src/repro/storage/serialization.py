"""Stable binary codec for persistent object state.

The Ode persistence library stores C++ object images; the Python analogue
needs a codec that is (a) *stable* -- the byte encoding of a value never
changes across runs, so deltas and WAL replay are deterministic -- and
(b) *closed* -- only a known set of types can be persisted, so a database
file can always be read back without importing arbitrary code.

Supported values:

* ``None``, ``bool``, ``int`` (arbitrary precision), ``float``, ``str``,
  ``bytes``
* ``list``, ``tuple``, ``dict``, ``set``, ``frozenset`` of supported values
* :class:`~repro.core.identity.Oid` and :class:`~repro.core.identity.Vid`
  (persistent references -- the on-disk form of the paper's object ids and
  version ids)
* registered *persistent types*: any class registered via
  :func:`register_type` is encoded as ``(type name, state dict)`` where the
  state comes from ``__getstate__``/``obj.__dict__``.

Integers use zig-zag varints; containers are length-prefixed.  ``dict``
preserves insertion order (like Python).  ``set``/``frozenset`` elements are
sorted by their encoded bytes so equal sets always encode identically.
Each value costs one lookup: encoding indexes a dict by the value's exact
type, decoding a list by the tag byte; a length, count or small int below
0x80 is one byte read or written inline.

We deliberately do **not** use :mod:`pickle`: pickle is neither stable
across Python versions nor safe to load from an untrusted database file.
"""

from __future__ import annotations

import struct
from typing import Any, Callable

from repro.errors import SerializationError

# Tag bytes.  Never renumber -- they are on-disk format.
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09
_T_SET = 0x0A
_T_FROZENSET = 0x0B
_T_OID = 0x0C
_T_VID = 0x0D
_T_OBJECT = 0x0E
_T_BIGINT = 0x0F  # ints that overflow a 64-bit zig-zag varint

_F64 = struct.Struct("<d")
_F64_TAGGED = struct.Struct("<Bd")

# Registry: class <-> stable name.  Populated by register_type().
_TYPE_BY_NAME: dict[str, type] = {}
_NAME_BY_TYPE: dict[type, str] = {}


def install_identity_codec(
    oid_type: type,
    oid_encode: Callable[[Any], bytes],
    oid_decode: Callable[[bytes], Any],
    vid_type: type,
    vid_encode: Callable[[Any], bytes],
    vid_decode: Callable[[bytes], Any],
) -> None:
    """Wire the identity types into the codec (called by repro.core.identity):
    each is its packed image, length-prefixed."""
    _ENCODERS[oid_type] = _sized_encoder(_T_OID, oid_encode)
    _ENCODERS[vid_type] = _sized_encoder(_T_VID, vid_encode)
    _DECODERS[_T_OID] = _converted(oid_decode, _sized)
    _DECODERS[_T_VID] = _converted(vid_decode, _sized)


_ref_unwrappers: list[tuple[type, Callable[[Any], Any]]] = []


def install_reference_unwrapper(ref_type: type, to_id: Callable[[Any], Any]) -> None:
    """Teach the codec to encode a live reference proxy as its id.

    Installed by :mod:`repro.core.pointers` so that a Ref nested anywhere in
    persistent state is stored as its Oid (and a VersionRef as its Vid) --
    decoding yields the id, and access through a reference re-binds it.
    """
    _ref_unwrappers.append((ref_type, to_id))


def register_type(cls: type, name: str | None = None) -> type:
    """Register ``cls`` as a persistable type under a stable ``name``.

    Usable as a decorator::

        @register_type
        class Part: ...

    Instances are encoded as their ``__getstate__()`` (or ``__dict__``) and
    decoded via ``cls.__new__`` + ``__setstate__`` (or ``__dict__.update``),
    so no constructor runs on load.  Re-registering the same class under the
    same name is a no-op; a name collision with a different class raises.
    """
    if name is None:
        name = f"{cls.__module__}.{cls.__qualname__}"
    existing = _TYPE_BY_NAME.get(name)
    if existing is not None and existing is not cls:
        raise SerializationError(f"type name {name!r} already registered to {existing!r}")
    _TYPE_BY_NAME[name] = cls
    _NAME_BY_TYPE[cls] = name
    return cls


def registered_name(cls: type) -> str | None:
    """The stable name ``cls`` was registered under, or None."""
    return _NAME_BY_TYPE.get(cls)


def lookup_type(name: str) -> type:
    """Resolve a stable type name back to the class; raises if unknown."""
    try:
        return _TYPE_BY_NAME[name]
    except KeyError:
        raise SerializationError(f"unknown persistent type {name!r}") from None




# ---------------------------------------------------------------------------
# Varints
# ---------------------------------------------------------------------------


def write_uvarint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint (a value below 0x80 is one byte)."""
    if value < 0:
        raise SerializationError("uvarint cannot encode negative values")
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Read an unsigned varint at ``pos``; return ``(value, new_pos)``."""
    if pos < len(data) and data[pos] < 0x80:
        return data[pos], pos + 1
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise SerializationError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63 + 7:
            raise SerializationError("varint too long")


# ---------------------------------------------------------------------------
# Encoding: one dict lookup on the exact type per value
# ---------------------------------------------------------------------------


def _head(out: bytearray, tag: int, n: int) -> None:
    """A tag byte and a length or count."""
    out.append(tag)
    if n < 0x80:
        out.append(n)
    else:
        write_uvarint(out, n)


def _encode_int(out: bytearray, value: int) -> None:
    if -64 <= value < 64:  # the zig-zag form fits one varint byte
        out.append(_T_INT)
        out.append((value << 1) ^ (value >> 63))
    elif -(1 << 63) <= value < (1 << 63):
        out.append(_T_INT)
        write_uvarint(out, (value << 1) ^ (value >> 63))
    else:
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "little", signed=True)
        _head(out, _T_BIGINT, len(raw))
        out += raw


def _sized_encoder(tag: int, pack: Callable[[Any], bytes]) -> Callable:
    """str, bytes, Oid and Vid: ``tag``, length, ``pack(value)``."""

    def encode_sized(out: bytearray, value: Any) -> None:
        raw = pack(value)
        _head(out, tag, len(raw))
        out += raw

    return encode_sized


def _items_encoder(tag: int, sort: bool = False) -> Callable:
    """list and tuple (in order); set and frozenset (sorted by bytes)."""

    def encode_items(out: bytearray, value: Any) -> None:
        _head(out, tag, len(value))
        if sort:
            for raw in sorted(encode(item) for item in value):
                out += raw
            return
        get = _ENCODERS.get
        for item in value:
            get(type(item), _encode_other)(out, item)

    return encode_items


def _encode_dict(out: bytearray, value: dict) -> None:
    _head(out, _T_DICT, len(value))
    get = _ENCODERS.get
    for key, val in value.items():
        get(type(key), _encode_other)(out, key)
        get(type(val), _encode_other)(out, val)


def _encode_other(out: bytearray, value: Any) -> None:
    """The one fallback: a live reference, else a registered type."""
    for ref_type, to_id in _ref_unwrappers:
        if isinstance(value, ref_type):
            ref_id = to_id(value)
            _ENCODERS.get(type(ref_id), _encode_other)(out, ref_id)
            return
    name = _NAME_BY_TYPE.get(type(value))
    if name is None:
        raise SerializationError(
            f"cannot persist value of unregistered type {type(value).__qualname__}"
        )
    getstate = getattr(value, "__getstate__", None)
    state = getstate() if callable(getstate) else dict(value.__dict__)
    if state is None:
        # Python 3.11+: object.__getstate__ returns None when __dict__
        # is empty; persist the empty state rather than failing.
        state = dict(value.__dict__)
    if not isinstance(state, dict):
        raise SerializationError(
            f"{name}: __getstate__ must return a dict, got {type(state).__qualname__}"
        )
    out.append(_T_OBJECT)
    _ENCODERS.get(type(name), _encode_other)(out, name)
    _ENCODERS.get(type(state), _encode_other)(out, state)


#: Exact type -> encoder.  A subclass misses and takes the fallback, as
#: it did in the ``type(value) is ...`` tests this table replaced.
_ENCODERS: dict[type, Callable[[bytearray, Any], None]] = {
    type(None): lambda out, value: out.append(_T_NONE),
    bool: lambda out, value: out.append(_T_TRUE if value else _T_FALSE),
    int: _encode_int,
    float: lambda out, value: out.extend(_F64_TAGGED.pack(_T_FLOAT, value)),
    str: _sized_encoder(_T_STR, str.encode),
    bytes: _sized_encoder(_T_BYTES, bytes),
    list: _items_encoder(_T_LIST),
    tuple: _items_encoder(_T_TUPLE),
    dict: _encode_dict,
    set: _items_encoder(_T_SET, sort=True),
    frozenset: _items_encoder(_T_FROZENSET, sort=True),
}


def encode_into(out: bytearray, value: Any) -> None:
    """Append the stable encoding of ``value`` to ``out`` in place.

    The zero-copy sibling of :func:`encode`: callers assembling a larger
    buffer (the wire-protocol framer, the WAL) write the payload directly
    into it instead of paying ``encode()``'s final ``bytes()`` copy.
    Raises :class:`SerializationError`; on failure ``out`` may hold a
    partial encoding, so append into a scratch region you can truncate.
    """
    _ENCODERS.get(type(value), _encode_other)(out, value)


def encode(value: Any) -> bytes:
    """Encode ``value`` to stable bytes.  Raises :class:`SerializationError`."""
    out = bytearray()
    _ENCODERS.get(type(value), _encode_other)(out, value)
    return bytes(out)


# ---------------------------------------------------------------------------
# Decoding: one list index on the tag byte per value
# ---------------------------------------------------------------------------


def _sized(data: bytes, pos: int) -> tuple[bytes, int]:
    """The length-prefixed run at ``pos`` and the offset past it."""
    length = data[pos]
    if length < 0x80:
        pos += 1
    else:
        length, pos = read_uvarint(data, pos)
    end = pos + length
    if end > len(data):
        raise SerializationError(f"truncated: {length} bytes declared, {len(data) - pos} left")
    return data[pos:end], end


def _converted(convert: Callable[[Any], Any], read: Callable) -> Callable:
    """The decoder of ``read``'s value passed through ``convert``."""

    def decode_converted(data: bytes, pos: int) -> tuple[Any, int]:
        value, end = read(data, pos)
        return convert(value), end

    return decode_converted


def _decode_int(data: bytes, pos: int) -> tuple[int, int]:
    raw = data[pos]
    if raw < 0x80:
        pos += 1
    else:
        raw, pos = read_uvarint(data, pos)
    return (raw >> 1) ^ -(raw & 1), pos


def _decode_float(data: bytes, pos: int) -> tuple[float, int]:
    if pos + 8 > len(data):
        raise SerializationError("truncated float")
    return _F64.unpack_from(data, pos)[0], pos + 8


def _decode_items(data: bytes, pos: int) -> tuple[list, int]:
    """A count-prefixed run of values: a list, or a tuple's or set's items."""
    count = data[pos]
    if count < 0x80:
        pos += 1
    else:
        count, pos = read_uvarint(data, pos)
    items: list[Any] = []
    append = items.append
    decoders = _DECODERS
    for _ in range(count):
        tag = data[pos]
        if tag == _T_INT and data[pos + 1] < 0x80:  # inline small int
            raw = data[pos + 1]
            append((raw >> 1) ^ -(raw & 1))
            pos += 2
        else:
            item, pos = decoders[tag](data, pos + 1)
            append(item)
    return items, pos


def _decode_dict(data: bytes, pos: int) -> tuple[dict, int]:
    count = data[pos]
    if count < 0x80:
        pos += 1
    else:
        count, pos = read_uvarint(data, pos)
    result: dict[Any, Any] = {}
    decoders = _DECODERS
    for _ in range(count):
        key, pos = decoders[data[pos]](data, pos + 1)
        tag = data[pos]
        if tag == _T_INT and data[pos + 1] < 0x80:  # inline small int
            raw = data[pos + 1]
            result[key] = (raw >> 1) ^ -(raw & 1)
            pos += 2
        else:
            result[key], pos = decoders[tag](data, pos + 1)
    return result, pos


def _decode_object(data: bytes, pos: int) -> tuple[Any, int]:
    name, pos = _DECODERS[data[pos]](data, pos + 1)
    state, pos = _DECODERS[data[pos]](data, pos + 1)
    cls = lookup_type(name)
    obj = cls.__new__(cls)
    setstate = getattr(obj, "__setstate__", None)
    if callable(setstate):
        setstate(state)
    else:
        obj.__dict__.update(state)
    return obj, pos


def _unknown_tag(data: bytes, pos: int) -> tuple[Any, int]:
    raise SerializationError(f"unknown tag byte 0x{data[pos - 1]:02x}")


#: Tag byte -> decoder ``(data, offset past the tag) -> (value, end)``.
_DECODERS: list[Callable[[bytes, int], tuple[Any, int]]] = [_unknown_tag] * 256
_DECODERS[_T_NONE] = lambda data, pos: (None, pos)
_DECODERS[_T_FALSE] = lambda data, pos: (False, pos)
_DECODERS[_T_TRUE] = lambda data, pos: (True, pos)
_DECODERS[_T_INT] = _decode_int
_DECODERS[_T_BIGINT] = _converted(
    lambda raw: int.from_bytes(raw, "little", signed=True), _sized
)
_DECODERS[_T_FLOAT] = _decode_float
_DECODERS[_T_STR] = _converted(lambda raw: raw.decode("utf-8"), _sized)
_DECODERS[_T_BYTES] = _sized
_DECODERS[_T_LIST] = _decode_items
_DECODERS[_T_TUPLE] = _converted(tuple, _decode_items)
_DECODERS[_T_DICT] = _decode_dict
_DECODERS[_T_SET] = _converted(set, _decode_items)
_DECODERS[_T_FROZENSET] = _converted(frozenset, _decode_items)
_DECODERS[_T_OBJECT] = _decode_object


def _undecodable(exc: Exception) -> SerializationError:
    """Any other decoder failure, as the one error decoding raises."""
    if isinstance(exc, IndexError):
        return SerializationError("truncated value")
    return SerializationError(f"undecodable value: {type(exc).__name__}: {exc}")


def decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode`.

    Raises :class:`SerializationError`, and nothing else, on malformed
    input or trailing garbage, so a decoded record is exactly one value.
    """
    try:
        value, pos = _DECODERS[data[0]](data, 1)
    except SerializationError:
        raise
    except Exception as exc:
        raise _undecodable(exc) from exc
    if pos != len(data):
        raise SerializationError(f"{len(data) - pos} trailing bytes after value")
    return value


def decode_from(data: bytes, pos: int = 0) -> tuple[Any, int]:
    """Decode one value starting at ``pos``; returns ``(value, end)``.

    The offset sibling of :func:`decode` for callers unpacking a value
    embedded in a larger buffer (the wire protocol) without slicing a
    copy first.  No trailing-bytes check -- the enclosing format owns
    the length accounting.
    """
    try:
        return _DECODERS[data[pos]](data, pos + 1)
    except SerializationError:
        raise
    except Exception as exc:
        raise _undecodable(exc) from exc
