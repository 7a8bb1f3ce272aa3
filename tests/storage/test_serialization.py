"""Unit and property tests for the stable binary codec."""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.identity import Oid, Vid
from repro.core.pointers import Ref, VersionRef
from repro.errors import SerializationError
from repro.storage import serialization
from repro.storage.serialization import (
    decode,
    encode,
    read_uvarint,
    register_type,
    registered_name,
    write_uvarint,
)


def roundtrip(value):
    return decode(encode(value))


# -- scalars ----------------------------------------------------------------


def test_none():
    assert roundtrip(None) is None


def test_booleans():
    assert roundtrip(True) is True
    assert roundtrip(False) is False


@pytest.mark.parametrize("value", [0, 1, -1, 127, -128, 2**40, -(2**40), 2**63 - 1, -(2**63)])
def test_int64_range(value):
    assert roundtrip(value) == value


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**200, -(2**200)])
def test_bigints(value):
    assert roundtrip(value) == value


def test_bool_not_confused_with_int():
    assert roundtrip(1) == 1 and roundtrip(1) is not True
    assert roundtrip(True) is True


@pytest.mark.parametrize("value", [0.0, -0.0, 1.5, -2.25, 1e300, float("inf")])
def test_floats(value):
    assert roundtrip(value) == value


def test_float_nan():
    assert math.isnan(roundtrip(float("nan")))


def test_strings():
    assert roundtrip("") == ""
    assert roundtrip("héllo wörld 世界") == "héllo wörld 世界"


def test_bytes():
    assert roundtrip(b"") == b""
    assert roundtrip(bytes(range(256))) == bytes(range(256))


# -- containers ------------------------------------------------------------


def test_lists_and_tuples_distinct():
    assert roundtrip([1, 2]) == [1, 2]
    assert roundtrip((1, 2)) == (1, 2)
    assert type(roundtrip((1,))) is tuple
    assert type(roundtrip([1])) is list


def test_nested_containers():
    value = {"a": [1, (2, 3)], "b": {"c": {4, 5}}}
    assert roundtrip(value) == value


def test_dict_preserves_insertion_order():
    value = {"z": 1, "a": 2, "m": 3}
    assert list(roundtrip(value)) == ["z", "a", "m"]


def test_sets_and_frozensets():
    assert roundtrip({1, 2, 3}) == {1, 2, 3}
    fs = frozenset(["x", "y"])
    out = roundtrip(fs)
    assert out == fs and type(out) is frozenset


def test_equal_sets_encode_identically():
    a = encode({3, 1, 2})
    b = encode({2, 3, 1})
    assert a == b


# -- identity types -----------------------------------------------------------


def test_oid_roundtrip():
    assert roundtrip(Oid(42)) == Oid(42)


def test_vid_roundtrip():
    vid = Vid(Oid(7), 3)
    assert roundtrip(vid) == vid


def test_ids_nested_in_state():
    value = {"owner": Oid(1), "pins": [Vid(Oid(1), 2), Vid(Oid(3), 1)]}
    assert roundtrip(value) == value


# -- registered types -------------------------------------------------------------


@register_type
class Point:
    def __init__(self, x, y):
        self.x = x
        self.y = y

    def __eq__(self, other):
        return isinstance(other, Point) and (self.x, self.y) == (other.x, other.y)


def test_registered_object_roundtrip():
    assert roundtrip(Point(1, 2)) == Point(1, 2)


def test_registered_object_constructor_not_called_on_load():
    calls = []

    @register_type
    class Probe:
        def __init__(self):
            calls.append(1)
            self.v = 1

    raw = encode(Probe())
    assert len(calls) == 1
    out = decode(raw)
    assert out.v == 1
    assert len(calls) == 1  # decode used __new__, not __init__


def test_registered_name_lookup():
    assert registered_name(Point) is not None
    assert registered_name(int) is None


def test_name_collision_rejected():
    class A:
        pass

    class B:
        pass

    register_type(A, "tests.collision")
    with pytest.raises(SerializationError):
        register_type(B, "tests.collision")


def test_reregister_same_class_ok():
    class C:
        pass

    register_type(C, "tests.rereg")
    register_type(C, "tests.rereg")


def test_unregistered_type_rejected():
    class Anon:
        pass

    with pytest.raises(SerializationError):
        encode(Anon())


def test_decode_unknown_type_rejected():
    @register_type
    class Temp:
        pass

    raw = encode(Temp())
    # Forge a payload naming a type that was never registered.
    from repro.storage import serialization

    name = registered_name(Temp)
    forged = raw.replace(name.encode(), b"x" * len(name.encode()))
    with pytest.raises(SerializationError):
        serialization.decode(forged)


# -- malformed input ------------------------------------------------------------


def test_trailing_garbage_rejected():
    with pytest.raises(SerializationError):
        decode(encode(1) + b"\x00")


def test_truncated_input_rejected():
    raw = encode("hello world")
    with pytest.raises(SerializationError):
        decode(raw[:-3])


def test_unknown_tag_rejected():
    with pytest.raises(SerializationError):
        decode(b"\xff")


def test_empty_input_rejected():
    with pytest.raises(SerializationError):
        decode(b"")


# -- varints -----------------------------------------------------------------


@pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63])
def test_uvarint_roundtrip(value):
    buf = bytearray()
    write_uvarint(buf, value)
    out, pos = read_uvarint(bytes(buf), 0)
    assert out == value
    assert pos == len(buf)


def test_uvarint_rejects_negative():
    with pytest.raises(SerializationError):
        write_uvarint(bytearray(), -1)


def test_uvarint_truncated():
    buf = bytearray()
    write_uvarint(buf, 300)
    with pytest.raises(SerializationError):
        read_uvarint(bytes(buf[:-1]), 0)


# -- properties -----------------------------------------------------------------


json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=30)
    | st.binary(max_size=30),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=20,
)


@settings(max_examples=200)
@given(json_like)
def test_property_roundtrip(value):
    assert roundtrip(value) == value


@settings(max_examples=100)
@given(json_like)
def test_property_encoding_is_deterministic(value):
    assert encode(value) == encode(value)


@settings(max_examples=100)
@given(st.integers(), st.integers())
def test_property_distinct_ints_encode_distinct(a, b):
    if a != b:
        assert encode(a) != encode(b)


# -- the reference model: the codec's original if/elif chains ---------------------
#
# Kept verbatim in spirit (the type tests in order, the tag compares in
# order, the varint loops) so the table-driven codec can be held to it byte
# for byte.  Registries, reference unwrappers and the identity types are the
# real module's; everything that walks a value is the model's own.


def _model_write_uvarint(out, value):
    if value < 0:
        raise SerializationError("uvarint cannot encode negative values")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _model_read_uvarint(data, pos):
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


def _model_encode_into(out, value):
    if value is None:
        out.append(0x00)
    elif value is True:
        out.append(0x02)
    elif value is False:
        out.append(0x01)
    elif type(value) is int:
        if -(1 << 63) <= value < (1 << 63):
            out.append(0x03)
            _model_write_uvarint(out, (value << 1) ^ (value >> 63))
        else:
            out.append(0x0F)
            raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "little", signed=True)
            _model_write_uvarint(out, len(raw))
            out.extend(raw)
    elif type(value) is float:
        out.append(0x04)
        out.extend(struct.pack("<d", value))
    elif type(value) is str:
        raw = value.encode("utf-8")
        out.append(0x05)
        _model_write_uvarint(out, len(raw))
        out.extend(raw)
    elif type(value) is bytes:
        out.append(0x06)
        _model_write_uvarint(out, len(value))
        out.extend(value)
    elif type(value) in (list, tuple):
        out.append(0x07 if type(value) is list else 0x08)
        _model_write_uvarint(out, len(value))
        for item in value:
            _model_encode_into(out, item)
    elif type(value) is dict:
        out.append(0x09)
        _model_write_uvarint(out, len(value))
        for key, val in value.items():
            _model_encode_into(out, key)
            _model_encode_into(out, val)
    elif type(value) in (set, frozenset):
        out.append(0x0A if type(value) is set else 0x0B)
        encoded = sorted(_model_encode(item) for item in value)
        _model_write_uvarint(out, len(encoded))
        for raw in encoded:
            out.extend(raw)
    elif type(value) in (Oid, Vid):
        raw = value.pack()
        out.append(0x0C if type(value) is Oid else 0x0D)
        _model_write_uvarint(out, len(raw))
        out.extend(raw)
    else:
        for ref_type, to_id in serialization._ref_unwrappers:
            if isinstance(value, ref_type):
                _model_encode_into(out, to_id(value))
                return
        name = serialization._NAME_BY_TYPE.get(type(value))
        if name is None:
            raise SerializationError(f"unregistered type {type(value).__qualname__}")
        getstate = getattr(value, "__getstate__", None)
        state = getstate() if callable(getstate) else dict(value.__dict__)
        if state is None:
            state = dict(value.__dict__)
        if not isinstance(state, dict):
            raise SerializationError(f"{name}: __getstate__ must return a dict")
        out.append(0x0E)
        _model_encode_into(out, name)
        _model_encode_into(out, state)


def _model_encode(value):
    out = bytearray()
    _model_encode_into(out, value)
    return bytes(out)


def _model_decode_at(data, pos):
    if pos >= len(data):
        raise SerializationError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == 0x00:
        return None, pos
    if tag == 0x02:
        return True, pos
    if tag == 0x01:
        return False, pos
    if tag == 0x03:
        raw, pos = _model_read_uvarint(data, pos)
        return (raw >> 1) ^ -(raw & 1), pos
    if tag == 0x0F:
        length, pos = _model_read_uvarint(data, pos)
        if pos + length > len(data):
            raise SerializationError("truncated bigint")
        return int.from_bytes(data[pos : pos + length], "little", signed=True), pos + length
    if tag == 0x04:
        if pos + 8 > len(data):
            raise SerializationError("truncated float")
        return struct.unpack_from("<d", data, pos)[0], pos + 8
    if tag in (0x05, 0x06):
        length, pos = _model_read_uvarint(data, pos)
        if pos + length > len(data):
            raise SerializationError("truncated string or bytes")
        raw = data[pos : pos + length]
        return (raw.decode("utf-8") if tag == 0x05 else raw), pos + length
    if tag in (0x07, 0x08, 0x0A, 0x0B):
        count, pos = _model_read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _model_decode_at(data, pos)
            items.append(item)
        return {0x07: list, 0x08: tuple, 0x0A: set, 0x0B: frozenset}[tag](items), pos
    if tag == 0x09:
        count, pos = _model_read_uvarint(data, pos)
        result = {}
        for _ in range(count):
            key, pos = _model_decode_at(data, pos)
            val, pos = _model_decode_at(data, pos)
            result[key] = val
        return result, pos
    if tag in (0x0C, 0x0D):
        length, pos = _model_read_uvarint(data, pos)
        unpack = Oid.unpack if tag == 0x0C else Vid.unpack
        return unpack(data[pos : pos + length]), pos + length
    if tag == 0x0E:
        name, pos = _model_decode_at(data, pos)
        state, pos = _model_decode_at(data, pos)
        cls = serialization.lookup_type(name)
        obj = cls.__new__(cls)
        setstate = getattr(obj, "__setstate__", None)
        if callable(setstate):
            setstate(state)
        else:
            obj.__dict__.update(state)
        return obj, pos
    raise SerializationError(f"unknown tag byte 0x{tag:02x}")


def _model_decode(data):
    value, pos = _model_decode_at(data, 0)
    if pos != len(data):
        raise SerializationError("trailing bytes")
    return value


def _canonical(value):
    """The model's bytes for a decoded value: equal bytes mean equal values,
    types included (a tuple never passes for a list, nor 1 for True)."""
    try:
        return _model_encode(value)
    except Exception as exc:  # noqa: BLE001 - e.g. a state no longer a dict
        return repr(exc)


def _outcome(decoder, data):
    """``("ok", canonical bytes of the value)`` or ``("error", exception)``."""
    try:
        value = decoder(data)
    except Exception as exc:  # noqa: BLE001 - the model may fail any way
        return ("error", exc)
    return ("ok", _canonical(value))


_EDGE_INTS = [0, -1, 63, 64, -64, -65, 127, 128, -128, -129, 2**63 - 1, 2**63, 2**63 + 1,
              -(2**63), -(2**63) - 1, -(2**63) + 1]
_EDGE_TEXT = ["", "x" * 127, "x" * 128, "é" * 64, "世" * 43]
_EDGE_BYTES = [b"", b"\x00" * 127, b"\xff" * 128]

_hashable = (
    st.none()
    | st.booleans()
    | st.sampled_from(_EDGE_INTS)
    | st.integers()
    | st.floats(allow_nan=False)
    | st.sampled_from(_EDGE_TEXT)
    | st.text(max_size=12)
    | st.sampled_from(_EDGE_BYTES)
    | st.binary(max_size=12)
    | st.integers(1, 2**64 - 1).map(Oid)
    | st.builds(Vid, st.integers(1, 2**64 - 1).map(Oid), st.integers(1, 2**64 - 1))
)
_refs = st.integers(1, 2**64 - 1).map(lambda n: Ref(None, Oid(n))) | st.builds(
    lambda n, s: VersionRef(None, Vid(Oid(n), s)), st.integers(1, 99), st.integers(1, 99)
)
_any_value = st.recursive(
    _hashable | _refs,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(_hashable, children, max_size=5)
    | st.sets(_hashable, max_size=5)
    | st.frozensets(_hashable, max_size=5)
    | st.builds(Point, children, children),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_any_value)
def test_codec_matches_the_reference_model(value):
    raw = _model_encode(value)
    assert encode(value) == raw
    out = bytearray(b"head")
    serialization.encode_into(out, value)
    assert bytes(out) == b"head" + raw
    model_value = _model_decode(raw)
    got = decode(raw)
    assert got == model_value and _canonical(got) == _canonical(model_value)
    got, end = serialization.decode_from(b"xy" + raw + b"z", 2)
    assert end == 2 + len(raw) and _canonical(got) == _canonical(model_value)


@settings(max_examples=400, deadline=None)
@given(_any_value, st.data())
def test_damaged_encodings_decode_as_the_model_or_raise_serialization_error(value, data):
    raw = _model_encode(value)
    damaged = [raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")]]
    for _ in range(3):
        at = data.draw(st.integers(0, len(raw) - 1), label="flip at")
        bit = data.draw(st.integers(0, 7), label="bit")
        flipped = bytearray(raw)
        flipped[at] ^= 1 << bit
        damaged.append(bytes(flipped))
    for blob in damaged:
        expected = _outcome(_model_decode, blob)
        if expected[0] == "ok":
            assert _canonical(decode(blob)) == expected[1]
        else:
            with pytest.raises(SerializationError):
                decode(blob)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.sampled_from(range(0x10)) | st.integers(0, 255), max_size=24
    ).map(bytes)
    | st.binary(max_size=40)
)
def test_decode_of_arbitrary_bytes_returns_or_raises_serialization_error(data):
    for decoder in (decode, lambda raw: serialization.decode_from(raw, 0)):
        try:
            decoder(data)
        except SerializationError:
            pass


@pytest.mark.parametrize(
    "data, raw_error",
    [
        (b"\x0c\x03abc", struct.error),  # an Oid tag with a short body
        (b"\x0d\x08" + bytes(8), struct.error),  # a Vid body of the wrong size
        (b"\x05\x02\xff\xfe", UnicodeDecodeError),  # not UTF-8
        (b"\x09\x01\x07\x00\x00", TypeError),  # an unhashable dict key
        (b"\x0a\x01\x09\x00", TypeError),  # an unhashable set item
        (b"\x0e\x07\x00\x09\x00", TypeError),  # an unhashable type name
        (b"\x0c\x08" + bytes(8), ValueError),  # Oid(0)
    ],
)
def test_decode_chains_every_failure_into_serialization_error(data, raw_error):
    assert type(_outcome(_model_decode, data)[1]) is raw_error
    for decoder in (decode, serialization.decode_from):
        with pytest.raises(SerializationError) as info:
            decoder(data)
        assert isinstance(info.value.__cause__, raw_error)
