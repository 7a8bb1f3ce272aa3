"""The wire protocol: length-prefixed binary frames over a byte stream.

A frame is::

    u32 length   -- little-endian, byte count of everything after it
    u16 magic    -- 0x0DE1 ("Ode", wire format v1); catches stream
                    desync and non-protocol peers immediately
    u8  opcode   -- request or response kind (see below)
    uvarint cid  -- correlation id, echoed in the response so pipelined
                    requests may complete out of order
    body         -- one value in the storage layer's stable codec
                    (:mod:`repro.storage.serialization`), written into
                    the frame buffer via :func:`~repro.storage.
                    serialization.encode_into` -- no intermediate copy

Reusing the storage codec means anything the database can persist can
travel over the wire unchanged -- Oids, Vids, registered persistent
objects, containers -- and both ends share one set of golden bytes.

Responses are ``RESP_OK`` with the result as body, or ``RESP_ERR`` with
``{"error": <class name>, "message": <str>}``; the client re-raises the
real exception class when :mod:`repro.errors` defines it.  A whole-version
READ answers with the version's stored image (:class:`Encoded`): the
codec's bytes for that object, so the server never decodes it.

The target of a READ, WRITE, PDELETE or NEWVERSION is an Oid, a Vid, or
inside a transaction a promise ``(cid,)``: the Vid that NEWVERSION ``cid``
of the same transaction answered (the client's ``VidPromise``), which
the server's lane redeems -- no new type enters the codec or the store.

:class:`FrameDecoder` is the incremental parser both ends run: feed it
whatever the transport delivered -- half a header, three frames and a
tail, one byte at a time -- and it yields complete frames, rejecting
garbage magic and oversized declarations *before* buffering a payload.
"""

from __future__ import annotations

import struct
from typing import Any, Iterator

from repro.errors import (
    FrameBodyError,
    FrameTooLargeError,
    ProtocolError,
    SerializationError,
)
from repro.storage.serialization import (
    decode_from,
    encode_into,
    read_uvarint,
    write_uvarint,
)

_LEN = struct.Struct("<I")
_MAGIC = struct.Struct("<H")
#: Length placeholder, magic and opcode: a frame's fixed head.
_HEAD = struct.Struct("<IHB")

#: Wire magic: two bytes at the start of every frame body.
MAGIC = 0x0DE1

#: Default ceiling on a frame's declared length.  A peer announcing more
#: is answered with a clean error frame and disconnected -- the length
#: field arrives before any payload, so a hostile or corrupt length can
#: never make the receiver buffer unbounded data.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Bytes of header after the length prefix, before the uvarint cid.
_FIXED_HEADER = _MAGIC.size + 1

# -- opcodes (wire values; never renumber) -----------------------------------

OP_PING = 0x01        #: echo the body back
OP_BEGIN = 0x02       #: start the session's transaction
OP_COMMIT = 0x03      #: commit it
OP_ABORT = 0x04       #: abort it
OP_READ = 0x05        #: materialize / attribute read
OP_WRITE = 0x06       #: in-place version write (attr or whole object)
OP_NEWVERSION = 0x07  #: derive a version
OP_PNEW = 0x08        #: create a persistent object
OP_PDELETE = 0x09     #: delete an object or version
OP_QUERY = 0x0A       #: cluster scan with optional equality filter
OP_SNAPSHOT = 0x0B    #: pin / refresh / release the session snapshot
OP_STATS = 0x0C       #: db.stats() (plus net.* counters)
OP_HEALTH = 0x0D      #: heartbeat: liveness + drain state + shard health

RESP_OK = 0x80
RESP_ERR = 0x81

#: Opcode -> name: ``OP_READ`` is "read", ``RESP_ERR`` "err".
_NAMES = {
    v: k.split("_")[1].lower() for k, v in list(globals().items()) if k.startswith(("OP_", "RESP_"))
}


def opcode_name(opcode: int) -> str:
    """Human name of an opcode (logs and error messages)."""
    return _NAMES.get(opcode, f"op-0x{opcode:02x}")


# -- framing -----------------------------------------------------------------


class Encoded:
    """A body already in the codec -- a stored version image -- that
    :func:`build_frame_into` appends verbatim instead of encoding."""

    __slots__ = ("body",)

    def __init__(self, body: bytes) -> None:
        self.body = body


def build_frame_into(out: bytearray, opcode: int, cid: int, payload: Any) -> None:
    """Append one serialized frame to ``out`` in place.

    The hot-path framer: the payload is encoded straight into the
    caller's buffer (:func:`~repro.storage.serialization.encode_into`)
    and the length prefix patched in afterwards, so batching callers --
    the server's per-chunk response buffer, the client's write cork --
    assemble many frames with zero intermediate copies.  On failure the
    partial frame is truncated away; ``out`` is left as it was.
    """
    base = len(out)
    try:
        out += _HEAD.pack(0, MAGIC, opcode)  # length patched below
        if 0 <= cid < 0x80:
            out.append(cid)
        else:
            write_uvarint(out, cid)
        if type(payload) is Encoded:
            out += payload.body
        else:
            encode_into(out, payload)
        body_len = len(out) - base - _LEN.size
        if body_len > MAX_FRAME_BYTES:
            raise FrameTooLargeError(
                f"outgoing frame of {body_len} bytes exceeds {MAX_FRAME_BYTES}"
            )
        _LEN.pack_into(out, base, body_len)
    except BaseException:
        del out[base:]
        raise


def build_frame(opcode: int, cid: int, payload: Any) -> bytes:
    """Serialize one frame (see :func:`build_frame_into`)."""
    buf = bytearray()
    build_frame_into(buf, opcode, cid, payload)
    return bytes(buf)


class FrameDecoder:
    """Incremental frame parser over arbitrarily chunked input.

    Transport code feeds raw chunks with :meth:`feed` and iterates the
    complete frames that result.  Partial frames stay buffered; the
    header is validated as soon as its bytes arrive, so an oversized
    length or wrong magic is rejected before any payload is consumed.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self._buf = bytearray()
        self._max = max_frame

    @property
    def pending_bytes(self) -> int:
        """Buffered bytes of the (possibly partial) next frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> Iterator[tuple[int, int, Any]]:
        """Consume a chunk; yield every frame it completes.

        Raises :class:`FrameTooLargeError` or :class:`ProtocolError` the
        moment the stream turns bad; the decoder is then unusable (frame
        boundaries are lost) and the connection should be dropped.  A
        complete frame whose body does not decode raises
        :class:`~repro.errors.FrameBodyError` after it is consumed: feed
        again (``b""`` will do) to go on with the frames behind it.

        Consumed bytes are trimmed once per call (not once per frame),
        so a pipelined chunk of N frames costs one buffer move.
        """
        self._buf += data
        buf = self._buf
        pos = 0
        try:
            while True:
                avail = len(buf) - pos
                if avail < _LEN.size:
                    return
                (length,) = _LEN.unpack_from(buf, pos)
                if length > self._max:
                    raise FrameTooLargeError(
                        f"peer declared a {length}-byte frame (max {self._max})"
                    )
                # Reject bad magic as soon as those two bytes are here,
                # even if the rest of the frame never arrives.
                if avail >= _LEN.size + _MAGIC.size:
                    (magic,) = _MAGIC.unpack_from(buf, pos + _LEN.size)
                    if magic != MAGIC:
                        raise ProtocolError(
                            f"bad magic 0x{magic:04x} (expected 0x{MAGIC:04x})"
                        )
                if avail < _LEN.size + length:
                    return
                if length < _FIXED_HEADER + 1:
                    raise ProtocolError(
                        f"frame body of {length} bytes is too short"
                    )
                start = pos + _LEN.size
                # Parse in place (magic was validated above); one small
                # bytes() copy keeps decoded byte-string payloads `bytes`
                # and detaches them from the reusable buffer.
                body = bytes(buf[start : start + length])
                pos = start + length
                opcode = body[_MAGIC.size]
                cid = body[_FIXED_HEADER]
                at = _FIXED_HEADER + 1
                try:
                    if cid >= 0x80:  # a multi-byte cid: None until it parses
                        cid = None
                        cid, at = read_uvarint(body, _FIXED_HEADER)
                    payload, end = decode_from(body, at)
                    if end != length:
                        raise SerializationError(f"{length - end} trailing bytes in frame")
                except Exception as exc:
                    message = f"malformed {opcode_name(opcode)} frame: {exc}"
                    if cid is None:  # no request to name: the stream is bad
                        raise ProtocolError(message) from exc
                    raise FrameBodyError(message, cid) from exc
                yield opcode, cid, payload
        finally:
            if pos:
                del buf[:pos]


# -- the error envelope ------------------------------------------------------


def error_payload(exc: BaseException) -> dict[str, str]:
    """The RESP_ERR body describing ``exc``."""
    return {"error": type(exc).__name__, "message": str(exc)}


def remote_error(payload: Any) -> BaseException:
    """The closest local exception for a RESP_ERR payload, to raise.

    Errors whose class lives in :mod:`repro.errors` come back as that
    class (so ``except DeadlockError`` works across the wire); anything
    else -- including a malformed error payload -- becomes
    :class:`~repro.errors.RemoteError`.
    """
    from repro import errors as _errors
    from repro.errors import OdeError, RemoteError

    name, message = "RemoteError", repr(payload)
    if isinstance(payload, dict):
        name = str(payload.get("error", name))
        message = str(payload.get("message", ""))
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, OdeError):
        try:
            return cls(message)
        except TypeError:
            pass  # exotic constructor signature; fall through
    return RemoteError(message, error_name=name)
