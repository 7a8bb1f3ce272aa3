"""Property tests of the wire frame parser.

:class:`~repro.net.protocol.FrameDecoder` is the one frame parser both
ends run.  Any chunking of a stream of valid frames decodes to the same
frames; arbitrary bytes either decode to frames or raise
:class:`~repro.errors.ProtocolError` (:class:`~repro.errors.
FrameTooLargeError` is one) -- nothing else escapes ``feed`` -- and the
decoder never buffers more than one length prefix plus the declared
length of the frame it is assembling.  Run with
``--hypothesis-profile=ci`` for a derandomized verdict.
"""

from __future__ import annotations

import struct

from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.net import protocol
from repro.net.protocol import FrameDecoder

_LEN = struct.Struct("<I")
_HEADER = struct.Struct("<HB")

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=40)
    | st.binary(max_size=40)
)
payloads = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
frames = st.tuples(
    st.sampled_from([protocol.OP_PING, protocol.OP_READ, protocol.RESP_OK]),
    st.integers(0, 2**40),
    payloads,
)


def _split(data: bytes, cuts: list[int]) -> list[bytes]:
    """``data`` cut at the given offsets (sorted, deduplicated)."""
    bounds = [0, *sorted({c % (len(data) + 1) for c in cuts}), len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


@given(st.lists(frames, max_size=6), st.lists(st.integers(0, 2**16), max_size=12))
def test_any_chunking_of_valid_frames_decodes_the_same_frames(sent, cuts):
    wire = b"".join(protocol.build_frame(*frame) for frame in sent)
    decoder = FrameDecoder()
    got = [frame for chunk in _split(wire, cuts) for frame in decoder.feed(chunk)]
    assert got == sent
    assert decoder.pending_bytes == 0
    assert decoder.frames_in == len(sent)
    assert decoder.bytes_in == len(wire)


#: A frame header in front of arbitrary body bytes reaches the body
#: decoder; wholly arbitrary bytes mostly stop at the length or magic.
framed_garbage = st.builds(
    lambda opcode, body, slack: _LEN.pack(_HEADER.size + len(body) + slack)
    + _HEADER.pack(protocol.MAGIC, opcode)
    + body,
    st.integers(0, 255),
    st.binary(max_size=64),
    st.integers(-3, 3),  # a declared length a little off, or exact
)


@given(
    st.lists(framed_garbage | st.binary(max_size=64), min_size=1, max_size=4),
    st.lists(st.integers(0, 2**16), max_size=8),
)
def test_arbitrary_bytes_yield_frames_or_raise_protocol_error(parts, cuts):
    decoder, fed = FrameDecoder(), b""
    try:
        for chunk in _split(b"".join(parts), cuts):
            for opcode, cid, _payload in decoder.feed(chunk):
                assert 0 <= opcode <= 255 and cid >= 0
            fed += chunk
            buffered = fed[len(fed) - decoder.pending_bytes :]
            bound = _LEN.size - 1
            if len(buffered) >= _LEN.size:
                bound = _LEN.size + _LEN.unpack_from(buffered)[0]
            assert decoder.pending_bytes <= bound
    except ProtocolError:
        pass  # FrameTooLargeError included: the stream is bad, drop it
