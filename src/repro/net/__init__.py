"""Network service layer: the versioned object store as a server.

The kernel is embedded -- one process, direct calls.  This package puts
it behind a socket so many clients can share one database:

* :mod:`repro.net.protocol` -- the length-prefixed binary wire format
  (frames, opcodes, the error envelope), built on the storage layer's
  stable codec so any persistable value travels as-is;
* :mod:`repro.net.server` -- a reactor server: one thread reads every
  socket and serves read-only requests through the lock-free snapshot
  path; a bounded worker pool runs the kernel calls that lock or block,
  writes their replies itself, and groups commits into the WAL window;
* :mod:`repro.net.client` -- an asyncio client with connection pooling,
  request pipelining (many correlated requests in flight per connection,
  out-of-order completion), per-op deadlines and reconnect with jittered
  backoff;
* :mod:`repro.net.chaos` -- a deterministic chaos proxy (drop / delay /
  duplicate / truncate / partition, scripted per-connection faults) for
  fault-tolerance testing.

Each connection gets one :class:`~repro.core.session.Session`; the wire
opcodes map 1:1 onto the session-scoped kernel surface (begin / commit /
abort / read / write / newversion / query / snapshot / health).
"""

from repro.net.chaos import ChaosPlan, ChaosProxy, ChaosProxyThread
from repro.net.client import (
    DEFAULT_DEADLINE,
    OdeClient,
    OdeConnection,
    RETRYABLE_WIRE_ERRORS,
    is_retryable,
)
from repro.net.protocol import (
    FrameDecoder,
    MAX_FRAME_BYTES,
    build_frame,
    parse_frame,
)
from repro.net.server import OdeServer, ServerThread

__all__ = [
    "ChaosPlan",
    "ChaosProxy",
    "ChaosProxyThread",
    "DEFAULT_DEADLINE",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "OdeClient",
    "OdeConnection",
    "OdeServer",
    "RETRYABLE_WIRE_ERRORS",
    "ServerThread",
    "build_frame",
    "is_retryable",
    "parse_frame",
]
