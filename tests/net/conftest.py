"""``tests/net`` under debug mode: nothing may block a thread everyone shares.

CI runs this directory a second time as ``PYTHONASYNCIODEBUG=1 python -X
dev -m pytest tests/net -W error::RuntimeWarning``.  On the *client's*
loop, asyncio's debug mode turns a never-awaited coroutine into an error
and logs every callback that holds the loop for more than 100 ms; and
asyncio logs a future whose error nobody retrieved ("exception was never
retrieved") when it is collected -- a write-behind error that no COMMIT
reported would show there.  The server has no event loop to watch: its
reactor thread records the longest stretch between two ``select()``
calls as the gauge ``net.reactor_max_busy_ms`` -- the signature of
blocking work on the one thread every connection shares (``OP_STATS``
before the lane).  The fixture below turns each of these into a test
failure.  It asserts only in that second pass: the stretch is
wall-clock, and tier-1 shares its machine.
"""

from __future__ import annotations

import gc
import os
import sys

import pytest

from repro.net.server import OdeServer

DEBUG_PASS = sys.flags.dev_mode or bool(os.environ.get("PYTHONASYNCIODEBUG"))


@pytest.fixture(autouse=True)
def no_thread_everyone_shares_is_blocked(caplog, monkeypatch):
    busiest: list[float] = []
    close = OdeServer.close

    def recording_close(server, *args, **kwargs):
        busiest.append(server.stats.reactor_max_busy_ms)
        close(server, *args, **kwargs)

    monkeypatch.setattr(OdeServer, "close", recording_close)
    yield
    if not DEBUG_PASS:
        return
    gc.collect()  # a dropped future logs its unretrieved error when collected
    logged = [
        record.getMessage()
        for records in (caplog.get_records("setup"), caplog.get_records("call"), caplog.records)
        for record in records
        if record.name == "asyncio"
    ]
    slow = [message for message in logged if message.startswith("Executing ")]
    assert not slow, f"a client event loop was blocked for > 100 ms: {slow}"
    lost = [message for message in logged if "exception was never retrieved" in message]
    assert not lost, f"an error nobody retrieved: {lost}"
    assert max(busiest, default=0.0) <= 100.0, (
        f"a server's reactor was blocked for {max(busiest):.0f} ms"
    )
