"""``tests/net`` under debug mode: nothing may block a thread everyone shares.

CI runs this directory a second time as ``PYTHONASYNCIODEBUG=1 python -X
dev -m pytest tests/net -W error::RuntimeWarning``.  On the *client's*
loop, asyncio's debug mode turns a never-awaited coroutine into an error
and logs every callback that holds the loop for more than 100 ms.  The
server has no event loop to watch: its reactor thread records the
longest stretch between two ``select()`` calls as the gauge
``net.reactor_max_busy_ms`` -- the signature of blocking work on the one
thread every connection shares (``OP_STATS`` before the lane).  The
fixture below turns either into a test failure.  It asserts only in that
second pass: the stretch is wall-clock, and tier-1 shares its machine.
"""

from __future__ import annotations

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
    slow = [
        record.getMessage()
        for when in ("setup", "call")
        for record in caplog.get_records(when)
        if record.name == "asyncio" and record.getMessage().startswith("Executing ")
    ]
    assert not slow, f"a client event loop was blocked for > 100 ms: {slow}"
    assert max(busiest, default=0.0) <= 100.0, (
        f"a server's reactor was blocked for {max(busiest):.0f} ms"
    )
