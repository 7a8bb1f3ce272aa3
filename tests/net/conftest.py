"""``tests/net`` under asyncio debug mode.

CI runs this directory a second time as ``PYTHONASYNCIODEBUG=1 python -X
dev -m pytest tests/net -W error::RuntimeWarning``.  Debug mode makes a
lane worker that touches the event loop without ``call_soon_threadsafe``
raise, turns a never-awaited coroutine into an error, and logs every
callback that holds a loop for more than 100 ms -- the signature of
blocking work on the server's event loop (``OP_STATS`` before the lane).
The fixture below turns that log line into a test failure.
"""

from __future__ import annotations

import os
import sys

import pytest

ASYNCIO_DEBUG = sys.flags.dev_mode or bool(os.environ.get("PYTHONASYNCIODEBUG"))


@pytest.fixture(autouse=True)
def no_slow_loop_callbacks(caplog):
    yield
    if not ASYNCIO_DEBUG:
        return
    slow = [
        record.getMessage()
        for when in ("setup", "call")
        for record in caplog.get_records(when)
        if record.name == "asyncio" and record.getMessage().startswith("Executing ")
    ]
    assert not slow, f"an event loop was blocked for > 100 ms: {slow}"
