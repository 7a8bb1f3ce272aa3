"""Every layer probe the macro benchmark declares still names a function.

``benchmarks.macro.probes.LAYER_PROBES`` pins public method names at
each layer boundary; a probe that stops resolving is skipped and only
shows up as ``trace.probes_missing`` in a traced run.  This resolves
every target with the tracer's own ``_resolve`` (the same
``inspect.getattr_static`` walk, so a method inherited from a base class
counts), without running a workload, so a rename or a move fails here
in seconds.
"""

from __future__ import annotations

import pytest

from benchmarks.macro.probes import LAYER_PROBES, _resolve


@pytest.mark.parametrize("probe", LAYER_PROBES, ids=lambda probe: probe.span)
def test_probe_target_resolves(probe):
    _owner, _name, original = _resolve(probe.target)
    assert callable(original), f"{probe.target} is not callable"
