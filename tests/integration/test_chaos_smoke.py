"""The chaos harness, at smoke scale, as a tier-1 test.

``repro.tools.chaos`` is the standing proof that the fault-tolerance
layer (deadlines + reconnect + admission control + shard failure
domains) survives a hostile wire.  CI runs it standalone too; this test
keeps the harness itself honest -- every scenario present, every
invariant wired, exit codes correct.
"""

from __future__ import annotations

from repro.tools import harness
from repro.tools.chaos import SCENARIOS, scenarios


def test_smoke_scale_chaos_all_scenarios_pass(tmp_path):
    report = harness.run(
        scenarios(SCENARIOS, workers=8, rounds=6, seed=7), tmp_path / "chaos"
    )
    names = [r.name for r in report.results]
    assert names == ["lossy_wire", "partition", "shard_failover"]
    for result in report.results:
        assert result.ok, f"{result.name}: {result.problems}"
        assert result.counts["acked"] > 0
        # Indeterminate commits stay rare even on the lossy wire -- they
        # only arise when the fault lands exactly on a commit's response.
        assert result.counts["maybe"] <= result.counts["acked"]
    assert report.ok
    assert "all OK" in report.render("chaos")


def test_chaos_cli_smoke_exit_code(tmp_path):
    from repro.tools.chaos import main

    assert main(["--smoke", "--dir", str(tmp_path / "cli")]) == 0
