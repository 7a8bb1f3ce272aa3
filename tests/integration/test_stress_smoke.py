"""The contention stress harness, at smoke scale, as a tier-1 test.

``repro.tools.stress`` is the standing proof that the resilience layer
(deadlock detection + ``run_transaction`` retry) holds up under real
thread contention.  CI runs it standalone too; this test keeps the
harness itself honest -- every scenario present, every invariant wired.
"""

from __future__ import annotations

from repro.tools import harness
from repro.tools.stress import DEFAULT, SCENARIOS, scenarios


def test_smoke_scale_stress_all_scenarios_pass(tmp_path):
    report = harness.run(scenarios(DEFAULT, workers=4, rounds=8), tmp_path / "stress")
    assert len(SCENARIOS) == 6
    names = [r.name for r in report.results]
    assert names == ["hotspot", "upgrade_storm", "newversion_chain"]
    for result in report.results:
        assert result.ok, f"{result.name}: {result.problems}"
        assert result.counts["acked"] > 0
    assert report.ok
    assert "all OK" in report.render("stress")


def test_smoke_scale_stress_with_snapshot_readers(tmp_path):
    report = harness.run(
        scenarios(["snapshot_readers"], workers=4, rounds=8), tmp_path / "stress"
    )
    [result] = report.results
    assert result.name == "snapshot_readers"
    assert result.ok, result.problems
    assert result.counts["acked"] > 0


def test_smoke_scale_stress_with_gc_churn(tmp_path):
    report = harness.run(
        scenarios(["gc_churn"], workers=4, rounds=8), tmp_path / "stress"
    )
    [result] = report.results
    assert result.name == "gc_churn"
    assert result.ok, result.problems
    assert result.counts["acked"] > 0


def test_stress_cli_smoke_exit_code(tmp_path):
    from repro.tools.stress import main

    assert main(["--smoke", "--workers", "3", "--rounds", "5",
                 "--dir", str(tmp_path / "cli")]) == 0
