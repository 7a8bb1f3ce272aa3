"""Smoke gate for the macro benchmark (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/macro -q`` from the
repository root (~25 s).  Every workload runs once, untraced, at
``--scale 0.05`` in its own process, exactly as the driver would start
it; three of them also run traced.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from benchmarks.macro import agree

SCALE = 0.05
SPEC = agree.benchmark_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TRACED = ["read_latest", "commit_single", "commit_cross"]


@pytest.fixture(scope="module")
def untraced() -> dict[str, dict]:
    return {w: agree.run_child(w, 1, SPEC["run_seconds"], SCALE, 0) for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {w: agree.run_child(w, 1, SPEC["run_seconds"], SCALE, 1) for w in TRACED}


def _check_result_line(report: dict, tier: str) -> None:
    line = report["result_line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, report["problems"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[tier]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == declared


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(untraced, workload):
    report = untraced[workload]
    _check_result_line(report, "end_to_end")
    assert all(m["value"] > 0 for m in report["result_line"]["metrics"].values())
    assert len(report["segments"]) == 30
    steered = ["heap-stub-growth"] if workload == "commit_single" else []
    assert report["config"]["steered_around"] == steered


@pytest.mark.parametrize("workload", TRACED)
def test_traced_run_emits_every_per_layer_metric(traced, workload):
    report = traced[workload]
    _check_result_line(report, "per_layer")
    layer = report["per_layer"]
    assert layer["trace.probes_missing"] == 0
    assert all(value is not None for value in layer.values())
    assert 90.0 <= layer["trace.self_sum_pct"] <= 110.0
    assert report["traced"]["fsyncs_unattributed"] == 0
    device = sum(layer[f"device.fsyncs_{d}_per_commit"] for d in ("wal", "blob", "disk"))
    assert device == pytest.approx(report["traced"]["fsyncs_per_commit_since_start"])


def test_workloads_separate_the_layers(traced):
    assert traced["read_latest"]["per_layer"]["core.transactions.lock_acquires_per_op"] == 0
    assert traced["read_latest"]["per_layer"]["net.server.inline_share"] == 1
    assert traced["commit_single"]["per_layer"]["shard.coordinator.twopc_share"] == 0
    assert traced["commit_single"]["per_layer"]["shard.coordinator.prepares_per_commit"] == 0
    assert traced["commit_cross"]["per_layer"]["shard.coordinator.twopc_share"] == 1
    assert traced["commit_cross"]["per_layer"]["shard.router.shards_touched_per_op"] == 2


def test_metric_table_matches_benchmark_json():
    from benchmarks.macro.probes import PER_LAYER
    from benchmarks.macro.workloads import SPECS

    assert [(n, u, b) for n, u, b, _ in PER_LAYER] == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ]
    assert [(s.name, s.why) for s in SPECS.values()] == [
        (w["name"], w["why"]) for w in SPEC["workloads"]
    ]
    assert SPEC["paths"] == ["benchmarks/macro"]


_IN_PROCESS = """
import sys
from benchmarks.macro import harness
{setup}
report = harness.run(harness.Config(workload="commit_single", scale=0.05, trace={trace}))
{check}
"""


def _in_fresh_process(setup: str, trace: bool, check: str) -> None:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(agree.ROOT, "src"), agree.ROOT, env.get("PYTHONPATH", "")]
    )
    script = _IN_PROCESS.format(setup=setup, trace=trace, check=check)
    proc = subprocess.run([sys.executable, "-c", script], cwd=agree.ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_untraced_run_never_imports_the_probes():
    _in_fresh_process("", False, 'assert report["correct"], report["problems"]\n'
                                 'assert "benchmarks.macro.probes" not in sys.modules')


def test_phase_cut_short_is_not_correct():
    check = (
        "assert not report['correct']\n"
        "assert len(report['segments']) == 1\n"
        "assert any('cut short' in p for p in report['problems']), report['problems']"
    )
    _in_fresh_process("harness.OVERRUN_FACTOR = 0.0", False, check)


def test_probe_that_no_longer_resolves_reads_null():
    setup = (
        "from benchmarks.macro import probes\n"
        "probes.LAYER_PROBES = tuple(\n"
        "    probes.Probe(p.span, 'repro.storage.blobs:BlobStore.renamed_away')\n"
        "    if p.span == 'storage.blobs.put' else p for p in probes.LAYER_PROBES)"
    )
    check = (
        "assert report['correct'], report['problems']\n"
        "layer = report['per_layer']\n"
        "assert layer['trace.probes_missing'] == 1\n"
        "assert layer['storage.blobs.put_ms_per_commit'] is None\n"
        "assert layer['storage.blobs.puts_per_commit'] is None\n"
        "assert layer['storage.wal.flush_ms_per_commit'] is not None"
    )
    _in_fresh_process(setup, True, check)


def test_agree_flags_a_gap_a_spread_and_a_trend(tmp_path, untraced):
    def runs(path, factor, setup_factors=(1.0, 1.0, 1.0)):
        doc = {"runs": []}
        for report in untraced.values():
            for setup_factor in setup_factors:
                copy = json.loads(json.dumps(report))
                copy["end_to_end"]["ops_s"] *= factor
                copy["end_to_end"]["setup_s"] *= setup_factor
                doc["runs"].append(copy)
        path.write_text(json.dumps(doc))
        return str(path)

    same = agree.compare(runs(tmp_path / "a.json", 1.0), runs(tmp_path / "b.json", 1.0))
    assert same["agree"]
    apart = agree.compare(runs(tmp_path / "a.json", 1.0), runs(tmp_path / "c.json", 0.6))
    assert not apart["agree"]
    assert {r["metric"] for r in apart["rows"] if r["verdict"] == "GAP"} == {"ops_s"}
    wide = agree.compare(runs(tmp_path / "a.json", 1.0),
                         runs(tmp_path / "d.json", 1.0, setup_factors=(0.5, 1.0, 1.5)))
    assert not wide["agree"]
    assert {r["metric"] for r in wide["rows"] if r["verdict"] == "SPREAD"} == {"setup_s"}
    assert agree.spearman([float(i) for i in range(30)]) == pytest.approx(1.0)
    assert abs(agree.spearman([1.0, 3.0, 2.0, 5.0, 1.5, 4.0, 2.5, 3.5])) < agree.TREND_RHO
