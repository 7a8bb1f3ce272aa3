"""``benchmarks.pairs`` against a throwaway git repository whose stub
``benchmarks/macro`` prints fixed JSON lines."""

from __future__ import annotations

import json
import shutil
import subprocess
import textwrap
from pathlib import Path

import pytest

from benchmarks import pairs

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")

#: The stub benchmark: each side prints its own fixed metrics; the
#: parent's setup time varies with the seed so its IQR is wide.
STUB = textwrap.dedent("""\
    import argparse, json
    parser = argparse.ArgumentParser()
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        parser.add_argument(flag)
    args = parser.parse_args()
    metrics = {METRICS}
    print("some progress line")
    print(json.dumps({"correct": True, "attempted": 100, "failed": 0,
                      "metrics": {k: {"value": v} for k, v in metrics.items()}}))
""")
PARENT = ('{"ops_s": 100.0, "p50_ms": 1.0, "cpu_ms_per_op": 1.0, "setup_s": 1.0 + int(args.seed) % 2,'
          ' "fsyncs_per_commit": 2.0, "stored_bytes_per_user_byte": 1.0}')
#: The change saves an fsync per commit on seed 102 only (a median of the
#: three reads "same"), and stores 10 % more on every seed.
CHANGE = ('{"ops_s": 150.0, "p50_ms": 1.0, "cpu_ms_per_op": 1.5, "setup_s": 1.7,'
          ' "fsyncs_per_commit": 2.0 - (args.seed == "102"), "stored_bytes_per_user_byte": 1.1}')
SPEC = {
    "command": ["python3", "-m", "benchmarks.macro"],
    "paths": ["benchmarks/macro"],
    "run_seconds": 10,
    "workloads": [{"name": "w1", "why": "stub"}, {"name": "w2", "why": "stub"}],
    "end_to_end": [
        {"name": "ops_s", "unit": "ops/s", "better": "higher", "bound": 0.15},
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.15},
        {"name": "cpu_ms_per_op", "unit": "ms", "better": "lower", "bound": 0.15},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "stored_bytes_per_user_byte", "unit": "ratio", "better": "lower", "bound": 0.03},
        {"name": "fsyncs_per_commit", "unit": "count", "better": "lower", "bound": 0.03},
    ],
}


def _write_stub(root: Path, metrics: str) -> None:
    (root / "benchmarks" / "macro" / "__main__.py").write_text(
        STUB.replace("{METRICS}", metrics)
    )


def test_pairs_writes_a_ledger_row_with_three_arms_and_verdicts(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    (repo / "benchmarks" / "macro").mkdir(parents=True)
    (repo / "benchmarks" / "__init__.py").write_text("")
    (repo / "benchmarks" / "macro" / "__init__.py").write_text("")
    (repo / "BENCHMARK.json").write_text(json.dumps(SPEC))
    _write_stub(repo, PARENT)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run([*git, "add", "-A"], cwd=repo, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "parent"], cwd=repo, check=True)
    _write_stub(repo, CHANGE)  # the change is the working tree
    monkeypatch.chdir(repo)

    assert pairs.main(["--pr", "7", "--pairs", "3", "--seconds", "1"]) == 0

    ledger = json.loads((repo / "BENCH_7.json").read_text())
    assert ledger["commits"]["change"]["dirty"]
    assert ledger["protocol"]["seeds"] == [101, 102, 103]
    assert ledger["bounds"]["setup_s"]["bound"] == 0.25
    assert len(ledger["runs"]) == 3 * 2 * 3  # rounds x workloads x arms
    # The order of the three arms rotates from round to round.
    firsts = [r["arm"] for r in ledger["runs"] if r["workload"] == "w1" and r["slot"] == 0]
    assert firsts == ["parent", "change", "parent_aa"]
    for workload in ("w1", "w2"):
        row = ledger["rows"][workload]
        assert row["runs"] == {"parent": 3, "change": 3, "parent_aa": 3}
        assert row["correct"] and row["failed_share"]["change"] == 0.0
        verdicts = {name: m["verdict"] for name, m in row["metrics"].items()}
        assert verdicts == {
            "ops_s": "better",  # 3/3 wins, shift past a zero IQR
            "p50_ms": "same",
            "cpu_ms_per_op": "worse",  # +50 % against a 15 % bound
            "setup_s": "unresolved",  # parent IQR 1.0 s on a 1 s median
            "stored_bytes_per_user_byte": "worse",
            "fsyncs_per_commit": "same",  # the median does not see seed 102
        }
        assert row["metrics"]["ops_s"]["aa_shift"] == 0.0
        assert row["metrics"]["ops_s"]["wins"] == 3
        assert "per_seed" not in row["metrics"]["ops_s"]
        fsyncs = row["metrics"]["fsyncs_per_commit"]
        assert fsyncs["per_seed"] == {"equal": 2, "higher": 0, "lower": 1, "pairs": 3,
                                      "reading": "equal on 2/3 seeds"}
        assert fsyncs["aa_per_seed"]["reading"] == "equal on 3/3 seeds"
        stored = row["metrics"]["stored_bytes_per_user_byte"]
        assert stored["per_seed"]["reading"] == "+10 % on 3/3 seeds"
    table = capsys.readouterr().out
    assert "| w2 | cpu_ms_per_op | 1 | 1.5 | +50.0 % | +0.0 % | 0 | 0/3 | worse | – |" in table
    assert ("| w1 | fsyncs_per_commit | 2 | 2 | +0.0 % | +0.0 % | 0 | 1/3 | same "
            "| equal on 2/3 seeds (equal on 3/3 seeds) |") in table
    # Only the ledger is left behind in the repository.
    status = subprocess.run(["git", "status", "--porcelain"], cwd=repo,
                            capture_output=True, text=True, check=True).stdout
    left = sorted(line[3:] for line in status.splitlines() if "__pycache__" not in line)
    assert left == ["BENCH_7.json", "benchmarks/macro/__main__.py"]


@pytest.mark.parametrize("parent, change, wins, verdict", [
    ([100, 101, 102], [120, 121, 122], 3, "better"),
    ([100, 101, 102], [101, 101, 101], 1, "same"),
    ([100, 101, 102], [80, 80, 80], 0, "worse"),
    ([10, 20, 30], [19, 20, 21], 1, "unresolved"),
    ([10, 20, 30], [31, 32, 33], 2, "same"),  # every change run beats every parent run
])
def test_verdict_rule(parent, change, wins, verdict):
    assert pairs.judge(parent, change, wins, 3, "higher", 0.15) == verdict


@pytest.mark.parametrize("change, reading", [
    ([2.0, 2.0, 2.0, 2.0], "equal on 4/4 seeds"),
    ([2.0, 2.0, 1.0, 3.0], "equal on 2/4 seeds"),  # ties go to equality
    ([2.0, 1.0, 1.5, 3.0], "-37.5 % on 2/4 seeds"),  # median of -50 % and -25 %
    ([2.2, 2.2, 2.2, 2.0], "+10 % on 3/4 seeds"),
    ([2.0005, 2.0005, 2.0005, 2.0], "+0.025 % on 3/4 seeds"),  # small, but a move
])
def test_per_seed_reading(change, reading):
    parent = {rnd: 2.0 for rnd in range(4)}
    assert pairs.per_seed(parent, dict(enumerate(change)))["reading"] == reading
