"""The scenario harness the crash matrix, stress and chaos tools share.

Scenario selection, exit codes and rendering are checked on all three
CLIs with their scenarios replaced by fakes; the counter ledger and the
wire transaction driver are checked directly.
"""

from __future__ import annotations

import asyncio
import os
import pathlib
import subprocess
import sys

import pytest

from repro import Database
from repro.net.client import OdeClient
from repro.net.server import ServerThread
from repro.tools import chaos, crashmatrix, harness, stress
from repro.tools.harness import Counter, Ledger, Result

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
HARNESSES = [crashmatrix, stress, chaos]
TOOL_IDS = ["crashmatrix", "stress", "chaos"]
PROBLEMS = ["first thing wrong", "second thing wrong"]


def _fake_scenarios(monkeypatch, tool, failing=()) -> list[str]:
    """Replace ``tool``'s scenarios with fakes; returns the names run, in
    order.  A fake named in ``failing`` reports :data:`PROBLEMS`."""
    ran: list[str] = []

    def fake(name: str) -> Result:
        ran.append(name)
        return Result(name, problems=list(PROBLEMS) if name in failing else [])

    if tool is crashmatrix:
        monkeypatch.setattr(tool, "run_scenario", lambda row, path: fake(row.name))
    else:
        for name in tool.SCENARIOS:
            monkeypatch.setitem(
                tool.SCENARIOS, name, lambda path, name=name, **sizes: fake(name)
            )
    return ran


def _rows(names, smoke=False) -> list[str]:
    return list(crashmatrix.scenarios(names, smoke))


@pytest.mark.parametrize(
    "tool, argv, expected",
    [
        (crashmatrix, [], _rows(["plain"])),
        (crashmatrix, ["--scenario", "gc", "--scenario", "twopc", "--smoke"],
         _rows(["gc", "twopc"], smoke=True)),
        (stress, [], ["hotspot", "upgrade_storm", "newversion_chain"]),
        (stress, ["--scenario", "server", "--scenario", "gc_churn"],
         ["server", "gc_churn"]),
        (chaos, [], ["lossy_wire", "partition", "shard_failover"]),
        (chaos, ["--scenario", "partition"], ["partition"]),
    ],
    ids=["crashmatrix", "crashmatrix-gc-twopc", "stress", "stress-server-gc_churn",
         "chaos", "chaos-partition"],
)
def test_scenario_flag_runs_exactly_the_named_scenarios(
    monkeypatch, capsys, tmp_path, tool, argv, expected
):
    ran = _fake_scenarios(monkeypatch, tool)
    assert tool.main([*argv, "--dir", str(tmp_path)]) == 0
    assert ran == expected
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(expected)


@pytest.mark.parametrize("tool", HARNESSES, ids=TOOL_IDS)
def test_unknown_scenario_exits_2_and_lists_the_names(capsys, tool):
    with pytest.raises(SystemExit) as exit_:
        tool.main(["--scenario", "no_such_scenario"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    names = crashmatrix.MATRICES if tool is crashmatrix else tool.SCENARIOS
    assert all(repr(name) in err for name in names), err


@pytest.mark.parametrize("tool", HARNESSES, ids=TOOL_IDS)
def test_every_harness_renders_ok_and_failures(monkeypatch, capsys, tmp_path, tool):
    ran = _fake_scenarios(monkeypatch, tool)
    assert tool.main(["--smoke", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith(", all OK")
    assert all(line.startswith("  [ok] ") for line in out[1:])

    broken = ran[1]
    _fake_scenarios(monkeypatch, tool, failing={broken})
    assert tool.main(["--smoke", "--dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith(", FAILURES")
    at = out.index(next(line for line in out if line.startswith(f"  [FAIL] {broken} ")))
    assert out[at + 1 : at + 3] == [f"      - {p}" for p in PROBLEMS]
    assert len(out) == 1 + len(ran) + len(PROBLEMS)


@pytest.mark.parametrize(
    "module", [tool.__name__ for tool in HARNESSES] + ["repro.tools.explore"],
    ids=TOOL_IDS + ["explore"],
)
def test_harness_cli_runs_its_module_once(module):
    """The module must not be imported by its package before ``-m`` runs
    it: runpy would warn and execute the module body twice -- and its
    persistent types would register twice, which raises."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]
    ))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_ledger_flags_a_lost_update_and_a_phantom_write():
    ledger = Ledger(3)
    for idx in (0, 0, 1, 2):
        ledger.ack(idx)
    ledger.indeterminate(2)
    result = Result("ledger")
    ledger.check([2, 1, 2], result)  # counter 2 may hold 1 or 2
    assert result.ok, result.problems
    ledger.check([1, 2, 3], result)
    assert [p.rsplit("-- ", 1)[1] for p in result.problems] == [
        "lost update",  # counter 0: 1 < 2 acked
        "phantom write",  # counter 1: 2 > 1 acked + 0 indeterminate
        "phantom write",  # counter 2: 3 > 1 acked + 1 indeterminate
    ]
    assert (result.counts["acked"], result.counts["maybe"]) == (4, 1)


def test_wire_driver_bounds_successful_attempts(monkeypatch, tmp_path):
    """A healthy transaction that outlasts the attempt budget is a
    finding too, not only a failed one."""
    monkeypatch.setattr(harness, "ATTEMPT_BUDGET", 0)
    result = Result("budget")
    ledger = Ledger(1)
    with Database(tmp_path / "db") as db:
        oid = db.pnew(Counter()).oid
        with ServerThread(db) as server:

            async def one() -> bool:
                async with await OdeClient.connect(server.host, server.port) as client:
                    return await harness.run_txn(client, oid, 0, ledger, result)

            assert asyncio.run(one()) is False
        assert db.deref(oid).val == 1
    assert ledger.acked == [1]
    [problem] = result.problems
    assert "unbounded latency" in problem
