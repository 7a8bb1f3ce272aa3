"""The probe plane: the declared point table, the observer slot and the
histogram."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from repro import probe
from repro.storage.faults import FaultInjector, FaultPlan, SimulatedCrash

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The kinds each name-taking hook accepts.
HOOK_KINDS = {
    "point": {probe.CRASH, probe.ERROR, probe.YIELD},
    "write": {probe.WRITE},
}


def call_sites() -> list[tuple[str, str, str]]:
    """``(hook, name, where)`` for every name a ``probe`` hook is given in
    ``src/``.  A name computed in the calling function (the chaos proxy's
    forward direction) counts by every declared literal that function
    holds."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "probe.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "probe"
                    and node.func.attr in HOOK_KINDS
                ):
                    continue
                where = f"{path.relative_to(SRC)}:{node.lineno}"
                arg = node.args[0]
                if isinstance(arg, ast.Constant):
                    sites.append((node.func.attr, arg.value, where))
                    continue
                computed = [
                    const.value
                    for const in ast.walk(func)
                    if isinstance(const, ast.Constant) and const.value in probe.POINTS
                ]
                assert computed, f"{where}: a computed name with no declared literal"
                sites.extend((node.func.attr, name, where) for name in computed)
    return sites


def test_every_name_given_to_a_hook_is_declared_with_the_hooks_kind():
    sites = call_sites()
    assert sites
    wrong = [
        (hook, name, where)
        for hook, name, where in sites
        if probe.POINTS.get(name) not in HOOK_KINDS[hook]
    ]
    assert not wrong, f"undeclared or wrong-kind probe points: {wrong}"


def test_computed_proxy_names_stay_declared():
    forwards = {name for _, name, where in call_sites() if where.startswith("net/chaos.py")}
    assert {"net.proxy.forward.c2s", "net.proxy.forward.s2c"} <= forwards


def test_the_table_holds_the_seventeen_yield_points():
    yields = [name for name, kind in probe.POINTS.items() if kind == probe.YIELD]
    assert len(yields) == 17
    assert len(probe.POINTS) == 54 + 17


@pytest.mark.parametrize("arm", [
    lambda plan: plan.crash("no.such.point"),
    lambda plan: plan.crash("txn.commit"),  # a yield point carries no fault
    lambda plan: plan.torn_write("wal.flush.fsync", keep=1),
    lambda plan: plan.short_write("wal.append", keep=1),
    lambda plan: plan.fsync_error("blobs.append"),
    lambda plan: plan.error("txn.lock"),
], ids=["undeclared", "yield", "torn-at-error", "short-at-crash", "fsync-at-write", "error-at-yield"])
def test_plan_rejects_an_undeclared_name_and_a_wrong_kind_action(arm):
    with pytest.raises(ValueError):
        arm(FaultPlan())


# -- the observer slot ---------------------------------------------------------


def test_attach_refuses_a_second_observer():
    first = probe.attach(FaultInjector())
    assert probe.attach(first) is first  # re-attaching the same one is fine
    with pytest.raises(RuntimeError):
        probe.attach(FaultInjector())
    probe.detach()
    assert probe.attached() is None


def test_empty_slot_hooks_pass_through():
    assert probe.attached() is None
    assert not probe.crashed()
    assert set(probe.stats()) == {
        "faults.armed", "faults.hits", "faults.crashes",
        "faults.torn_writes", "faults.short_writes", "faults.fsync_errors",
    }
    assert not any(probe.stats().values())


def test_injector_passes_yield_points_by():
    injector = probe.attach(FaultInjector(FaultPlan().crash("wal.append")))
    with pytest.raises(SimulatedCrash):
        probe.point("wal.append")
    assert injector.crashed
    probe.point("txn.commit")  # not fenced, not counted
    assert injector.hits_total == 1


# -- the histogram -------------------------------------------------------------


def _bucket(value: float) -> int:
    hist = probe.Histogram()
    hist.record(value)
    return hist._counts.index(1)


@pytest.mark.parametrize("seed", range(5))
def test_histogram_p99_is_within_one_bucket_of_the_sorted_p99(seed):
    rng = random.Random(seed)
    samples = [rng.lognormvariate(-6, 2) for _ in range(5000)]
    hist = probe.Histogram()
    for value in samples:
        hist.record(value)
    exact = sorted(samples)[min(len(samples) - 1, int(len(samples) * 0.99))]
    assert hist.count == len(samples) and hist.max == max(samples)
    assert abs(_bucket(hist.quantile(0.99)) - _bucket(exact)) <= 1


def test_histogram_edges():
    hist = probe.Histogram()
    assert hist.quantile(0.99) == 0.0
    for value in (0.0, 3.0, 3.0):
        hist.record(value)
    assert hist.quantile(0.0) <= 1e-6
    assert hist.quantile(0.99) == 3.0  # capped at the largest sample
    hist.record(1e9)  # past the last bucket: clamped, still counted
    assert hist.quantile(1.0) == hist.max == 1e9
