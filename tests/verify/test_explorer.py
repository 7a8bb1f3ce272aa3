"""End-to-end tests: real database under the scheduler, judged by the oracle."""

from __future__ import annotations

import json

import pytest

from repro.verify.explorer import (
    explore,
    load_repro,
    minimize,
    run_schedule,
    write_repro,
)
from repro.verify.scenarios import SCENARIOS, small_scenarios

pytestmark = pytest.mark.explore


def test_default_schedule_is_clean_everywhere():
    for scenario in SCENARIOS.values():
        outcome = run_schedule(scenario, schedule=[])
        assert not outcome.failed, f"{scenario.name}: {outcome.reason}"


def test_replay_is_deterministic():
    scenario = SCENARIOS["lost_update"]
    first = run_schedule(scenario, seed=5)
    second = run_schedule(scenario, schedule=first.schedule)
    assert first.trace == second.trace
    assert first.schedule == second.schedule
    assert first.failed == second.failed


@pytest.mark.parametrize("scenario", small_scenarios(), ids=lambda s: s.name)
def test_bounded_exhaustive_small_scenarios_clean(scenario):
    result = explore(scenario, mode="exhaustive", max_runs=40)
    assert result.runs > 1
    assert result.ok, [f.reason for f in result.failures]


@pytest.mark.slow
def test_random_exploration_large_scenarios_clean():
    for name in ("mixed_3txn", "mixed_4way"):
        result = explore(SCENARIOS[name], mode="random", max_runs=25, seed=3)
        assert result.ok, [f.reason for f in result.failures]


def test_mutation_selftest_catches_publish_leak(tmp_path):
    """The oracle must notice uncommitted state leaking into snapshots --
    and the minimized schedule must be clean once the mutation is off."""
    scenario = SCENARIOS["uncommitted_read"]
    result = explore(
        scenario, mode="random", max_runs=80, seed=0, mutate="publish-exclusion"
    )
    assert result.failures, "planted mutation not detected: the oracle is blind"
    minimized = minimize(scenario, result.failures[0])
    assert minimized.failed
    # Greedy zeroing can only remove deviations from the default choice.
    nonzero = lambda s: sum(1 for c in s if c)
    assert nonzero(minimized.schedule) <= nonzero(result.failures[0].schedule)

    clean = run_schedule(scenario, schedule=minimized.schedule)
    assert not clean.failed, "failure persists without the mutation"

    path = write_repro(minimized, str(tmp_path))
    name, schedule, mutation = load_repro(path)
    assert (name, schedule, mutation) == (
        scenario.name,
        minimized.schedule,
        "publish-exclusion",
    )
    payload = json.loads(open(path, encoding="utf-8").read())
    assert payload["reason"]
    assert payload["trace"]


def test_mutation_does_not_linger(tmp_path):
    """A mutated run leaves the next run's database unmutated."""
    scenario = SCENARIOS["uncommitted_read"]
    run_schedule(scenario, seed=1, mutate="publish-exclusion")
    outcome = run_schedule(scenario, seed=1)
    assert not outcome.failed


def test_unknown_mutation_rejected():
    with pytest.raises(ValueError):
        run_schedule(SCENARIOS["lost_update"], mutate="no-such-mutation")
