"""Drive scenarios through the cooperative scheduler and judge them.

One *run* = fresh database in a temp directory, seed applied, scenario
threads executed under a :class:`CooperativeScheduler` with a given
decision schedule (explicit prefix, seeded random tail, or default
first-runnable), then the oracle's serializability check over the
recorded histories and the real final state.

Exploration modes:

* **bounded exhaustive** -- depth-first over the decision tree: run with
  the current prefix (default choices beyond it), then backtrack to the
  rightmost decision with an untried alternative and increment it.  The
  tree is finite because every run terminates; ``max_runs`` bounds the
  walk for scenarios whose trees are large (the result says whether the
  walk was complete).
* **seeded random** -- independent runs whose decisions are drawn from a
  per-run seed derived deterministically from the base seed.

A failing run is **minimized** by repeatedly zeroing non-default decision
choices while the failure persists (the default choice 0 is "first
runnable thread", so zeros are the quiet baseline), then trimming
trailing zeros -- the result is the shortest deviation-from-default
prefix that still reproduces the problem, small enough to read.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any

from repro import probe
from repro.core.database import Database
from repro.core.identity import Vid
from repro.core.pointers import Ref
from repro.storage.serialization import decode
from repro.verify.model import history
from repro.verify.oracle import ThreadLog, Verdict, check
from repro.verify.scenarios import Cell, Scenario
from repro.verify.scheduler import CooperativeScheduler, SchedulerStuck


@dataclass
class RunOutcome:
    """Everything one scheduled run produced."""

    scenario: str
    mutation: str | None
    schedule: list[int]
    branching: list[int]
    trace: list[tuple[str, str]]
    verdict: Verdict | None = None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or (
            self.verdict is not None and not self.verdict.serializable
        )

    @property
    def reason(self) -> str:
        if self.error is not None:
            return self.error
        if self.verdict is not None and not self.verdict.serializable:
            return self.verdict.reason or "not serializable"
        return "ok"

    def to_repro(self) -> dict[str, Any]:
        """JSON-serializable repro record (the CI artifact payload)."""
        out: dict[str, Any] = {
            "scenario": self.scenario,
            "mutation": self.mutation,
            "schedule": self.schedule,
            "branching": self.branching,
            "reason": self.reason,
            "trace": [list(step) for step in self.trace],
        }
        if self.verdict is not None:
            out["permutations_checked"] = self.verdict.permutations_checked
            out["details"] = self.verdict.details[:8]
        return out


@dataclass
class ExploreResult:
    scenario: str
    mode: str
    runs: int = 0
    complete: bool = False
    failures: list[RunOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _apply_seed(db: Database, seed: tuple[tuple, ...]) -> dict[str, Ref]:
    """Build the pre-run state; mirrors the oracle's model seed replay."""
    refs: dict[str, Ref] = {}
    for event in seed:
        kind = event[0]
        if kind == "pnew":
            _, key, value = event
            refs[key] = db.pnew(Cell(value))
        elif kind == "newversion":
            _, key, base, serial, dprev = event
            target = refs[key] if base is None else db.deref(Vid(refs[key].oid, base))
            vref = db.newversion(target)
            assert vref.vid.serial == serial, "seed out of step with the kernel"
            parent = db.dprevious(vref)
            assert (parent.vid.serial if parent else None) == dprev
        elif kind == "write":
            _, key, serial, value = event
            if serial is None:
                refs[key].value = value
            else:
                db.deref(Vid(refs[key].oid, serial)).value = value
        else:
            raise ValueError(f"unsupported seed event {event!r}")
    return refs


MUTATIONS = ("publish-exclusion",)


def run_schedule(
    scenario: Scenario,
    schedule: list[int] | None = None,
    seed: int | None = None,
    mutate: str | None = None,
    wall_timeout: float = 30.0,
) -> RunOutcome:
    """Execute one scheduled run of ``scenario`` and judge it."""
    if mutate is not None and mutate not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r} (known: {MUTATIONS})")
    tmp = tempfile.mkdtemp(prefix="repro-explore-")
    outcome = RunOutcome(scenario.name, mutate, [], [], [])
    try:
        db = Database(tmp, checkpoint_threshold=0)
        try:
            refs = _apply_seed(db, scenario.seed)
            if mutate == "publish-exclusion":
                # Publication stops excluding active transactions' objects;
                # the shadow lives on this run's database and dies with it.
                db._active_touched = set
            logs = {name: ThreadLog(name) for name, _ in scenario.threads}
            sched = CooperativeScheduler(
                schedule=schedule, seed=seed, wall_timeout=wall_timeout
            )
            restore = sched.instrument(db)
            probe.attach(sched)
            stuck: str | None = None
            try:
                for name, body in scenario.threads:
                    sched.spawn(name, body, db, refs, logs[name])
                sched.run()
            except SchedulerStuck as exc:
                stuck = f"scheduler stuck: {exc}"
            finally:
                probe.detach()
                restore()
            outcome.schedule = [c for c, _ in sched.decisions]
            outcome.branching = [n for _, n in sched.decisions]
            outcome.trace = list(sched.trace)
            if stuck is not None:
                outcome.error = stuck
                return outcome
            errors = sched.errors
            if errors:
                outcome.error = "; ".join(
                    f"{name}: {type(exc).__name__}: {exc}"
                    for name, exc in sorted(errors.items())
                )
                return outcome
            try:
                db.locks.assert_quiescent()
            except AssertionError as exc:
                outcome.error = str(exc)
                return outcome
            real = history(db.export(), lambda content: decode(content).value)
            final = {
                key: real[refs[key].oid]
                for key in scenario.keys
                if refs[key].oid in real
            }
            outcome.verdict = check(
                list(scenario.seed), logs, final, list(scenario.keys)
            )
            return outcome
        finally:
            try:
                db.close()
            except Exception:
                # A stuck run can leave parked daemon threads holding
                # transaction state; the directory is discarded anyway.
                pass
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def explore(
    scenario: Scenario,
    mode: str = "exhaustive",
    max_runs: int = 200,
    seed: int = 0,
    mutate: str | None = None,
    stop_on_failure: bool = True,
) -> ExploreResult:
    """Walk the schedule space; see the module docstring for the modes."""
    result = ExploreResult(scenario.name, mode)
    if mode == "exhaustive":
        prefix: list[int] = []
        while True:
            outcome = run_schedule(scenario, schedule=prefix, mutate=mutate)
            result.runs += 1
            if outcome.failed:
                result.failures.append(outcome)
                if stop_on_failure:
                    return result
            # Backtrack: rightmost decision with an untried alternative.
            stack = [
                [choice, branch]
                for choice, branch in zip(outcome.schedule, outcome.branching)
            ]
            while stack and stack[-1][0] + 1 >= stack[-1][1]:
                stack.pop()
            if not stack:
                result.complete = True
                return result
            if result.runs >= max_runs:
                return result
            stack[-1][0] += 1
            prefix = [choice for choice, _ in stack]
    elif mode == "random":
        for i in range(max_runs):
            outcome = run_schedule(scenario, seed=seed + i, mutate=mutate)
            result.runs += 1
            if outcome.failed:
                result.failures.append(outcome)
                if stop_on_failure:
                    return result
        result.complete = True  # the requested budget, fully spent
        return result
    else:
        raise ValueError(f"unknown mode {mode!r}")


def minimize(
    scenario: Scenario,
    failing: RunOutcome,
    max_attempts: int = 200,
) -> RunOutcome:
    """Shrink a failing schedule to its shortest still-failing form.

    Greedily zero each non-default choice (left to right, restarting on
    success) while the run keeps failing, then trim trailing zeros.  The
    returned outcome re-ran the minimized schedule, so its trace and
    verdict describe exactly the repro being reported.
    """

    def trim(schedule: list[int]) -> list[int]:
        end = len(schedule)
        while end > 0 and schedule[end - 1] == 0:
            end -= 1
        return schedule[:end]

    best_schedule = trim(list(failing.schedule))
    best = failing
    attempts = 0
    changed = True
    while changed and attempts < max_attempts:
        changed = False
        for i, choice in enumerate(best_schedule):
            if choice == 0:
                continue
            trial = list(best_schedule)
            trial[i] = 0
            outcome = run_schedule(scenario, schedule=trial, mutate=failing.mutation)
            attempts += 1
            if outcome.failed:
                best_schedule = trim(trial)
                best = outcome
                changed = True
                break
            if attempts >= max_attempts:
                break
    final = run_schedule(scenario, schedule=best_schedule, mutate=failing.mutation)
    out = final if final.failed else best
    # Decisions past the last non-zero are the default choice anyway;
    # dropping them leaves the shortest prefix that still replays.
    out.schedule = trim(out.schedule)
    return out


def write_repro(outcome: RunOutcome, out_dir: str) -> str:
    """Write a minimized-failure repro file; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"{outcome.scenario}-{outcome.mutation or 'clean'}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(outcome.to_repro(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_repro(path: str) -> tuple[str, list[int], str | None]:
    """Read a repro file back: (scenario name, schedule, mutation)."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["scenario"], list(data["schedule"]), data.get("mutation")
