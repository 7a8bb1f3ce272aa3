"""The scenario harness the crash matrix, stress and chaos tools share.

A tool supplies named scenarios -- functions of a fresh directory that
return a :class:`Result` -- and :func:`main` is its CLI: ``--scenario
NAME`` (repeatable) picks them, :func:`run` runs them and a
:class:`Report` renders the outcome.  Beside that core sit the pieces two
tools check the same way: the :class:`Counter` object, the
:class:`Ledger` of acknowledged increments it is checked against, and
:func:`run_txn`, the wire read-modify-write driver.
"""

from __future__ import annotations

import argparse
import asyncio
import tempfile
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro import PersistentObject, persistent
from repro.errors import (
    ConnectionClosedError,
    DeadlineExceededError,
    NetworkError,
    OdeError,
    ProtocolError,
    TransactionStateError,
)
from repro.net.client import OdeClient, is_retryable

#: Per-op client deadline for wire scenarios: tight enough that a
#: black-holed op fails in bounded time, loose enough that a
#: healthy-but-contended op never trips it.
DEADLINE = 3.0

#: Worst-case budget for one transaction *attempt*: five deadline-bounded
#: ops (begin/read/write/commit + the abort the lease adds on failure)
#: plus scheduling slack.  Any attempt exceeding this is an unbounded-
#: latency bug, which is exactly what the deadline layer exists to rule
#: out.
ATTEMPT_BUDGET = 5 * DEADLINE + 2.0

_RETRY_CAP = 60


# -- results ------------------------------------------------------------------


@dataclass
class Result:
    """One scenario's outcome: its name, the problems found, named counts."""

    name: str
    problems: list[str] = field(default_factory=list)
    counts: defaultdict[str, float] = field(default_factory=lambda: defaultdict(int))

    @property
    def ok(self) -> bool:
        return not self.problems

    def render(self) -> str:
        """A status line with the counts, then one line per problem."""
        counts = "".join(
            f" {k}={v:.2f}" if isinstance(v, float) else f" {k}={v}"
            for k, v in self.counts.items()
        )
        lines = [f"  [{'ok' if self.ok else 'FAIL'}] {self.name}{counts}"]
        lines.extend(f"      - {p}" for p in self.problems)
        return "\n".join(lines)


@dataclass
class Report:
    results: list[Result] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render(self, title: str, *facts: str) -> str:
        """A header line (``facts`` after the scenario count), then each result."""
        status = "all OK" if self.ok else "FAILURES"
        head = ", ".join([f"{len(self.results)} scenarios", *facts, status])
        return "\n".join([f"{title}: {head}", *(r.render() for r in self.results)])


#: Scenario name -> the scenario, a function of the directory it runs in.
Scenarios = Mapping[str, Callable[[Path], Result]]


def run(
    scenarios: Scenarios, base_dir: Path | None = None, verbose: bool = False
) -> Report:
    """Run every scenario in a fresh subdirectory of ``base_dir`` (a temp
    dir unless one is given); ``verbose`` prints each result as it lands."""
    report = Report()
    where = nullcontext(base_dir) if base_dir else tempfile.TemporaryDirectory()
    with where as root:
        for name, scenario in scenarios.items():
            start = time.monotonic()
            result = scenario(Path(root) / name.replace(":", "_").replace("-", "_"))
            result.counts["seconds"] = time.monotonic() - start
            report.results.append(result)
            if verbose:
                print(result.render(), flush=True)
    return report


def main(
    argv: list[str] | None,
    *,
    prog: str,
    description: str,
    names: Sequence[str],
    default: Sequence[str],
    select: Callable[[list[str], argparse.Namespace], Scenarios],
    sizes: Mapping[str, tuple[int, int]] | None = None,
    seed: int | None = None,
    facts: Callable[[Report], Iterable[str]] = lambda report: (),
) -> int:
    """The CLI of every harness.  ``--scenario`` picks from ``names``
    (``default`` when absent) and ``select`` turns the picks and the
    parsed flags into scenarios.  ``sizes`` adds one integer flag per key,
    defaulting to its ``(smoke, full)`` pair; ``seed`` adds ``--seed``.
    Exit status: 0 all OK, 1 failures, 2 usage errors (an unknown name)."""
    sizes = sizes or {}
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "--scenario", action="append", choices=list(names), metavar="NAME",
        help=f"run this scenario (repeatable): one of {', '.join(names)}; "
        f"default {', '.join(default)}",
    )
    parser.add_argument("--smoke", action="store_true", help="the small, fast CI run")
    for flag, (small, full) in sizes.items():
        parser.add_argument(
            f"--{flag}", type=int, help=f"default {full}, {small} with --smoke"
        )
    if seed is not None:
        parser.add_argument(
            "--seed", type=int, default=seed,
            help="fault plan seed (same seed + workload => same fault schedule)",
        )
    parser.add_argument("-v", "--verbose", action="store_true")
    parser.add_argument(
        "--dir", type=Path, default=None,
        help="run under this directory instead of a temp dir (kept afterwards)",
    )
    args = parser.parse_args(argv)
    for flag, (small, full) in sizes.items():
        if getattr(args, flag) is None:
            setattr(args, flag, small if args.smoke else full)
    report = run(select(args.scenario or list(default), args), args.dir, args.verbose)
    print(report.render(prog, *facts(report)))
    return 0 if report.ok else 1


# -- counters and their ledger ------------------------------------------------


@persistent(name="harness.Counter")
class Counter(PersistentObject):
    """A counter incremented by read-modify-write: the lost-update canary."""

    def __init__(self, tag: int = 0, val: int = 0) -> None:
        self.tag = tag
        self.val = val


def counters(db, n: int) -> list:
    """Create ``n`` zeroed counters in one transaction; returns their oids."""
    with db.transaction():
        return [db.pnew(Counter(tag=i)).oid for i in range(n)]


class Ledger:
    """Per counter: increments acknowledged, and commits of unknown fate.

    The one rule: a counter's final value lies in ``[acked, acked +
    indeterminate]``.  Below it an acknowledged increment was lost; above
    it a commit nobody issued landed.  Thread-safe.
    """

    def __init__(self, n: int) -> None:
        self.acked = [0] * n
        self.maybe = [0] * n
        self._lock = threading.Lock()

    def ack(self, idx: int) -> None:
        with self._lock:
            self.acked[idx] += 1

    def indeterminate(self, idx: int) -> None:
        with self._lock:
            self.maybe[idx] += 1

    def check(self, values: Iterable[int], result: Result) -> None:
        """Hold each counter's final value (in index order) to the rule."""
        for idx, value in enumerate(values):
            lo, hi = self.acked[idx], self.acked[idx] + self.maybe[idx]
            if not lo <= value <= hi:
                result.problems.append(
                    f"counter {idx}: value {value} outside [{lo}, {hi}] "
                    f"(acked={lo}, indeterminate={self.maybe[idx]}) -- "
                    + ("lost update" if value < lo else "phantom write")
                )
        result.counts["acked"] = sum(self.acked)
        result.counts["maybe"] = sum(self.maybe)


# -- the wire transaction driver ----------------------------------------------


def _should_retry(exc: BaseException) -> bool:
    """The driver's retry predicate, wider than the library's taxonomy:

    * :func:`~repro.net.client.is_retryable` -- the wire taxonomy;
    * :class:`TransactionStateError` -- a begin that raced an orphaned
      server-side transaction (its commit was black-holed mid-flight;
      the lease's abort-on-error already cleared it, a retry is clean);
    * pool-heal exhaustion (:class:`NetworkError` that is not a
      :class:`ProtocolError`) -- the server was unreachable for longer
      than one heal cycle; under a deliberate partition that is
      expected, and trying again after the heal is the whole point.
    """
    if is_retryable(exc) or isinstance(exc, TransactionStateError):
        return True
    return isinstance(exc, NetworkError) and not isinstance(exc, ProtocolError)


async def run_txn(
    client: OdeClient, oid, idx: int, ledger: Ledger, result: Result
) -> bool:
    """One read-modify-write wire transaction on counter ``idx``, retried
    to completion.

    No attempt may take longer than :data:`ATTEMPT_BUDGET`, successful or
    not.  A commit that fails *indeterminately* (deadline expiry or
    connection loss after the COMMIT frame went out) is counted as such
    and not retried: retrying could double-apply the increment.  After an
    acknowledged commit the lock-free read must see at least every
    increment acknowledged to this counter.  Returns False once it
    records a problem that ends the worker.
    """
    for attempt in range(1, _RETRY_CAP + 1):
        start = time.perf_counter()
        indeterminate = False
        error: Exception | None = None
        try:
            async with client.lease() as conn:
                await conn.begin()
                val = await conn.read(oid, "val")
                await conn.write(oid, "val", val + 1)
                sent = not conn.closed  # else the COMMIT raises before it leaves
                try:
                    await conn.commit()
                except (DeadlineExceededError, ConnectionClosedError):
                    indeterminate = sent
                    raise
                ledger.ack(idx)
                try:
                    got = await conn.read(oid, "val")
                except OdeError as exc:
                    # The read-back is best-effort under chaos; a dead
                    # connection here does not unack the commit.
                    if not is_retryable(exc):
                        raise
                else:
                    if got < ledger.acked[idx]:
                        result.problems.append(
                            f"worker {idx}: lock-free read saw {got} after "
                            f"{ledger.acked[idx]} acked commits"
                        )
        except Exception as exc:  # noqa: BLE001 - classified below
            error = exc
        elapsed = time.perf_counter() - start
        result.counts["max_attempt_s"] = max(result.counts["max_attempt_s"], elapsed)
        if elapsed > ATTEMPT_BUDGET:
            result.problems.append(
                f"worker {idx}: attempt took {elapsed:.2f}s "
                f"(budget {ATTEMPT_BUDGET:.2f}s) -- unbounded latency"
            )
            return False
        if error is None:
            return True
        if indeterminate:
            ledger.indeterminate(idx)
            return True  # the txn may have landed; do not re-run it
        if not _should_retry(error):
            result.problems.append(
                f"worker {idx}: non-retryable {type(error).__name__}: {error}"
            )
            return False
        result.counts["retries"] += 1
        await asyncio.sleep(min(0.05 * attempt, 0.5))
    result.problems.append(f"worker {idx}: exhausted {_RETRY_CAP} retries")
    return False


async def swarm(
    client: OdeClient, oids: list, rounds: int, ledger: Ledger, result: Result
) -> None:
    """One worker per counter, all at once, each running ``rounds``
    transactions through :func:`run_txn` until its first problem."""

    async def drive(idx: int) -> None:
        for _ in range(rounds):
            if not await run_txn(client, oids[idx], idx, ledger, result):
                return

    await asyncio.gather(*(drive(idx) for idx in range(len(oids))))
