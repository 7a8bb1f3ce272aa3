"""``python -m benchmarks.pairs`` -- the ledger command: parent against change.

Runs the benchmark ``BENCHMARK.json`` declares on two trees: the working
tree (the change) and the committed files of ``--parent`` (default
``HEAD``), exported with ``git archive`` into a temporary directory that
is removed afterwards (an export leaves nothing registered in ``.git``
when a run dies).  Each round runs, for every workload, three
subprocesses, each from its own side's root -- the parent, the change and
the parent again (the A/A arm, which measures the noise floor) -- in an
order that rotates from round to round::

    python -m benchmarks.macro --workload W --seed S --seconds N --trace 0

Round ``r`` uses seed ``101 + r``.  Each run's last stdout line is its
JSON result.  ``BENCH_<pr>.json`` at the repository root holds every
run of all three arms, both commits, a host fingerprint and the bounds
read from ``BENCHMARK.json``; for each workload and end-to-end metric it
records the medians, the parent's IQR, the change's wins over the parent
run of the same round (ties count for neither) and a verdict:

``better``
    wins in at least 9 of 10 rounds *and* a median shift larger than the
    parent's IQR;
``worse``
    the change's median is worse than the parent's by more than the bound;
``unresolved``
    the parent's IQR exceeds the bound (relative to its median), unless
    every change run beats every parent run;
``same``
    otherwise.

The count metrics in ``PER_SEED`` also get a paired reading per seed,
stored and printed beside the verdict (which it does not change), for the
change and for the A/A arm: ``equal on k/n seeds`` when no direction of
movement holds on more seeds than equality does, else the median signed
change over the seeds that moved the commonest way and their number
(``-3.1 % on 7/10 seeds``, three significant digits).

The table printed at the end is the EXPERIMENTS.md section's.

    python -m benchmarks.pairs --pr N
    python -m benchmarks.pairs --pr 0 --parent HEAD~1 --pairs 1 --workload read_latest --seconds 1
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ARMS = ("parent", "change", "parent_aa")
FIRST_SEED = 101
WIN_SHARE = 0.9
#: Count metrics with a per-seed paired reading beside the verdict: a
#: median can hide a change that holds on a few seeds only.
PER_SEED = ("stored_bytes_per_user_byte", "fsyncs_per_commit")


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    ).stdout.strip()


def _export(root: Path, rev: str, dest: Path) -> None:
    """The committed files of ``rev`` under ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=root, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def host_fingerprint() -> dict:
    """What the numbers were measured on: platform, interpreter, CPUs, memory."""
    host = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    for path, key, field in (
        ("/proc/cpuinfo", "cpu", "model name"),
        ("/proc/meminfo", "mem", "MemTotal"),
    ):
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(field):
                        host[key] = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
    return host


def run_one(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark subprocess from ``side``'s root; its parsed result."""
    cmd = [sys.executable, "-m", "benchmarks.macro", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=side, env=env, capture_output=True, text=True)
    run = {"wall_s": round(time.monotonic() - start, 3), "returncode": proc.returncode}
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        run["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        run["result"] = None
        run["error"] = (proc.stderr or proc.stdout)[-2000:]
    return run


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def judge(parent: list[float], change: list[float], wins: int, n: int,
          better: str, bound: float) -> str:
    """The verdict for one workload x metric (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = _quartiles(parent)
    gain = sign * (cm - pm)
    if n and wins >= WIN_SHARE * n and gain > q3 - q1:
        return "better"
    loss = -gain / abs(pm) if pm else (0.0 if gain >= 0 else math.inf)
    if loss > bound:
        return "worse"
    spread = (q3 - q1) / abs(pm) if pm else 0.0
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not dominates:
        return "unresolved"
    return "same"


def per_seed(parent: dict[int, float], other: dict[int, float]) -> dict:
    """``other``'s per-seed reading against ``parent`` (both keyed by round)."""
    rounds = sorted(set(parent) & set(other))
    moved = {"higher": [], "lower": []}
    equal = 0
    for rnd in rounds:
        p, o = parent[rnd], other[rnd]
        if math.isclose(o, p, rel_tol=1e-9, abs_tol=1e-12):
            equal += 1
        else:
            moved["higher" if o > p else "lower"].append((o - p) / abs(p) if p else o - p)
    n = len(rounds)
    reading = {"equal": equal, **{k: len(v) for k, v in moved.items()}, "pairs": n}
    commonest = max(moved.values(), key=len)
    if equal >= len(commonest):
        reading["reading"] = f"equal on {equal}/{n} seeds"
    else:
        # Three significant digits: a count that moved by 0.02 % moved.
        shift = statistics.median(commonest) * 100
        reading["reading"] = f"{shift:+.3g} % on {len(commonest)}/{n} seeds"
    return reading


def _value(run: dict, metric: str) -> float | None:
    result = run.get("result")
    if not result:
        return None
    value = result.get("metrics", {}).get(metric, {}).get("value")
    return None if value is None else float(value)


def summarize(runs: list[dict], workloads: list[str], metrics: list[dict]) -> dict:
    rows = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        row: dict = {"runs": {arm: sum(r["arm"] == arm for r in mine) for arm in ARMS}}
        row["correct"] = all((r.get("result") or {}).get("correct") for r in mine)
        row["failed_share"] = {}
        for arm in ARMS:
            results = [r["result"] for r in mine if r["arm"] == arm and r.get("result")]
            attempted = sum(res.get("attempted", 0) for res in results)
            failed = sum(res.get("failed", 0) for res in results)
            row["failed_share"][arm] = failed / attempted if attempted else None
        row["metrics"] = {}
        for metric in metrics:
            name = metric["name"]
            by_arm: dict[str, dict[int, float]] = {arm: {} for arm in ARMS}
            for r in mine:
                value = _value(r, name)
                if value is not None:
                    by_arm[r["arm"]][r["round"]] = value
            parent, change, aa = (list(by_arm[arm].values()) for arm in ARMS)
            if not parent or not change:
                row["metrics"][name] = {"verdict": "missing"}
                continue
            sign = 1.0 if metric["better"] == "higher" else -1.0
            paired = [rnd for rnd in by_arm["change"] if rnd in by_arm["parent"]]
            wins = sum(
                sign * (by_arm["change"][rnd] - by_arm["parent"][rnd]) > 0 for rnd in paired
            )
            pm, cm = statistics.median(parent), statistics.median(change)
            am = statistics.median(aa) if aa else None
            q1, q3 = _quartiles(parent)
            row["metrics"][name] = {
                "parent_median": pm,
                "change_median": cm,
                "aa_median": am,
                "parent_iqr": q3 - q1,
                "shift": (cm - pm) / abs(pm) if pm else None,
                "aa_shift": (am - pm) / abs(pm) if pm and am is not None else None,
                "wins": wins,
                "pairs": len(paired),
                "bound": metric["bound"],
                "verdict": judge(parent, change, wins, len(paired),
                                 metric["better"], metric["bound"]),
            }
            if name in PER_SEED:
                row["metrics"][name]["per_seed"] = per_seed(by_arm["parent"], by_arm["change"])
                row["metrics"][name]["aa_per_seed"] = per_seed(by_arm["parent"],
                                                               by_arm["parent_aa"])
        rows[workload] = row
    return rows


def _pct(x: float | None) -> str:
    return "–" if x is None else f"{x * 100:+.1f} %"


def render(rows: dict) -> str:
    out = ["| workload | metric | parent | change | shift | A/A shift | parent IQR "
           "| wins | verdict | per seed (A/A) |", "|---|---|---|---|---|---|---|---|---|---|"]
    for workload, row in rows.items():
        for name, m in row["metrics"].items():
            if m["verdict"] == "missing":
                out.append(f"| {workload} | {name} | – | – | – | – | – | – | missing | – |")
                continue
            seeds = "–"
            if "per_seed" in m:
                seeds = f"{m['per_seed']['reading']} ({m['aa_per_seed']['reading']})"
            out.append(
                f"| {workload} | {name} | {m['parent_median']:.4g} | "
                f"{m['change_median']:.4g} | {_pct(m['shift'])} | "
                f"{_pct(m['aa_shift'])} | {m['parent_iqr']:.3g} | "
                f"{m['wins']}/{m['pairs']} | {m['verdict']} | {seeds} |"
            )
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.pairs",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10, help="rounds (default 10)")
    parser.add_argument("--workload", action="append", help="repeatable (default: all)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's)")
    args = parser.parse_args(argv)

    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    commits = {
        "parent": {"rev": args.parent, "sha": _git(root, "rev-parse", args.parent)},
        "change": {"head": _git(root, "rev-parse", "HEAD"),
                   "dirty": bool(_git(root, "status", "--porcelain"))},
    }
    runs: list[dict] = []
    parent_root = Path(tempfile.mkdtemp(prefix="pairs-parent-"))
    try:
        _export(root, commits["parent"]["sha"], parent_root)
        sides = {"parent": parent_root, "change": root, "parent_aa": parent_root}
        for rnd in range(args.pairs):
            seed = FIRST_SEED + rnd
            order = ARMS[rnd % 3:] + ARMS[:rnd % 3]
            for workload in workloads:
                for slot, arm in enumerate(order):
                    run = run_one(sides[arm], workload, seed, seconds)
                    run.update(workload=workload, round=rnd, seed=seed, arm=arm, slot=slot)
                    runs.append(run)
                    print(f"round {rnd + 1}/{args.pairs} {workload} {arm}: "
                          f"{'ok' if run['result'] else 'FAILED'} ({run['wall_s']} s)",
                          file=sys.stderr)
    finally:
        shutil.rmtree(parent_root, ignore_errors=True)

    rows = summarize(runs, workloads, spec["end_to_end"])
    ledger = {
        "pr": args.pr,
        "commits": commits,
        "host": host_fingerprint(),
        "protocol": {"pairs": args.pairs, "seconds": seconds, "arms": list(ARMS),
                     "seeds": [FIRST_SEED + r for r in range(args.pairs)],
                     "workloads": workloads},
        "bounds": {m["name"]: {"bound": m["bound"], "better": m["better"],
                               "unit": m["unit"]} for m in spec["end_to_end"]},
        "runs": runs,
        "rows": rows,
    }
    path = root / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    print(render(rows))
    print(f"wrote {path}", file=sys.stderr)
    return 0 if all(r["correct"] for r in rows.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
