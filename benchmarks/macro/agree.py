"""Run sets, the repeatability check, the smoke pass and the ledger.

``runs``   one fresh child process per workload per pass; the passes are
           dealt round-robin over the output files, so two sets measured
           "A/B/A/B" see the same neighbours.
``agree``  per (workload, metric): each set's median and quartiles, the
           spread within a set and the gap between the sets' medians, all
           against the bound BENCHMARK.json fixes.  Exits non-zero when a
           gap or a spread exceeds its bound.  Also flags workloads whose
           per-segment rates trend monotonically -- a measured phase that
           is still warming up must be re-sized, not averaged over.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any

from benchmarks.macro import OUT_DIR, ROOT, benchmark_spec
from benchmarks.macro.harness import at_reference

#: |Spearman rho| of segment rate against segment index above which a
#: run counts as trending; a workload is flagged when its median run does.
TREND_RHO = 0.5


def run_child(workload: str, seed: int, seconds: float, scale: float, trace: int) -> dict[str, Any]:
    """One workload in a fresh process; returns its full report."""
    os.makedirs(OUT_DIR, exist_ok=True)
    fd, path = tempfile.mkstemp(prefix="report-", suffix=".json", dir=OUT_DIR)
    os.close(fd)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.macro", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--scale", str(scale),
             "--trace", str(trace), "--report", path],
            cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        report["result_line"] = json.loads(proc.stdout.strip().splitlines()[-1])
        return report
    finally:
        os.unlink(path)


def environment() -> dict[str, Any]:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"commit": sha, "python": platform.python_version(), "nproc": os.cpu_count()}


# -- runs --------------------------------------------------------------------------


def cmd_runs(args: argparse.Namespace) -> int:
    workloads = [w["name"] for w in benchmark_spec()["workloads"]]
    sets: list[list[dict]] = [[] for _ in args.out]
    started = time.time()
    for i in range(args.passes * len(args.out)):
        which, seed = i % len(args.out), args.seed + i // len(args.out)
        for workload in workloads:
            t0 = time.time()
            report = run_child(workload, seed, args.seconds, args.scale, args.trace)
            sets[which].append(report)
            print(f"set {which} pass {i // len(args.out)} {workload:14s} seed {seed} "
                  f"{time.time() - t0:5.1f}s correct={report['correct']}", flush=True)
    for path, runs in zip(args.out, sets):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment(), "wall_s": time.time() - started,
                       "runs": runs}, fh)
    return 0 if all(r["correct"] for runs in sets for r in runs) else 1


# -- agree ------------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spearman(values: list[float]) -> float:
    """Rank correlation of a series against its own index."""
    n = len(values)
    if n < 3:
        return 0.0
    order = sorted(range(n), key=values.__getitem__)
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r
    d2 = sum((rank[i] - i) ** 2 for i in range(n))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def by_workload(path: str, tier: str) -> tuple[dict[str, list[dict]], dict]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    out: dict[str, list[dict]] = {}
    for run in doc["runs"]:
        if tier in run:
            out.setdefault(run["config"]["workload"], []).append(run)
    return out, doc


def compare(path_a: str, path_b: str) -> dict[str, Any]:
    spec = benchmark_spec()
    a, doc_a = by_workload(path_a, "end_to_end")
    b, doc_b = by_workload(path_b, "end_to_end")
    rows = []
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [r["end_to_end"][name] for r in a.get(workload, [])]
            vb = [r["end_to_end"][name] for r in b.get(workload, [])]
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            gap = abs(qb[1] - qa[1]) / qa[1]
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            verdict = "ok"
            if gap > bound:
                verdict = "GAP"
            elif spread > bound:
                verdict = "SPREAD"
            ok = ok and verdict == "ok"
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "bound": bound, "a": qa, "b": qb, "gap": gap, "spread": spread,
                         "verdict": verdict})
    trends = {}
    for workload in a:
        rhos = [
            spearman([ops / (wall * (1.0 - steal) * at_reference(speed))
                      for ops, wall, _cpu, _p50, steal, speed in run["segments"]])
            for run in a[workload] + b.get(workload, [])
        ]
        rho = statistics.median(rhos)
        trends[workload] = {"median_rho": rho, "trending": abs(rho) > TREND_RHO}
    return {"agree": ok, "rows": rows, "trends": trends,
            "sets": [{"path": os.path.basename(p), "runs": len(d["runs"]),
                      "wall_s": d.get("wall_s"), "environment": d.get("environment")}
                     for p, d in ((path_a, doc_a), (path_b, doc_b))]}


def print_comparison(result: dict[str, Any]) -> None:
    print(f"{'workload':14s} {'metric':27s} {'A q1/median/q3':>34s} {'B q1/median/q3':>34s} "
          f"{'gap':>7s} {'spread':>7s} {'bound':>6s}")
    for row in result["rows"]:
        fa = "/".join(f"{x:.4g}" for x in row["a"])
        fb = "/".join(f"{x:.4g}" for x in row["b"])
        mark = "" if row["verdict"] == "ok" else f"  <-- {row['verdict']}"
        print(f"{row['workload']:14s} {row['metric']:27s} {fa:>34s} {fb:>34s} "
              f"{row['gap']:7.1%} {row['spread']:7.1%} {row['bound']:6.0%}{mark}")
    for workload, trend in result["trends"].items():
        flag = "  <-- TRENDING: re-size the measured phase" if trend["trending"] else ""
        print(f"trend {workload:14s} median rho of segment rate vs index {trend['median_rho']:+.2f}{flag}")
    print("AGREE" if result["agree"] else "DISAGREE")


def cmd_agree(args: argparse.Namespace) -> int:
    result = compare(args.a, args.b)
    print_comparison(result)
    if args.ledger:
        write_ledger(args.ledger, args, result)
    return 0 if result["agree"] else 1


def write_ledger(path: str, args: argparse.Namespace, result: dict[str, Any]) -> None:
    """One row of the repo's performance trajectory (see README.md)."""
    a, doc_a = by_workload(args.a, "end_to_end")
    b, _ = by_workload(args.b, "end_to_end")
    first = doc_a["runs"][0]["config"]
    end_to_end: dict[str, dict] = {}
    for workload in a:
        runs = a[workload] + b.get(workload, [])
        end_to_end[workload] = {
            name: dict(zip(("q1", "median", "q3"),
                           quartiles([r["end_to_end"][name] for r in runs])), runs=len(runs))
            for name in runs[0]["end_to_end"]
        }
    ledger: dict[str, Any] = {
        "benchmark": "benchmarks/macro",
        "environment": doc_a.get("environment"),
        "config": {k: first[k] for k in ("seconds", "scale", "disk_model", "pinned_cpu")},
        "seeds": sorted({r["config"]["seed"] for r in doc_a["runs"]}),
        "steered_around": {w: runs[0]["config"]["steered_around"] for w, runs in a.items()},
        "end_to_end": end_to_end,
        "agree": result,
    }
    if args.traced:
        traced: dict[str, list[dict]] = {}
        for traced_path in args.traced:
            for workload, runs in by_workload(traced_path, "per_layer")[0].items():
                traced.setdefault(workload, []).extend(runs)
        ledger["per_layer"] = {
            workload: [{"seed": r["config"]["seed"], "metrics": r["per_layer"],
                        "traced": r["traced"]} for r in runs]
            for workload, runs in traced.items()
        }
        ledger["counts_repeat"] = {
            workload: repeating_counts(runs) for workload, runs in traced.items()
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1)
        fh.write("\n")


def repeating_counts(runs: list[dict]) -> dict[str, Any]:
    """Which count-type per-layer metrics differ between same-seed traced runs."""
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    exact = [n for n, u in units.items()
             if u in ("count", "ratio", "B") and not n.startswith(("client.", "core.gc.busy"))]
    by_seed: dict[int, list[dict]] = {}
    for run in runs:
        by_seed.setdefault(run["config"]["seed"], []).append(run["per_layer"])
    differing = sorted({
        name
        for same in by_seed.values() if len(same) > 1
        for name in exact
        if len({m[name] for m in same}) > 1
    })
    return {"compared_seeds": [s for s, v in by_seed.items() if len(v) > 1],
            "metrics_checked": len(exact), "differing": differing}


# -- smoke ----------------------------------------------------------------------------------


def smoke(scale: float = 0.05, traced_workload: str = "commit_cross") -> int:
    """All five workloads plus one traced run, tiny; 0 when everything checks out."""
    spec = benchmark_spec()
    failures = []
    started = time.time()
    todo = [(w["name"], 0) for w in spec["workloads"]] + [(traced_workload, 1)]
    for workload, trace in todo:
        report = run_child(workload, 1, spec["run_seconds"], scale, trace)
        tier = "per_layer" if trace else "end_to_end"
        declared = {m["name"] for m in spec[tier]}
        emitted = set(report["result_line"]["metrics"])
        status = "ok"
        if not report["correct"]:
            status = f"INCORRECT: {report['problems'][:3]}"
        elif declared != emitted:
            status = f"METRICS DIFFER: {sorted(declared ^ emitted)}"
        if status != "ok":
            failures.append(workload)
        print(f"smoke {workload:14s} trace={trace} attempted={report['attempted']:6d} "
              f"failed={report['failed']} {status}", flush=True)
    print(f"smoke: {len(todo)} runs in {time.time() - started:.1f}s, "
          f"{'all ok' if not failures else 'FAILED: ' + ', '.join(failures)}")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.macro")
    sub = parser.add_subparsers(dest="cmd", required=True)
    runs = sub.add_parser("runs", help="measure sets of full passes (round-robin over OUT files)")
    runs.add_argument("out", nargs="+", help="one JSON file per set")
    runs.add_argument("--passes", type=int, default=5, help="passes per set")
    runs.add_argument("--seed", type=int, default=1, help="seed of the first pass")
    runs.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    runs.add_argument("--scale", type=float, default=1.0)
    runs.add_argument("--trace", type=int, choices=(0, 1), default=0)
    runs.set_defaults(fn=cmd_runs)
    agree = sub.add_parser("agree", help="do two sets of runs agree within the bounds?")
    agree.add_argument("a")
    agree.add_argument("b")
    agree.add_argument("--ledger", help="also write a ledger row here")
    agree.add_argument("--traced", nargs="+",
                       help="runs files made with --trace 1 (same seed twice), for the ledger")
    agree.set_defaults(fn=cmd_agree)
    args = parser.parse_args(argv)
    return args.fn(args)
