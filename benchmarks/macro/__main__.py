"""``python -m benchmarks.macro`` -- the one command.

Driver form (one workload, one process, last stdout line is the result)::

    python -m benchmarks.macro --workload W --seed N --seconds S --trace 0|1

Other forms::

    python -m benchmarks.macro --smoke                  # all five + one traced, tiny
    python -m benchmarks.macro runs OUT.json [...]      # a set of full passes
    python -m benchmarks.macro agree A.json B.json      # do two sets agree?
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from benchmarks.macro import ROOT, benchmark_spec


def _bootstrap() -> None:
    """Make ``repro`` importable from a plain checkout (no install step)."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"benchmarks.macro: cannot import the store under test ({exc}); "
              f"expected it at {src}", file=sys.stderr)
        raise SystemExit(2)


def _pin_hash_seed() -> None:
    """Re-exec once with PYTHONHASHSEED=0 so set order never varies a run."""
    if os.environ.get("PYTHONHASHSEED") == "0":
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    os.execve(sys.executable, [sys.executable, "-m", "benchmarks.macro", *sys.argv[1:]], env)


def _print_metrics(report: dict) -> dict:
    tier = "per_layer" if "per_layer" in report else "end_to_end"
    units = {m["name"]: m["unit"] for m in benchmark_spec()[tier]}
    metrics = {}
    for name, value in report[tier].items():
        unit = units[name]
        metrics[name] = {"value": value, "unit": unit}
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{report['config']['workload']:14s} {name:46s} {shown:>14s} {unit}")
    return metrics


def run_workload(args: argparse.Namespace) -> int:
    _pin_hash_seed()
    _bootstrap()
    from benchmarks.macro import harness

    report = harness.run(
        harness.Config(
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            scale=args.scale,
            trace=bool(args.trace),
            data_root=args.data_root,
        )
    )
    cfg = report["config"]
    print(f"# {cfg['workload']} seed={cfg['seed']} seconds={cfg['seconds']:g} "
          f"scale={cfg['scale']:g} trace={int(cfg['trace'])} disk_model={cfg['disk_model']} "
          f"objects={cfg['objects']} seg_ops={cfg['seg_ops']} segments={len(report['segments'])} "
          f"steered_around={','.join(cfg['steered_around']) or 'nothing'}")
    for key, value in report["client"].items():
        print(f"# {key} = {value:.6g}")
    for problem in report["problems"]:
        print(f"# PROBLEM: {problem}")
    metrics = _print_metrics(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in ("runs", "agree"):
        _bootstrap()
        from benchmarks.macro import agree

        return agree.main(argv)
    parser = argparse.ArgumentParser(prog="python -m benchmarks.macro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"],
                        help="nominal measured seconds; scales the fixed op counts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every object and op count")
    parser.add_argument("--data-root", default=None,
                        help="directory for the data files (default: benchmarks/macro/out)")
    parser.add_argument("--report", default=None, help="also write the full report as JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="all five workloads plus one traced run at --scale 0.05")
    args = parser.parse_args(argv)
    if args.smoke:
        _bootstrap()
        from benchmarks.macro import agree

        return agree.smoke()
    if not args.workload:
        parser.error("--workload is required (or use --smoke / runs / agree)")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
