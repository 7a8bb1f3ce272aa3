"""``python -m benchmarks.census`` -- which ``src/`` functions does the system reach?

Runs commands -- by default what the system *does*: the three full crash
matrices, the explore, stress and chaos smokes, every ``examples/*.py``
and ``benchmarks.macro --smoke`` -- each with a ``sitecustomize`` on
``PYTHONPATH``.  That file installs ``sys.settrace`` and
``threading.settrace`` for ``call`` events only (no line tracing) and
dumps the code objects each process entered as one JSON file, at
``atexit`` and before ``os.execve`` / ``os.execv`` (``benchmarks.macro``
re-execs itself with ``PYTHONHASHSEED=0``).  Subprocesses inherit the
environment, so they are counted too.

The census then matches code objects to the ``def`` statements of every
``src/`` module by file and first line, and lists the functions no
command entered.  Each is classed by where its name occurs besides its
own ``def``: elsewhere in ``src/`` (maybe reached only through another
unreached function, or by a protocol: dunders count here), in
``benchmarks/`` or ``examples/``, only in ``tests/``, or nowhere.

A command's own verdict does not fail the census -- under the tracer's
overhead some timing gates fail as expected (E14's scale-out, E16's
fan-out speedup); each exit code is in the report.  Nothing is deleted on
the census's say-so: an entry is a question (delete it, or name the
workload that should reach it).

    python -m benchmarks.census --out census.json
    python -m benchmarks.census --out census.json -- python examples/quickstart.py
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: What the system does: the census's default commands.
DEFAULT_COMMANDS = [
    "python -m repro.tools.crashmatrix --scenario plain --scenario twopc --scenario gc",
    "python -m repro.tools.explore --smoke",
    "python -m repro.tools.stress --smoke",
    "python -m repro.tools.stress --smoke --scenario snapshot_readers --scenario gc_churn",
    "python -m repro.tools.stress --smoke --scenario server",
    "python -m repro.tools.chaos --smoke",
    *(f"python examples/{p.name}" for p in sorted((ROOT / "examples").glob("*.py"))),
    "python -m benchmarks.macro --smoke",
]

#: Seconds one traced command may run; a hung one is recorded as "timeout".
COMMAND_TIMEOUT = 1800

#: Installed as ``sitecustomize`` in every traced process.
SITECUSTOMIZE = '''\
import atexit, json, os, sys, tempfile, threading

_entered = set()


def _trace(frame, event, arg):
    if event == "call":
        _entered.add(frame.f_code)


def _dump():
    root = os.environ["REPRO_CENSUS_ROOT"]
    rows = sorted({
        (path, code.co_firstlineno)
        for code in list(_entered)
        if (path := os.path.abspath(code.co_filename)).startswith(root)
    })
    # One file per dump: an exec keeps the pid, so a name from it would not do.
    fd, _ = tempfile.mkstemp(suffix=".json", dir=os.environ["REPRO_CENSUS_DIR"])
    with open(fd, "w") as fh:
        json.dump(rows, fh)


def _dumping(exec_fn):
    def wrapper(*args, **kwargs):
        _dump()
        return exec_fn(*args, **kwargs)
    return wrapper


os.execve, os.execv = _dumping(os.execve), _dumping(os.execv)
atexit.register(_dump)
threading.settrace(_trace)
sys.settrace(_trace)
'''


def definitions(src: Path = SRC) -> list[dict]:
    """Every ``def`` under ``src``: module, qualname, file, first lines, size."""
    out = []
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        stack: list[tuple[ast.AST, str]] = [(ast.parse(path.read_text()), "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    firsts = {child.lineno, *(d.lineno for d in child.decorator_list)}
                    out.append({
                        "module": module,
                        "qualname": prefix + child.name,
                        "name": child.name,
                        "file": str(path),
                        "firsts": sorted(firsts),
                        "span": (min(firsts), child.end_lineno),
                    })
                    stack.append((child, f"{prefix}{child.name}.<locals>."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}{child.name}."))
                else:
                    stack.append((child, prefix))
    return out


def _names(*dirs: Path) -> Counter:
    """Identifier occurrences across every ``.py`` file under ``dirs``."""
    words: Counter = Counter()
    for directory in dirs:
        for path in directory.rglob("*.py"):
            words.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", path.read_text()))
    return words


def _lines(fns) -> int:
    """Source lines the functions span, nested definitions counted once."""
    return len({
        (fn["file"], line) for fn in fns for line in range(fn["span"][0], fn["span"][1] + 1)
    })


def run_commands(commands: list[str], trace_dir: Path) -> list[dict]:
    """Run each command under the tracer; returns exit codes and times."""
    site = Path(tempfile.mkdtemp(prefix="census-site-"))
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
    path = os.pathsep.join([str(site), str(SRC), str(ROOT)])
    env = dict(
        os.environ,
        PYTHONPATH=path,
        REPRO_CENSUS_DIR=str(trace_dir),
        REPRO_CENSUS_ROOT=str(SRC) + os.sep,
    )
    runs = []
    for command in commands:
        argv = shlex.split(command)
        if argv[0] == "python":
            argv[0] = sys.executable
        start = time.monotonic()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=COMMAND_TIMEOUT,
            )
            code, tail = proc.returncode, proc.stderr.strip().splitlines()[-40:]
        except subprocess.TimeoutExpired:
            code, tail = "timeout", []
        seconds = round(time.monotonic() - start, 1)
        run = {"command": command, "exit": code, "seconds": seconds}
        runs.append(run)
        print(f"  exit {code:>3}  {seconds:>7.1f}s  {command}", flush=True)
        if tail and code:
            run["stderr_tail"] = tail  # a chained traceback needs more than its last line
            print("    " + "\n    ".join(tail[-3:]), flush=True)
    (site / "sitecustomize.py").unlink()
    site.rmdir()
    return runs


def census(trace_dir: Path, src: Path = SRC) -> dict:
    """Match the dumped code objects against ``src``'s definitions."""
    entered: set[tuple[str, int]] = set()
    for dump in trace_dir.glob("*.json"):
        entered.update((path, line) for path, line in json.loads(dump.read_text()))
    src_words = _names(src)
    test_words = _names(ROOT / "tests")
    other_words = _names(ROOT / "benchmarks", ROOT / "examples")
    defs = definitions(src)
    unreached = []
    for fn in defs:
        if any((fn["file"], line) in entered for line in fn["firsts"]):
            continue
        name = fn["name"]
        if src_words[name] > 1 or (name.startswith("__") and name.endswith("__")):
            fn["named"] = "src"
        elif other_words[name]:
            fn["named"] = "benchmarks/examples"
        elif test_words[name]:
            fn["named"] = "tests only"
        else:
            fn["named"] = "nowhere"
        unreached.append(fn)
    named = sorted({fn["named"] for fn in unreached})
    return {
        "functions": len(defs),
        "reached": len(defs) - len(unreached),
        "unreached": len(unreached),
        "unreached_lines": _lines(unreached),
        "by_naming": {n: sum(fn["named"] == n for fn in unreached) for n in named},
        "lines_by_naming": {
            n: _lines(fn for fn in unreached if fn["named"] == n) for n in named
        },
        "functions_unreached": [
            {
                "function": f"{fn['module']}:{fn['qualname']}",
                "line": fn["span"][0],
                "lines": fn["span"][1] - fn["span"][0] + 1,
                "named": fn["named"],
            }
            for fn in unreached
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="census", description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="census.json", help="report path (JSON)")
    parser.add_argument("commands", nargs="*", help="one command (default: the workloads)")
    args = parser.parse_args(argv)
    commands = [shlex.join(args.commands)] if args.commands else DEFAULT_COMMANDS
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        runs = run_commands(commands, Path(tmp))
        report = census(Path(tmp))
    report["commands"] = runs
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(
        f"census: {report['reached']} of {report['functions']} src/ functions reached; "
        f"{report['unreached']} ({report['unreached_lines']} lines) unreached"
    )
    for named, count in sorted(report["by_naming"].items()):
        print(f"  {count:>4} named {named} ({report['lines_by_naming'][named]} lines)")
    for fn in report["functions_unreached"]:
        if fn["named"] != "src":
            print(f"  {fn['named']:>24}  {fn['lines']:>4}  {fn['function']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
