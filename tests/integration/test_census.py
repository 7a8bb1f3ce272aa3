"""``benchmarks.census`` over a tiny command: what it reports reached and
unreached, through an ``os.execv``, whatever the command's exit code."""

from __future__ import annotations

import json
import shlex

from benchmarks import census

FIRST = (
    "import os, sys; from repro.verify.model import ModelStore; "
    "ModelStore().pnew('x', 1); "
    "os.execv(sys.executable, [sys.executable, '-c', SECOND])"
)
SECOND = (
    "from repro.verify.model import ModelStore; "
    "ModelStore().clone(); raise SystemExit(3)"
)


def test_census_follows_exec_and_does_not_judge_the_command(tmp_path):
    out = tmp_path / "census.json"
    command = ["python", "-c", f"SECOND = {SECOND!r}; {FIRST}"]
    assert census.main(["--out", str(out), "--", *command]) == 0
    report = json.loads(out.read_text())
    assert report["commands"][0]["command"] == shlex.join(command)
    assert report["commands"][0]["exit"] == 3
    unreached = {fn["function"]: fn for fn in report["functions_unreached"]}
    # Entered before the exec, and after it in the new process image.
    assert "repro.verify.model:ModelStore.pnew" not in unreached
    assert "repro.verify.model:ModelStore.clone" not in unreached
    assert unreached["repro.verify.model:ModelStore.doomed"]["named"] == "src"
    assert report["reached"] + report["unreached"] == report["functions"]
    assert report["unreached_lines"] >= sum(
        fn["lines"] for fn in unreached.values() if "<locals>" not in fn["function"]
    ) > 0


def test_definitions_match_decorated_and_nested_functions(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(
        "import functools\n"
        "class A:\n"
        "    @functools.cache\n"
        "    def cached(self):\n"
        "        def inner():\n"
        "            pass\n"
    )
    defs = {d["qualname"]: d for d in census.definitions(tmp_path)}
    assert defs["A.cached"]["firsts"] == [3, 4] and defs["A.cached"]["span"] == (3, 6)
    assert defs["A.cached.<locals>.inner"]["module"] == "pkg.mod"
