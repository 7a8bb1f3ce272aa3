"""The macro benchmark: five wire workloads against the sharded versioned store.

See README.md in this directory; run with ``python -m benchmarks.macro``.
"""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Data files, child reports and traces land here (ignored by git).
OUT_DIR = os.path.join(HERE, "out")


def benchmark_spec() -> dict:
    """BENCHMARK.json: the workloads, metrics, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)
