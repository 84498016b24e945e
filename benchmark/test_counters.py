"""The benchmark's own test: traced counters repeat exactly at one seed.

Run from the repository root (a few minutes; each workload is traced twice
in fresh processes):

    python3 -m pytest benchmark/test_counters.py

``baseline_counts.json`` records the counters of the first measured commit;
it is a record for later comparisons, not an expectation of this test.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from tracer import EXACT_COUNTERS  # noqa: E402
from workloads import NAMES  # noqa: E402

SEED = 7


def _traced(name):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
         "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: result["metrics"][k]["value"] for k in EXACT_COUNTERS}


@pytest.mark.parametrize("name", NAMES)
def test_exact_counters_repeat(name):
    first = _traced(name)
    assert first == _traced(name)
    assert first["models.density_calls"] > 0
