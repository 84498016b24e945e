"""Run batches of commands and report exit code, wall time and max-RSS.

Reads one JSON list of commands per line on standard input, each
``{"argv": [...], "cwd": dir, "out": path}``, runs them one after another
with standard output to ``out`` and standard error to ``out + ".err"``, and
writes one JSON line back: ``{"batch_s": wall, "results": [{"rc", "wall_s",
"maxrss_mb"}, ...]}``. Exits when standard input closes.

The benchmark spawns its children through this small process because on
Linux a child's max-RSS starts from the peak RSS of the process that spawned
it, and the benchmark's own process grows large while it writes the inputs.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def run(cmd):
    with open(cmd["out"], "wb") as out, open(cmd["out"] + ".err", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd["argv"], cwd=cmd["cwd"], stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return {"rc": proc.returncode, "wall_s": wall, "maxrss_mb": usage.ru_maxrss / 1024.0}


def main():
    for line in sys.stdin:
        t0 = perf_counter()
        results = [run(cmd) for cmd in json.loads(line)]
        batch = perf_counter() - t0
        sys.stdout.write(json.dumps({"batch_s": batch, "results": results}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
