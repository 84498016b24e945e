"""igk benchmark: seeded CLI workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is transport-stat, paper-examples, dsl-geometry, or ``all`` (each in
turn). The seed fixes every generated input; the inputs are
written with ``igk.serialize`` into ``benchmark/work/NAME`` and the program
receives only those files.

``--trace 0`` runs the workload's ``python -m igk.cli`` invocations as fresh
subprocesses, one after another: one untimed warm-up pass whose outputs are
checked in full, then timed passes until S seconds have gone by. It reports

- ``wall_s``: median wall time of one pass (all the workload's invocations);
- ``peak_rss_mb``: median over passes of the largest child max-RSS in the
  pass, read per child with ``os.wait4``;
- ``setup_s``: median over fresh processes (at least 3, and 3 s in all) of
  interpreter start, ``import igk`` and loading the inputs with the public
  loaders (``setup_probe.py``), run after the warm-up pass;

and counts every invocation that exits nonzero or fails its output check
(``failed`` of ``attempted``; their ratio is printed as ``fail_ratio``).

``--trace 1`` calls ``igk.cli.main`` in this process instead: one untraced
warm-up pass, then pairs of an untraced and a traced pass until S seconds
have gone by. The traced pass wraps igk's layers from outside (tracer.py)
and yields the per-layer metrics; ``trace.overhead_s`` is the traced minus
the untraced pass time. Spans of the last traced pass go to
``benchmark/work/NAME/spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "work")
SETUP_MIN_RUNS = 3
SETUP_MIN_SECONDS = 3.0
END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def _child_env():
    env = dict(os.environ)
    env.pop("IGK_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


class Launcher:
    """A small process that spawns the children and reports their usage."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "launcher.py")], env=_child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmds):
        """Run (argv, cwd, out path) triples in turn; return (batch s, results)."""
        line = json.dumps([{"argv": a, "cwd": c, "out": o} for a, c, o in cmds])
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit("the launcher process ended early")
        reply = json.loads(reply)
        return reply["batch_s"], reply["results"]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def _blas_threads():
    """OpenBLAS thread count of the NumPy in use, or None if not found."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment():
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
    }


class Outputs:
    """Checks each invocation's output; later identical bytes pass as checked."""

    def __init__(self, work):
        self.work = work
        self.digests = {}
        self.attempted = 0
        self.failed = 0

    def record(self, inv, rc, path):
        self.attempted += 1
        problem = None
        if rc != 0:
            problem = "exit code {}".format(rc)
        else:
            with open(path, "rb") as fh:
                data = fh.read()
            digest = hashlib.sha256(data).hexdigest()
            if self.digests.get(inv.label) != digest:
                try:
                    checks.check(inv, self.work, data.decode("utf-8"))
                    self.digests.setdefault(inv.label, digest)
                except checks.CheckError as err:
                    problem = str(err)
        if problem is not None:
            self.failed += 1
            print("# FAILED {}: {}".format(inv.label, problem))


def _out_path(work_dir, inv):
    return os.path.join(work_dir, inv.label + ".out")


def _subprocess_pass(launcher, work, work_dir, outputs):
    """Run every invocation once; return (pass wall s, peak child RSS MB)."""
    cmds = [([sys.executable, "-m", "igk.cli"] + inv.argv, work_dir, _out_path(work_dir, inv))
            for inv in work.invocations]
    wall, results = launcher.run(cmds)
    for inv, res in zip(work.invocations, results):
        outputs.record(inv, res["rc"], _out_path(work_dir, inv))
    return wall, max(res["maxrss_mb"] for res in results)


def _setup_times(launcher, work, work_dir):
    """Set-up probe wall times: at least SETUP_MIN_RUNS, SETUP_MIN_SECONDS in all."""
    probe = [sys.executable, os.path.join(BENCH, "setup_probe.py")] + work.loaders
    out = os.path.join(work_dir, "setup.out")
    times = []
    while len(times) < SETUP_MIN_RUNS or sum(times) < SETUP_MIN_SECONDS:
        _, (res,) = launcher.run([(probe, work_dir, out)])
        if res["rc"] != 0:
            with open(out + ".err", encoding="utf-8") as fh:
                sys.stderr.write(fh.read())
            raise SystemExit("set-up probe failed with exit code {}".format(res["rc"]))
        times.append(res["wall_s"])
    return times


def _spread(values):
    if len(values) < 2:
        return "n={}".format(len(values))
    q1, _, q3 = statistics.quantiles(values, n=4)
    return "q1 {:.4g}, q3 {:.4g}, n={}".format(q1, q3, len(values))


def _end_to_end(work, work_dir, seconds):
    outputs = Outputs(work)
    launcher = Launcher()
    try:
        _subprocess_pass(launcher, work, work_dir, outputs)  # warm-up: page cache, full checks
        setups = _setup_times(launcher, work, work_dir)
        walls, peaks = [], []
        start = perf_counter()
        while not walls or perf_counter() - start < seconds:
            wall, peak = _subprocess_pass(launcher, work, work_dir, outputs)
            walls.append(wall)
            peaks.append(peak)
    finally:
        launcher.close()
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(peaks),
        "setup_s": statistics.median(setups),
    }
    print("wall_s        {:.4f} s   ({} passes)".format(metrics["wall_s"], _spread(walls)))
    print("# pass wall times (s): " + " ".join("{:.3f}".format(w) for w in walls))
    print("peak_rss_mb   {:.1f} MB  ({})".format(metrics["peak_rss_mb"], _spread(peaks)))
    print("setup_s       {:.4f} s   ({} fresh processes)".format(metrics["setup_s"], _spread(setups)))
    units = dict(END_TO_END)
    return outputs, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def _inprocess_pass(work, work_dir, outputs):
    """Call igk.cli.main for every invocation; return the pass wall time."""
    import igk.cli

    results = []
    t0 = perf_counter()
    for inv in work.invocations:
        with open(_out_path(work_dir, inv), "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            try:
                rc = igk.cli.main(list(inv.argv))
            except (Exception, SystemExit):
                traceback.print_exc()
                rc = -1
        results.append((inv, rc))
    wall = perf_counter() - t0
    for inv, rc in results:
        outputs.record(inv, rc, _out_path(work_dir, inv))
    return wall


def _traced(work, work_dir, seconds):
    os.environ.pop("IGK_THREADS", None)
    os.chdir(work_dir)
    outputs = Outputs(work)
    _inprocess_pass(work, work_dir, outputs)  # warm-up, full checks
    runs, overheads = [], []
    start = perf_counter()
    while not runs or perf_counter() - start < seconds:
        plain = _inprocess_pass(work, work_dir, outputs)
        tr = tracer.Tracer().install()
        try:
            traced = _inprocess_pass(work, work_dir, outputs)
        finally:
            tr.uninstall()
        runs.append(tr.metrics())
        overheads.append(traced - plain)
    tr.dump(os.path.join(work_dir, "spans.jsonl"))
    metrics = {}
    for name, unit in tracer.METRICS:
        if name == "trace.overhead_s":
            value = statistics.median(overheads)
        elif unit == "s":
            value = statistics.median(r[name] for r in runs)
        else:  # a count: report one that was measured, not a mean of two
            value = statistics.median_low(r[name] for r in runs)
        metrics[name] = {"value": value, "unit": unit}
        print("{:34s} {:.6g} {}".format(name, value, unit))
    for name in tracer.EXACT_COUNTERS:
        if len({r[name] for r in runs}) != 1:
            print("# counter {} differs between traced passes".format(name))
    return outputs, metrics


def run_workload(name, seed, seconds, trace):
    work_dir = os.path.join(WORK, name)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    work = workloads.generate(name, seed, work_dir)
    print("# workload {} seed {} trace {}".format(name, seed, trace))
    for fname, info in sorted(work.files.items()):
        print("# input {} {} bytes sha256 {}".format(fname, info["bytes"], info["sha256"]))
    cwd = os.getcwd()
    try:
        if trace:
            outputs, metrics = _traced(work, work_dir, seconds)
        else:
            outputs, metrics = _end_to_end(work, work_dir, seconds)
    finally:
        os.chdir(cwd)
    print("fail_ratio    {:.4g}     ({} failed of {} invocations)".format(
        outputs.failed / outputs.attempted, outputs.failed, outputs.attempted))
    return {
        "correct": outputs.failed == 0,
        "attempted": outputs.attempted,
        "failed": outputs.failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if any(n not in workloads.NAMES for n in names):
        parser.error("unknown workload {!r}; choose from {} or all".format(
            args.workload, ", ".join(workloads.NAMES)))
    print("# environment " + json.dumps(_environment()))
    results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        for n, r in results.items():
            print("# {} {}".format(n, json.dumps(r)))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {n + "." + k: v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "igk", "__init__.py")):
        sys.exit("error: no igk sources under {}".format(SRC))
    sys.path.insert(0, SRC)
    import checks
    import tracer
    import workloads

    main()
