"""The benchmark's workloads: seeded inputs, CLI invocations and loaders.

Every input the program reads is generated here from the benchmark seed and
written with ``igk.serialize`` into the work directory; the program itself
only receives file names and grid strings. ``generate`` returns a
``Workload`` holding the invocations (argv lists run from the work
directory), the loader calls that ``setup_probe.py`` times, and the exact
pushforward the output checks recompute against.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from igk import families, serialize
from igk.markov import Statistic
from igk.measures import SampleSpace

NAMES = ("transport-stat", "paper-examples", "dsl-geometry")

HALF_WIDTH = 5.0
STAT_CELLS = 20000
STAT_BINS = 5000  # 4:1 binning of the source cells
DSL_CELLS = 20000
STAT_MODEL = "gaussian-grid({:g},{})".format(HALF_WIDTH, STAT_CELLS)
LOSS_K = 2
GEOMETRY_K = 4
RANDOM_DIRECTIONS = 2

# the same normal density, once smooth (symbolic gradients) and once with
# its exponent behind abs(...), which forces finite differences
DSL_DENSITIES = {
    "smooth": "exp(-0.5*((x1-t1)/t2)^2)/(t2*2.5066282746310002)",
    "fd": "exp(-0.5*abs((x1-t1)/t2)^2)/(t2*2.5066282746310002)",
}


@dataclass
class Invocation:
    label: str
    argv: list  # arguments after ``python -m igk.cli``
    check: str  # name of the check in checks.py
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    invocations: list
    loaders: list  # setup_probe.py arguments
    files: dict  # file name -> {"bytes": n, "sha256": hex}
    reference: dict  # what the checks recompute from, e.g. the exact push


def _grid(rng, n):
    """n (m, sigma) points, m in [-1, 1] and sigma in [0.5, 2], as CLI text."""
    m = rng.uniform(-1.0, 1.0, n)
    s = rng.uniform(0.5, 2.0, n)
    pts = [(float("{:.6f}".format(a)), float("{:.6f}".format(b))) for a, b in zip(m, s)]
    text = ";".join("{:.6f},{:.6f}".format(a, b) for a, b in pts)
    return text, np.array(pts)


def _write(work, name, obj, files):
    text = serialize.dumps(obj) + "\n"
    data = text.encode("utf-8")
    with open(os.path.join(work, name), "wb") as fh:
        fh.write(data)
        # write back now, not during the timed passes
        fh.flush()
        os.fsync(fh.fileno())
    files[name] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _labels(prefix, n):
    return tuple("{}{}".format(prefix, i) for i in range(n))


def _transport_stat(rng, work, files):
    space = families.build(STAT_MODEL).space
    n = space.n_atoms
    mapping = rng.permutation(np.repeat(np.arange(STAT_BINS), n // STAT_BINS))
    stat = Statistic(space, SampleSpace(_labels("b", STAT_BINS)), mapping)
    _write(work, "statistic.json", serialize.statistic_to_obj(stat), files)
    grid, points = _grid(rng, 4)
    argv = ["infoloss", "--model", "builtin:" + STAT_MODEL,
            "--statistic", "statistic.json", "--xi-grid", grid,
            "--k", str(LOSS_K), "--random", str(RANDOM_DIRECTIONS)]
    inv = Invocation("infoloss-statistic", argv, "transport",
                     {"points": points, "cells": STAT_CELLS})
    loaders = ["builtin:" + STAT_MODEL, "transport:statistic.json"]

    def push(mass):
        return np.bincount(mapping, weights=mass, minlength=STAT_BINS)

    return [inv], loaders, {"push": push}


def _paper_examples(rng, work, files):
    invs = [
        Invocation("paper-bernoulli", ["paper-example", "bernoulli"], "bernoulli"),
        Invocation("paper-ex4.1", ["paper-example", "ex4.1"], "ex41"),
        Invocation("paper-ex-suff", ["paper-example", "ex-suff"], "ex_suff"),
    ]
    loaders = ["builtin:bernoulli", "builtin:ex4.1(20000)", "builtin:ex-suff(200,100)"]
    return invs, loaders, {}


def _dsl_geometry(rng, work, files):
    grid, points = _grid(rng, 48)
    invs, loaders = [], []
    for kind, density in DSL_DENSITIES.items():
        name = "model-{}.json".format(kind)
        obj = {
            "domain": {"bounds": [["-inf", "inf"], [0, "inf"]]},
            "space": {"grid": {"interval": [-HALF_WIDTH, HALF_WIDTH], "points": DSL_CELLS}},
            "density": density,
            "statistical": False,
        }
        _write(work, name, obj, files)
        argv = ["check-integrability", "--model", name, "--xi-grid", grid,
                "--k", str(GEOMETRY_K), "--random", str(RANDOM_DIRECTIONS)]
        invs.append(Invocation("integrability-" + kind, argv, "geometry",
                               {"points": points, "kind": kind, "cells": DSL_CELLS}))
        loaders.append("model:" + name)
    return invs, loaders, {}


_BUILDERS = {
    "transport-stat": _transport_stat,
    "paper-examples": _paper_examples,
    "dsl-geometry": _dsl_geometry,
}


def generate(name, seed, work):
    """Write the inputs of workload ``name`` for ``seed`` into ``work``."""
    # one stream per workload name, so adding or removing a workload never
    # changes the inputs of the others
    rng = np.random.default_rng([seed, zlib.crc32(name.encode("ascii"))])
    files = {}
    invocations, loaders, reference = _BUILDERS[name](rng, work, files)
    for inv in invocations:
        if "--random" in inv.argv:
            # seed of the CLI's random directions, also from the benchmark seed
            inv.argv += ["--seed", str(seed)]
    return Workload(name, seed, invocations, loaders, files, reference)
