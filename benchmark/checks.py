"""Correctness checks on the reports the CLI writes.

Each report must validate against its shipped JSON Schema. The numbers are
then recomputed independently: the Gaussian log-derivative norms from the
closed-form density on the midpoint grid, pushed through the statistic with
``np.bincount``, and the paper examples against their known verdicts and
closed forms.
"""

from __future__ import annotations

import json
import math
import os

import jsonschema
import numpy as np

import igk

from workloads import GEOMETRY_K, HALF_WIDTH, LOSS_K, RANDOM_DIRECTIONS

# relative tolerances: same formula summed in another order, and central
# finite differences with step 1e-6 * max(1, |xi|)
EXACT_RTOL = 1e-9
FD_RTOL = 1e-6


class CheckError(Exception):
    pass


def _require(cond, msg, *args):
    if not cond:
        raise CheckError(msg.format(*args))


_validators = {}


def _validate(obj, schema_name):
    if schema_name not in _validators:
        path = os.path.join(os.path.dirname(igk.__file__), "schemas",
                            schema_name + ".schema.json")
        with open(path, encoding="utf-8") as fh:
            _validators[schema_name] = jsonschema.Draft202012Validator(json.load(fh))
    errors = sorted(_validators[schema_name].iter_errors(obj), key=str)
    _require(not errors, "{} does not validate: {}", schema_name,
             errors[0].message if errors else "")


def _close(a, b, rtol, what):
    _require(abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300),
             "{}: {!r} vs {!r} (rtol {})", what, a, b, rtol)


def _gaussian(cells, xi, v):
    """Masses and mass derivatives along v of the gridded normal density."""
    width = 2.0 * HALF_WIDTH / cells
    x = -HALF_WIDTH + (np.arange(cells) + 0.5) * width
    m, s = xi
    z = (x - m) / s
    p = np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))
    dp = v[0] * p * z / s + v[1] * p * (z * z - 1.0) / s
    return p * width, dp * width


def _norm_k(mass, dmass, k):
    ld = np.zeros_like(mass)
    np.divide(dmass, mass, out=ld, where=mass > 0.0)
    return float(np.sum(np.abs(ld) ** k * mass))


def _check_directions(dirs):
    _require(len(dirs) == 2 + RANDOM_DIRECTIONS, "expected {} directions, got {}",
             2 + RANDOM_DIRECTIONS, len(dirs))
    _require(list(dirs[0]) == [1.0, 0.0] and list(dirs[1]) == [0.0, 1.0],
             "first directions are not the coordinate basis")
    for v in dirs[2:]:
        _close(float(np.linalg.norm(v)), 1.0, 1e-12, "random direction norm")


def transport(inv, work, obj):
    _validate(obj, "report-infoloss")
    points, cells = inv.expect["points"], inv.expect["cells"]
    entries = obj["entries"]
    n_dirs = 2 + RANDOM_DIRECTIONS
    _require(len(entries) == len(points) * n_dirs, "{} entries for {} points",
             len(entries), len(points))
    _require(obj["k"] == LOSS_K, "k is {}", obj["k"])
    push = work.reference["push"]
    for i, e in enumerate(entries):
        _require(e["xi"] == list(points[i // n_dirs]), "entry {} has xi {}", i, e["xi"])
        mass, dmass = _gaussian(cells, e["xi"], np.array(e["direction"]))
        src = _norm_k(mass, dmass, LOSS_K)
        ind = _norm_k(push(mass), push(dmass), LOSS_K)
        _close(e["source_norm_k"], src, EXACT_RTOL, "source norm of entry {}".format(i))
        _close(e["induced_norm_k"], ind, EXACT_RTOL, "induced norm of entry {}".format(i))
        _require(e["loss"] >= 0.0, "entry {} has negative loss {}", i, e["loss"])
        _close(e["loss"], e["source_norm_k"] - e["induced_norm_k"], EXACT_RTOL,
               "loss of entry {}".format(i))
    _check_directions([e["direction"] for e in entries[:n_dirs]])
    losses = [e["loss"] for e in entries]
    _require(obj["max_loss"] == max(losses) and obj["argmax"] == int(np.argmax(losses)),
             "max_loss/argmax do not match the entries")


def bernoulli(inv, work, obj):
    _validate(obj, "report-paper-example")
    rows = obj["rows"]
    _require([r["xi"] for r in rows] == [0.1, 0.25, 0.5], "unexpected xi {}", rows)
    for r in rows:
        closed = 1.0 / (r["xi"] * (1.0 - r["xi"]))
        _close(r["fisher"], closed, EXACT_RTOL, "Fisher at xi={}".format(r["xi"]))
    _require(obj["max_abs_err"] <= EXACT_RTOL * min(r["fisher"] for r in rows),
             "max_abs_err {} is not tiny", obj["max_abs_err"])


def ex41(inv, work, obj):
    _validate(obj, "report-paper-example")
    _require(obj["monotone_decreasing"] is True, "L1 quotients do not decrease")
    rows = obj["rows"]
    _require(rows[0]["xi"] == 1, "first xi is {}", rows[0]["xi"])
    # the quotient at xi = 1 is pi/2 (README, worked examples)
    _close(rows[0]["l1_quotient"], math.pi / 2.0, FD_RTOL, "L1 quotient at xi=1")


def ex_suff(inv, work, obj):
    _validate(obj, "report-paper-example")
    _require(obj["verdict"] == "sufficient", "verdict is {!r}", obj["verdict"])
    fac = obj["factorization"]
    _require(fac["status"] == "not-factorizable", "factorization status {!r}", fac["status"])
    conflict = fac["conflict"]
    _require(conflict is not None, "no conflict witness")
    _require(conflict["xi_a"][0] * conflict["xi_b"][0] < 0.0,
             "conflict {} / {} does not straddle 0", conflict["xi_a"], conflict["xi_b"])


def geometry(inv, work, obj):
    _validate(obj, "report-check-integrability")
    points = inv.expect["points"]
    _require(obj["grid"] == [list(p) for p in points], "grid differs from the input")
    _require(obj["k"] == GEOMETRY_K, "k is {}", obj["k"])
    dirs = obj["directions"]
    _check_directions(dirs)
    values = obj["values"]
    _require(len(values) == len(points) and all(len(r) == len(dirs) for r in values),
             "values are not {} x {}", len(points), len(dirs))
    rtol = EXACT_RTOL if inv.expect["kind"] == "smooth" else FD_RTOL
    for i, xi in enumerate(points):
        for a, v in enumerate(dirs):
            mass, dmass = _gaussian(inv.expect["cells"], xi, np.array(v))
            closed = _norm_k(mass, dmass, GEOMETRY_K) ** (1.0 / GEOMETRY_K)
            _close(values[i][a], closed, rtol, "k-norm at point {} direction {}".format(i, a))


_CHECKS = {
    "transport": transport,
    "bernoulli": bernoulli,
    "ex41": ex41,
    "ex_suff": ex_suff,
    "geometry": geometry,
}


def check(inv, work, text):
    """Raise CheckError unless ``text`` is a correct report for ``inv``."""
    try:
        obj = json.loads(text)
    except ValueError as err:
        raise CheckError("output is not JSON: {}".format(err)) from None
    _require(isinstance(obj, dict), "output is not a JSON object")
    try:
        _CHECKS[inv.check](inv, work, obj)
    except (KeyError, TypeError, IndexError) as err:
        raise CheckError("malformed report: {!r}".format(err)) from None
