"""JSON and CSV forms of spaces, measures, kernels, models, and reports.

All numbers are written with 17 significant digits so that parsing the
output reproduces the exact doubles. ``dumps`` is a small deterministic
writer (fixed key order as constructed, fixed indentation) that also
writes library values: measures, kernels and statistics in their JSON
forms, and any other dataclass as its fields in declaration order.
Reading uses the standard library parser.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math

import numpy as np

from . import dsl, families
from .errors import UnsupportedError
from .markov import MarkovKernel, Statistic, TransverseFamily, as_kernel
from .measures import PowerMeasure, SampleSpace, SignedMeasure
from .models import ParameterDomain, ParametrizedMeasureModel

__all__ = [
    "dumps",
    "write_csv",
    "space_to_obj",
    "space_from_obj",
    "measure_to_obj",
    "measure_from_obj",
    "kernel_to_obj",
    "kernel_from_obj",
    "statistic_to_obj",
    "statistic_from_obj",
    "kernel_or_statistic_from_obj",
    "kernel_to_csv",
    "model_from_obj",
    "load_json",
]


def _fmt(v):
    if not math.isfinite(v):
        raise ValueError("cannot serialize non-finite number {}".format(v))
    return format(v, ".17g")


def dumps(obj, indent=0):
    """Deterministic JSON text with 17-significant-digit numbers."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            "{}{}: {}".format(inner, json.dumps(str(k)), dumps(v, indent + 2))
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(
            isinstance(v, (int, float, np.integer, np.floating, str, bool))
            for v in seq
        )
        if flat:
            return "[" + ", ".join(dumps(v) for v in seq) + "]"
        parts = [inner + dumps(v, indent + 2) for v in seq]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    # library values last, so plain data pays no extra test per element
    if isinstance(obj, (SignedMeasure, PowerMeasure)):
        return dumps(measure_to_obj(obj), indent)
    if isinstance(obj, (MarkovKernel, TransverseFamily)):
        return dumps(kernel_to_obj(obj), indent)
    if isinstance(obj, Statistic):
        return dumps(statistic_to_obj(obj), indent)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = dataclasses.fields(obj)
        return dumps({f.name: getattr(obj, f.name) for f in fields}, indent)
    raise TypeError("cannot serialize {!r}".format(type(obj)))


def write_csv(header, rows):
    """CSV text with 17-significant-digit numbers."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [_fmt(v) if isinstance(v, (float, np.floating)) else v for v in row]
        )
    return buf.getvalue()


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# spaces and measures
# ---------------------------------------------------------------------------

def space_to_obj(space):
    obj = {"atoms": list(space.atoms)}
    if space.coords is not None:
        obj["coords"] = [list(row) for row in space.coords]
    if space.weights is not None:
        obj["weights"] = list(space.weights)
    return obj


def space_from_obj(obj):
    atoms = tuple(str(a) for a in obj["atoms"])
    coords = obj.get("coords")
    weights = obj.get("weights")
    return SampleSpace(
        atoms,
        coords=None if coords is None else np.asarray(coords, dtype=float),
        weights=None if weights is None else np.asarray(weights, dtype=float),
    )


def measure_to_obj(nu):
    obj = {"space": space_to_obj(nu.space)}
    if isinstance(nu, PowerMeasure):
        obj["r"] = nu.r
        obj["coeff"] = list(nu.coeff)
    else:
        obj["coeff"] = list(nu.mass)
    return obj


def measure_from_obj(obj):
    space = space_from_obj(obj["space"])
    coeff = np.asarray(obj["coeff"], dtype=float)
    if "r" in obj and obj["r"] is not None:
        return PowerMeasure(space, float(obj["r"]), coeff)
    return SignedMeasure(space, coeff)


# ---------------------------------------------------------------------------
# kernels and statistics
# ---------------------------------------------------------------------------

def kernel_to_obj(kernel):
    return {
        "source": space_to_obj(kernel.source),
        "target": space_to_obj(kernel.target),
        "rows": [list(row) for row in as_kernel(kernel).rows],
    }


def kernel_from_obj(obj):
    return MarkovKernel(
        space_from_obj(obj["source"]),
        space_from_obj(obj["target"]),
        np.asarray(obj["rows"], dtype=float),
    )


def statistic_to_obj(statistic):
    return {
        "source": space_to_obj(statistic.source),
        "target": space_to_obj(statistic.target),
        "map": [int(j) for j in statistic.map],
    }


def statistic_from_obj(obj):
    return Statistic(
        space_from_obj(obj["source"]),
        space_from_obj(obj["target"]),
        obj["map"],
    )


def kernel_or_statistic_from_obj(obj):
    if "rows" in obj:
        return kernel_from_obj(obj)
    if "map" in obj:
        return statistic_from_obj(obj)
    raise ValueError("object is neither a kernel (rows) nor a statistic (map)")


def kernel_to_csv(kernel):
    return write_csv(kernel.target.atoms, as_kernel(kernel).rows)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

def _bound(v, default):
    if v is None:
        return default
    if isinstance(v, str):
        if v in ("inf", "+inf", "Infinity"):
            return math.inf
        if v in ("-inf", "-Infinity"):
            return -math.inf
        raise ValueError("bad bound {!r} (use a number, null, 'inf' or '-inf')".format(v))
    return float(v)


def _domain_from_obj(obj):
    bounds = [
        (_bound(lo, -math.inf), _bound(hi, math.inf)) for lo, hi in obj["bounds"]
    ]
    if "dim" in obj and int(obj["dim"]) != len(bounds):
        raise ValueError(
            "domain dim {} does not match {} bounds".format(obj["dim"], len(bounds))
        )
    return ParameterDomain(bounds)


def _space_from_model_obj(obj):
    if "grid" in obj:
        grid = obj["grid"]
        lo, hi = (float(v) for v in grid["interval"])
        points, width = families.midpoint_grid(lo, hi, grid["points"])
        n = len(points)
        return SampleSpace(
            tuple("g{}".format(i) for i in range(n)),
            coords=points[:, None],
            weights=np.full(n, width),
        )
    return space_from_obj(obj)


def _parse_density(text, space, dim):
    n_coords = 0 if space.coords is None else space.coords.shape[1]
    return dsl.parse(text, n_coords=n_coords, n_params=dim)


def model_from_obj(obj, name=None):
    """Build a model from its JSON object.

    ``density`` is either a DSL expression string or ``{"builtin": name}``;
    in the builtin case no other keys are allowed, since the builtin fixes
    its own space and domain. A DSL density gets analytic gradients from
    ``density_grad`` expressions when present, else from symbolic
    differentiation, else falls back to finite differences.
    """
    density_spec = obj["density"]
    if isinstance(density_spec, dict):
        extra = set(obj) - {"density"}
        if extra:
            raise ValueError(
                "builtin density does not take extra keys {}".format(sorted(extra))
            )
        return families.build(str(density_spec["builtin"]))

    domain = _domain_from_obj(obj["domain"])
    space = _space_from_model_obj(obj["space"])
    dim = domain.dim
    expr = _parse_density(str(density_spec), space, dim)

    if "density_grad" in obj and obj["density_grad"] is not None:
        texts = list(obj["density_grad"])
        if len(texts) != dim:
            raise ValueError(
                "density_grad has {} entries for {} parameters".format(
                    len(texts), dim
                )
            )
        grad_exprs = [_parse_density(str(t), space, dim) for t in texts]
    else:
        try:
            grad_exprs = [dsl.differentiate(expr, j + 1) for j in range(dim)]
        except UnsupportedError:
            grad_exprs = None  # finite differences

    # one program: the value, then its partials when they are known
    program = dsl.compile((expr,) + tuple(grad_exprs or ()))
    n = space.n_atoms

    def run(xi):
        out = dsl.eval_on_grid(program, space.coords, xi)
        return out if space.coords is not None else np.repeat(out, n, axis=1)

    def density(xi):
        return run(xi)[0]

    def density_grad(xi):
        out = run(xi)
        return out[0], out[1:]

    fd = grad_exprs is None
    return ParametrizedMeasureModel(
        domain, space, density if fd else None, None if fd else density_grad,
        statistical=bool(obj.get("statistical", False)), name=name,
    )
