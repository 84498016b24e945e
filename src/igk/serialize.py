"""JSON and CSV forms of spaces, measures, kernels, models, and reports.

All numbers are written with 17 significant digits so that parsing the
output reproduces the exact doubles. ``dumps`` is a small deterministic
writer (fixed key order as constructed, fixed indentation) that also
writes library values: measures, kernels and statistics in their JSON
forms, and any other dataclass as its fields in declaration order, with a
measure among them as its coefficients on the space the report names.
It joins the pieces of ``_pieces``, in which a long 1-D numeric array is
several pieces of at most ``_CHUNK`` values; the CLI forms all of a report's
pieces before it writes the first, and writes them without joining them.
A space is its atoms, or the rule ``{"grid": {"interval", "points"}}`` of
a midpoint grid with atoms g0, g1, ...: a space built from such a grid is
written as its rule and read back bit for bit, wherever it stands.
Readers check every field as the shipped schemas do, raising ValueError.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from itertools import chain

import numpy as np

from . import dsl, families
from .errors import UnsupportedError
from .markov import MarkovKernel, Statistic, TransverseFamily, as_kernel
from .measures import AtomLabels, PowerMeasure, SampleSpace, SignedMeasure
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


def _rows(arr, sep, row_open, row_close, row_join):
    """The text of a 2-D int or float array (floats at 17 digits) from one ``%``-format."""
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        _fmt(float(arr[~np.isfinite(arr)][0]))  # raises for the first non-finite value
    row = row_open + sep.join(["%.17g" if arr.dtype.kind == "f" else "%d"] * arr.shape[1])
    return row_join.join([row + row_close] * arr.shape[0]) % tuple(arr.ravel().tolist())


def _scalar(obj):
    """The JSON text of None, a bool, a number or a string."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    return json.dumps(obj)


_CHUNK = 4096  # values per piece of a 1-D array: never all of its text, floats and tuple at once


def _pieces(obj, indent=0):
    """The text of ``dumps(obj, indent)`` as a sequence of strings, never joined
    here: a 2-D numeric array is one piece, a 1-D one a piece per ``_CHUNK``
    values, and a dict or list is its punctuation around the pieces of its items."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None or isinstance(obj, (int, float, str, np.integer, np.floating)):
        yield _scalar(obj)
    elif isinstance(obj, dict):
        head = "{\n"
        for k, v in obj.items():
            yield head + inner + json.dumps(str(k)) + ": "
            yield from _pieces(v, indent + 2)
            head = ",\n"
        yield "{}" if not obj else "\n" + pad + "}"
    elif isinstance(obj, np.ndarray) and obj.ndim in (1, 2) and obj.dtype.kind in "fiu":
        if obj.ndim == 1 or not len(obj):  # the bytes of the list path below
            flat, n = obj.reshape(1, -1), obj.size
            cuts = [0, *range(_CHUNK, n, _CHUNK), n]
            for lo, hi in zip(cuts, cuts[1:]):
                yield _rows(flat[:, lo:hi], ", ", ", " if lo else "[", "]" if hi == n else "", "")
        else:
            yield "[\n"
            yield _rows(obj, ", ", inner + "[", "]", ",\n")
            yield "\n" + pad + "]"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if all(isinstance(v, str) for v in seq):
            yield json.dumps(seq)  # atom labels, or []: its ", " join is ours
        elif all(isinstance(v, (int, float, str, np.integer, np.floating)) for v in seq):
            yield "[" + ", ".join(map(_scalar, seq)) + "]"
        else:
            head = "[\n"
            for v in seq:
                yield head + inner
                yield from _pieces(v, indent + 2)
                head = ",\n"
            yield "\n" + pad + "]"
    # library values last, so plain data pays no extra test per element
    elif isinstance(obj, (SignedMeasure, PowerMeasure)):
        yield from _pieces(_measure_obj(obj), indent)
    elif isinstance(obj, (MarkovKernel, TransverseFamily)):
        yield from _pieces(_kernel_obj(obj), indent)
    elif isinstance(obj, Statistic):
        yield from _pieces(_statistic_obj(obj), indent)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        yield from _pieces(_report_fields(obj), indent)
    else:
        raise TypeError("cannot serialize {!r}".format(type(obj)))


def dumps(obj, indent=0):
    """Deterministic JSON text with 17-significant-digit numbers."""
    return "".join(_pieces(obj, indent))


def _report_fields(report):
    """A library report's fields in declaration order. A measure it holds lives
    on the model's space, which the report names, so only its coefficients go."""
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    return {k: _coeff_obj(v) if isinstance(v, (SignedMeasure, PowerMeasure)) else v
            for k, v in fields.items()}


def write_csv(header, rows):
    """CSV text with 17-significant-digit numbers."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind in "fiu":
        return buf.getvalue() + _rows(rows, ",", "", "\n", "")
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

def _plain(obj):
    """A builder's dict as plain JSON data: its arrays become lists."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def _space_obj(space):
    grid = getattr(space, "_grid", None)  # (lo, hi, n), kept by families._grid_space
    if grid and space.atoms == AtomLabels("g{}", grid[2:]):
        return {"grid": {"interval": list(grid[:2]), "points": grid[2]}}
    obj = {"atoms": list(space.atoms)}
    if space.coords is not None:
        obj["coords"] = space.coords
    if space.weights is not None:
        obj["weights"] = space.weights
    return obj


def space_to_obj(space):
    return _plain(_space_obj(space))


def _typed(v, types, what):
    """``v`` if its JSON type is one of ``types``. As in the schemas, ``true``
    is not the number 1 and ``"5"`` is not 5."""
    if type(v) not in types:
        raise ValueError("{} must be {}, got {!r}".format(
            what, " or ".join(t.__name__ for t in types), v))
    return v


def _array(v, what, types=(int, float), depths=(1,)):
    """``v`` if it is an array of ``types`` values, or (depth 2) of such arrays."""
    rows = type(v) is list and bool(v) and {list}.issuperset(map(type, v))
    items = chain.from_iterable(v) if rows else v
    if type(v) is not list or 1 + rows not in depths or not {*types}.issuperset(map(type, items)):
        raise ValueError("{} must be an array of {}{}".format(
            what, "arrays of " * (1 not in depths), " or ".join(t.__name__ for t in types)))
    return v


def _count(v, what):
    """A JSON integer >= 1: 2.0 is one, 2.7 is not."""
    if not float(_typed(v, (int, float), what)).is_integer() or v < 1:
        raise ValueError("{} must be an integer >= 1, got {!r}".format(what, v))
    return int(v)


def space_from_obj(obj):
    if "grid" in obj:  # the rule of a midpoint grid with atoms g0, g1, ...
        if "atoms" in obj:  # the schema's oneOf: never both
            raise ValueError("a space is its atoms or a grid rule, not both")
        lo, hi = map(float, _array(obj["grid"]["interval"], "grid interval"))
        if not lo < hi:
            raise ValueError("grid interval needs lo < hi, got [{}, {}]".format(lo, hi))
        return families._grid_space(lo, hi, _count(obj["grid"]["points"], "grid points"))
    if not isinstance(obj["atoms"], str):  # SampleSpace names that mistake
        _array(obj["atoms"], "atoms", (str,))
    # coords give one number per atom, or a row of numbers per atom
    arrays = {key: _array(obj[key], key, depths=(1, 2) if key == "coords" else (1,))
              for key in ("coords", "weights") if key in obj}
    return SampleSpace(obj["atoms"], **arrays)


def _coeff_obj(nu):
    if isinstance(nu, PowerMeasure):
        return {"r": nu.r, "coeff": nu.coeff}
    return {"coeff": nu.mass}


def _measure_obj(nu):
    return {"space": _space_obj(nu.space), **_coeff_obj(nu)}


def measure_to_obj(nu):
    return _plain(_measure_obj(nu))


def measure_from_obj(obj):
    space = space_from_obj(obj["space"])
    coeff = np.asarray(_array(obj["coeff"], "coeff"), dtype=float)
    if "r" in obj:
        r = float(_typed(obj["r"], (int, float), "r"))
        if not 0 < r <= 1:
            raise ValueError("power-measure r must lie in (0, 1], got {}".format(r))
        return PowerMeasure(space, r, coeff)
    return SignedMeasure(space, coeff)


# ---------------------------------------------------------------------------
# kernels and statistics
# ---------------------------------------------------------------------------

def _kernel_obj(kernel):
    return {
        "source": _space_obj(kernel.source),
        "target": _space_obj(kernel.target),
        "rows": as_kernel(kernel).rows,
    }


def kernel_to_obj(kernel):
    return _plain(_kernel_obj(kernel))


def kernel_from_obj(obj):
    return MarkovKernel(
        space_from_obj(obj["source"]),
        space_from_obj(obj["target"]),
        _array(obj["rows"], "rows", depths=(2,)),
    )


def _statistic_obj(statistic):
    return {
        "source": _space_obj(statistic.source),
        "target": _space_obj(statistic.target),
        "map": statistic.map,
    }


def statistic_to_obj(statistic):
    return _plain(_statistic_obj(statistic))


def statistic_from_obj(obj):
    return Statistic(
        space_from_obj(obj["source"]),
        space_from_obj(obj["target"]),
        _array(obj["map"], "map"),
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
    if type(v) not in (int, float) and v not in ("inf", "+inf", "-inf", "Infinity", "-Infinity"):
        raise ValueError("bad bound {!r} (use a number, null, 'inf' or '-inf')".format(v))
    return float(v)  # float() reads each of those spellings


def _domain_from_obj(obj):
    bounds = [(_bound(lo, -math.inf), _bound(hi, math.inf)) for lo, hi in obj["bounds"]]
    for lo, hi in bounds:
        if not lo < hi:  # no schema can say so
            raise ValueError("domain bound needs lo < hi, got [{}, {}]".format(lo, hi))
    dim = _count(obj.get("dim", len(bounds)), "domain dim")
    if dim != len(bounds):
        raise ValueError("domain dim {} does not match {} bounds".format(dim, len(bounds)))
    return ParameterDomain(bounds)


def _parse_density(text, space, dim, what="density"):
    n_coords = 0 if space.coords is None else space.coords.shape[1]
    return dsl.parse(_typed(text, (str,), what), n_coords=n_coords, n_params=dim)


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
            raise ValueError("builtin density does not take extra keys {}".format(sorted(extra)))
        return families.build(_typed(density_spec["builtin"], (str,), "builtin"))

    domain = _domain_from_obj(obj["domain"])
    space = space_from_obj(obj["space"])
    dim = domain.dim
    expr = _parse_density(density_spec, space, dim)

    if "density_grad" in obj:
        texts = _typed(obj["density_grad"], (list,), "density_grad")
        if len(texts) != dim:
            raise ValueError("density_grad has {} entries for {} parameters".format(
                len(texts), dim))
        grad_exprs = [_parse_density(t, space, dim, "density_grad entry") for t in texts]
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
        statistical=_typed(obj.get("statistical", False), (bool,), "statistical"), name=name,
    )
