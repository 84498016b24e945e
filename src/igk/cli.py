"""Command-line front end.

Loads models (builtin families or JSON files), kernels and statistics,
runs the tensor / loss / sufficiency / factorization computations plus the
worked-example reproductions, and writes JSON or CSV reports. All reports
carry the package version and the resolved configuration; numbers are
written with 17 significant digits, so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import __version__, families, infoloss, markov, measures, models, serialize
from .errors import (
    ExprSyntaxError,
    IgkError,
    SpaceMismatchError,
    UnknownIdentifierError,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONTRACT = 3
EXIT_IO = 4


class ValidationError(Exception):
    pass


# Exit code of an error raised while running a subcommand or writing its
# report. The first matching row wins, so the expression errors and input on
# a space other than a transport's source count as bad input although they
# are also library errors. Broken JSON is a ValueError (JSONDecodeError).
_EXIT_CODES = (
    ((ValidationError, ExprSyntaxError, UnknownIdentifierError, SpaceMismatchError,
      ValueError, KeyError, TypeError), EXIT_VALIDATION),
    (IgkError, EXIT_CONTRACT),
    (OSError, EXIT_IO),
)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _load_model(spec):
    if spec.startswith("builtin:"):
        return families.build(spec[len("builtin:"):])
    obj = serialize.load_json(spec)
    return serialize.model_from_obj(obj, name=spec)


def _load_kernel_or_statistic(path):
    if path.startswith("builtin:"):
        return families._build(path[len("builtin:"):], families._STATISTICS, "builtin statistic")
    return serialize.kernel_or_statistic_from_obj(serialize.load_json(path))


def _parse_point(text):
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise ValidationError("bad parameter point {!r}".format(text))


def _parse_scalar_list(text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError("bad value list {!r}".format(text))


def _parse_grid(text, dim):
    """A parameter grid: 'lo:hi:n' (dim 1), or ';'-separated points."""
    if ":" in text:
        try:
            lo, hi, n = text.split(":")
            lo, hi, n = float(lo), float(hi), int(n)
        except ValueError:
            raise ValidationError("grid spec {!r} is not lo:hi:n".format(text))
        if n < 1:
            raise ValidationError("grid needs at least one point")
        if not math.isfinite(lo) or not math.isfinite(hi):  # linspace would make NaN points
            raise ValidationError("grid bounds must be finite, got {!r}".format(text))
        if dim != 1:
            raise ValidationError("lo:hi:n grids apply to single-parameter models")
        return [np.array([v]) for v in np.linspace(lo, hi, n)]
    points = [_parse_point(part) for part in text.split(";")]
    for p in points:
        if p.shape != (dim,):
            raise ValidationError(
                "grid point {} has dimension {}, model has {}".format(
                    p.tolist(), p.shape[0], dim
                )
            )
    return points


def _emit(args, report):
    """Write a report object's JSON pieces, or CSV text, and a final newline. All
    pieces are formed first: a value that cannot be written leaves no output."""
    pieces = [report] if isinstance(report, str) else list(serialize._pieces(report))
    if not pieces[-1].endswith("\n"):
        pieces.append("\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()  # a reader that closed early shows here, not at the interpreter's exit


def _report(args, keys, body):
    """Version, the flags ``keys`` as config, then the keys of ``body``: a dict,
    or a library report whose fields in declaration order are the report's keys."""
    if dataclasses.is_dataclass(body):
        body = serialize._report_fields(body)
    config = {key: getattr(args, key.replace("-", "_")) for key in keys}
    return {"version": __version__, "config": config, **body}


def _coords(v):
    """A point or direction as one CSV cell."""
    return " ".join(serialize.dumps(x) for x in v)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_tensor(args):
    if not 1 <= args.order <= 8:
        raise ValidationError("tensor order must be from 1 to 8, got {}".format(args.order))
    model = _load_model(args.model)
    xi = _parse_point(args.xi)
    tensor = models.tau_tensor(model, xi, args.order)
    key = {1: "tau1", 2: "fisher", 3: "amari_chentsov"}.get(args.order, "tau")
    body = {"order": args.order, key: tensor.values}
    return _report(args, ("model", "order", "xi"), body)


def _cmd_pushforward(args):
    kernel = _load_kernel_or_statistic(args.kernel)
    nu = serialize.measure_from_obj(serialize.load_json(args.measure))
    if isinstance(nu, measures.PowerMeasure):
        out = markov.power_pushforward(kernel, nu)
    else:
        out = markov.pushforward(kernel, nu)
    return _report(args, ("kernel", "measure"), {"measure": out})


def _loss_csv(report):
    rows = [
        (
            _coords(e.xi),
            _coords(e.direction),
            e.source_norm_k,
            e.induced_norm_k,
            e.loss,
        )
        for e in report.entries
    ]
    return serialize.write_csv(
        ("xi", "direction", "source_norm_k", "induced_norm_k", "loss"), rows
    )


def _kernel_arg(args):
    given = [s for s in (args.kernel, args.statistic) if s]
    if len(given) != 1:
        raise ValidationError("give exactly one of --kernel or --statistic")
    return _load_kernel_or_statistic(given[0])


def _cmd_infoloss(args):
    if not 1 <= args.k < math.inf:
        raise ValidationError("information loss needs a finite k >= 1, got {}".format(args.k))
    _require_directions(args)
    model = _load_model(args.model)
    kernel = _kernel_arg(args)
    grid = _parse_grid(args.xi_grid, model.domain.dim)
    dirs = models._directions(model, args.random, args.seed)
    report = infoloss.loss_table(model, kernel, grid, dirs, args.k)
    if args.format == "csv":
        return _loss_csv(report)
    keys = ("model", "kernel", "statistic", "k", "xi-grid", "random", "seed")
    return _report(args, keys, report)


def _require_sufficiency_order(k):
    if not 1 < k < math.inf:
        raise ValidationError("sufficiency needs a finite k > 1, got {}".format(k))


def _require_tolerance(tol, flag):
    if not 0 <= tol < math.inf:
        raise ValidationError("{} must be a finite number >= 0, got {}".format(flag, tol))


def _require_directions(args):
    for flag, value in (("--random", args.random), ("--seed", args.seed)):
        if value < 0:
            raise ValidationError("{} must be >= 0, got {}".format(flag, value))


def _cmd_sufficient(args):
    _require_sufficiency_order(args.k)
    _require_tolerance(args.tol, "--tol")
    model = _load_model(args.model)
    kernel = _kernel_arg(args)
    grid = _parse_grid(args.xi_grid, model.domain.dim)
    verdict, report = infoloss.is_sufficient(model, kernel, grid, args.k, tol=args.tol)
    body = {
        "sufficient": bool(verdict),
        "k": report.k,
        "tol": args.tol,
        "max_loss": report.max_loss,
        "entries": report.entries,
        "warnings": report.warnings,
    }
    return _report(args, ("model", "kernel", "statistic", "k", "xi-grid", "tol"), body)


def _cmd_factorize(args):
    _require_tolerance(args.rel_tol, "--rel-tol")
    model = _load_model(args.model)
    statistic = _load_kernel_or_statistic(args.statistic)
    if not isinstance(statistic, markov.Statistic):
        raise ValidationError("--statistic must name a statistic, not a kernel")
    grid = _parse_grid(args.xi_grid, model.domain.dim)
    result = infoloss.fisher_neyman_check(model, statistic, grid, rel_tol=args.rel_tol)
    return _report(args, ("model", "statistic", "xi-grid", "rel-tol"), result)


def _cmd_decompose_kernel(args):
    kernel = serialize.kernel_from_obj(serialize.load_json(args.kernel))
    k_cong, kappa1, kappa2 = markov.decompose_kernel(kernel)
    if args.format == "csv":
        return serialize.kernel_to_csv(k_cong)
    body = {"k_cong": k_cong, "kappa1": kappa1, "kappa2": kappa2}
    return _report(args, ("kernel",), body)


def _cmd_check_integrability(args):
    if not 1 <= args.k < math.inf:
        raise ValidationError("integrability needs a finite k >= 1, got {}".format(args.k))
    _require_tolerance(args.tol, "--tol")
    _require_directions(args)
    model = _load_model(args.model)
    grid = _parse_grid(args.xi_grid, model.domain.dim)
    dirs = models._directions(model, args.random, args.seed)
    report = models.check_k_integrability(model, grid, dirs, args.k, tol=args.tol)
    if args.format == "csv":
        rows = [
            (_coords(x), _coords(v), report.values[i, a])
            for i, x in enumerate(report.grid)
            for a, v in enumerate(report.directions)
        ]
        return serialize.write_csv(("xi", "direction", "k_norm"), rows)
    return _report(args, ("model", "k", "xi-grid", "tol", "random", "seed"), report)


def _cmd_paper_example(args):
    if args.example == "bernoulli":
        model = families.bernoulli()
        xis = _parse_scalar_list(args.xi or "0.1,0.25,0.5")

        def one(x):
            g = models.fisher_metric(model, [x]).values[0, 0]
            closed = 1.0 / (x * (1.0 - x))
            return {"xi": x, "fisher": g, "closed_form": closed,
                    "abs_err": abs(g - closed)}

        rows = [one(x) for x in xis]
        body = {
            "example": "bernoulli",
            "rows": rows,
            "max_abs_err": max(r["abs_err"] for r in rows),
        }
        return _report(args, ("example", "xi"), body)

    if args.example == "ex4.1":
        n = args.grid_points
        if n < 1:
            raise ValidationError("--grid-points must be >= 1, got {}".format(n))
        model = families.ex41(n)
        base = models.evaluate(model, [0.0]).mass
        xis = _parse_scalar_list(args.xi or "1,0.5,0.3,0.2")
        for x in xis:
            if x == 0.0:
                raise ValidationError("the difference quotient needs xi != 0")

        def quotient(x):
            mass = models.evaluate(model, [x]).mass
            nu = measures.SignedMeasure(model.space, (mass - base) / x)
            return measures.tv_norm(nu)

        values = [quotient(x) for x in xis]
        rows = [{"xi": x, "l1_quotient": q} for x, q in zip(xis, values)]
        body = {
            "example": "ex4.1",
            "grid_points": n,
            "rows": rows,
            "monotone_decreasing": all(
                a > b for a, b in zip(values, values[1:])
            ),
        }
        return _report(args, ("example", "xi", "grid-points"), body)

    if args.example == "ex-suff":
        _require_sufficiency_order(args.k)
        _require_tolerance(args.tol, "--tol")
        try:
            ns, nt = (int(v) for v in args.cells.split("x"))
        except ValueError:
            raise ValidationError("--cells must look like 200x100")
        if ns < 1 or nt < 1 or ns % 2:
            raise ValidationError("--cells needs positive counts and an even Ns")
        model = families.ex_suff(ns, nt)
        statistic = families.ex_suff_projection(ns, nt)
        grid = _parse_grid(args.xi_grid or "-1:1:5", 1)
        masses = np.empty((len(grid), model.space.n_atoms))  # one evaluation per point
        verdict, report = infoloss._sufficiency(model, statistic, grid, args.k, args.tol, masses)
        result = infoloss._factorization(model, statistic, grid, masses=masses)
        body = {
            "example": "ex-suff",
            "cells": [ns, nt],
            "k": args.k,
            "rows": [
                {"xi": list(e.xi), "loss": e.loss} for e in report.entries
            ],
            "max_loss": report.max_loss,
            "verdict": "sufficient" if verdict else "not sufficient",
            "warnings": report.warnings,
            "factorization": result,
        }
        return _report(args, ("example", "k", "xi-grid", "cells", "tol"), body)

    raise ValidationError("unknown example {!r}".format(args.example))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="igk",
        description="Finite-space information geometry: tensors, pushforwards, "
        "information loss, sufficiency, factorization.",
    )
    parser.add_argument("--version", action="version", version="igk " + __version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, fmt=True):
        p.add_argument("--out", help="output path (default: stdout)")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    def random_directions(p):
        p.add_argument("--random", type=int, default=0,
                       help="additional random unit directions")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the --random directions")

    p = sub.add_parser("tensor", help="Fisher matrix and higher-order tensors")
    p.add_argument("--model", required=True, help="builtin:NAME or a model JSON path")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--xi", required=True, help="parameter point, comma-separated")
    common(p, fmt=False)
    p.set_defaults(run=_cmd_tensor)

    p = sub.add_parser("pushforward", help="push a measure through a kernel")
    p.add_argument("--kernel", required=True, help="kernel or statistic JSON path")
    p.add_argument("--measure", required=True, help="measure JSON path")
    common(p, fmt=False)
    p.set_defaults(run=_cmd_pushforward)

    p = sub.add_parser("infoloss", help="order-k information loss over a grid")
    p.add_argument("--model", required=True)
    p.add_argument("--kernel")
    p.add_argument("--statistic")
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--xi-grid", required=True, help="lo:hi:n or ';'-separated points")
    random_directions(p)
    common(p)
    p.set_defaults(run=_cmd_infoloss)

    p = sub.add_parser("sufficient", help="zero-loss test over a grid")
    p.add_argument("--model", required=True)
    p.add_argument("--kernel")
    p.add_argument("--statistic")
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--xi-grid", required=True)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="largest loss taken as zero, relative to the source norm^k")
    common(p, fmt=False)
    p.set_defaults(run=_cmd_sufficient)

    p = sub.add_parser("factorize", help="Fisher-Neyman factorization check")
    p.add_argument("--model", required=True)
    p.add_argument("--statistic", required=True)
    p.add_argument("--xi-grid", required=True)
    p.add_argument("--rel-tol", type=float, default=1e-9,
                   help="largest variation of a density ratio taken as zero, relative")
    common(p, fmt=False)
    p.set_defaults(run=_cmd_factorize)

    p = sub.add_parser("decompose-kernel",
                       help="split a kernel into a congruent part and a statistic")
    p.add_argument("--kernel", required=True)
    common(p)
    p.set_defaults(run=_cmd_decompose_kernel)

    p = sub.add_parser("check-integrability",
                       help="probe continuity of the k-norm over a grid")
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--xi-grid", required=True)
    p.add_argument("--tol", type=float, default=0.5,
                   help="largest jump taken as continuous, relative to the larger k-norm")
    random_directions(p)
    common(p)
    p.set_defaults(run=_cmd_check_integrability)

    p = sub.add_parser("paper-example", help="reproduce a worked example")
    p.add_argument("example", choices=("ex4.1", "ex-suff", "bernoulli"))
    p.add_argument("--xi", help="comma-separated scalar parameters")
    p.add_argument("--xi-grid")
    p.add_argument("--grid-points", type=int, default=20000)
    p.add_argument("--cells", default="200x100")
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="ex-suff: largest loss taken as zero, relative to the source norm^k")
    common(p, fmt=False)
    p.set_defaults(run=_cmd_paper_example)

    return parser


_VALUE_FLAGS = ("--xi", "--xi-grid")


def _merge_negative_values(argv):
    """Let '--xi-grid -1:1:5' parse although the value starts with '-'."""
    out = []
    for tok in argv:  # a flag left in ``out`` as itself has not taken a value yet
        negative = tok[:1] == "-" and (tok[1:2].isdigit() or tok[1:2] == ".")
        if negative and out and out[-1] in _VALUE_FLAGS:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_negative_values(list(argv)))
    try:
        _emit(args, args.run(args))
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: not an I/O failure. stdout
        # now writes to devnull, so the interpreter's flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except Exception as err:
        code = next((c for cls, c in _EXIT_CODES if isinstance(err, cls)), None)
        if code is None:
            raise
        print("error: {}: {}".format(type(err).__name__, err), file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
