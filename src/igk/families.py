"""Builtin model families.

Each builder returns a ready :class:`~igk.models.ParametrizedMeasureModel`.
``build("name(arg1,arg2)")`` parses optional numeric arguments, so the CLI
can say ``builtin:categorical(4)`` or ``builtin:ex4.1(20000)``.

Registry:

========================  ====================================================
``bernoulli``             two atoms, success probability as the parameter
``categorical(n)``        n atoms, first n-1 probabilities as parameters
``gaussian-grid(L,N)``    normal density sampled on a regular grid of [-L, L]
``ex4.1(N)``              an oscillating family on (0, pi) whose curve is
                          differentiable in L^1 but not in stronger norms
``ex-suff(Ns,Nt)``        a piecewise family on a rectangle for which the
                          first coordinate is a sufficient statistic
========================  ====================================================
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

from .errors import DomainError, UnknownIdentifierError
from .markov import Statistic
from .measures import AtomLabels, SampleSpace
from .models import ParameterDomain, ParametrizedMeasureModel

__all__ = [
    "build",
    "bernoulli",
    "categorical",
    "gaussian_grid",
    "ex41",
    "ex_suff",
    "ex_suff_projection",
    "BUILTIN_NAMES",
]


def _count(n, what):
    """An integer count argument; a fractional one would silently truncate."""
    if not float(n).is_integer():
        raise DomainError("{} must be an integer, got {}".format(what, n))
    return int(n)


def midpoint_grid(lo, hi, n):
    """Cell midpoints and the common cell weight of a uniform partition."""
    n = _count(n, "grid cell count")
    if n < 1:
        raise DomainError("grid needs at least one cell, got {}".format(n))
    width = (hi - lo) / n
    points = lo + (np.arange(n) + 0.5) * width
    return points, width


def _grid_space(lo, hi, n, prefix="g"):
    """The midpoint grid as a space: one coordinate, equal weights, and the
    labels prefix0, prefix1, ... kept as a rule. The space keeps its
    ``(lo, hi, n)`` too, so a writer can give the rule instead of the atoms."""
    x, w = midpoint_grid(lo, hi, n)
    labels = AtomLabels(prefix + "{}", (len(x),))
    space = SampleSpace(labels, coords=x[:, None], weights=np.full(len(x), w))
    object.__setattr__(space, "_grid", (lo, hi, len(x)))
    return space


def bernoulli():
    space = SampleSpace(("1", "0"))

    def density_grad(xi):
        p = float(xi[0])
        return np.array([p, 1.0 - p]), np.array([[1.0, -1.0]])

    return ParametrizedMeasureModel(
        ParameterDomain(((0.0, 1.0),)),
        space,
        density_grad=density_grad,
        statistical=True,
        name="bernoulli",
    )


def categorical(n):
    n = _count(n, "categorical n")
    if n < 2:
        raise DomainError("categorical needs at least 2 atoms, got {}".format(n))
    space = SampleSpace(AtomLabels("{}", (n,)))
    d = n - 1

    def density_grad(xi):
        xi = np.asarray(xi, dtype=float)
        rest = 1.0 - xi.sum()
        if rest <= 0.0:
            raise DomainError(
                "probabilities sum to {} >= 1 at xi={}".format(xi.sum(), xi.tolist())
            )
        g = np.zeros((d, n))
        g[:, :d] = np.eye(d)
        g[:, d] = -1.0
        return np.concatenate([xi, [rest]]), g

    return ParametrizedMeasureModel(
        ParameterDomain(((0.0, 1.0),) * d),
        space,
        density_grad=density_grad,
        statistical=True,
        name="categorical({})".format(n),
    )


def gaussian_grid(half_width=5.0, n_cells=200):
    """Normal density discretized on a regular grid.

    The grid truncates the real line, so members integrate to slightly
    less than one and the family is deliberately not flagged statistical.
    """
    n_cells = _count(n_cells, "gaussian-grid N")
    space = _grid_space(-float(half_width), float(half_width), n_cells)
    x = space.coords[:, 0]

    def density_grad(xi):
        m, s = float(xi[0]), float(xi[1])
        z = (x - m) / s
        p = np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))
        return p, np.stack([p * z / s, p * (z * z - 1.0) / s])

    return ParametrizedMeasureModel(
        ParameterDomain(((-math.inf, math.inf), (0.0, math.inf))),
        space,
        density_grad=density_grad,
        statistical=False,
        name="gaussian-grid({:g},{})".format(half_width, n_cells),
    )


# tiny squared sines underflow the fractional powers below; their true
# contribution is zero in the limit, so cut them off outright
_EX41_FLOOR = 1e-280


def ex41(n_cells=1000):
    """Family 1 + xi * (sin^2(t - 1/xi))^(1/xi^2) on a grid of (0, pi).

    The member at xi = 0 is the uniform density and the family is
    differentiable there only in the L^1 sense; the difference quotient
    norm stays bounded away from zero as xi decreases, which is what the
    quadrature below exposes.
    """
    n_cells = _count(n_cells, "ex4.1 N")
    space = _grid_space(0.0, math.pi, n_cells, prefix="t")
    t = space.coords[:, 0]

    def density_grad(xi):
        x = float(xi[0])
        if x == 0.0:
            return np.ones_like(t), np.zeros((1, len(t)))
        theta = t - 1.0 / x
        s2 = np.sin(theta) ** 2
        dg = np.zeros_like(s2)
        with np.errstate(all="ignore"):
            g = np.where(s2 > _EX41_FLOOR, s2 ** (1.0 / (x * x)), 0.0)
            live = (g > 0.0) & (s2 > _EX41_FLOOR)
            term = (
                -2.0 * np.log(s2, where=live, out=np.zeros_like(s2)) / x ** 3
                + np.sin(2.0 * theta) / (s2 * x ** 4)
            )
            np.multiply(g, term, out=dg, where=live)
        return 1.0 + x * g, (g + x * dg)[None, :]

    return ParametrizedMeasureModel(
        ParameterDomain(((-1.0, math.inf),)),
        space,
        density_grad=density_grad,
        statistical=False,
        name="ex4.1({})".format(n_cells),
    )


def _ex_suff_h(x):
    return math.exp(-1.0 / abs(x)) if x != 0.0 else 0.0


def _ex_suff_counts(n_s, n_t):
    n_s, n_t = _count(n_s, "ex-suff Ns"), _count(n_t, "ex-suff Nt")
    if n_s % 2:  # the middle s-cell would straddle 0
        raise DomainError("ex-suff Ns must be even, got {}".format(n_s))
    return n_s, n_t


@functools.lru_cache(maxsize=1)  # the model and its projection share one immutable space
def _ex_suff_grid(n_s, n_t):
    s, ws = midpoint_grid(-1.0, 1.0, n_s)
    t, wt = midpoint_grid(0.0, 1.0, n_t)
    coords = np.column_stack([np.repeat(s, n_t), np.tile(t, n_s)])
    weights = np.full(n_s * n_t, ws * wt)
    return SampleSpace(AtomLabels("{}|{}", (n_s, n_t)), coords=coords, weights=weights)


def ex_suff(n_s=200, n_t=100):
    """Piecewise family on (-1,1) x (0,1) with a sufficient first coordinate.

    For xi >= 0 the density is constant on each half s < 0 / s >= 0; for
    xi < 0 the s >= 0 half instead carries the profile 2t. The projection
    onto s loses no information at any parameter, yet no single dominating
    product measure works across the sign change. Ns must be even.
    """
    n_s, n_t = _ex_suff_counts(n_s, n_t)
    space = _ex_suff_grid(n_s, n_t)
    sc = space.coords[:, 0]
    tc = space.coords[:, 1]
    pos = sc >= 0.0

    def density_grad(xi):
        x = float(xi[0])
        h = _ex_suff_h(x)
        if x == 0.0:
            return np.where(pos, h, 1.0 - h), np.zeros((1, space.n_atoms))
        dh = math.copysign(h / (x * x), x)
        if x < 0.0:
            return (np.where(pos, 2.0 * tc * h, 1.0 - h),
                    np.where(pos, 2.0 * tc * dh, -dh)[None, :])
        return np.where(pos, h, 1.0 - h), np.where(pos, dh, -dh)[None, :]

    return ParametrizedMeasureModel(
        ParameterDomain(((-math.inf, math.inf),)),
        space,
        density_grad=density_grad,
        statistical=True,
        name="ex-suff({},{})".format(n_s, n_t),
    )


def ex_suff_projection(n_s=200, n_t=100):
    """The first-coordinate statistic matching :func:`ex_suff`, whose space is its source."""
    n_s, n_t = _ex_suff_counts(n_s, n_t)
    target = _grid_space(-1.0, 1.0, n_s, prefix="")
    mapping = np.repeat(np.arange(n_s), n_t)
    return Statistic(_ex_suff_grid(n_s, n_t), target, mapping)


_BUILDERS = {
    "bernoulli": bernoulli,
    "categorical": categorical,
    "gaussian-grid": gaussian_grid,
    "ex4.1": ex41,
    "ex-suff": ex_suff,
}

_STATISTICS = {"ex-suff-proj": ex_suff_projection}

BUILTIN_NAMES = tuple(sorted(_BUILDERS))

_NAME_RE = re.compile(r"^([A-Za-z0-9._-]+?)(?:\(([^()]*)\))?$")


def build(spec):
    """Build a builtin model from ``name`` or ``name(arg, ...)``."""
    return _build(spec, _BUILDERS, "builtin")


def _build(spec, registry, what):
    """Call the ``registry`` entry named by ``name`` or ``name(arg, ...)`` on its numeric
    arguments; ``what`` names the registry in errors."""
    m = _NAME_RE.match(spec.strip())
    if m is None:
        raise UnknownIdentifierError("malformed {} name {!r}".format(what, spec))
    name, argtext = m.group(1), m.group(2)
    if name not in registry:
        raise UnknownIdentifierError(
            "unknown {} {!r} (available: {})".format(what, name, ", ".join(sorted(registry)))
        )
    args = []
    if argtext is not None and argtext.strip():
        for part in argtext.split(","):
            try:
                args.append(float(part))
            except ValueError:
                raise UnknownIdentifierError(
                    "non-numeric argument {!r} in {!r}".format(part, spec)
                ) from None
    return registry[name](*args)
