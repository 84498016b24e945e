"""Families of measures indexed by a parameter, and their derived tensors.

A model assigns to each parameter vector a nonnegative density over the
atoms of a fixed :class:`~igk.measures.SampleSpace`; the atom masses are
density times base weight. Directional derivatives come from an analytic
gradient when the model carries one and from central finite differences
otherwise. Everything downstream (norms, Fisher matrix, higher symmetric
tensors, pushforwards under kernels) is built from the per-atom logarithmic
derivative d(mass)/mass.

Each parameter point is evaluated once: :func:`jet` returns the member
measure and its (dim, n_atoms) matrix of basis log-derivatives, checked
for domination once per coordinate, and every quantity at that point is
read from this :class:`Jet`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractError,
    DomainError,
    DominationError,
    ExponentError,
    NegativeDensityError,
    SpaceMismatchError,
    ZeroMassError,
)
from .markov import _require_source
from .measures import Measure, PowerMeasure, SampleSpace, _sums_to, lk_norm

__all__ = [
    "ParameterDomain",
    "ParametrizedMeasureModel",
    "TensorValue",
    "Jet",
    "evaluate",
    "mass_gradient",
    "jet",
    "log_derivative",
    "k_norm",
    "check_k_integrability",
    "IntegrabilityReport",
    "power_path",
    "canonical_tensor",
    "tau_n",
    "tau_tensor",
    "fisher_metric",
    "amari_chentsov",
    "normalize_model",
    "induced_model",
]

_STAT_TOL = 1e-10
_NULL_DERIV_TOL = 1e-10
_SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class ParameterDomain:
    """Open box of admissible parameters.

    ``bounds`` is a tuple of (low, high) pairs, one per coordinate;
    infinities are allowed. Membership is strict inequality on both sides.
    """

    bounds: tuple

    def __init__(self, bounds):
        norm = tuple(
            (float(lo), float(hi)) for lo, hi in bounds
        )
        for lo, hi in norm:
            if not lo < hi:
                raise DomainError(
                    "empty interval ({}, {}) in parameter domain".format(lo, hi)
                )
        object.__setattr__(self, "bounds", norm)

    @property
    def dim(self):
        return len(self.bounds)

    def contains(self, xi):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if xi.shape != (self.dim,):
            return False
        return all(
            lo < x < hi for x, (lo, hi) in zip(xi, self.bounds)
        )


class ParametrizedMeasureModel:
    """A parameter-indexed family of measures on a fixed finite space.

    Parameters
    ----------
    domain : ParameterDomain
        Open box of admissible parameter vectors.
    space : SampleSpace
        The common sample space of all members.
    density : callable, optional
        ``density(xi) -> ndarray (n_atoms,)``, nonnegative values of the
        density with respect to the space's base weights. Its derivatives
        come from central finite differences with per-coordinate step
        ``1e-6 * max(1, |xi_j|)``.
    density_grad : callable, optional
        ``density_grad(xi) -> (density, jacobian)``: the density as above
        and its ``(dim, n_atoms)`` partial derivatives, from one
        evaluation. Give exactly one of ``density`` and ``density_grad``.
    statistical : bool
        Declares that every member has total mass one; checked at each
        evaluation within max(1e-10, n_atoms * eps).
    name : str, optional
        Identifier used in reports.
    """

    def __init__(self, domain, space, density=None, density_grad=None,
                 statistical=False, name=None):
        if (density is None) == (density_grad is None):
            raise TypeError("give exactly one of density and density_grad")
        if not isinstance(domain, ParameterDomain):
            domain = ParameterDomain(domain)
        if not isinstance(space, SampleSpace):
            raise TypeError("space must be a SampleSpace")
        self.domain = domain
        self.space = space
        self.density = density
        self.density_grad = density_grad
        self.statistical = bool(statistical)
        self.name = name

    def __repr__(self):
        return "ParametrizedMeasureModel(name={!r}, dim={}, atoms={})".format(
            self.name, self.domain.dim, self.space.n_atoms
        )

    def _check_xi(self, xi):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if xi.shape != (self.domain.dim,):
            raise DomainError(
                "parameter has shape {} but the domain has dimension {}".format(
                    xi.shape, self.domain.dim
                )
            )
        if not self.domain.contains(xi):
            raise DomainError(
                "parameter {} is outside the open domain {}".format(
                    xi.tolist(), self.domain.bounds
                )
            )
        return xi


@dataclass(frozen=True, eq=False)
class TensorValue:
    """A fully symmetric tensor on the parameter space."""

    order: int
    values: np.ndarray = field(repr=False)

    def __init__(self, order, values):
        order = int(order)
        values = np.asarray(values, dtype=float)
        if values.ndim != order:
            raise ContractError(
                "tensor of order {} needs {} axes, got shape {}".format(
                    order, order, values.shape
                )
            )
        if order >= 2:
            d = values.shape[0]
            if any(s != d for s in values.shape):
                raise ContractError(
                    "tensor axes must have equal length, got {}".format(values.shape)
                )
            base = values
            for perm in _transpositions(order):
                if not np.allclose(
                    base, np.transpose(values, perm),
                    rtol=0.0, atol=_SYMMETRY_TOL * max(1.0, np.abs(values).max()),
                ):
                    raise ContractError(
                        "tensor is not symmetric under permutation {}".format(perm)
                    )
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "values", values)


def _transpositions(order):
    # adjacent transpositions generate the symmetric group
    for a in range(order - 1):
        perm = list(range(order))
        perm[a], perm[a + 1] = perm[a + 1], perm[a]
        yield tuple(perm)


# ---------------------------------------------------------------------------
# evaluation and derivatives
# ---------------------------------------------------------------------------

def _require_finite(values, what, model, xi):
    """A non-finite density or Jacobian breaks the model's contract."""
    if not np.all(np.isfinite(values)):
        i = int(np.argwhere(~np.isfinite(values))[0, -1])
        raise ContractError("{} is not finite at atom {!r} for xi={}".format(
            what, model.space.atoms[i], xi.tolist()))


def _evaluate(model, xi):
    """One model call at a checked ``xi``: the member measure, and the
    (dim, n_atoms) density Jacobian, or None for a density-only model."""
    if model.density_grad is None:
        dens, grad = model.density(xi), None
    else:
        pair = model.density_grad(xi)
        if not isinstance(pair, tuple) or len(pair) != 2:
            raise ContractError("density_grad must return a pair (density, jacobian)")
        dens, grad = pair
    dens = np.asarray(dens, dtype=float)
    if dens.shape != (model.space.n_atoms,):
        raise ContractError(
            "density returned shape {}, expected ({},)".format(
                dens.shape, model.space.n_atoms
            )
        )
    _require_finite(dens, "density", model, xi)
    if np.any(dens < 0):
        i = int(np.argmin(dens))
        raise NegativeDensityError(
            "density is negative ({}) at atom {!r} for xi={}".format(
                dens[i], model.space.atoms[i], xi.tolist()
            )
        )
    mass = dens * model.space.base_masses
    if model.statistical and not _sums_to(mass.sum(), 1.0, mass.size, _STAT_TOL):
        raise ContractError(
            "statistical model has total mass {} at xi={}".format(
                mass.sum(), xi.tolist()
            )
        )
    if grad is not None:
        grad = np.asarray(grad, dtype=float)
        want = (model.domain.dim, model.space.n_atoms)
        if grad.shape != want:
            raise ContractError("jacobian has shape {}, expected {}".format(grad.shape, want))
        _require_finite(grad, "jacobian", model, xi)
    return Measure(model.space, mass), grad


def evaluate(model, xi):
    """The member measure at parameter ``xi``.

    Raises DomainError outside the domain, NegativeDensityError if the
    density is negative, and ContractError when a statistical model fails
    to have total mass one within max(1e-10, n_atoms * eps).
    """
    return _evaluate(model, model._check_xi(xi))[0]


# relative step of the central differences used without an analytic gradient
_FD_STEP = 1e-6


def _fd_steps(model, xi):
    h = _FD_STEP * np.maximum(1.0, np.abs(xi))
    # shrink steps so both sample points stay strictly inside the open box
    for j, (lo, hi) in enumerate(model.domain.bounds):
        room = min(xi[j] - lo, hi - xi[j]) / 2.0
        if np.isfinite(room):
            h[j] = min(h[j], room)
    return h


def _roundoff_unit(model):
    """Roundoff unit of a derivative: eps analytic; central differences
    divide density roundoff by their step."""
    return np.finfo(float).eps / (1.0 if model.density_grad is not None else _FD_STEP)


def mass_gradient(model, xi):
    """Partial derivatives of the atom masses, shape (dim, n_atoms).

    Read from one ``density_grad`` call, or from central differences of a
    density-only model.
    """
    xi = model._check_xi(xi)
    if model.density_grad is not None:
        return _evaluate(model, xi)[1] * model.space.base_masses
    h = _fd_steps(model, xi)
    rows = []
    for j in range(model.domain.dim):
        step = np.zeros_like(xi)
        step[j] = h[j]
        hi = np.asarray(model.density(xi + step), dtype=float)
        lo = np.asarray(model.density(xi - step), dtype=float)
        rows.append((hi - lo) / (2.0 * h[j]))
    rows = np.asarray(rows)
    _require_finite(rows, "finite-difference jacobian", model, xi)
    return rows * model.space.base_masses


def _directions(model, n_random=0, seed=0):
    """The coordinate basis, then ``n_random`` seeded random unit directions;
    a zero draw is replaced by the first basis vector."""
    d = model.domain.dim
    dirs = list(np.eye(d))
    rng = np.random.default_rng(seed)
    for _ in range(int(n_random)):
        v = rng.standard_normal(d)
        norm = np.linalg.norm(v)
        dirs.append(v / norm if norm > 0 else dirs[0])
    return dirs


def _as_direction(model, v):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (model.domain.dim,):
        raise DomainError(
            "direction has shape {}, expected ({},)".format(v.shape, model.domain.dim)
        )
    return v


@dataclass(frozen=True, eq=False)
class Jet:
    """A model evaluated at one parameter point.

    ``measure`` is the member at ``xi`` and ``ld`` the read-only
    (dim, n_atoms) matrix of basis log-derivatives d(mass)/mass, 0 on atoms
    of zero mass; the log-derivative along any direction, and everything
    built from it, is read from these two.
    """

    model: ParametrizedMeasureModel = field(repr=False)
    xi: np.ndarray
    measure: Measure = field(repr=False)
    ld: np.ndarray = field(repr=False)

    def log_derivative(self, direction):
        """d(mass)/mass along ``direction``: the direction times ``ld``."""
        return _as_direction(self.model, direction) @ self.ld


def jet(model, xi):
    """Evaluate ``model`` once at ``xi``: its member measure and log-derivatives.

    The mass gradient is divided by the mass in place. Before that, a
    derivative along coordinate ``a`` above 1e-10 * max(1, its largest
    along ``a``) on a zero-mass atom means the members do not stay
    dominated by this one: DominationError names ``t{a+1}``. Costs one
    ``density_grad`` call, or 1 + 2*dim density calls with finite differences.
    """
    xi = model._check_xi(xi)
    measure, grad = _evaluate(model, xi)
    # C order: sums over atoms, so tensors, round alike whatever the Jacobian's layout
    ld = (mass_gradient(model, xi) if grad is None
          else np.multiply(grad, model.space.base_masses, order="C"))
    mass = measure.mass
    null = mass == 0.0
    if null.any():
        # no (dim, n_atoms) temporary: max |derivative| per row, then zero-mass atoms
        scale = np.maximum(1.0, np.maximum(ld.max(axis=1), -ld.min(axis=1)))
        bad = np.abs(ld[:, null]) > _NULL_DERIV_TOL * scale[:, None]
        if bad.any():
            a, j = np.argwhere(bad)[0]
            i = np.flatnonzero(null)[j]
            raise DominationError(
                "mass derivative {} along t{} is nonzero on zero-mass atom {!r} at xi={}".format(
                    ld[a, i], a + 1, model.space.atoms[i], xi.tolist()
                )
            )
        ld[:, null] = 0.0
    np.divide(ld, mass, out=ld, where=~null)
    _require_finite(ld, "log-derivative", model, xi)  # else 0 * inf is nan along other directions
    ld.setflags(write=False)
    return Jet(model, xi, measure, ld)


def log_derivative(model, xi, direction):
    """Per-atom logarithmic derivative along ``direction``.

    Returns d(mass)/mass with the convention 0 on atoms of zero mass, read
    from :func:`jet`, which raises DominationError when the members do not
    stay dominated by the one at ``xi`` along some coordinate.
    """
    return jet(model, xi).log_derivative(direction)


def k_norm(model, xi, direction, k):
    """L^k norm of the logarithmic derivative under the member measure."""
    point = jet(model, xi)
    return lk_norm(point.log_derivative(direction), point.measure, k)


@dataclass(frozen=True, eq=False)
class IntegrabilityReport:
    k: float
    grid: tuple
    directions: tuple
    values: np.ndarray = field(repr=False)
    max_jump: float
    max_jump_at: tuple
    flagged: tuple
    passed: bool


def check_k_integrability(model, xi_grid, directions, k, tol=0.5):
    """Probe whether the k-norm of the log-derivative behaves continuously.

    Evaluates the k-norm along every direction, from one jet per point of
    an ordered parameter grid, and flags any jump between adjacent grid
    points larger than ``tol`` times the local scale
    ``max(1, |v_i|, |v_{i+1}|)``. A DominationError from any grid point
    propagates with that point attached to the message.
    """
    grid = tuple(np.atleast_1d(np.asarray(x, dtype=float)) for x in xi_grid)
    dirs = tuple(_as_direction(model, v) for v in directions)
    values = np.empty((len(grid), len(dirs)))
    for i, xi in enumerate(grid):
        try:
            point = jet(model, xi)
            for a, v in enumerate(dirs):
                values[i, a] = lk_norm(point.log_derivative(v), point.measure, k)
        except DominationError as err:
            raise DominationError(
                "at grid point xi={}: {}".format(xi.tolist(), err)
            ) from err
    flagged = []
    max_jump = 0.0
    max_at = (0, 0)
    for a in range(len(dirs)):
        for i in range(len(grid) - 1):
            jump = abs(values[i + 1, a] - values[i, a])
            scale = max(1.0, abs(values[i, a]), abs(values[i + 1, a]))
            if jump / scale > max_jump:
                max_jump = jump / scale
                max_at = (i, a)
            if jump > tol * scale:
                flagged.append((i, a))
    values.setflags(write=False)
    return IntegrabilityReport(
        k=float(k),
        grid=tuple(tuple(x) for x in grid),
        directions=tuple(tuple(v) for v in dirs),
        values=values,
        max_jump=max_jump,
        max_jump_at=max_at,
        flagged=tuple(flagged),
        passed=not flagged,
    )


# ---------------------------------------------------------------------------
# power paths and canonical tensors
# ---------------------------------------------------------------------------

def power_path(model, xi, direction, k):
    """The member measure raised to power 1/k, with its derivative.

    Returns a pair of power measures with exponent r = 1/k: the rescaled
    member ``m^(1/k)`` and the path derivative ``(1/k) * (dm/m) * m^(1/k)``
    along ``direction``.
    """
    k = float(k)
    if not k >= 1.0:
        raise ExponentError("power_path needs k >= 1, got {}".format(k))
    r = 1.0 / k
    member = jet(model, xi)
    mass = member.measure.mass
    ld = member.log_derivative(direction)
    base = np.power(mass, r)
    point = PowerMeasure(model.space, r, base)
    velocity = PowerMeasure(model.space, r, r * ld * base)
    return point, velocity


def canonical_tensor(*power_measures):
    """Pair n power measures of exponent 1/n into a number.

    The product of the arguments is a signed measure (exponents sum to 1)
    and the value is n^n times its total mass.
    """
    n = len(power_measures)
    if n < 1:
        raise ExponentError("canonical_tensor needs at least one argument")
    space = power_measures[0].space
    r = 1.0 / n
    coeffs = np.ones(space.n_atoms)
    for nu in power_measures:
        if nu.space != space:
            raise SpaceMismatchError("power measures live on different spaces")
        if abs(nu.r - r) > 1e-12:
            raise ExponentError(
                "expected exponent 1/{} = {}, got {}".format(n, r, nu.r)
            )
        coeffs = coeffs * nu.coeff
    return float(n ** n * coeffs.sum())


def _finite_tensor(values, xi):
    if not np.all(np.isfinite(values)):
        raise ContractError("tensor value is not finite at xi={}".format(xi.tolist()))
    return values


def tau_n(model, xi, directions):
    """Symmetric n-point pairing of log-derivatives under the member.

    ``directions`` is a sequence of n tangent directions; the value is the
    sum over atoms of the product of their log-derivatives weighted by the
    member mass. For n=2 this is the Fisher pairing, for n=3 the cubic one.
    """
    directions = list(directions)
    if len(directions) < 1:
        raise ExponentError("tau_n needs at least one direction")
    point = jet(model, xi)
    mass = point.measure.mass
    prod = np.ones_like(mass)
    for v in directions:
        prod = prod * point.log_derivative(v)
    return float(_finite_tensor((prod * mass).sum(), point.xi))


def tau_tensor(model, xi, order):
    """The full symmetric order-n tensor over the coordinate basis.

    Entry (a1..an) is ``tau_n`` evaluated on the corresponding basis
    directions; order 2 is the Fisher matrix, order 3 the cubic tensor.
    """
    order = int(order)
    if order < 1:
        raise ExponentError("tensor order must be >= 1, got {}".format(order))
    if order > 8:
        raise ExponentError("tensor order {} is unreasonably large".format(order))
    point = jet(model, xi)
    letters = "abcdefgh"[:order]
    spec = ",".join(c + "i" for c in letters) + ",i->" + letters
    values = np.einsum(spec, *([point.ld] * order), point.measure.mass)
    return TensorValue(order, _finite_tensor(values, point.xi))


def fisher_metric(model, xi):
    """The order-2 tensor g_ab = sum_i ld_a(i) ld_b(i) m_i."""
    return tau_tensor(model, xi, 2)


def amari_chentsov(model, xi):
    """The order-3 tensor T_abc = sum_i ld_a(i) ld_b(i) ld_c(i) m_i."""
    return tau_tensor(model, xi, 3)


# ---------------------------------------------------------------------------
# derived models
# ---------------------------------------------------------------------------

def _derived_model(model, space, transform, statistical, name):
    """A model on ``space`` whose density and Jacobian are
    ``transform(xi, dens, jacobian)`` of ``model``'s; the Jacobian is None
    for a density-only model, whose derived model is density-only too."""
    def density(xi):
        return transform(xi, np.asarray(model.density(xi), dtype=float), None)[0]

    def density_grad(xi):
        dens, grad = model.density_grad(xi)
        return transform(xi, np.asarray(dens, dtype=float), np.asarray(grad, dtype=float))

    fd = model.density_grad is None
    return ParametrizedMeasureModel(
        model.domain, space, density if fd else None, None if fd else density_grad,
        statistical=statistical, name=name,
    )


def normalize_model(model):
    """Rescale every member to total mass one.

    Gradients follow the quotient rule when the wrapped model has analytic
    ones; otherwise the normalized model falls back to finite differences.
    Evaluating at a parameter where the total mass vanishes raises
    ZeroMassError.
    """
    base_w = model.space.base_masses

    def normalize(xi, dens, g):
        z = float((dens * base_w).sum())
        if z <= 0.0:
            raise ZeroMassError(
                "total mass {} at xi={} cannot be normalized".format(
                    z, np.asarray(xi, dtype=float).tolist()
                )
            )
        if g is None:
            return dens / z, None
        dz = (g * base_w).sum(axis=1)
        return dens / z, (g * z - np.outer(dz, dens)) / (z * z)

    name = None if model.name is None else "normalized({})".format(model.name)
    return _derived_model(model, model.space, normalize, True, name)


def induced_model(model, kernel):
    """Push every member (and its derivatives) through a kernel or statistic."""
    _require_source(kernel, model.space, "the model's sample space")
    src_w = model.space.base_masses
    tgt_w = kernel.target.base_masses

    def push(a):
        return kernel.push_mass(a * src_w) / tgt_w

    # the density and the Jacobian are pushed apart: one stacked push would
    # round differently (a matrix product is not a row-by-row product)
    def induce(xi, dens, g):
        return push(dens), None if g is None else push(g)

    name = None if model.name is None else "induced({})".format(model.name)
    return _derived_model(model, kernel.target, induce, model.statistical, name)
