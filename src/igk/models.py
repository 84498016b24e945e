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
read from this :class:`Jet`. An order-n tensor forms each distinct entry once,
as :func:`tau_n` does, and copies it to its permutations: it is exactly symmetric.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractError,
    DomainError,
    DominationError,
    ExponentError,
    NegativeDensityError,
    SpaceMismatchError,
)
from .measures import Measure, PowerMeasure, SampleSpace, _require_tolerance, _sums_to, lk_norm

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
]

_NULL_DERIV_TOL = 1e-10


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
        evaluation by the rule of :class:`~igk.measures.ProbabilityMeasure`.
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
    """A fully symmetric tensor on the parameter space, its symmetry checked exactly."""

    order: int
    values: np.ndarray = field(repr=False)

    def __init__(self, order, values):
        if not float(order).is_integer():
            raise ContractError("tensor order must be an integer, got {}".format(order))
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
            if not np.array_equal(values, values.take(_sorted_index(values.shape))):
                raise ContractError("tensor is not symmetric under a permutation of its axes")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "values", values)


def _sorted_index(shape):
    """For each position of a tensor with equal axes, the flat position of its indices
    sorted: ``values.take(_sorted_index(shape))`` copies each sorted entry to its
    permutations. Sorted in the smallest integer type, the index costs what the tensor does."""
    index = np.sort(np.indices(shape, dtype=np.min_scalar_type(shape[0])), axis=0)
    return np.ravel_multi_index(tuple(index), shape)


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
    if model.statistical and not _sums_to(mass.sum(), 1.0, mass.size):
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
    return Measure._adopt(model.space, mass), grad


def evaluate(model, xi):
    """The member measure at parameter ``xi``.

    Raises DomainError outside the domain, NegativeDensityError if the
    density is negative, and ContractError when a statistical model fails
    to have total mass one within max(1e-12, n_atoms * eps).
    """
    return _evaluate(model, model._check_xi(xi))[0]


def _fd_steps(model, xi):
    # relative step of the central differences used without an analytic gradient
    h = 1e-6 * np.maximum(1.0, np.abs(xi))
    # shrink steps so both sample points stay strictly inside the open box
    for j, (lo, hi) in enumerate(model.domain.bounds):
        room = min(xi[j] - lo, hi - xi[j]) / 2.0
        if np.isfinite(room):
            h[j] = min(h[j], room)
    return h


def mass_gradient(model, xi):
    """Partial derivatives of the atom masses, shape (dim, n_atoms).

    Read from one ``density_grad`` call, or from central differences of a
    density-only model with step ``1e-6 * max(1, |xi_j|)``: a step in the parameter's
    units, the one choice here that a change of units moves. Formed in the result: each
    row is ``hi - lo`` divided in place, then scaled by the base masses in place. Beside
    the result it holds the two densities of one difference and one density call's arrays.
    """
    xi = model._check_xi(xi)
    if model.density_grad is not None:
        return _evaluate(model, xi)[1] * model.space.base_masses
    h = _fd_steps(model, xi)
    rows = np.empty((model.domain.dim, model.space.n_atoms))
    for row, step, h_j in zip(rows, np.diag(h), h):
        np.subtract(model.density(xi + step), model.density(xi - step), out=row, dtype=float)
        row /= 2.0 * h_j
    _require_finite(rows, "finite-difference jacobian", model, xi)
    rows *= model.space.base_masses
    return rows


def _directions(model, n_random=0, seed=0):
    """The coordinate basis, then ``n_random`` unit directions, each ``dim``
    draws of ``random.Random(seed).gauss(0.0, 1.0)`` over their norm (a zero
    draw gives the first basis vector). A negative or fractional ``n_random`` or
    ``seed`` raises: ``random.Random`` reads a negative seed as its absolute value."""
    if not all(float(x).is_integer() and x >= 0 for x in (n_random, seed)):
        raise ValueError("n_random and seed must be >= 0 integers, got {}, {}".format(
            n_random, seed))
    d = model.domain.dim
    dirs = list(np.eye(d))
    rng = random.Random(int(seed))
    for _ in range(int(n_random)):
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(d)])
        norm = np.sqrt(_combine(v, v))  # np.linalg.norm is a BLAS dot, summed per CPU
        dirs.append(v / norm if norm > 0 else dirs[0])
    return dirs


def _as_direction(model, v):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (model.domain.dim,):
        raise DomainError(
            "direction has shape {}, expected ({},)".format(v.shape, model.domain.dim)
        )
    if not np.isfinite(v).all():
        raise DomainError("direction {} is not finite".format(v.tolist()))
    return v


def _combine(v, rows):
    """Sum ``v[a] * rows[a]`` for a = 0, 1, ... in turn: BLAS's order depends on the CPU.

    Formed in its result: atom-sized rows take 2 atom-sized arrays at peak, the sum and
    one term. Its bits are those of ``sum(...)``, which starts from 0."""
    terms = (v[a] * rows[a] for a in range(len(v)))
    out = 0 + next(terms, 0)  # as sum(...): a -0.0 first term becomes +0.0
    for term in terms:
        out += term
    return out


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
        """d(mass)/mass along ``direction``: ``direction @ ld``, summed in a fixed order."""
        return _combine(_as_direction(self.model, direction), self.ld)


def jet(model, xi):
    """Evaluate ``model`` once at ``xi``: its member measure and log-derivatives.

    The mass gradient is divided by the mass in place. Before that, a
    derivative along coordinate ``a`` above 1e-10 times its largest along
    ``a`` on a zero-mass atom means the members do not stay
    dominated by this one: DominationError names ``t{a+1}``. Costs one
    ``density_grad`` call, or 1 + 2*dim density calls with finite differences.
    It peaks in the model's calls: 7 atom-sized arrays for a DSL normal density in
    (t1, t2), 6 with finite differences. The Jet keeps 3; its mass is kept as made, uncopied.
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
        scale = np.maximum(ld.max(axis=1), -ld.min(axis=1))  # 0 on a row with nothing to check
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

    Evaluates the k-norm along every direction, from one jet per point of an ordered
    parameter grid, and flags any jump between adjacent grid points larger than ``tol``
    times the local scale ``max(|v_i|, |v_{i+1}|)``; ``max_jump`` is the largest jump
    over its scale, 0 where both are 0. An empty grid or direction list raises
    ContractError; a jet's DominationError propagates as raised, naming its point.
    Each point's jet is dropped before the next one is formed, so the check peaks as one
    jet does: 7 atom-sized arrays for a DSL normal density in (t1, t2), 6 with finite differences.
    """
    _require_tolerance(tol, "tol")
    grid = tuple(np.atleast_1d(np.asarray(x, dtype=float)) for x in xi_grid)
    dirs = tuple(_as_direction(model, v) for v in directions)
    for name, given in (("parameter grid", grid), ("direction list", dirs)):
        if not given:
            raise ContractError("k-integrability check needs a nonempty {}".format(name))
    values = np.empty((len(grid), len(dirs)))
    for i, xi in enumerate(grid):
        point = jet(model, xi)
        for a, v in enumerate(dirs):
            values[i, a] = lk_norm(point.log_derivative(v), point.measure, k)
        del point  # not held while the next point's jet is formed
    flagged = []
    max_jump = 0.0
    max_at = (0, 0)
    for a in range(len(dirs)):
        for i in range(len(grid) - 1):
            jump = abs(values[i + 1, a] - values[i, a])
            scale = max(abs(values[i, a]), abs(values[i + 1, a]))
            if scale > 0.0 and jump / scale > max_jump:
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
    if not 1.0 <= k < np.inf:
        raise ExponentError("power_path needs a finite k >= 1, got {}".format(k))
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
        if not _sums_to(nu.r, r, 2):
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
    rows = [point.log_derivative(v) for v in directions]
    return float(_finite_tensor((np.prod(rows, axis=0) * point.measure.mass).sum(), point.xi))


def tau_tensor(model, xi, order):
    """The full symmetric order-n tensor over the coordinate basis.

    Entry (a1..an) is ``tau_n`` on the corresponding basis directions; order 2 is the
    Fisher matrix, order 3 the cubic. Beside the jet it holds a block of entries, n rows of
    ld and their product each: 12 atom-sized arrays in (t1, t2) at order 2, 19 at order 3.
    """
    if not (float(order).is_integer() and 1 <= order <= 8):
        raise ExponentError("tensor order must be an integer from 1 to 8, got {}".format(order))
    order = int(order)
    point = jet(model, xi)
    return TensorValue(order, _tau_values(point.ld, point.measure.mass, order, point.xi))


def _tau_values(ld, mass, order, xi):
    """The order-n tensor over the coordinate basis, from ``ld`` and ``mass`` at ``xi``:
    each distinct entry, at a sorted multi-index, is formed once as ``tau_n``
    forms it, about 2**20 values a block, and copied to its permutations."""
    d, n = ld.shape
    index = np.array(list(itertools.combinations_with_replacement(range(d), order)))
    values = np.empty((d,) * order)
    block = max(1, 2**20 // (order * n))
    for lo in range(0, len(index), block):
        part = index[lo:lo + block].T
        values[tuple(part)] = (np.prod(ld[part], axis=0) * mass).sum(axis=1)
    return _finite_tensor(values.take(_sorted_index(values.shape)), xi)


def fisher_metric(model, xi):
    """The order-2 tensor g_ab = sum_i ld_a(i) ld_b(i) m_i."""
    return tau_tensor(model, xi, 2)


def amari_chentsov(model, xi):
    """The order-3 tensor T_abc = sum_i ld_a(i) ld_b(i) ld_c(i) m_i."""
    return tau_tensor(model, xi, 3)
