"""Comparing a model against its image under a kernel or statistic.

The central quantity is the order-k information loss: the k-th power of the
log-derivative norm can only shrink when the model is pushed through a
Markov kernel, and it is preserved exactly when the kernel is congruent.
A statistic loses nothing at any order precisely when the source
log-derivative is the pullback of the induced one; for strictly positive
densities this is equivalent to a Fisher-Neyman style factorization, and
``fisher_neyman_check`` tests that directly, handling vanishing densities
by factorizing per support pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractError, ExponentError
from .markov import Statistic, _require_source
from .measures import Measure, lk_norm
from .models import (
    _directions,
    _roundoff_unit,
    evaluate,
    fisher_metric,
    induced_model,
    jet,
)

__all__ = [
    "LossEntry",
    "LossReport",
    "MonotonicityReport",
    "ConflictWitness",
    "SubgridFactor",
    "FactorizationResult",
    "information_loss",
    "loss_table",
    "check_monotonicity",
    "is_sufficient",
    "equality_direction_check",
    "fisher_neyman_check",
]

# A loss may fall below zero by roundoff only: by at most c = 64 units times
# max(src, ind). The unit is eps with analytic gradients; central differences
# divide density roundoff by their step of about 1e-6, so eps / 1e-6 without.
# On gaussian-grid(5,400) through a congruent split (mean 0 or 0.1, sigma in
# [0.01, 1], k in 1..8) the worst seen is 4.3 units analytic, 0.05 with FD.
_LOSS_ROUNDOFF = 64.0


@dataclass(frozen=True)
class LossEntry:
    xi: tuple
    direction: tuple
    source_norm_k: float  # ||d_V log p||_k^k under the source member
    induced_norm_k: float
    loss: float


@dataclass(frozen=True, eq=False)
class LossReport:
    k: float
    entries: tuple
    max_loss: float
    argmax: int
    warnings: tuple = ()


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    xi: tuple
    fisher_source: np.ndarray = field(repr=False)
    fisher_induced: np.ndarray = field(repr=False)
    directions: tuple
    source_values: tuple
    induced_values: tuple
    violations: tuple
    eigen_gap: float
    passed: bool


def _loss_pair(source, image, direction, k):
    """(source, induced, loss) along ``direction``, from the jets of a model
    and of its image at one parameter point."""
    src = lk_norm(source.log_derivative(direction), source.measure, k) ** k
    ind = lk_norm(image.log_derivative(direction), image.measure, k) ** k
    loss = src - ind
    if loss < -_LOSS_ROUNDOFF * _roundoff_unit(source.model) * max(src, ind):
        raise ContractError(
            "information loss {} is negative beyond tolerance at xi={}".format(
                loss, source.xi.tolist()
            )
        )
    return src, ind, loss


def _loss_reports(model, kernel, xi_grid, directions, ks):
    """One loss report per order in ``ks``, all read from one source jet and
    one induced jet per grid point."""
    induced = induced_model(model, kernel)
    ks = [float(k) for k in ks]
    for k in ks:
        if not k >= 1.0:
            raise ExponentError("information loss needs k >= 1, got {}".format(k))
    if directions is None:
        directions = _directions(model)
    directions = [np.atleast_1d(np.asarray(v, dtype=float)) for v in directions]
    tables = [[] for _ in ks]
    for xi in xi_grid:
        source = jet(model, xi)
        image = jet(induced, xi)
        for v in directions:
            for k, entries in zip(ks, tables):
                entries.append(LossEntry(
                    tuple(source.xi), tuple(v), *_loss_pair(source, image, v, k)
                ))
    if not tables[0]:
        raise ContractError("loss table needs a nonempty parameter grid")
    reports = []
    for k, entries in zip(ks, tables):
        losses = [e.loss for e in entries]
        argmax = int(np.argmax(losses))
        reports.append(LossReport(
            k=k, entries=tuple(entries), max_loss=float(losses[argmax]), argmax=argmax,
        ))
    return reports


def information_loss(model, kernel, xi, direction, k):
    """k-th power of the source norm minus that of the induced norm.

    Nonnegative up to roundoff by the monotonicity theorem; exactly zero
    for congruent kernels.
    """
    return _loss_reports(model, kernel, [xi], [direction], [k])[0].max_loss


def loss_table(model, kernel, xi_grid, directions, k):
    """Loss entries for every grid point and direction, as a report."""
    return _loss_reports(model, kernel, xi_grid, directions, [k])[0]


def check_monotonicity(model, kernel, xi, n_random=8, seed=0):
    """Fisher quadratic forms before and after the kernel, compared.

    Evaluates g(V,V) and g'(V,V) on the coordinate basis plus seeded
    random unit directions, records violations of g >= g', and reports the
    smallest eigenvalue of g - g'. Both are nonnegative when the
    monotonicity theorem holds, up to roundoff relative to the spectral
    norm of g.
    """
    induced = induced_model(model, kernel)
    g = fisher_metric(model, xi).values
    gp = fisher_metric(induced, xi).values
    directions = _directions(model, n_random, seed)
    # g - g' is positive semidefinite. Roundoff in v.g.v for a unit v scales
    # with the spectral norm of g, not with v.g.v itself, which may cancel;
    # allow the c = _LOSS_ROUNDOFF units of it that a loss is allowed
    slack = _LOSS_ROUNDOFF * _roundoff_unit(model) * float(np.linalg.norm(g, 2))
    source_values = []
    induced_values = []
    violations = []
    for idx, v in enumerate(directions):
        sv = float(v @ g @ v)
        iv = float(v @ gp @ v)
        source_values.append(sv)
        induced_values.append(iv)
        if sv < iv - slack:
            violations.append(idx)
    gap = float(np.linalg.eigvalsh(g - gp).min())
    return MonotonicityReport(
        xi=tuple(np.atleast_1d(np.asarray(xi, dtype=float))),
        fisher_source=g,
        fisher_induced=gp,
        directions=tuple(tuple(v) for v in directions),
        source_values=tuple(source_values),
        induced_values=tuple(induced_values),
        violations=tuple(violations),
        eigen_gap=gap,
        passed=not violations and gap >= -slack,
    )


def _lossless(report, tol):
    # tol is relative to the source norm, floored at an absolute tol, so
    # where no source norm exceeds one this is the absolute test
    return all(e.loss <= tol * max(1.0, e.source_norm_k) for e in report.entries)


def is_sufficient(model, kernel, xi_grid, k, tol=1e-9):
    """Does the kernel lose no order-k information anywhere on the grid?

    Checks basis directions at every grid point: each loss must be at most
    ``tol * max(1, source_norm_k)``. The verdict should not depend on k; a
    second value of k is read from the same evaluations as a cross-check
    (at a hundredfold relaxed tolerance, since the two losses differ in
    scale) and any disagreement is recorded as a warning on the report
    rather than trusted silently.
    """
    k = float(k)
    if not k > 1.0:
        raise ExponentError("sufficiency is an order-k notion for k > 1, got {}".format(k))
    k2 = 2.0 if k == 3.0 else 3.0
    report, cross = _loss_reports(model, kernel, xi_grid, None, [k, k2])
    verdict = _lossless(report, tol)
    verdict2 = _lossless(cross, 100.0 * tol)
    if verdict != verdict2:
        report = replace(report, warnings=report.warnings + (
            "verdicts disagree between k={} (max loss {}) and k={} (max loss {})".format(
                k, report.max_loss, k2, cross.max_loss
            ),
        ))
    return verdict, report


def _require_statistic(statistic, caller):
    if not isinstance(statistic, Statistic):
        raise ContractError(
            "{} needs a Statistic, got {}".format(caller, type(statistic).__name__)
        )


def equality_direction_check(model, statistic, xi, direction, tol=1e-8):
    """Is the source log-derivative the pullback of the induced one?

    This is the equality condition characterizing zero loss under a
    statistic. A log-derivative at a mass below the smallest normal float
    has lost its relative precision, so the two are compared on atoms of
    normal mass only, within ``tol`` times the larger of 1 and their
    largest magnitude there.
    """
    _require_statistic(statistic, "equality_direction_check")
    induced = induced_model(model, statistic)
    source = jet(model, xi)
    ld_src = source.log_derivative(direction)
    ld_ind = jet(induced, xi).log_derivative(direction)
    on = source.measure.mass >= np.finfo(float).tiny
    if not on.any():
        return True
    a, b = ld_src[on], statistic.pull(ld_ind)[on]
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    return bool(np.abs(a - b).max() <= tol * scale)


# ---------------------------------------------------------------------------
# Fisher-Neyman factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConflictWitness:
    xi_a: tuple
    xi_b: tuple
    atom: str
    variation: float


@dataclass(frozen=True, eq=False)
class SubgridFactor:
    """One maximal run of grid points sharing a support pattern."""

    xi_first: tuple
    xi_last: tuple
    n_points: int
    mu: Measure


@dataclass(frozen=True, eq=False)
class FactorizationResult:
    """The outcome of :func:`fisher_neyman_check`.

    The fields are declared in the key order of the factorization report.
    """

    status: str  # factorizable | not-factorizable | inapplicable
    residual: float
    mu0: Measure | None = None
    conflict: ConflictWitness | None = None
    subgrids: tuple = ()
    reconstruction_residual: float | None = None


def fisher_neyman_check(model, statistic, xi_grid, rel_tol=1e-9):
    """Test whether the member densities factorize through a statistic.

    The factorization p(xi) = phi'(statistic value; xi) * mu0 holds with a
    single measure mu0 exactly when the per-atom ratio of source density to
    induced density is independent of the parameter. The grid is split into
    maximal runs of consecutive points sharing a support pattern; each run
    is tested by ratio variation, and the per-run witness measures are then
    compared fiber by fiber (up to per-fiber scale). Models that vanish
    somewhere can pass every per-run test while the run witnesses disagree,
    which is how a sufficient statistic can exist without any global
    factorization.

    A mass below the smallest normal float has lost its relative precision,
    so ratios are read only from normal masses, and a run's witness is
    compared on a fiber only where the fiber's mass is normal.
    """
    _require_statistic(statistic, "fisher_neyman_check")
    _require_source(statistic, model.space, "the model's sample space")
    space = model.space
    grid = [np.atleast_1d(np.asarray(x, dtype=float)) for x in xi_grid]
    if not grid:
        raise ContractError("fisher_neyman_check needs a nonempty grid")
    # densities are read with each space's own weights
    w = space.base_masses
    wp = statistic.target.base_masses
    masses = np.array([evaluate(model, xi).mass for xi in grid])
    pushed = statistic.push_mass(masses)
    support = masses > 0.0
    if not support.any():
        return FactorizationResult("inapplicable", 0.0)

    # maximal runs of consecutive grid points with one support pattern
    starts = np.flatnonzero((support[1:] != support[:-1]).any(axis=1)) + 1
    bounds = [0, *starts.tolist(), len(grid)]
    kappa_of = statistic.map
    tiny = np.finfo(float).tiny
    worst = 0.0
    factors = []
    for lo, hi in zip(bounds, bounds[1:]):
        on = np.flatnonzero(support[lo])
        to = kappa_of[on]
        # source over induced density on the run's support, one column per atom
        m = masses[lo:hi, on]
        h = (m / w[on]) / (pushed[lo:hi, to] / wp[to])
        normal = m >= tiny
        high = h.max(axis=0, where=normal, initial=0.0)
        low = h.min(axis=0, where=normal, initial=np.inf)
        variation = high / low - 1.0  # -1 where no mass is normal
        if variation.size:
            i = int(np.argmax(variation))
            v = float(variation[i])
            if v > rel_tol:
                witness = ConflictWitness(
                    xi_a=tuple(grid[lo + int(np.argmax(h[:, i] == high[i]))]),
                    xi_b=tuple(grid[lo + int(np.argmax(h[:, i] == low[i]))]),
                    atom=space.atoms[on[i]],
                    variation=v,
                )
                return FactorizationResult("not-factorizable", v, conflict=witness)
            worst = max(worst, v)
        mu_mass = np.zeros(space.n_atoms)
        mu_mass[on] = h[0] * w[on]
        factors.append(SubgridFactor(
            xi_first=tuple(grid[lo]),
            xi_last=tuple(grid[hi - 1]),
            n_points=hi - lo,
            mu=Measure(space, mu_mass),
        ))
    factors = tuple(factors)

    # compare run witnesses per fiber, up to per-fiber scale
    mu0_mass = np.zeros(space.n_atoms)
    for j, fiber in enumerate(statistic.fibers()):
        chosen = None
        for lo, fac in zip(bounds, factors):
            if pushed[lo, j] < tiny:
                continue
            vec = fac.mu.mass[fiber]
            unit = vec / vec.sum()
            if chosen is None:
                chosen, chosen_fac = unit, fac
                mu0_mass[fiber] = vec
                continue
            diff = np.abs(unit - chosen)
            d = float(diff.max())
            if d > rel_tol:
                witness = ConflictWitness(
                    xi_a=chosen_fac.xi_first,
                    xi_b=fac.xi_first,
                    atom=space.atoms[fiber[int(np.argmax(diff))]],
                    variation=d,
                )
                return FactorizationResult(
                    "not-factorizable", d, conflict=witness, subgrids=factors
                )
            worst = max(worst, d)

    phi = np.zeros(pushed.shape)
    pushed_mu0 = statistic.push_mass(mu0_mass)
    np.divide(pushed, pushed_mu0, out=phi, where=pushed_mu0 > 0.0)
    recon = np.abs(phi[:, kappa_of] * mu0_mass - masses).max()
    return FactorizationResult(
        "factorizable", worst, Measure(space, mu0_mass),
        subgrids=factors, reconstruction_residual=float(recon),
    )
