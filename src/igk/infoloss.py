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

from .errors import ContractError, ExponentError, SpaceMismatchError
from .markov import Statistic
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


def equality_direction_check(model, statistic, xi, direction, tol=1e-8):
    """Is the source log-derivative the pullback of the induced one?

    This is the equality condition characterizing zero loss under a
    statistic; compared on atoms of positive mass only.
    """
    if not isinstance(statistic, Statistic):
        raise ContractError(
            "equality_direction_check needs a Statistic, got {}".format(
                type(statistic).__name__
            )
        )
    induced = induced_model(model, statistic)
    source = jet(model, xi)
    ld_src = source.log_derivative(direction)
    ld_ind = jet(induced, xi).log_derivative(direction)
    pulled = statistic.pull(ld_ind)
    mass = source.measure.mass
    on = mass > 0.0
    if not on.any():
        return True
    return bool(np.abs(ld_src[on] - pulled[on]).max() <= tol)


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
    status: str  # factorizable | not-factorizable | inapplicable
    mu0: Measure | None
    residual: float
    conflict: ConflictWitness | None
    subgrids: tuple
    reconstruction_residual: float | None


def _ratio_variation(h_run):
    """Per-atom spread max/min - 1 of positive ratios over a run."""
    return h_run.max(axis=0) / h_run.min(axis=0) - 1.0


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
    """
    if not isinstance(statistic, Statistic):
        raise ContractError(
            "fisher_neyman_check needs a Statistic, got {}".format(
                type(statistic).__name__
            )
        )
    # atoms only: the statistic moves mass by index, and densities are read
    # with the model's own weights
    if statistic.source.atoms != model.space.atoms:
        raise SpaceMismatchError(
            "statistic source atoms do not match the model's sample space"
        )
    space = model.space
    target = statistic.target
    grid = [np.atleast_1d(np.asarray(x, dtype=float)) for x in xi_grid]
    if not grid:
        raise ContractError("fisher_neyman_check needs a nonempty grid")
    w = space.base_masses
    wp = target.base_masses
    masses = np.array([evaluate(model, xi).mass for xi in grid])
    pushed = statistic.push_mass(masses)
    dens = masses / w
    dens_push = pushed / wp

    support = masses > 0.0
    if not support.any():
        return FactorizationResult(
            status="inapplicable",
            mu0=None,
            residual=0.0,
            conflict=None,
            subgrids=(),
            reconstruction_residual=None,
        )

    # maximal runs of consecutive grid points with one support pattern
    runs = []
    start = 0
    for g in range(1, len(grid)):
        if not np.array_equal(support[g], support[start]):
            runs.append((start, g))
            start = g
    runs.append((start, len(grid)))

    kappa_of = statistic.map
    worst = 0.0
    factors = []
    for lo, hi in runs:
        pat = support[lo]
        h_run = np.ones((hi - lo, space.n_atoms))
        if pat.any():
            h_run[:, pat] = (
                dens[lo:hi][:, pat] / dens_push[lo:hi][:, kappa_of[pat]]
            )
        variation = _ratio_variation(h_run[:, pat])
        if variation.size and variation.max() > rel_tol:
            i_local = int(np.argmax(variation))
            i = int(np.flatnonzero(pat)[i_local])
            col = h_run[:, pat][:, i_local]
            g_a = lo + int(np.argmax(col))
            g_b = lo + int(np.argmin(col))
            return FactorizationResult(
                status="not-factorizable",
                mu0=None,
                residual=float(variation.max()),
                conflict=ConflictWitness(
                    xi_a=tuple(grid[g_a]),
                    xi_b=tuple(grid[g_b]),
                    atom=space.atoms[i],
                    variation=float(variation.max()),
                ),
                subgrids=(),
                reconstruction_residual=None,
            )
        if variation.size:
            worst = max(worst, float(variation.max()))
        mu_mass = np.where(pat, h_run[0] * w, 0.0)
        factors.append(
            SubgridFactor(
                xi_first=tuple(grid[lo]),
                xi_last=tuple(grid[hi - 1]),
                n_points=hi - lo,
                mu=Measure(space, mu_mass),
            )
        )

    # compare run witnesses per fiber, up to per-fiber scale
    mu0_mass = np.zeros(space.n_atoms)
    conflict = None
    for fiber in statistic.fibers():
        chosen = None
        chosen_fac = None
        for fac in factors:
            vec = fac.mu.mass[fiber]
            total = vec.sum()
            if total == 0.0:
                continue
            unit = vec / total
            if chosen is None:
                chosen = unit
                chosen_fac = fac
                mu0_mass[fiber] = fac.mu.mass[fiber]
                continue
            diff = np.abs(unit - chosen)
            d = float(diff.max())
            if d > rel_tol:
                i = int(fiber[int(np.argmax(diff))])
                conflict = ConflictWitness(
                    xi_a=chosen_fac.xi_first,
                    xi_b=fac.xi_first,
                    atom=space.atoms[i],
                    variation=d,
                )
                break
            worst = max(worst, d)
        if conflict is not None:
            break

    if conflict is not None:
        return FactorizationResult(
            status="not-factorizable",
            mu0=None,
            residual=conflict.variation,
            conflict=conflict,
            subgrids=tuple(factors),
            reconstruction_residual=None,
        )

    mu0 = Measure(space, mu0_mass)
    pushed_mu0 = statistic.push_mass(mu0_mass)
    recon_worst = 0.0
    for g in range(len(grid)):
        phi = np.zeros(target.n_atoms)
        np.divide(pushed[g], pushed_mu0, out=phi, where=pushed_mu0 > 0.0)
        recon = phi[kappa_of] * mu0_mass
        recon_worst = max(recon_worst, float(np.abs(recon - masses[g]).max()))
    return FactorizationResult(
        status="factorizable",
        mu0=mu0,
        residual=worst,
        conflict=None,
        subgrids=tuple(factors),
        reconstruction_residual=recon_worst,
    )
