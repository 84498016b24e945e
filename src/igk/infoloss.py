"""Comparing a model against its image under a kernel or statistic.

The central quantity is the order-k information loss: the k-th power of the
log-derivative norm can only shrink when the model is pushed through a
Markov kernel, and it is preserved exactly when the kernel is congruent.
A statistic loses nothing at any order precisely when the source
log-derivative is the pullback of the induced one; for strictly positive
densities this is equivalent to a Fisher-Neyman style factorization, and
``fisher_neyman_check`` tests that directly, handling vanishing densities
by factorizing per support pattern.

The image of the source jet is a jet: the pushed member, and as ``ld`` the conditional
expectation of the score matrix, formed once per point and read by every direction, order
and check. A loss is the sum over the kernel's entries of max(0, D_k(s_i, t_j)) p_i K_ij,
D_k the Bregman divergence of |.|^k, s = v @ ld and t = v @ the image's: >= 0 by construction.
Sufficiency and factorization on one grid can share one evaluation per point:
the loss pass fills a (points x atoms) masses array that the factorization reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractError, ExponentError
from .markov import _conditional_expectation, _require_source, _require_statistic
from .measures import Measure, _require_tolerance, lk_norm
from .models import Jet, _as_direction, _combine, _directions, _tau_values, evaluate, jet

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


def _image(source, kernel):
    """The image of the jet ``source`` under ``kernel``: the pushed member, and as ``ld``
    the conditional expectation of the score matrix, one batched push of its d rows."""
    pushed = kernel.push_mass(source.measure.mass)
    ld = _conditional_expectation(kernel, source.measure.mass, source.ld, pushed)
    ld.setflags(write=False)
    return Jet(source.model, source.xi, Measure._adopt(kernel.target, pushed), ld)


def _loss_pair(source, image, kernel, v, k):
    """(source, induced, loss) along ``v`` from the jet ``source`` and its ``image``."""
    s = source.log_derivative(v)
    t = image.log_derivative(v)
    src = lk_norm(s, source.measure, k) ** k
    ind = lk_norm(t, image.measure, k) ** k
    count, to, weight = kernel._support()
    # D_k(s_i, t_j) in place, and no np.sign, np.maximum or 1-D @: a first call of each adds RSS
    tk = np.abs(t) ** k
    g = np.divide(k * tk, t, out=np.zeros(t.shape), where=t != 0)  # k sign(t)|t|^(k-1)
    s = np.repeat(s, count)  # s_i at each entry (i, j)
    term = np.abs(s) ** k
    s -= t[to]
    s *= g[to]
    s += tk[to]  # the tangent of |.|^k at t_j, at s_i
    term -= s
    del s  # np.repeat copies the read-only masses before it repeats them
    term[term < 0.0] = 0.0  # below 0 by roundoff only
    term *= weight
    term *= np.repeat(source.measure.mass, count)
    return src, ind, float(term.sum())


def _loss_reports(model, kernel, xi_grid, directions, ks, masses=None):
    """One loss report per order in ``ks``, all read from one source jet per
    grid point, whose member mass fills row i of ``masses`` if given."""
    ks = [float(k) for k in ks]
    for k in ks:
        if not 1.0 <= k < math.inf:
            raise ExponentError("information loss needs a finite k >= 1, got {}".format(k))
    _require_source(kernel, model.space, "the model's sample space")
    if directions is None:
        directions = _directions(model)
    directions = [_as_direction(model, v) for v in directions]
    if not directions:
        raise ContractError("loss table needs a nonempty direction list")
    tables = [[] for _ in ks]
    for i, xi in enumerate(xi_grid):
        source = jet(model, xi)
        if masses is not None:
            masses[i] = source.measure.mass
        image = _image(source, kernel)
        for v in directions:
            for k, entries in zip(ks, tables):
                entries.append(LossEntry(
                    tuple(source.xi), tuple(v), *_loss_pair(source, image, kernel, v, k)
                ))
        del source, image  # not held while the next point's jet is formed
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

    Nonnegative by construction; zero for congruent kernels up to roundoff."""
    return _loss_reports(model, kernel, [xi], [direction], [k])[0].max_loss


def loss_table(model, kernel, xi_grid, directions, k):
    """Loss entries for every grid point and direction, as a report. It holds one point at
    a time: in (t1, t2) through a statistic, 6 source-sized and 6 target-sized arrays."""
    return _loss_reports(model, kernel, xi_grid, directions, [k])[0]


_MONOTONICITY_SLACK = 64.0 * np.finfo(float).eps


def check_monotonicity(model, kernel, xi, n_random=8, seed=0):
    """Fisher quadratic forms before and after the kernel, compared.

    Evaluates g(V,V) and g'(V,V) on the coordinate basis plus seeded
    random unit directions, records violations of g >= g', and reports the
    smallest eigenvalue of g - g'. Both are nonnegative when the
    monotonicity theorem holds, up to roundoff relative to the spectral
    norm of g. The quadratic forms are summed in a fixed order; the norm
    and the eigenvalue stay on LAPACK. Beside the jet and image (3 source-sized and 3
    target-sized arrays) it forms g as :func:`tau_tensor` does: 9 source-sized in (t1, t2).
    """
    _require_source(kernel, model.space, "the model's sample space")
    source = jet(model, xi)
    image = _image(source, kernel)
    g = _tau_values(source.ld, source.measure.mass, 2, source.xi)
    gp = _tau_values(image.ld, image.measure.mass, 2, source.xi)
    directions = _directions(model, n_random, seed)
    # g - g' is positive semidefinite. Roundoff in v.g.v for a unit v scales with the spectral
    # norm of g, not with v.g.v, which may cancel. g and g' are formed apart: a g' too large fails
    slack = _MONOTONICITY_SLACK * float(np.linalg.norm(g, 2))
    source_values = tuple(float(_combine(v, _combine(v, g))) for v in directions)
    induced_values = tuple(float(_combine(v, _combine(v, gp))) for v in directions)
    violations = tuple(i for i, (sv, iv) in enumerate(zip(source_values, induced_values))
                       if sv < iv - slack)
    gap = float(np.linalg.eigvalsh(g - gp).min())
    return MonotonicityReport(
        xi=tuple(source.xi),
        fisher_source=g,
        fisher_induced=gp,
        directions=tuple(tuple(v) for v in directions),
        source_values=source_values,
        induced_values=induced_values,
        violations=violations,
        eigen_gap=gap,
        passed=not violations and gap >= -slack,
    )


def _lossless(report, tol):
    # tol is relative to the source norm: a loss and its norm scale alike with the members
    return all(e.loss <= tol * e.source_norm_k for e in report.entries)


def is_sufficient(model, kernel, xi_grid, k, tol=1e-9):
    """Does the kernel lose no order-k information anywhere on the grid?

    Checks basis directions at every grid point: each loss must be at most
    ``tol * source_norm_k``, a rule no scaling of the members moves. Nor should
    the verdict depend on k; a second value of k is read from the same
    evaluations as a cross-check (at a hundredfold relaxed tolerance, since
    the two losses differ in scale) and any disagreement is recorded as a
    warning on the report rather than trusted silently. It holds what loss_table does.
    """
    return _sufficiency(model, kernel, xi_grid, k, tol)


def _sufficiency(model, kernel, xi_grid, k, tol, masses=None):
    """:func:`is_sufficient`, writing point i's member mass into row i of ``masses`` if given."""
    k = float(k)
    if not 1.0 < k < math.inf:
        raise ExponentError("sufficiency is an order-k notion for finite k > 1, got {}".format(k))
    _require_tolerance(tol, "tol")
    k2 = 2.0 if k == 3.0 else 3.0
    report, cross = _loss_reports(model, kernel, xi_grid, None, [k, k2], masses)
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
    statistic. A log-derivative at a mass below the smallest normal float
    has lost its relative precision, so the two are compared on atoms of
    normal mass only, within ``tol`` times their largest magnitude there.
    """
    _require_statistic(statistic, "equality_direction_check")
    _require_tolerance(tol, "tol")
    _require_source(statistic, model.space, "the model's sample space")
    source = jet(model, xi)
    ld_src = source.log_derivative(direction)  # checks the direction before any return
    on = source.measure.mass >= np.finfo(float).tiny
    if not on.any():
        return True
    a, b = ld_src[on], statistic.pull(_image(source, statistic).log_derivative(direction))[on]
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()))
    return bool(np.abs(a - b).max() <= tol * scale)


# ---------------------------------------------------------------------------
# Fisher-Neyman factorization
# ---------------------------------------------------------------------------

_BLOCK = 4096  # atoms per block of the factorization's per-atom passes, as serialize._CHUNK

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

    Its per-atom passes run over blocks of atoms: beside the (points, atoms) masses and
    their image it holds one atom-sized array per run, its witness measure, and fewer than 4 more.
    """
    return _factorization(model, statistic, xi_grid, rel_tol)


def _factorization(model, statistic, xi_grid, rel_tol=1e-9, masses=None):
    """:func:`fisher_neyman_check`, reading the member masses from ``masses`` if given."""
    _require_statistic(statistic, "fisher_neyman_check")
    _require_tolerance(rel_tol, "rel_tol")
    _require_source(statistic, model.space, "the model's sample space")
    space = model.space
    grid = [np.atleast_1d(np.asarray(x, dtype=float)) for x in xi_grid]
    if not grid:
        raise ContractError("fisher_neyman_check needs a nonempty grid")
    # densities are read with each space's own weights
    w = space.base_masses
    wp = statistic.target.base_masses
    if masses is None:
        masses = np.empty((len(grid), space.n_atoms))
        for i, xi in enumerate(grid):
            masses[i] = evaluate(model, xi).mass
    if not masses.max() > 0.0:  # every mass is finite and >= 0
        return FactorizationResult("inapplicable", 0.0)
    pushed = statistic.push_mass(masses)

    # maximal runs of consecutive grid points with one support pattern, compared row by
    # row: masses stays the only (points x atoms) array
    bounds = [0, *(i for i in range(1, len(grid))
                   if ((masses[i] > 0.0) != (masses[i - 1] > 0.0)).any()), len(grid)]
    kappa_of = statistic.map
    tiny = np.finfo(float).tiny
    n = space.n_atoms
    blocks = [slice(b, b + _BLOCK) for b in range(0, n, _BLOCK)]  # a run's scratch is per block
    worst = 0.0
    factors = []
    for lo, hi in zip(bounds, bounds[1:]):
        mu_mass = np.zeros(n)
        peaks = []  # each block's first largest variation: (variation, atom, high, low)
        for s in blocks:
            to, support = kappa_of[s], masses[lo, s] > 0.0
            high, low = np.zeros(len(to)), np.full(len(to), np.inf)
            for i in range(lo, hi):
                # source over induced density, (m / w) / (pushed / wp), folded into the
                # run's extremes on the atoms of normal mass
                ratio = masses[i, s] / w[s]
                np.divide(ratio, pushed[i, to] / wp[to], out=ratio, where=support)
                normal = masses[i, s] >= tiny
                np.maximum(high, ratio, out=high, where=normal)
                np.minimum(low, ratio, out=low, where=normal)
                if i == lo:
                    np.multiply(ratio, w[s], out=mu_mass[s], where=support)
            variation = high / low
            variation -= 1.0  # -1 where no mass is normal
            a = int(np.argmax(variation))
            peaks.append((float(variation[a]), s.start + a, high[a], low[a]))
        # np.argmax over the blocks' peaks is its first-occurrence rule over all atoms
        v, j, high_j, low_j = peaks[int(np.argmax([p[0] for p in peaks]))]
        if v > rel_tol:
            # atom j's ratios along the run, formed again to find the witness points
            h = masses[lo:hi, j] / w[j] / (pushed[lo:hi, kappa_of[j]] / wp[kappa_of[j]])
            witness = ConflictWitness(
                xi_a=tuple(grid[lo + int(np.argmax(h == high_j))]),
                xi_b=tuple(grid[lo + int(np.argmax(h == low_j))]),
                atom=space.atoms[j],
                variation=v,
            )
            return FactorizationResult("not-factorizable", v, conflict=witness)
        worst = max(worst, v)
        factors.append(SubgridFactor(
            xi_first=tuple(grid[lo]),
            xi_last=tuple(grid[hi - 1]),
            n_points=hi - lo,
            mu=Measure._adopt(space, mu_mass),
        ))
    del ratio, high, low, variation  # the last block's scratch: not held from here on
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
    del fiber  # a view of the fibers' one (n,) order array

    phi = np.zeros(pushed.shape)
    pushed_mu0 = statistic.push_mass(mu0_mass)
    np.divide(pushed, pushed_mu0, out=phi, where=pushed_mu0 > 0.0)
    # a block of a row at a time: no (points x atoms) reconstruction, nor an (n,) row
    recon = np.max([np.abs(p[kappa_of[s]] * mu0_mass[s] - m[s]).max()
                    for p, m in zip(phi, masses) for s in blocks])
    return FactorizationResult(
        "factorizable", worst, Measure._adopt(space, mu0_mass),
        subgrids=factors, reconstruction_residual=float(recon),
    )
