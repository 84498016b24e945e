"""The paper's transport theorems at benchmark scale, through structural transports.

A seeded 4:1 statistic bins 20000 atoms into 5000, as in the benchmark's
``transport-stat`` workload; its transverse family is the congruent kernel
back from 5000 atoms to 20000. Every bound is relative: it scales with the
quantities it compares, and allows c = 64 units of roundoff.
"""

import math
import tracemalloc

import numpy as np
import pytest

from igk import (
    Measure,
    ParameterDomain,
    ParametrizedMeasureModel,
    SampleSpace,
    Statistic,
    amari_chentsov,
    conditional_expectation,
    congruent_kernel_from_embedding,
    equality_direction_check,
    fisher_metric,
    fisher_neyman_check,
    induced_model,
    is_sufficient,
    jet,
    lk_norm,
    loss_table,
)
from igk.families import gaussian_grid

N_SOURCE, N_TARGET = 20000, 5000
ROUNDOFF = 64 * np.finfo(float).eps
SIGMAS = (1.0, 0.1, 0.01)
GRID = [[0.0, 1.0], [0.3, 0.1], [-1.2, 0.01]]  # one point per sigma


def _statistic(seed=0):
    """Seeded 4:1 statistic from gaussian-grid(5,20000) onto 5000 bins."""
    rng = np.random.default_rng(seed)
    source = gaussian_grid(5.0, N_SOURCE).space
    target = gaussian_grid(5.0, N_TARGET).space
    mapping = rng.permutation(np.repeat(np.arange(N_TARGET), N_SOURCE // N_TARGET))
    return Statistic(source, target, mapping)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_conditional_expectation_contracts_lk_at_scale(sigma):
    kappa = _statistic()
    x = kappa.source.coords[:, 0]
    z = (x - 0.2) / sigma
    mu = Measure(kappa.source, np.exp(-0.5 * z * z) / sigma * kappa.source.base_masses)
    # the sigma score, plus noise so that phi is not constant on fibers
    noise = np.random.default_rng(1).standard_normal(N_SOURCE)
    phi = (z * z - 1.0) / sigma + noise
    phi_prime = conditional_expectation(kappa, mu, phi)
    image = Measure(kappa.target, kappa.push_mass(mu.mass))
    for k in (1, 2, 4, 8):
        before = lk_norm(phi, mu, k)
        after = lk_norm(phi_prime, image, k)
        assert after <= before * (1.0 + ROUNDOFF), (k, after, before)


def _factorizing_model(kappa, seed=2):
    """p_i(m, s) = h_i q(y_kappa(i); m, s), q the normal density at bin y."""
    h = np.random.default_rng(seed).uniform(0.5, 2.0, size=N_SOURCE)
    y = kappa.target.coords[kappa.map, 0]

    def density_grad(xi):
        z = (y - xi[0]) / xi[1]
        p = h * np.exp(-0.5 * z * z) / (xi[1] * math.sqrt(2.0 * math.pi))
        return p, np.stack([p * z / xi[1], p * (z * z - 1.0) / xi[1]])

    domain = ParameterDomain(((-math.inf, math.inf), (0.0, math.inf)))
    return ParametrizedMeasureModel(domain, kappa.source, density_grad=density_grad)


def _abs_tensor(model, xi, order):
    """sum_i |ld_a1(i)| ... |ld_an(i)| m_i: the scale of a tensor's roundoff."""
    point = jet(model, xi)
    ld = np.abs([point.log_derivative(v) for v in np.eye(model.domain.dim)])
    m = point.measure.mass
    if order == 2:
        return np.einsum("ai,bi,i->ab", ld, ld, m)
    return np.einsum("ai,bi,ci,i->abc", ld, ld, ld, m)


def test_factorizing_model_loses_nothing_at_scale():
    kappa = _statistic()
    model = _factorizing_model(kappa)
    image = induced_model(model, kappa)
    for k in (1.0, 2.0, 4.0, 8.0):
        for e in loss_table(model, kappa, GRID, None, k).entries:
            bound = ROUNDOFF * max(e.source_norm_k, e.induced_norm_k)
            assert abs(e.loss) <= bound, (k, e)
    for xi in GRID:
        for tensor, order in ((fisher_metric, 2), (amari_chentsov, 3)):
            got = tensor(image, xi).values
            want = tensor(model, xi).values
            scale = _abs_tensor(model, xi, order)
            assert np.all(np.abs(got - want) <= ROUNDOFF * scale), (xi, order)


@pytest.mark.parametrize("k", (1.5, 2.0, 3.0, 8.0))
def test_factorizing_model_is_sufficient_at_scale(k):
    kappa = _statistic()
    verdict, report = is_sufficient(_factorizing_model(kappa), kappa, GRID, k)
    assert verdict and report.warnings == ()


# GRID changes support at every point; the second grid is one run whose two
# points share their support, with subnormal masses at both
@pytest.mark.parametrize("grid", (GRID, [[0.0, 0.1], [1e-9, 0.1]]))
def test_factorizing_model_factorizes_at_scale(grid):
    kappa = _statistic()
    model = _factorizing_model(kappa)
    result = fisher_neyman_check(model, kappa, grid)
    assert result.status == "factorizable", result.conflict
    masses = np.array([jet(model, xi).measure.mass for xi in grid])
    assert result.reconstruction_residual <= ROUNDOFF * masses.max()


def _planted_conflict(kappa):
    """The factorizing model, except that one atom's density gains a factor
    that depends on the mean; its bin sits at -1.2, so its mass is normal
    at every grid point. Returns the model and that atom."""
    model = _factorizing_model(kappa)
    i = int(np.argmin(np.abs(kappa.target.coords[kappa.map, 0] + 1.2)))
    bump = np.ones(N_SOURCE)

    def density(xi):
        bump[i] = math.exp(1e-6 * xi[0])
        return model.density_grad(xi)[0] * bump

    return ParametrizedMeasureModel(model.domain, model.space, density), i


def test_planted_conflict_is_found_at_scale():
    kappa = _statistic()
    planted, i = _planted_conflict(kappa)
    result = fisher_neyman_check(planted, kappa, GRID)
    assert result.status == "not-factorizable"
    assert result.conflict.atom == kappa.source.atoms[i]


def test_equality_condition_holds_at_scale():
    # subnormal masses at the two narrow grid points carry log-derivatives
    # without relative precision; they must not decide the check
    kappa = _statistic()
    model = _factorizing_model(kappa)
    for xi in GRID:
        for v in np.eye(2):
            assert equality_direction_check(model, kappa, xi, v), (xi, v)
    # the planted factor moves the mean log-derivative at one atom by 1e-6
    planted, _ = _planted_conflict(kappa)
    assert not equality_direction_check(planted, kappa, GRID[0], [1.0, 0.0])


# ---------------------------------------------------------------------------
# Chentsov invariance under the congruent kernel
# ---------------------------------------------------------------------------

def _congruent_kernel(seed=3):
    """The family of a seeded base measure along the 4:1 statistic, built
    under tracemalloc: its n x m matrix would take 800 MB."""
    kappa = _statistic()
    mass = np.random.default_rng(seed).uniform(0.5, 2.0, size=N_SOURCE)
    mu = Measure(kappa.source, mass * kappa.source.base_masses)
    tracemalloc.start()
    try:
        family = congruent_kernel_from_embedding(kappa, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6, peak
    return family


def test_congruent_kernel_preserves_tensors_at_scale():
    family = _congruent_kernel()
    model = gaussian_grid(5.0, N_TARGET)
    image = induced_model(model, family)
    assert image.space.n_atoms == N_SOURCE
    for xi in GRID:
        for tensor, order in ((fisher_metric, 2), (amari_chentsov, 3)):
            got = tensor(image, xi).values
            want = tensor(model, xi).values
            scale = np.abs(_abs_tensor(model, xi, order)).max()
            assert np.all(np.abs(got - want) <= ROUNDOFF * scale), (xi, order)
    for k in (1.0, 2.0, 4.0, 8.0):
        for e in loss_table(model, family, GRID, None, k).entries:
            bound = ROUNDOFF * max(e.source_norm_k, e.induced_norm_k)
            assert abs(e.loss) <= bound, (k, e)


@pytest.mark.parametrize("k", (1.5, 2.0, 3.0, 8.0))
def test_congruent_kernel_is_sufficient_at_scale(k):
    verdict, report = is_sufficient(gaussian_grid(5.0, N_TARGET), _congruent_kernel(), GRID, k)
    assert verdict and report.warnings == ()


@pytest.mark.parametrize("sigma", SIGMAS)
def test_conditional_expectation_through_congruent_kernel_keeps_lk(sigma):
    family = _congruent_kernel()
    y = family.source.coords[:, 0]
    z = (y - 0.2) / sigma
    mu = Measure(family.source, np.exp(-0.5 * z * z) / sigma * family.source.base_masses)
    phi = (z * z - 1.0) / sigma + np.random.default_rng(1).standard_normal(N_TARGET)
    phi_prime = conditional_expectation(family, mu, phi)
    image = Measure(family.target, family.push_mass(mu.mass))
    for k in range(1, 9):
        before = lk_norm(phi, mu, k)
        after = lk_norm(phi_prime, image, k)
        assert abs(after - before) <= ROUNDOFF * before, (k, after, before)
