import math

import numpy as np
import pytest

from igk import (
    DomainError,
    UnknownIdentifierError,
    evaluate,
    fisher_metric,
    log_derivative,
    mass_gradient,
    induced_model,
    pushforward,
)
from igk.families import (
    BUILTIN_NAMES,
    bernoulli,
    build,
    categorical,
    ex41,
    ex_suff,
    ex_suff_projection,
    gaussian_grid,
    midpoint_grid,
)
from igk.models import ParametrizedMeasureModel

from conftest import density_of


def fd_mass_gradient(model, xi):
    blind = ParametrizedMeasureModel(model.domain, model.space, density_of(model))
    return mass_gradient(blind, np.atleast_1d(np.asarray(xi, dtype=float)))


def test_midpoint_grid():
    points, width = midpoint_grid(0.0, 1.0, 4)
    np.testing.assert_allclose(points, [0.125, 0.375, 0.625, 0.875])
    assert width == 0.25
    with pytest.raises(DomainError):
        midpoint_grid(0.0, 1.0, 0)


def test_categorical_simplex():
    model = categorical(3)
    assert model.domain.dim == 2
    mu = evaluate(model, [0.5, 0.4])
    np.testing.assert_allclose(mu.mass, [0.5, 0.4, 0.1])
    with pytest.raises(DomainError):
        evaluate(model, [0.6, 0.5])
    with pytest.raises(DomainError):
        categorical(1)


def test_categorical_fisher_closed_form():
    model = categorical(3)
    p = np.array([0.2, 0.3, 0.5])
    g = fisher_metric(model, p[:2]).values
    expected = np.diag(1.0 / p[:2]) + 1.0 / p[2]
    np.testing.assert_allclose(g, expected, rtol=1e-12)


def test_gaussian_grid_quadrature():
    model = gaussian_grid()
    assert not model.statistical
    mu = evaluate(model, [0.0, 1.0])
    assert mu.total() == pytest.approx(1.0, abs=1e-4)
    # standard location-scale information matrix, up to truncation error
    g = fisher_metric(model, [0.0, 1.0]).values
    np.testing.assert_allclose(g, [[1.0, 0.0], [0.0, 2.0]], atol=1e-3)


def test_gaussian_grid_gradient_is_analytic():
    model = gaussian_grid(half_width=4.0, n_cells=80)
    xi = [0.3, 1.2]
    np.testing.assert_allclose(
        mass_gradient(model, xi), fd_mass_gradient(model, xi), rtol=1e-6, atol=1e-12
    )


def test_ex41_member_at_zero_is_uniform():
    model = ex41(100)
    mu = evaluate(model, [0.0])
    np.testing.assert_allclose(mu.mass, np.full(100, math.pi / 100))
    np.testing.assert_allclose(log_derivative(model, [0.0], [1.0]), 0.0)


def test_ex41_gradient_matches_finite_differences():
    model = ex41(400)
    for xi in (1.0, 0.5, -0.5):
        np.testing.assert_allclose(
            mass_gradient(model, [xi]),
            fd_mass_gradient(model, [xi]),
            rtol=1e-4,
            atol=1e-9,
        )


def test_ex41_density_is_bounded_between_1_and_1_plus_xi():
    model = ex41(300)
    for xi in (1.0, 0.25):
        dens = model.density_grad(np.array([xi]))[0]
        assert np.all(dens >= 1.0 - 1e-12)
        assert np.all(dens <= 1.0 + xi + 1e-12)


def test_ex_suff_is_statistical_everywhere():
    model = ex_suff(20, 10)
    for xi in (-1.0, -0.3, 0.0, 0.3, 1.0):
        assert evaluate(model, [xi]).total() == pytest.approx(1.0, abs=1e-12)


def test_ex_suff_continuous_at_zero():
    model = ex_suff(20, 10)
    at_zero = evaluate(model, [0.0]).mass
    for eps in (1e-8, -1e-8):
        np.testing.assert_allclose(evaluate(model, [eps]).mass, at_zero, atol=1e-12)
    # the flat member at 0 carries no information
    np.testing.assert_allclose(log_derivative(model, [0.0], [1.0]), 0.0)


def test_ex_suff_gradient_matches_finite_differences():
    model = ex_suff(20, 10)
    for xi in (0.7, -0.7):
        np.testing.assert_allclose(
            mass_gradient(model, [xi]),
            fd_mass_gradient(model, [xi]),
            rtol=1e-6,
            atol=1e-12,
        )


def test_ex_suff_projection_is_the_first_coordinate():
    model = ex_suff(8, 5)
    kappa = ex_suff_projection(8, 5)
    assert kappa.source == model.space
    assert kappa.target.n_atoms == 8
    # pushing a member along the statistic matches the induced family
    ind = induced_model(model, kappa)
    np.testing.assert_allclose(
        evaluate(ind, [0.4]).mass, pushforward(kappa, evaluate(model, [0.4])).mass
    )


# ---------------------------------------------------------------------------
# the one density_grad callable against the separate closures it replaced
# ---------------------------------------------------------------------------

def _reference_closures(name, model):
    """The builtin's former ``density`` and gradient-only ``grad``, verbatim."""
    if name == "bernoulli":
        def density(xi):
            p = float(xi[0])
            return np.array([p, 1.0 - p])

        def grad(xi):
            return np.array([[1.0, -1.0]])

    elif name == "categorical":
        n = model.space.n_atoms
        d = n - 1

        def density(xi):
            xi = np.asarray(xi, dtype=float)
            rest = 1.0 - xi.sum()
            if rest <= 0.0:
                raise DomainError(
                    "probabilities sum to {} >= 1 at xi={}".format(xi.sum(), xi.tolist())
                )
            return np.concatenate([xi, [rest]])

        def grad(xi):
            g = np.zeros((d, n))
            g[:, :d] = np.eye(d)
            g[:, d] = -1.0
            return g

    elif name == "gaussian-grid":
        x = model.space.coords[:, 0]

        def density(xi):
            m, s = float(xi[0]), float(xi[1])
            z = (x - m) / s
            return np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))

        def grad(xi):
            m, s = float(xi[0]), float(xi[1])
            p = density(xi)
            z = (x - m) / s
            dm = p * z / s
            ds = p * (z * z - 1.0) / s
            return np.stack([dm, ds])

    elif name == "ex4.1":
        t = model.space.coords[:, 0]
        floor = 1e-280

        def _bump(xi):
            theta = t - 1.0 / xi
            s2 = np.sin(theta) ** 2
            with np.errstate(all="ignore"):
                g = np.where(s2 > floor, s2 ** (1.0 / (xi * xi)), 0.0)
            return theta, s2, g

        def density(xi):
            x = float(xi[0])
            if x == 0.0:
                return np.ones_like(t)
            _, _, g = _bump(x)
            return 1.0 + x * g

        def grad(xi):
            x = float(xi[0])
            if x == 0.0:
                return np.zeros((1, len(t)))
            theta, s2, g = _bump(x)
            live = (g > 0.0) & (s2 > floor)
            dg = np.zeros_like(g)
            with np.errstate(all="ignore"):
                term = (
                    -2.0 * np.log(s2, where=live, out=np.zeros_like(s2)) / x ** 3
                    + np.sin(2.0 * theta) / (s2 * x ** 4)
                )
                np.multiply(g, term, out=dg, where=live)
            return (g + x * dg)[None, :]

    else:
        space = model.space
        pos = space.coords[:, 0] >= 0.0
        tc = space.coords[:, 1]

        def h_of(x):
            return math.exp(-1.0 / abs(x)) if x != 0.0 else 0.0

        def density(xi):
            x = float(xi[0])
            h = h_of(x)
            out = np.where(pos, h, 1.0 - h)
            if x < 0.0:
                out = np.where(pos, 2.0 * tc * h, 1.0 - h)
            return out

        def grad(xi):
            x = float(xi[0])
            if x == 0.0:
                return np.zeros((1, space.n_atoms))
            h = h_of(x)
            dh = math.copysign(h / (x * x), x)
            row = np.where(pos, dh, -dh)
            if x < 0.0:
                row = np.where(pos, 2.0 * tc * dh, -dh)
            return row[None, :]

    return density, grad


def _reference_points(name, rng):
    if name == "bernoulli":
        return [[v] for v in [*rng.uniform(0.0, 1.0, 8), 1e-300, 1.0 - 1e-16]]
    if name == "categorical":
        inner = rng.dirichlet(np.ones(4), 8)[:, :3]
        # near the boundary: a vanishing coordinate, and a remainder of 1e-12
        edge = [[1e-300, 0.5, 0.25], [0.5, 0.25, 0.25 - 1e-12], [1e-17, 1e-17, 1.0 - 1e-12]]
        return [*inner, *edge]
    if name == "gaussian-grid":
        return np.column_stack([rng.uniform(-2.0, 2.0, 8), rng.uniform(0.05, 3.0, 8)])
    if name == "ex4.1":
        return [[v] for v in [0.0, -0.0, 1e-3, 0.25, *rng.uniform(-0.9, 2.0, 8)]]
    return [[v] for v in [0.0, -0.0, 1e-8, -1e-8, *rng.normal(0.0, 1.0, 8)]]


@pytest.mark.parametrize("spec", [
    "bernoulli", "categorical(4)", "gaussian-grid(5,200)", "ex4.1(300)", "ex-suff(20,10)",
])
def test_density_grad_reproduces_the_separate_closures_bitwise(spec):
    name = spec.split("(")[0]
    model = build(spec)
    density, grad = _reference_closures(name, model)
    for xi in _reference_points(name, np.random.default_rng(5)):
        xi = np.asarray(xi, dtype=float)
        dens, jac = model.density_grad(xi)
        want_dens, want_jac = density(xi), grad(xi)
        assert dens.shape == want_dens.shape and jac.shape == want_jac.shape
        # tobytes, not ==, so that -0.0 and 0.0 count as different
        assert dens.tobytes() == want_dens.tobytes(), (spec, xi)
        assert jac.tobytes() == want_jac.tobytes(), (spec, xi)


def test_build_parses_names_and_arguments():
    assert build("bernoulli").name == "bernoulli"
    assert build("categorical(4)").space.n_atoms == 4
    assert build("gaussian-grid(4, 50)").space.n_atoms == 50
    assert build("ex4.1(64)").space.n_atoms == 64
    assert build(" ex-suff(6,3) ").space.n_atoms == 18
    assert set(BUILTIN_NAMES) == {
        "bernoulli", "categorical", "ex-suff", "ex4.1", "gaussian-grid",
    }


@pytest.mark.parametrize("spec", [
    "categorical(4.7)", "gaussian-grid(5,200.5)", "ex4.1(64.5)",
    "ex-suff(6.5,3)", "ex-suff(6,3.5)", "categorical(inf)",
])
def test_build_rejects_fractional_counts(spec):
    # int() once truncated these silently: categorical(4.7) had 4 atoms
    with pytest.raises(DomainError, match="must be an integer"):
        build(spec)


def test_build_rejects_garbage():
    with pytest.raises(UnknownIdentifierError, match="available"):
        build("poisson")
    with pytest.raises(UnknownIdentifierError):
        build("categorical(two)")
    with pytest.raises(UnknownIdentifierError):
        build("categorical(3")
