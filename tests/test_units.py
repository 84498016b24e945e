"""Verdicts do not depend on units.

Multiply every member of a model by c = 2**e, and the Fisher metric, every tau_n and
every order-k loss scale by c. Rescale the coordinate t1 by s = 2**e (the model read at
t1 = s * u), and an entry of an order-n tensor scales by s once for each of its indices
on u. A power-of-two factor is exact in floating point, so these values scale bit for
bit, and no verdict may move: sufficiency, the equality condition, monotonicity,
factorization, k-integrability and domination are statements about the measures, not
about their units.

Only models with analytic gradients are used here: a finite-difference step is in the
parameter's units, so it moves with them.
"""

import numpy as np
import pytest

from igk import (
    ContractError,
    DominationError,
    ParameterDomain,
    ParametrizedMeasureModel,
    ProbabilityMeasure,
    SampleSpace,
    Statistic,
    amari_chentsov,
    check_k_integrability,
    check_monotonicity,
    equality_direction_check,
    evaluate,
    fisher_metric,
    fisher_neyman_check,
    is_sufficient,
    jet,
    loss_table,
    tau_tensor,
)
from igk.families import bernoulli, ex_suff, ex_suff_projection, gaussian_grid
from igk.serialize import model_from_obj

MASS_EXPONENTS = (-200, -60, -20, 20, 60, 200)
T1_EXPONENTS = (-40, -20, 20, 40)


def two_bins(space):
    """The statistic that keeps only the sign of an atom's coordinate."""
    target = SampleSpace(["below", "above"])
    return Statistic(space, target, (space.coords[:, 0] >= 0.0).astype(int))


def one_point(space):
    return Statistic(space, SampleSpace(["all"]), np.zeros(space.n_atoms, dtype=int))


def dsl_normal():
    model = model_from_obj({
        "domain": {"bounds": [["-inf", "inf"], [0, "inf"]]},
        "space": {"grid": {"interval": [-5.0, 5.0], "points": 200}},
        "density": "exp(-0.5*((x1-t1)/t2)^2)/(t2*2.5066282746310002)",
    })
    assert model.density_grad is not None  # a symbolic gradient, not finite differences
    return model


NORMAL_GRID = [[-0.3, 0.8], [0.1, 1.0], [0.4, 1.3], [0.5, 0.4]]


def case(name):
    """(model, statistic, grid) for each model under test."""
    if name == "bernoulli":
        model = bernoulli()
        return model, one_point(model.space), [[0.2], [0.5], [0.8]]
    if name == "gaussian-grid":
        model = gaussian_grid(5, 200)
        return model, two_bins(model.space), NORMAL_GRID
    if name == "ex-suff":
        return ex_suff(20, 10), ex_suff_projection(20, 10), [[-0.6], [-0.25], [0.0], [0.3], [0.7]]
    model = dsl_normal()
    return model, two_bins(model.space), NORMAL_GRID


CASES = ("bernoulli", "gaussian-grid", "ex-suff", "dsl-normal")


def scaled(model, c):
    """The model whose member at each point is c times that of ``model``."""
    def density_grad(xi):
        p, g = model.density_grad(xi)
        return p * c, g * c

    return ParametrizedMeasureModel(model.domain, model.space, density_grad=density_grad)


def rescaled(model, s):
    """``model`` in the coordinate u of t1 = s * u: its partials along u are s times those
    along t1."""
    (lo, hi), *rest = model.domain.bounds

    def density_grad(u):
        xi = np.array(u, dtype=float)
        xi[0] *= s
        p, g = model.density_grad(xi)
        g = np.array(g, dtype=float)
        g[0] *= s
        return p, g

    return ParametrizedMeasureModel(((lo / s, hi / s), *rest), model.space,
                                    density_grad=density_grad, statistical=model.statistical)


def in_u(grid, s):
    return [[x[0] / s, *x[1:]] for x in grid]


def t1_factor(order, dim, s):
    """s once for each index of an order-n tensor entry on t1."""
    factor = np.ones((dim,) * order)
    for axis in range(order):
        shape = [1] * order
        shape[axis] = dim
        factor = factor * np.where(np.arange(dim) == 0, s, 1.0).reshape(shape)
    return factor


# ---------------------------------------------------------------------------
# values scale bit for bit
# ---------------------------------------------------------------------------

TENSORS = (fisher_metric, amari_chentsov, lambda m, xi: tau_tensor(m, xi, 4))


@pytest.mark.parametrize("e", MASS_EXPONENTS)
@pytest.mark.parametrize("name", CASES)
def test_tensors_scale_with_the_members(name, e):
    model, _, grid = case(name)
    c = 2.0 ** e
    for xi in grid:
        for tensor in TENSORS:
            np.testing.assert_array_equal(
                tensor(scaled(model, c), xi).values, c * tensor(model, xi).values)


@pytest.mark.parametrize("e", T1_EXPONENTS)
@pytest.mark.parametrize("name", CASES)
def test_tensors_transform_as_tensors(name, e):
    model, _, grid = case(name)
    s = 2.0 ** e
    dim = model.domain.dim
    for xi, u in zip(grid, in_u(grid, s)):
        for order, tensor in zip((2, 3, 4), TENSORS):
            np.testing.assert_array_equal(
                tensor(rescaled(model, s), u).values,
                t1_factor(order, dim, s) * tensor(model, xi).values)


def assert_losses_scale(report, base, factor):
    """Each loss is ``factor`` times its base, bit for bit. A norm^k is a k-th root raised
    to the k-th power: at k = 2 its square root scales exactly under an even power of two,
    but libm's ``pow`` is not correctly rounded (``2559.9999999999995 ** 2.0`` misses by
    1 ulp, ``2.4999999999999996 ** 2.0`` does not), so the norms are held to 1 ulp."""
    def columns(r):
        return np.array([(e.source_norm_k, e.induced_norm_k, e.loss) for e in r.entries]).T
    src, ind, loss = columns(report)
    base_src, base_ind, base_loss = columns(base) * factor
    np.testing.assert_array_equal(loss, base_loss)
    if report.k == 2.0:
        np.testing.assert_array_max_ulp(src, base_src, maxulp=1)
        np.testing.assert_array_max_ulp(ind, base_ind, maxulp=1)


@pytest.mark.parametrize("e", MASS_EXPONENTS)
@pytest.mark.parametrize("name", CASES)
def test_losses_scale_with_the_members(name, e):
    model, statistic, grid = case(name)
    c = 2.0 ** e
    for k in (1.5, 2.0, 3.0):
        assert_losses_scale(loss_table(scaled(model, c), statistic, grid, None, k),
                            loss_table(model, statistic, grid, None, k), c)


@pytest.mark.parametrize("e", T1_EXPONENTS)
@pytest.mark.parametrize("name", CASES)
def test_losses_scale_with_t1(name, e):
    model, statistic, grid = case(name)
    s = 2.0 ** e
    base = loss_table(model, statistic, grid, None, 2)
    # entries run over the grid, then the basis: along t1 a loss of order 2 scales by s^2
    factor = np.array([s * s if entry.direction[0] else 1.0 for entry in base.entries])
    assert_losses_scale(loss_table(rescaled(model, s), statistic, in_u(grid, s), None, 2),
                        base, factor)


def integrability(model, grid):
    return check_k_integrability(model, grid, np.eye(model.domain.dim), 2, tol=0.2)


@pytest.mark.parametrize("name", CASES)
def test_integrability_scales_and_its_flags_stay(name):
    model, _, grid = case(name)
    base = integrability(model, grid)
    assert 0.0 < base.max_jump
    for e in MASS_EXPONENTS:
        report = integrability(scaled(model, 2.0 ** e), grid)
        np.testing.assert_array_equal(report.values, 2.0 ** (e // 2) * base.values)
        assert (report.flagged, report.max_jump, report.max_jump_at) == (
            base.flagged, base.max_jump, base.max_jump_at)
    for e in T1_EXPONENTS:
        s = 2.0 ** e
        report = integrability(rescaled(model, s), in_u(grid, s))
        np.testing.assert_array_equal(report.values, base.values * t1_factor(1, len(grid[0]), s))
        assert (report.flagged, report.max_jump, report.max_jump_at) == (
            base.flagged, base.max_jump, base.max_jump_at)


def test_some_integrability_check_flags_a_jump():
    # the comparisons above mean something only if some report flags a jump
    assert any(integrability(model, grid).flagged for model, _, grid in map(case, CASES))


# ---------------------------------------------------------------------------
# verdicts stay put
# ---------------------------------------------------------------------------

def verdicts(model, statistic, grid):
    dim = model.domain.dim
    return (
        is_sufficient(model, statistic, grid, 2)[0],
        tuple(equality_direction_check(model, statistic, xi, v)
              for xi in grid for v in np.eye(dim)),
        tuple(check_monotonicity(model, statistic, xi, n_random=2).passed for xi in grid),
        fisher_neyman_check(model, statistic, grid).status,
    )


EXPECTED = {
    # (sufficient, equality at each point and basis direction, monotone, factorization)
    "bernoulli": (False, (False,) * 3, (True,) * 3, "not-factorizable"),
    "gaussian-grid": (False, (False,) * 8, (True,) * 4, "not-factorizable"),
    "ex-suff": (True, (True,) * 5, (True,) * 5, "not-factorizable"),
    "dsl-normal": (False, (False,) * 8, (True,) * 4, "not-factorizable"),
}


@pytest.mark.parametrize("name", CASES)
def test_verdicts_do_not_move_with_the_members(name):
    model, statistic, grid = case(name)
    assert verdicts(model, statistic, grid) == EXPECTED[name]
    for e in MASS_EXPONENTS:
        assert verdicts(scaled(model, 2.0 ** e), statistic, grid) == EXPECTED[name], e


@pytest.mark.parametrize("name", CASES)
def test_verdicts_do_not_move_with_t1(name):
    model, statistic, grid = case(name)
    for e in T1_EXPONENTS:
        s = 2.0 ** e
        assert verdicts(rescaled(model, s), statistic, in_u(grid, s)) == EXPECTED[name], e


def undominated():
    """Members on two atoms, (t, 1) near t = 0: the one at 0 does not dominate the others."""
    return ParametrizedMeasureModel(
        ParameterDomain(((-1.0, 1.0),)), SampleSpace(["a", "b"]),
        density_grad=lambda xi: (np.array([xi[0], 1.0]), np.array([[1.0, 0.0]])),
    )


@pytest.mark.parametrize("e", (0, *MASS_EXPONENTS))
def test_domination_does_not_move_with_the_members(e):
    with pytest.raises(DominationError, match="t1"):
        jet(scaled(undominated(), 2.0 ** e), [0.0])
    # a zero-mass atom whose derivative is 0 as well is dominated at every scale
    model, _, _ = case("ex-suff")
    point = jet(scaled(model, 2.0 ** e), [0.0])
    assert (point.measure.mass == 0.0).any() and not point.ld.any()


# ---------------------------------------------------------------------------
# the flips that an absolute floor of 1 made
# ---------------------------------------------------------------------------

def test_one_point_statistic_stays_insufficient_at_small_mass():
    model = gaussian_grid(5, 200)
    statistic = one_point(model.space)
    ok, report = is_sufficient(model, statistic, [[0.0, 1.0]], 2)
    small_ok, small = is_sufficient(scaled(model, 2.0 ** -60), statistic, [[0.0, 1.0]], 2)
    assert small.max_loss == 2.0 ** -60 * report.max_loss
    assert not ok and not small_ok


def test_two_bin_equality_fails_in_small_units_of_t1():
    model = gaussian_grid(5, 200)
    s = 2.0 ** -40
    assert not equality_direction_check(model, two_bins(model.space), [0.1, 1.0], [1.0, 0.0])
    assert not equality_direction_check(
        rescaled(model, s), two_bins(model.space), [0.1 / s, 1.0], [1.0, 0.0])


def test_small_members_that_are_not_dominated_raise():
    model = scaled(undominated(), 2.0 ** -40)
    with pytest.raises(DominationError, match="t1"):
        fisher_metric(model, [0.0])


@pytest.mark.parametrize("err", (0.0, 4e-13, 5e-11, 2e-10))
def test_one_sums_to_one_rule(err):
    # 4 terms: a sum may miss 1 by max(1e-12, 4 eps) = 1e-12, for a measure and a model alike
    space = SampleSpace(["a", "b", "c", "d"])
    mass = np.array([0.25, 0.25, 0.25, 0.25 + err])
    model = ParametrizedMeasureModel(
        ParameterDomain(((0.0, 1.0),)), space, lambda xi: mass, statistical=True)
    accepted = []
    for build, error in ((lambda: ProbabilityMeasure(space, mass), ValueError),
                         (lambda: evaluate(model, [0.5]), ContractError)):
        try:
            build()
            accepted.append(True)
        except error:
            accepted.append(False)
    assert accepted == [err < 1e-12] * 2
