import math

import numpy as np
import pytest

from igk import (
    ContractError,
    ExponentError,
    MarkovKernel,
    Measure,
    ParameterDomain,
    ParametrizedMeasureModel,
    SampleSpace,
    SpaceMismatchError,
    Statistic,
    as_kernel,
    check_monotonicity,
    congruent_kernel_from_embedding,
    equality_direction_check,
    evaluate,
    fisher_neyman_check,
    information_loss,
    is_sufficient,
    jet,
    k_norm,
    loss_table,
)
from igk.families import bernoulli, ex_suff, ex_suff_projection, gaussian_grid
from igk.infoloss import _loss_pair

from conftest import density_of, exp_family_model, random_kernel, random_space


def identity_kernel(space):
    return MarkovKernel(space, space, np.eye(space.n_atoms))


def collapse_statistic(space):
    point = SampleSpace(["all"])
    return Statistic(space, point, np.zeros(space.n_atoms, dtype=int))


# ---------------------------------------------------------------------------
# loss values
# ---------------------------------------------------------------------------

def test_identity_kernel_loses_nothing():
    model = bernoulli()
    for k in (1.0, 2.0, 3.0):
        assert information_loss(model, identity_kernel(model.space), [0.3], [1.0], k) == 0.0


def test_collapse_loses_all_fisher_information():
    model = bernoulli()
    kappa = collapse_statistic(model.space)
    loss = information_loss(model, kappa, [0.5], [1.0], 2)
    assert loss == pytest.approx(4.0, rel=1e-12)


def test_congruent_kernel_loses_nothing():
    rng = np.random.default_rng(2)
    model = exp_family_model(rng, 6, 2)
    xi = [0.1, -0.2]
    # spread each atom over a three-atom fiber, weighted by a fixed measure
    big = random_space(rng, 18, tag="big")
    kappa = Statistic(big, model.space, np.repeat(np.arange(6), 3))
    base = Measure(big, rng.uniform(0.1, 1.0, size=18))
    section = congruent_kernel_from_embedding(kappa, base)
    for k in (1.0, 1.5, 2.0, 3.0):
        loss = information_loss(model, section, xi, [0.7, 0.7], k)
        assert loss == pytest.approx(0.0, abs=1e-12)


def _split_kernel(space):
    """The congruent kernel sending each atom to two atoms, half to each."""
    n = space.n_atoms
    target = SampleSpace(
        tuple("s{}".format(i) for i in range(2 * n)),
        weights=np.repeat(space.base_masses / 2.0, 2),
    )
    rows = np.zeros((n, 2 * n))
    rows[np.repeat(np.arange(n), 2), np.arange(2 * n)] = 0.5
    return MarkovKernel(space, target, rows)


@pytest.mark.parametrize("analytic", [True, False])
def test_congruent_loss_is_zero_to_relative_roundoff(analytic):
    # at sigma=0.05, k=4 roundoff once gave a loss of -5.6e-9, beyond an
    # absolute floor of -1e-10; the floor is relative to the norms compared
    model = gaussian_grid(5, 400)
    if not analytic:
        model = ParametrizedMeasureModel(model.domain, model.space, density_of(model))
    unit = np.finfo(float).eps / (1.0 if analytic else 1e-6)
    kernel = _split_kernel(model.space)
    for sigma in (1.0, 0.1, 0.05, 0.01):
        for k in range(1, 9):
            for v in ([1.0, 0.0], [0.0, 1.0]):
                xi = [0.0, sigma]
                loss = information_loss(model, kernel, xi, v, k)
                assert abs(loss) <= 64 * unit * k_norm(model, xi, v, k) ** k


def test_negative_loss_beyond_roundoff_raises():
    # an "induced" model whose log-derivative, hence norm, is larger
    space = SampleSpace(["a", "b", "c"])

    def family(scale):
        b = scale * np.array([1.0, -0.5, 0.2])
        return ParametrizedMeasureModel(
            ParameterDomain(((-1.0, 1.0),)), space,
            density_grad=lambda xi: (np.exp(b * xi[0]), (b * np.exp(b * xi[0]))[None, :]),
        )

    with pytest.raises(ContractError) as err:
        _loss_pair(jet(family(1.0), [0.3]), jet(family(1.0 + 1e-9), [0.3]), [1.0], 2)
    assert "xi=[0.3]" in str(err.value) and "np.float64" not in str(err.value)


def test_loss_requires_k_at_least_one():
    model = bernoulli()
    with pytest.raises(ExponentError):
        information_loss(model, identity_kernel(model.space), [0.3], [1.0], 0.5)


@pytest.mark.parametrize("k", [math.inf, math.nan])
def test_order_k_must_be_finite(k):
    model = bernoulli()
    kernel = identity_kernel(model.space)
    with pytest.raises(ExponentError, match="finite k >= 1"):
        loss_table(model, kernel, [[0.3]], [[1.0]], k)
    with pytest.raises(ExponentError, match="finite k > 1"):
        is_sufficient(model, kernel, [[0.3]], k)


def test_loss_table_names_its_empty_input():
    model = bernoulli()
    kernel = identity_kernel(model.space)
    with pytest.raises(ContractError, match="nonempty direction list"):
        loss_table(model, kernel, [[0.3]], [], 2)
    with pytest.raises(ContractError, match="nonempty parameter grid"):
        loss_table(model, kernel, [], [[1.0]], 2)


def test_loss_table_shape_and_argmax():
    model = bernoulli()
    kappa = collapse_statistic(model.space)
    report = loss_table(model, kappa, [[0.2], [0.5]], None, 2)
    assert report.k == 2.0
    assert len(report.entries) == 2
    # loss 1/(xi(1-xi)) is larger at 0.2 than at 0.5
    assert report.argmax == 0
    assert report.max_loss == pytest.approx(1.0 / (0.2 * 0.8), rel=1e-12)
    assert report.entries[1].loss == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ContractError):
        loss_table(model, kappa, [], None, 2)


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------

def test_monotonicity_for_random_kernel():
    rng = np.random.default_rng(4)
    model = exp_family_model(rng, 7, 3)
    target = random_space(rng, 4, tag="t")
    k = random_kernel(rng, model.space, target)
    report = check_monotonicity(model, k, [0.1, 0.2, -0.3])
    assert report.passed
    assert report.violations == ()
    assert report.eigen_gap >= -1e-10
    assert len(report.directions) == 3 + 8
    assert len(report.source_values) == len(report.induced_values) == 11


def test_monotonicity_gap_closes_for_identity():
    model = bernoulli()
    report = check_monotonicity(model, identity_kernel(model.space), [0.4])
    assert report.passed
    assert report.eigen_gap == pytest.approx(0.0, abs=1e-12)


def _gaussian(n_cells, analytic):
    model = gaussian_grid(5, n_cells)
    if analytic:
        return model
    return ParametrizedMeasureModel(model.domain, model.space, density_of(model))


@pytest.mark.parametrize("analytic", [True, False])
@pytest.mark.parametrize("sigma", [1.0, 0.1, 0.01, 0.002])
def test_congruent_monotonicity_holds_to_relative_roundoff(sigma, analytic):
    # g = g' exactly; at sigma=0.002 roundoff once gave 5 violations and an
    # eigen gap of -2.3e-10 against |g| = 1.2e6, beyond an absolute 1e-10
    model = _gaussian(1000, analytic)
    report = check_monotonicity(model, _split_kernel(model.space), [0.1, sigma],
                                n_random=16, seed=3)
    assert report.passed, (report.violations, report.eigen_gap)


class _DerivativeScaling:
    """Not a Markov kernel: keeps every mass but scales its derivatives."""

    def __init__(self, space, factor):
        self.source = self.target = space
        self.factor = factor

    def push_mass(self, a):
        return a if a.ndim == 1 else self.factor * a


@pytest.mark.parametrize("sigma", [1.0, 0.002])
def test_larger_induced_fisher_still_fails_monotonicity(sigma):
    model = _gaussian(1000, True)
    kernel = _DerivativeScaling(model.space, 1.0 + 1e-9)
    report = check_monotonicity(model, kernel, [0.1, sigma], n_random=4)
    assert not report.passed
    assert report.violations == tuple(range(2 + 4))
    assert report.eigen_gap < 0.0


# ---------------------------------------------------------------------------
# sufficiency
# ---------------------------------------------------------------------------

def test_is_sufficient_requires_k_above_one():
    model = bernoulli()
    with pytest.raises(ExponentError):
        is_sufficient(model, identity_kernel(model.space), [[0.3]], 1.0)


def test_identity_is_sufficient_and_collapse_is_not():
    model = bernoulli()
    grid = [[0.2], [0.5], [0.8]]
    ok, report = is_sufficient(model, identity_kernel(model.space), grid, 2)
    assert ok
    assert report.max_loss <= 1e-9
    assert report.warnings == ()
    bad, report = is_sufficient(model, collapse_statistic(model.space), grid, 2)
    assert not bad
    assert report.max_loss > 1.0
    assert report.warnings == ()  # both k agree on the verdict


def test_projection_is_sufficient_for_ex_suff():
    model = ex_suff(20, 10)
    kappa = ex_suff_projection(20, 10)
    grid = [[-1.0], [-0.5], [0.0], [0.5], [1.0]]
    for k in (1.5, 2.0, 3.0):
        ok, report = is_sufficient(model, kappa, grid, k)
        assert ok, "loss {} at k={}".format(report.max_loss, k)
        assert report.warnings == ()


@pytest.mark.parametrize("analytic", [True, False])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("sigma", [1.0, 0.1, 0.02])
def test_congruent_kernel_is_sufficient_at_every_scale(sigma, k, analytic):
    # at sigma=0.02, k=4 a loss of 2.98e-7 against a source norm of 3.7e8
    # (3.6 eps relative) once failed an absolute tol of 1e-9
    model = _gaussian(400, analytic)
    ok, report = is_sufficient(model, _split_kernel(model.space),
                               [[0.0, sigma], [0.1, sigma]], k)
    assert ok, report.max_loss
    assert report.warnings == ()


def test_merging_cells_is_not_sufficient_at_large_scale():
    model = _gaussian(400, True)
    pairs = SampleSpace(tuple("p{}".format(i) for i in range(200)))
    merge = Statistic(model.space, pairs, np.repeat(np.arange(200), 2))
    ok, report = is_sufficient(model, merge, [[0.0, 0.02], [0.1, 0.02]], 4)
    assert not ok
    assert report.warnings == ()


def test_equality_direction_check():
    model = bernoulli()
    ident = Statistic(model.space, model.space, [0, 1])
    assert equality_direction_check(model, ident, [0.3], [1.0])
    assert not equality_direction_check(model, collapse_statistic(model.space), [0.3], [1.0])
    with pytest.raises(ContractError):
        equality_direction_check(model, identity_kernel(model.space), [0.3], [1.0])


def test_sufficiency_matches_equality_condition_on_ex_suff():
    model = ex_suff(16, 8)
    kappa = ex_suff_projection(16, 8)
    for xi in (-0.7, -0.2, 0.3, 0.9):
        assert equality_direction_check(model, kappa, [xi], [1.0])


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

def make_factorizable():
    """Densities of the product form phi(statistic value; xi) * m0."""
    space = SampleSpace(["a1", "a2", "b1", "b2"])
    target = SampleSpace(["a", "b"])
    kappa = Statistic(space, target, [0, 0, 1, 1])
    m0 = np.array([0.1, 0.4, 0.2, 0.3])

    def density(xi):
        phi = np.array([xi[0], xi[0], 1.0, 1.0])
        return phi * m0

    model = ParametrizedMeasureModel(
        ParameterDomain(((0.0, 2.0),)), space, density
    )
    return model, kappa, m0


def test_factorization_needs_the_model_space():
    # same atom count as the statistic's source, other atoms
    model = gaussian_grid(5.0, 200)
    stat = ex_suff_projection(20, 10)
    assert stat.source.n_atoms == model.space.n_atoms
    with pytest.raises(SpaceMismatchError, match="statistic source atoms"):
        fisher_neyman_check(model, stat, [[0.0, 1.0], [0.2, 0.5]])


def test_factorizable_model_is_recognized():
    model, kappa, m0 = make_factorizable()
    result = fisher_neyman_check(model, kappa, [[0.5], [1.0], [1.5]])
    assert result.status == "factorizable"
    assert result.conflict is None
    assert len(result.subgrids) == 1
    assert result.residual <= 1e-12
    assert result.reconstruction_residual <= 1e-12
    # the recovered base measure matches m0 per fiber up to fiber scale
    for j in (0, 1):
        fiber = kappa.fiber(j)
        got = result.mu0.mass[fiber]
        want = m0[fiber]
        np.testing.assert_allclose(got / got.sum(), want / want.sum(), rtol=1e-12)


def test_bernoulli_identity_statistic_factorizes():
    model = bernoulli()
    ident = Statistic(model.space, model.space, [0, 1])
    result = fisher_neyman_check(model, ident, [[0.2], [0.5], [0.8]])
    assert result.status == "factorizable"
    assert result.reconstruction_residual <= 1e-15


def test_varying_ratio_is_caught_within_a_run():
    model = bernoulli()
    kappa = collapse_statistic(model.space)
    result = fisher_neyman_check(model, kappa, [[0.2], [0.6]])
    assert result.status == "not-factorizable"
    assert result.conflict is not None
    assert result.conflict.atom in model.space.atoms
    assert result.conflict.variation > 1.0


def test_cross_run_witness_for_ex_suff():
    model = ex_suff(20, 10)
    kappa = ex_suff_projection(20, 10)
    grid = [[-1.0], [-0.5], [0.0], [0.5], [1.0]]
    result = fisher_neyman_check(model, kappa, grid)
    assert result.status == "not-factorizable"
    # the support pattern changes at 0 and back, giving three runs
    assert len(result.subgrids) == 3
    assert [f.n_points for f in result.subgrids] == [2, 1, 2]
    # witnesses disagree between a negative and a nonnegative parameter
    assert result.conflict.xi_a[0] < 0.0 <= result.conflict.xi_b[0]
    # the clash sits on the half where the profile changes shape (s >= 0)
    i = model.space.index(result.conflict.atom)
    assert model.space.coords[i, 0] >= 0.0


def test_all_zero_model_is_inapplicable():
    space = SampleSpace(["a", "b"])
    target = SampleSpace(["z"])
    model = ParametrizedMeasureModel(
        ParameterDomain(((0.0, 1.0),)), space, lambda xi: np.zeros(2)
    )
    kappa = Statistic(space, target, [0, 0])
    result = fisher_neyman_check(model, kappa, [[0.5]])
    assert result.status == "inapplicable"
    with pytest.raises(ContractError):
        fisher_neyman_check(model, kappa, [])
    with pytest.raises(ContractError):
        fisher_neyman_check(model, as_kernel(kappa), [[0.5]])
