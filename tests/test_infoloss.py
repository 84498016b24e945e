import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igk import (
    ContractError,
    DomainError,
    ExponentError,
    MarkovKernel,
    Measure,
    ParameterDomain,
    ParametrizedMeasureModel,
    SampleSpace,
    SpaceMismatchError,
    Statistic,
    TransverseFamily,
    as_kernel,
    check_k_integrability,
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
    power_path,
    transverse_measures,
)
from igk.families import bernoulli, ex_suff, ex_suff_projection, gaussian_grid
from igk.infoloss import ConflictWitness, _image, _loss_pair
from igk.markov import _conditional_expectation

from conftest import (
    density_of, exp_family_model, random_kernel, random_onto_statistic, random_space,
)


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
    unit = np.finfo(float).eps  # the image is read from the source's one stencil
    kernel = _split_kernel(model.space)
    for sigma in (1.0, 0.1, 0.05, 0.01):
        for k in range(1, 9):
            for v in ([1.0, 0.0], [0.0, 1.0]):
                xi = [0.0, sigma]
                loss = information_loss(model, kernel, xi, v, k)
                assert abs(loss) <= 64 * unit * k_norm(model, xi, v, k) ** k


def _density_only_model(rng, space, dim):
    """exp(a + s * b.xi) for a random scale s, given by its density alone, so
    that its derivatives come from finite differences."""
    a = rng.uniform(-2.0, 2.0, size=space.n_atoms)
    b = rng.uniform(-1.0, 1.0, size=(space.n_atoms, dim)) * rng.uniform(0.1, 30.0)
    return ParametrizedMeasureModel(ParameterDomain(((-1.0, 1.0),) * dim), space,
                                    density=lambda xi: np.exp(a + b @ xi))


@pytest.mark.parametrize("seed", [*range(12), 234])
def test_density_only_losses_are_nonnegative(seed):
    """Each induced score is the conditional expectation of the source score,
    read from one finite-difference stencil, and each loss is a sum of
    Bregman terms clamped at 0, so no loss is negative. A stencil per model
    would differ by roundoff over the step of about 1e-6. At seed 234, v @ ld
    cancels on the heaviest atom along a random v: v times the conditional
    expectation of each row of ld once gave a difference of norms of
    -2.5e-7 there."""
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(4, 9)), int(rng.integers(1, 4))  # 3n labels at most 26
    model = _density_only_model(rng, random_space(rng, n, weights=True), dim)
    # a congruent family needs the model on the statistic's target
    onto = random_onto_statistic(rng, random_space(rng, 3 * n, weights=True, tag="x"), n)
    onto = Statistic(onto.source, model.space, onto.map)
    family = transverse_measures(onto, Measure(onto.source, rng.uniform(0.1, 1.0, 3 * n)))
    kernels = [random_onto_statistic(rng, model.space, int(rng.integers(1, n))),
               random_kernel(rng, model.space, random_space(rng, 5, tag="t")), family]
    xi = rng.uniform(-0.9, 0.9, size=dim)
    directions = list(np.eye(dim)) + [rng.standard_normal(dim) for _ in range(3)]
    for kernel in kernels:
        for k in (1.0, 2.0, 3.5, 8.0):
            for e in loss_table(model, kernel, [xi], directions, k).entries:
                assert e.loss >= 0.0, (type(kernel).__name__, k, e)
        report = check_monotonicity(model, kernel, xi)
        assert report.passed, (type(kernel).__name__, report.violations, report.eigen_gap)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the reference needs a type wider than float64")
def test_loss_of_a_near_sufficient_merge_is_accurate():
    """Adjacent cells of a Gaussian grid merged 2:1 lose little (relative
    losses down to 1e-8), which the difference of the two norms cancels.
    Against a long-double Bregman sum from the same float64 scores and
    masses, each loss must beat the difference, and the worst by 100x."""
    errors, differences = [], []
    for cells in (20000, 2000):
        model = gaussian_grid(5, cells)
        pairs = SampleSpace(tuple("p{}".format(j) for j in range(cells // 2)))
        kappa = Statistic(model.space, pairs, np.arange(cells) // 2)
        for xi in ([0.1, 1.0], [-0.3, 0.7], [0.2, 1.5]):
            source = jet(model, xi)
            image = _image(source, kappa)
            p = source.measure.mass.astype(np.longdouble).reshape(-1, 2)
            for v in np.eye(2):
                s = source.log_derivative(v).astype(np.longdouble).reshape(-1, 2)
                t = ((p * s).sum(axis=1) / p.sum(axis=1))[:, None]
                for k in (2, 4):
                    bregman = np.abs(s) ** k - np.abs(t) ** k - k * t ** (k - 1) * (s - t)
                    want = (p * bregman).sum()
                    src, ind, loss = _loss_pair(source, image, kappa, v, k)
                    errors.append(float(abs(loss - want) / want))
                    differences.append(float(abs((src - ind) - want) / want))
    assert all(e < d for e, d in zip(errors, differences)), list(zip(errors, differences))
    assert 100 * max(errors) <= max(differences), (max(errors), max(differences))


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
# the image of a jet
# ---------------------------------------------------------------------------

class _CountingStatistic(Statistic):
    """A statistic that counts its pushes, each a mass vector or a batch of rows."""

    def push_mass(self, a):
        object.__setattr__(self, "pushes", getattr(self, "pushes", 0) + 1)
        return Statistic.push_mass(self, a)


@pytest.mark.parametrize("check, pushes", [
    (lambda m, s: loss_table(m, s, [[0.0, 1.0], [0.2, 0.7], [-0.3, 1.5]],
                             [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [-0.8, 0.6]], 2), 6),
    (lambda m, s: is_sufficient(m, s, [[0.0, 1.0], [0.2, 0.7], [-0.3, 1.5]], 2), 6),
    (lambda m, s: check_monotonicity(m, s, [0.2, 0.7]), 2),
    (lambda m, s: equality_direction_check(m, s, [0.2, 0.7], [0.6, 0.8]), 2),
], ids=["loss_table", "is_sufficient", "check_monotonicity", "equality_direction_check"])
def test_one_image_per_grid_point(check, pushes):
    """Each point's image is formed once: its member and one batch of the d score
    rows, read by every direction and order k (3 points, 4 directions: 15 pushes
    when each (direction, k) formed its own conditional expectation)."""
    model = gaussian_grid(5, 400)
    pairs = SampleSpace(tuple("p{}".format(j) for j in range(200)))
    kappa = _CountingStatistic(model.space, pairs, np.arange(400) // 2)
    check(model, kappa)
    assert kappa.pushes == pushes


def _transport_with_zeros(rng, kind, space, n_target):
    """A transport from ``space``: a statistic onto at most ``n_target`` atoms, a kernel
    with zero entries onto ``n_target`` atoms, or a family with zero weights."""
    if kind == "statistic":
        return random_onto_statistic(rng, space, min(n_target, space.n_atoms))
    if kind == "kernel":
        rows = rng.dirichlet(np.ones(n_target), size=space.n_atoms)
        rows[rng.uniform(size=rows.shape) < 0.4] = 0.0
        rows[np.arange(space.n_atoms), rng.integers(0, n_target, space.n_atoms)] += 0.5
        return MarkovKernel(space, random_space(rng, n_target, tag="t"),
                            rows / rows.sum(axis=1)[:, None])
    back = random_onto_statistic(rng, random_space(rng, n_target + space.n_atoms, tag="t"),
                                 space.n_atoms)
    back = Statistic(back.source, space, back.map)
    n = back.source.n_atoms
    weights = rng.uniform(size=n) * (rng.uniform(size=n) < 0.7)
    weights[np.unique(back.map, return_index=True)[1]] = 1.0  # no fiber of zero weight
    sums = np.bincount(back.map, weights=weights)
    return TransverseFamily(back, weights / sums[back.map])


def _model_with_zeros(rng, space, dim):
    """exp(a_i + b_i . xi) on the atoms of a random support, 0 elsewhere."""
    a = rng.uniform(-0.5, 0.5, size=space.n_atoms)
    b = rng.uniform(-1.0, 1.0, size=(space.n_atoms, dim))
    on = rng.uniform(size=space.n_atoms) >= 0.2

    def density_grad(xi):
        dens = np.exp(a + b @ xi) * on
        return dens, (b * dens[:, None]).T

    return ParametrizedMeasureModel(ParameterDomain(((-1.0, 1.0),) * dim), space,
                                    density_grad=density_grad)


@pytest.mark.parametrize("kind", ["statistic", "kernel", "family"])
@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_image_rows_are_one_dimensional_conditional_expectations(kind, seed):
    """Row a of the image's scores is, byte for byte, the conditional expectation of
    the source's row a pushed alone: the batched push adds each target atom's terms in
    the 1-D push's order. So basis directions read the bits one direction's push gave."""
    rng = np.random.default_rng(seed)
    space = random_space(rng, int(rng.integers(1, 9)))
    t = _transport_with_zeros(rng, kind, space, int(rng.integers(1, 9)))
    dim = int(rng.integers(1, 4))
    source = jet(_model_with_zeros(rng, space, dim), rng.uniform(-1.0, 1.0, size=dim))
    image = _image(source, t)
    mass = source.measure.mass
    pushed = t.push_mass(mass)
    assert image.measure.space is t.target
    assert image.measure.mass.tobytes() == pushed.tobytes()
    assert not image.ld.flags.writeable
    for a, e in enumerate(np.eye(dim)):
        want = _conditional_expectation(t, mass, source.ld[a], pushed).tobytes()
        assert image.ld[a].tobytes() == want
        assert image.log_derivative(e).tobytes() == want


def test_equality_direction_check_reads_its_direction_before_its_masses():
    # no atom has normal mass, so the check holds vacuously, but only for a direction
    model = ParametrizedMeasureModel(ParameterDomain(((0.0, 1.0),)), SampleSpace(["a", "b"]),
                                     lambda xi: np.full(2, 1e-310))
    kappa = collapse_statistic(model.space)
    assert equality_direction_check(model, kappa, [0.5], [1.0])
    with pytest.raises(DomainError, match="direction has shape"):
        equality_direction_check(model, kappa, [0.5], [1.0, 0.0])


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_a_non_finite_direction_raises_domain_error(bad):
    """A NaN or infinite direction is rejected by name, not read into a NaN loss or
    norm, a wrong verdict, or a power path's complaint about its coefficients."""
    model, kappa = ex_suff(20, 10), ex_suff_projection(20, 10)
    calls = (
        lambda: information_loss(model, kappa, [0.5], [bad], 2),
        lambda: loss_table(model, kappa, [[0.5]], [[1.0], [bad]], 2),
        lambda: k_norm(model, [0.5], [bad], 2),
        lambda: check_k_integrability(model, [[0.5], [0.6]], [[bad]], 2),
        lambda: equality_direction_check(model, kappa, [0.5], [bad]),
        lambda: power_path(model, [0.5], [bad], 2),
    )
    for call in calls:
        with pytest.raises(DomainError, match=r"direction \[{}\] is not finite".format(bad)):
            call()


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


def test_monotonicity_accepts_a_statistic():
    model = bernoulli()
    collapse = Statistic(model.space, SampleSpace(["z"]), [0, 0])
    # everything collapses, so the induced Fisher information vanishes
    assert check_monotonicity(model, collapse, [0.3]).fisher_induced.tolist() == [[0.0]]


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


def test_orders_that_disagree_give_a_warning_and_the_order_k_verdict():
    # r[i]: the largest loss over max(1, source norm) at k = 2, then at the cross-check's k = 3.
    # A tol in [r[1] / 100, r[0]) fails k = 2 and passes k = 3 at its hundredfold tolerance
    model = bernoulli()
    collapse = collapse_statistic(model.space)
    grid = [[0.2], [0.5], [0.8]]
    tables = [loss_table(model, collapse, grid, [[1.0]], k) for k in (2, 3)]
    r = [max(e.loss / max(1.0, e.source_norm_k) for e in t.entries) for t in tables]
    tol = r[1] / 50
    assert r[1] / 100 <= tol < r[0]
    ok, report = is_sufficient(model, collapse, grid, 2, tol=tol)
    assert not ok
    assert report.warnings == (
        "verdicts disagree between k=2.0 (max loss {}) and k=3.0 (max loss {})".format(
            tables[0].max_loss, tables[1].max_loss),
    )


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
    # atom "1" has ratios 0.2 and 0.6: the largest sits at the run's later point
    assert result.conflict == ConflictWitness(
        xi_a=(0.6,), xi_b=(0.2,), atom="1", variation=1.9999999999999996)
    assert result.residual == 1.9999999999999996


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_verdicts_reject_a_tolerance_that_is_not_a_finite_number_at_least_zero(bad):
    # a NaN compares false: rel_tol=nan once returned "factorizable" for this
    # non-factorizable family, and tol=nan passed every integrability jump
    model, kappa = ex_suff(20, 10), ex_suff_projection(20, 10)
    grid = [[-1.0], [-0.5], [0.0], [0.5], [1.0]]
    verdicts = [
        ("rel_tol", lambda tol: fisher_neyman_check(model, kappa, grid, rel_tol=tol)),
        ("tol", lambda tol: is_sufficient(model, kappa, grid, 2, tol=tol)),
        ("tol", lambda tol: equality_direction_check(model, kappa, [0.5], [1.0], tol=tol)),
        ("tol", lambda tol: check_k_integrability(model, grid, [[1.0]], 2, tol=tol)),
    ]
    for name, verdict in verdicts:
        message = "{} must be a finite number >= 0, got {}".format(name, bad)
        with pytest.raises(ValueError, match="^{}$".format(message)):
            verdict(bad)
        verdict(0.0)  # the boundary stays legal
    assert fisher_neyman_check(model, kappa, grid).status == "not-factorizable"


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
