import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igk import (
    ContractError,
    DomainError,
    DominationError,
    ExponentError,
    MarkovKernel,
    NegativeDensityError,
    ParameterDomain,
    ParametrizedMeasureModel,
    SampleSpace,
    TensorValue,
    amari_chentsov,
    canonical_tensor,
    check_k_integrability,
    evaluate,
    fisher_metric,
    jet,
    k_norm,
    log_derivative,
    mass_gradient,
    power_path,
    tau_n,
    tau_tensor,
)
from igk.families import bernoulli

from conftest import density_of, exp_family_model


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

def test_domain_membership_is_strictly_open():
    dom = ParameterDomain(((0.0, 1.0), (-math.inf, math.inf)))
    assert dom.dim == 2
    assert dom.contains([0.5, 100.0])
    assert not dom.contains([0.0, 0.0])
    assert not dom.contains([1.0, 0.0])
    assert not dom.contains([0.5])
    with pytest.raises(DomainError):
        ParameterDomain(((1.0, 1.0),))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_bernoulli_evaluate():
    model = bernoulli()
    mu = evaluate(model, [0.25])
    np.testing.assert_allclose(mu.mass, [0.25, 0.75])
    with pytest.raises(DomainError):
        evaluate(model, [0.0])
    with pytest.raises(DomainError):
        evaluate(model, [1.1])


def test_evaluate_contract_checks():
    space = SampleSpace(["a", "b"])
    dom = ParameterDomain(((0.0, 1.0),))
    negative = ParametrizedMeasureModel(dom, space, lambda xi: np.array([-1.0, 1.0]))
    with pytest.raises(NegativeDensityError):
        evaluate(negative, [0.5])
    wrong_shape = ParametrizedMeasureModel(dom, space, lambda xi: np.ones(3))
    with pytest.raises(ContractError):
        evaluate(wrong_shape, [0.5])
    fake_statistical = ParametrizedMeasureModel(
        dom, space, lambda xi: np.array([1.0, 1.0]), statistical=True
    )
    with pytest.raises(ContractError):
        evaluate(fake_statistical, [0.5])


def test_statistical_mass_check_scales_with_the_space():
    # 500000 terms may miss 1 by 500000 * eps = 1.1e-10 in roundoff, past the 1e-12 floor
    n = 500_000
    space = SampleSpace(np.arange(n))
    dom = ParameterDomain(((0.0, 1.0),))
    for over, ok in ((1.05e-10, True), (1.2e-10, False)):
        model = ParametrizedMeasureModel(
            dom, space, lambda xi, over=over: np.full(n, 1 / n) * (1 + over), statistical=True
        )
        if ok:
            evaluate(model, [0.5])
        else:
            with pytest.raises(ContractError, match="total mass"):
                evaluate(model, [0.5])


def test_model_takes_exactly_one_callable():
    space = SampleSpace(["a", "b"])
    dom = ParameterDomain(((0.0, 1.0),))
    with pytest.raises(TypeError, match="exactly one"):
        ParametrizedMeasureModel(dom, space)
    with pytest.raises(TypeError, match="exactly one"):
        ParametrizedMeasureModel(
            dom, space, lambda xi: np.ones(2),
            density_grad=lambda xi: (np.ones(2), np.zeros((1, 2))),
        )


def test_density_grad_contract_checks():
    space = SampleSpace(["a", "b"])
    dom = ParameterDomain(((0.0, 1.0),))
    results = (
        np.zeros((1, 2)),  # a gradient alone
        [np.ones(2), np.zeros((1, 2))],  # a pair is a tuple
        (np.ones(2),),
        (np.ones(2), np.zeros((1, 2)), None),
        (np.ones(2), np.zeros((2, 2))),  # a Jacobian of the wrong shape
        (np.ones(3), np.zeros((1, 3))),
    )
    for result in results:
        model = ParametrizedMeasureModel(dom, space, density_grad=lambda xi, r=result: r)
        for call in (evaluate, mass_gradient, jet):
            with pytest.raises(ContractError):
                call(model, [0.5])


def test_evaluate_uses_base_weights():
    space = SampleSpace(["a", "b"], weights=[0.5, 2.0])
    model = ParametrizedMeasureModel(
        ParameterDomain(((0.0, 2.0),)), space, lambda xi: np.array([xi[0], xi[0]])
    )
    np.testing.assert_allclose(evaluate(model, [1.0]).mass, [0.5, 2.0])


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_bernoulli_log_derivative():
    model = bernoulli()
    ld = log_derivative(model, [0.25], [1.0])
    np.testing.assert_allclose(ld, [4.0, -4.0 / 3.0])


def test_log_derivative_zero_on_null_atoms():
    space = SampleSpace(["a", "b"])
    model = ParametrizedMeasureModel(
        ParameterDomain(((0.0, 1.0),)),
        space,
        density_grad=lambda xi: (np.array([xi[0], 0.0]), np.array([[1.0, 0.0]])),
    )
    np.testing.assert_allclose(log_derivative(model, [0.5], [1.0]), [2.0, 0.0])


def test_log_derivative_detects_broken_domination():
    space = SampleSpace(["a", "b"])
    model = ParametrizedMeasureModel(
        ParameterDomain(((0.0, 1.0),)),
        space,
        density_grad=lambda xi: (np.array([xi[0], 0.0]), np.array([[1.0, 1.0]])),
    )
    with pytest.raises(DominationError, match="'b'"):
        log_derivative(model, [0.5], [1.0])


def test_finite_difference_fallback_matches_analytic():
    rng = np.random.default_rng(3)
    model = exp_family_model(rng, 5, 2)
    blind = ParametrizedMeasureModel(
        model.domain, model.space, density_of(model), statistical=False
    )
    xi = np.array([0.3, -0.4])
    np.testing.assert_allclose(
        mass_gradient(blind, xi), mass_gradient(model, xi), rtol=1e-8
    )
    np.testing.assert_allclose(
        log_derivative(blind, xi, [1.0, 2.0]),
        log_derivative(model, xi, [1.0, 2.0]),
        rtol=1e-8,
    )


def test_finite_difference_respects_open_bounds():
    # near the boundary the step must shrink instead of leaving the domain
    space = SampleSpace(["a"])
    model = ParametrizedMeasureModel(
        ParameterDomain(((0.0, 1.0),)), space, lambda xi: np.array([xi[0] ** 2])
    )
    xi = np.array([1e-8])
    g = mass_gradient(model, xi)
    np.testing.assert_allclose(g, [[2e-8]], rtol=1e-3)


def test_k_norm_values():
    model = bernoulli()
    xi = [0.25]
    # sqrt(0.25*16 + 0.75*16/9) = sqrt(16/3)
    assert k_norm(model, xi, [1.0], 2) == pytest.approx(math.sqrt(16.0 / 3.0))
    assert k_norm(model, xi, [1.0], math.inf) == 4.0


# ---------------------------------------------------------------------------
# integrability probe
# ---------------------------------------------------------------------------

def test_check_k_integrability_smooth_model_passes():
    model = bernoulli()
    grid = [[x] for x in np.linspace(0.2, 0.8, 13)]
    report = check_k_integrability(model, grid, [[1.0]], 2)
    assert report.passed
    assert report.flagged == ()
    assert report.values.shape == (13, 1)


def test_check_k_integrability_rejects_a_nan_order():
    # it passed, with every value NaN
    grid = [[x] for x in np.linspace(0.2, 0.8, 3)]
    with pytest.raises(ValueError, match="k must be >= 1"):
        check_k_integrability(bernoulli(), grid, [[1.0]], math.nan)


@pytest.mark.parametrize("grid, directions, k, what", [
    ([], [[1.0]], 0.5, "parameter grid"),
    ([[0.3]], [], math.nan, "direction list"),
])
def test_check_k_integrability_needs_a_point_and_a_direction(grid, directions, k, what):
    # with nothing to check it once passed, without reading k
    with pytest.raises(ContractError, match="needs a nonempty " + what):
        check_k_integrability(bernoulli(), grid, directions, k)


def test_check_k_integrability_flags_jumps():
    space = SampleSpace(["a", "b"])

    def density_grad(xi):
        scale = 100.0 if xi[0] > 0.5 else 0.1
        return np.array([1.0, 1.0]), np.array([[scale, -scale]])

    model = ParametrizedMeasureModel(
        ParameterDomain(((0.0, 1.0),)),
        space,
        density_grad=density_grad,
    )
    report = check_k_integrability(model, [[0.4], [0.6]], [[1.0]], 2)
    assert not report.passed
    assert report.flagged == ((0, 0),)
    assert report.max_jump_at == (0, 0)


def test_check_k_integrability_reports_grid_point_on_domination_failure():
    space = SampleSpace(["a", "b"])
    model = ParametrizedMeasureModel(
        ParameterDomain(((0.0, 1.0),)),
        space,
        density_grad=lambda xi: (np.array([xi[0], 0.0]), np.array([[1.0, 1.0]])),
    )
    # the jet's own message names the point, once
    msg = "mass derivative 1.0 along t1 is nonzero on zero-mass atom 'b' at xi=[0.3]"
    with pytest.raises(DominationError, match="^{}$".format(re.escape(msg))):
        check_k_integrability(model, [[0.3]], [[1.0]], 2)


# ---------------------------------------------------------------------------
# power paths and tensors
# ---------------------------------------------------------------------------

def test_power_path_oracle():
    model = bernoulli()
    point, velocity = power_path(model, [0.25], [1.0], 2)
    assert point.r == 0.5 and velocity.r == 0.5
    np.testing.assert_allclose(point.coeff, [0.5, math.sqrt(0.75)])
    np.testing.assert_allclose(
        velocity.coeff, [0.5 * 4.0 * 0.5, 0.5 * (-4.0 / 3.0) * math.sqrt(0.75)]
    )
    # k = inf reached PowerMeasure and was reported as the exponent r = 0.0
    for k in (0.5, math.inf, math.nan):
        message = "^power_path needs a finite k >= 1, got {}$".format(k)
        with pytest.raises(ExponentError, match=message):
            power_path(model, [0.25], [1.0], k)


def test_canonical_tensor_validates_exponent():
    model = bernoulli()
    _, v2 = power_path(model, [0.25], [1.0], 2)
    _, v3 = power_path(model, [0.25], [1.0], 3)
    with pytest.raises(ExponentError):
        canonical_tensor(v2, v2, v2)
    with pytest.raises(ExponentError):
        canonical_tensor(v2, v3)


def test_bernoulli_fisher_closed_form():
    model = bernoulli()
    for xi in (0.1, 0.25, 0.5):
        g = fisher_metric(model, [xi]).values
        assert g[0, 0] == pytest.approx(1.0 / (xi * (1.0 - xi)), rel=1e-12)
        # the canonical pairing of the power path computes the same number
        _, v = power_path(model, [xi], [1.0], 2)
        assert canonical_tensor(v, v) == pytest.approx(g[0, 0], rel=1e-12)


def test_bernoulli_cubic_tensor_closed_form():
    model = bernoulli()
    xi = 0.25
    t = amari_chentsov(model, [xi]).values
    expected = 1.0 / xi**2 - 1.0 / (1.0 - xi) ** 2
    assert t[0, 0, 0] == pytest.approx(expected, rel=1e-12)


def test_tau_first_order_vanishes_for_statistical_models():
    model = bernoulli()
    assert tau_n(model, [0.3], [[1.0]]) == pytest.approx(0.0, abs=1e-12)
    assert tau_tensor(model, [0.3], 1).values[0] == pytest.approx(0.0, abs=1e-12)


def test_tau_tensor_order_validation():
    model = bernoulli()
    with pytest.raises(ExponentError):
        tau_tensor(model, [0.3], 0)
    with pytest.raises(ExponentError):
        tau_tensor(model, [0.3], 9)
    # a fractional order is no order: int() would give the Fisher matrix
    with pytest.raises(ExponentError, match="must be an integer from 1 to 8, got 2.5"):
        tau_tensor(model, [0.3], 2.5)


def test_tensor_value_symmetry_enforced():
    TensorValue(2, [[1.0, 2.0], [2.0, 3.0]])
    with pytest.raises(ContractError):
        TensorValue(2, [[1.0, 2.0], [2.5, 3.0]])
    with pytest.raises(ContractError):
        TensorValue(2, np.ones(4))
    with pytest.raises(ContractError):
        TensorValue(2, np.ones((2, 3)))
    with pytest.raises(ContractError, match="must be an integer, got 2.7"):
        TensorValue(2.7, [[1.0, 2.0], [2.0, 3.0]])
    # symmetry is exact: one ulp off under one permutation is rejected
    t = np.zeros((2, 2, 2))
    t[0, 0, 1] = t[0, 1, 0] = t[1, 0, 0] = 1.0
    assert TensorValue(3.0, t).order == 3
    t[1, 0, 0] = np.nextafter(1.0, 2.0)
    with pytest.raises(ContractError, match="not symmetric"):
        TensorValue(3, t)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_fisher_matrix_is_positive_semidefinite(seed):
    rng = np.random.default_rng(seed)
    model = exp_family_model(rng, int(rng.integers(2, 8)), int(rng.integers(1, 4)))
    xi = rng.uniform(-0.8, 0.8, size=model.domain.dim)
    g = fisher_metric(model, xi).values
    np.testing.assert_allclose(g, g.T, atol=1e-12)
    assert np.linalg.eigvalsh(g).min() > -1e-10


# ---------------------------------------------------------------------------
# non-finite values
# ---------------------------------------------------------------------------

def test_non_finite_tensor_message_prints_plain_numbers():
    model = ParametrizedMeasureModel(
        ParameterDomain(((-1.0, 1.0),)), SampleSpace(["a", "b"]),
        density_grad=lambda xi: (np.array([1e-100, 1.0]), np.array([[1e100, 0.0]])),
    )
    # fisher_metric once returned [[inf]]
    for tensor in (lambda m, xi: tau_n(m, xi, [[1.0], [1.0]]), fisher_metric):
        with np.errstate(over="ignore"), pytest.raises(ContractError) as err:
            tensor(model, (np.float64(0.5),))
        assert "xi=[0.5]" in str(err.value) and "np.float64" not in str(err.value)


@pytest.mark.parametrize("callables, what", [
    # a NaN density once failed as ValueError("masses must be finite"): bad input
    ({"density_grad": lambda xi: (np.array([np.nan, 1.0]), np.zeros((1, 2)))},
     "density is not finite at atom 'a'"),
    ({"density_grad": lambda xi: (np.ones(2), np.array([[0.0, np.inf]]))},
     "jacobian is not finite at atom 'b'"),
    # finite at xi, infinite at the central-difference points around it
    ({"density": lambda xi: np.array([1.0, 1.0 if xi[0] == 0.5 else np.inf])},
     "finite-difference jacobian is not finite at atom 'b'"),
])
def test_non_finite_model_output_is_a_contract_error(callables, what):
    model = ParametrizedMeasureModel(
        ParameterDomain(((-1.0, 1.0),)), SampleSpace(["a", "b"]), **callables
    )
    for call in (jet, mass_gradient):
        with np.errstate(invalid="ignore"), pytest.raises(ContractError) as err:
            call(model, np.float64(0.5))
        assert str(err.value) == what + " for xi=[0.5]"


def test_overflowing_log_derivative_is_a_contract_error():
    # d(mass)/mass = 1e-10 / 5e-324 overflows; read as v @ ld, 0 * inf would
    # make the log-derivative along the other coordinate nan
    model = ParametrizedMeasureModel(
        ParameterDomain(((0.0, 1.0), (0.0, 1.0))), SampleSpace(["a", "b"]),
        density_grad=lambda xi: (np.array([5e-324, 1.0]), np.array([[1e-10, 0.0], [0.0, 1.0]])),
    )
    with np.errstate(over="ignore"), pytest.raises(ContractError) as err:
        log_derivative(model, [0.5, 0.5], [0.0, 1.0])
    assert str(err.value) == "log-derivative is not finite at atom 'a' for xi=[0.5, 0.5]"
