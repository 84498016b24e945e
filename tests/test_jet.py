"""One evaluation per parameter point.

Every quantity at a parameter point is read from one ``jet``: one density
call plus one gradient call with analytic gradients, 1 + 2*dim density
calls with finite differences. The call counts here do not depend on the
machine. The jet-based public functions are also compared bit for bit
with a reference copy of the per-direction formulas they replace.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igk import (
    DominationError,
    ParameterDomain,
    ParametrizedMeasureModel,
    Statistic,
    check_k_integrability,
    evaluate,
    is_sufficient,
    jet,
    k_norm,
    lk_norm,
    log_derivative,
    loss_table,
    mass_gradient,
    tau_n,
    tau_tensor,
)

from conftest import random_space

DIM = 2
GRID = [[0.1, -0.2], [0.3, 0.4], [-0.5, 0.0]]
DIRECTIONS = [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [-0.8, 0.6]]


def counting_model(analytic, counts):
    """exp(a + b.xi) on six atoms, counting its density and gradient calls."""
    rng = np.random.default_rng(5)
    a = rng.uniform(-0.5, 0.5, size=6)
    b = rng.uniform(-1.0, 1.0, size=(6, DIM))

    def density(xi):
        counts["density"] += 1
        return np.exp(a + b @ xi)

    def grad(xi):
        counts["grad"] += 1
        return (b * np.exp(a + b @ xi)[:, None]).T

    return ParametrizedMeasureModel(
        ParameterDomain(((-1.0, 1.0),) * DIM), random_space(rng, 6), density,
        density_grad=grad if analytic else None,
    )


def per_point(analytic):
    """Calls one jet makes: (density, gradient)."""
    return (1, 1) if analytic else (1 + 2 * DIM, 0)


@pytest.mark.parametrize("analytic", [True, False])
def test_check_k_integrability_evaluates_each_point_once(analytic):
    counts = {"density": 0, "grad": 0}
    model = counting_model(analytic, counts)
    check_k_integrability(model, GRID, DIRECTIONS, 3)
    dens, grad = per_point(analytic)
    assert counts == {"density": dens * len(GRID), "grad": grad * len(GRID)}


@pytest.mark.parametrize("analytic", [True, False])
def test_tau_tensor_evaluates_the_point_once(analytic):
    counts = {"density": 0, "grad": 0}
    model = counting_model(analytic, counts)
    tau_tensor(model, GRID[0], 3)
    dens, grad = per_point(analytic)
    assert counts == {"density": dens, "grad": grad}


def _merge_pairs(model):
    # atoms 2i and 2i+1 share a fiber
    target = random_space(np.random.default_rng(1), 3, tag="t")
    return Statistic(model.space, target, np.repeat(np.arange(3), 2))


@pytest.mark.parametrize("analytic", [True, False])
def test_loss_table_makes_one_source_and_one_induced_jet_per_point(analytic):
    counts = {"density": 0, "grad": 0}
    model = counting_model(analytic, counts)
    loss_table(model, _merge_pairs(model), GRID, DIRECTIONS, 2)
    # the induced model calls the source callables once per call of its own
    dens, grad = per_point(analytic)
    assert counts == {"density": 2 * dens * len(GRID), "grad": 2 * grad * len(GRID)}


@pytest.mark.parametrize("analytic", [True, False])
def test_is_sufficient_reads_both_orders_from_the_same_jets(analytic):
    counts = {"density": 0, "grad": 0}
    model = counting_model(analytic, counts)
    is_sufficient(model, _merge_pairs(model), GRID, 2)
    dens, grad = per_point(analytic)
    assert counts == {"density": 2 * dens * len(GRID), "grad": 2 * grad * len(GRID)}


# ---------------------------------------------------------------------------
# bitwise agreement with the per-direction formulas
# ---------------------------------------------------------------------------

def ref_log_derivative(model, xi, direction):
    xi = model._check_xi(xi)
    v = np.atleast_1d(np.asarray(direction, dtype=float))
    mass = evaluate(model, xi).mass
    dmass = v @ mass_gradient(model, xi)
    null = mass == 0.0
    if null.any():
        scale = max(1.0, float(np.abs(dmass).max()))
        bad = null & (np.abs(dmass) > 1e-10 * scale)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise DominationError(
                "mass derivative {} is nonzero on zero-mass atom {!r} at xi={}".format(
                    dmass[i], model.space.atoms[i], xi.tolist()
                )
            )
    out = np.zeros_like(mass)
    np.divide(dmass, mass, out=out, where=~null)
    return out


def ref_k_norm(model, xi, direction, k):
    return lk_norm(ref_log_derivative(model, xi, direction), evaluate(model, xi), k)


def ref_tau_n(model, xi, directions):
    mass = evaluate(model, xi).mass
    prod = np.ones_like(mass)
    for v in directions:
        prod = prod * ref_log_derivative(model, xi, v)
    return float((prod * mass).sum())


def ref_tau_tensor(model, xi, order):
    d = model.domain.dim
    ld = np.asarray([ref_log_derivative(model, xi, np.eye(d)[a]) for a in range(d)])
    mass = evaluate(model, xi).mass
    letters = "abcdefgh"[:order]
    spec = ",".join(c + "i" for c in letters) + ",i->" + letters
    return np.einsum(spec, *([ld] * order), mass)


@st.composite
def point_models(draw):
    """A small exponential model with zero-mass atoms, at one point.

    With ``leak`` the gradient stays nonzero on some zero-mass atoms, which
    breaks domination along most directions.
    """
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    analytic = draw(st.booleans())
    leak = analytic and draw(st.booleans())
    rng = np.random.default_rng(seed)
    a = rng.uniform(-3.0, 3.0, size=n)
    b = rng.uniform(-2.0, 2.0, size=(n, d))
    zero = rng.random(n) < 0.3
    drift = np.where(zero & (rng.random(n) < 0.5), rng.uniform(-1.0, 1.0, size=n), 0.0)

    def density(xi):
        return np.where(zero, 0.0, np.exp(a + b @ xi))

    def grad(xi):
        g = (b * density(xi)[:, None]).T
        return g + drift if leak else g

    model = ParametrizedMeasureModel(
        ParameterDomain(((-1.0, 1.0),) * d), random_space(rng, n, weights=True),
        density, density_grad=grad if analytic else None,
    )
    xi = rng.uniform(-0.9, 0.9, size=d)
    dirs = [rng.standard_normal(d) for _ in range(draw(st.integers(1, 4)))]
    return model, xi, dirs


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except DominationError as err:
        return "domination", str(err)


def _same(got, want):
    assert got[0] == want[0]
    if got[0] == "domination":
        assert got[1] == want[1]
    else:
        assert np.array_equal(np.asarray(got[1]), np.asarray(want[1]))


@settings(max_examples=150, deadline=None)
@given(point_models(), st.sampled_from([1.0, 2.0, 3.0, 4.0, math.inf]),
       st.integers(1, 4))
def test_jet_functions_match_per_direction_formulas_bitwise(case, k, order):
    model, xi, dirs = case
    for v in dirs:
        _same(_outcome(log_derivative, model, xi, v),
              _outcome(ref_log_derivative, model, xi, v))
        _same(_outcome(k_norm, model, xi, v, k),
              _outcome(ref_k_norm, model, xi, v, k))
        _same(_outcome(lambda: jet(model, xi).log_derivative(v)),
              _outcome(ref_log_derivative, model, xi, v))
    _same(_outcome(tau_n, model, xi, dirs[:order]),
          _outcome(ref_tau_n, model, xi, dirs[:order]))
    _same(_outcome(lambda: tau_tensor(model, xi, order).values),
          _outcome(ref_tau_tensor, model, xi, order))
    report = _outcome(lambda: check_k_integrability(model, [xi], dirs, k).values)
    want = _outcome(lambda: np.array([[ref_k_norm(model, xi, v, k) for v in dirs]]))
    if want[0] == "domination":
        assert report[0] == "domination"
        assert report[1] == "at grid point xi={}: {}".format(xi.tolist(), want[1])
    else:
        _same(report, want)
