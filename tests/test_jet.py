"""One evaluation per parameter point.

Every quantity at a parameter point is read from one ``jet``: one gradient
call with analytic gradients, 1 + 2*dim density calls with finite
differences. A model's image under a transport is read from it too. The
call counts here do not depend on the machine. The jet-based public
functions are also compared with a reference copy of the per-direction
formulas they replace.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igk import (
    DominationError,
    ParameterDomain,
    ParametrizedMeasureModel,
    Statistic,
    canonical_tensor,
    check_k_integrability,
    check_monotonicity,
    equality_direction_check,
    evaluate,
    families,
    information_loss,
    is_sufficient,
    jet,
    k_norm,
    lk_norm,
    log_derivative,
    loss_table,
    mass_gradient,
    power_path,
    serialize,
    tau_n,
    tau_tensor,
)
from igk.cli import main
from igk.families import gaussian_grid

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

    def density_grad(xi):
        counts["grad"] += 1
        dens = np.exp(a + b @ xi)
        return dens, (b * dens[:, None]).T

    return ParametrizedMeasureModel(
        ParameterDomain(((-1.0, 1.0),) * DIM), random_space(rng, 6),
        density=None if analytic else density,
        density_grad=density_grad if analytic else None,
    )


def per_point(analytic):
    """Calls one jet makes: (density, density_grad)."""
    return (0, 1) if analytic else (1 + 2 * DIM, 0)


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


# each diagnostic through the 2:1 statistic of _merge_pairs: (call, grid points)
TRANSPORT_CALLS = {
    "loss_table": (lambda m, s: loss_table(m, s, GRID, DIRECTIONS, 2), len(GRID)),
    "information_loss": (lambda m, s: information_loss(m, s, GRID[0], DIRECTIONS[2], 2), 1),
    "is_sufficient": (lambda m, s: is_sufficient(m, s, GRID, 2), len(GRID)),
    "check_monotonicity": (lambda m, s: check_monotonicity(m, s, GRID[0]), 1),
    "equality_direction_check": (
        lambda m, s: equality_direction_check(m, s, GRID[0], DIRECTIONS[2]), 1),
}


@pytest.mark.parametrize("analytic", [True, False])
@pytest.mark.parametrize("name", sorted(TRANSPORT_CALLS))
def test_transport_diagnostics_read_the_image_from_the_source_jet(name, analytic):
    """The image is read from the source jet: no induced model, whose
    callables call the source's, is evaluated."""
    counts = {"density": 0, "grad": 0}
    model = counting_model(analytic, counts)
    call, points = TRANSPORT_CALLS[name]
    call(model, _merge_pairs(model))
    dens, grad = per_point(analytic)
    assert counts == {"density": dens * points, "grad": grad * points}


# ---------------------------------------------------------------------------
# agreement with the per-direction formulas
# ---------------------------------------------------------------------------

def ref_log_derivative(model, xi, direction):
    xi = model._check_xi(xi)
    v = np.atleast_1d(np.asarray(direction, dtype=float))
    mass = evaluate(model, xi).mass
    dmass = v @ mass_gradient(model, xi)
    null = mass == 0.0
    if null.any():
        scale = float(np.abs(dmass).max())
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


def ref_tau_values(ld, mass, order):
    """sum_i ld_a1(i) ... ld_an(i) m_i for every multi-index, by one einsum."""
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

    def density_grad(xi):
        dens = density(xi)
        g = (b * dens[:, None]).T
        return dens, (g + drift if leak else g)

    model = ParametrizedMeasureModel(
        ParameterDomain(((-1.0, 1.0),) * d), random_space(rng, n, weights=True),
        density=None if analytic else density,
        density_grad=density_grad if analytic else None,
    )
    xi = rng.uniform(-0.9, 0.9, size=d)
    dirs = [rng.standard_normal(d) for _ in range(draw(st.integers(1, 4)))]
    return model, xi, dirs


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except DominationError as err:
        return "domination", str(err)


def _gamma(k):
    """gamma_k = k u / (1 - k u), the roundoff of k chained operations."""
    u = 2.0 ** -53
    return k * u / (1.0 - k * u)


@settings(max_examples=150, deadline=None)
@given(point_models(), st.sampled_from([1.0, 2.0, 3.0, 4.0, math.inf]),
       st.integers(1, 4))
def test_jet_functions_match_per_direction_formulas(case, k, order):
    """A jet divides each basis row once, so a basis log-derivative is the
    per-direction formula bit for bit. Along any other direction ``v @ ld``
    rounds differently from ``(v @ grad) / mass``: each is a dot product of
    d terms and one division, so each is within gamma_{d+1} sum_a |v_a| |ld_a|
    of the exact value (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.1), and they are within twice that of
    each other. Everything else is read from the new log-derivatives bit
    for bit, and the tensor as :func:`assert_tau_tensor` states."""
    model, xi, dirs = case
    d = model.domain.dim
    basis = [_outcome(ref_log_derivative, model, xi, e) for e in np.eye(d)]
    failing = [a for a, (kind, _) in enumerate(basis) if kind == "domination"]
    if failing:
        # one check per basis row decides for every direction; the first
        # failing row names its coordinate
        a = failing[0]
        msg = basis[a][1].replace(" is nonzero", " along t{} is nonzero".format(a + 1))
        calls = [lambda: jet(model, xi), lambda: tau_n(model, xi, dirs[:order]),
                 lambda: tau_tensor(model, xi, order),
                 lambda: check_k_integrability(model, [xi], dirs, k)]
        for v in dirs:
            calls += [lambda v=v: log_derivative(model, xi, v),
                      lambda v=v: k_norm(model, xi, v, k)]
        for call in calls:
            assert _outcome(call) == ("domination", msg)
        return
    ld = np.asarray([value for _, value in basis])
    measure = evaluate(model, xi)
    for a in range(d):
        assert np.array_equal(log_derivative(model, xi, np.eye(d)[a]), ld[a])
    new = []
    for v in dirs:
        got = log_derivative(model, xi, v)
        assert np.array_equal(jet(model, xi).log_derivative(v), got)
        bound = 2.0 * _gamma(d + 1) * (np.abs(v) @ np.abs(ld))
        assert np.all(np.abs(got - ref_log_derivative(model, xi, v)) <= bound)
        assert k_norm(model, xi, v, k) == lk_norm(got, measure, k)
        new.append(got)
    prod = np.ones(model.space.n_atoms)
    for got in new[:order]:
        prod = prod * got
    assert tau_n(model, xi, dirs[:order]) == float((prod * measure.mass).sum())
    assert_tau_tensor(model, xi, order, ld, measure.mass)
    report = check_k_integrability(model, [xi], dirs, k)
    assert np.array_equal(report.values, [[lk_norm(got, measure, k) for got in new]])


def assert_tau_tensor(model, xi, order, ld, mass):
    """``tau_tensor`` is exactly symmetric, and each entry is ``tau_n`` along its
    sorted basis directions bit for bit. An entry and its einsum reference are
    each a sum of n_atoms products of order + 1 factors, so each is within
    gamma_{order + n_atoms} sum_i |ld_a1(i)| ... |ld_an(i)| m_i of the exact
    value, and they are within twice that of each other."""
    got = tau_tensor(model, xi, order).values
    for perm in itertools.permutations(range(order)):
        assert np.array_equal(got, np.transpose(got, perm)), perm
    bound = 2.0 * _gamma(order + len(mass)) * ref_tau_values(np.abs(ld), mass, order)
    assert np.all(np.abs(got - ref_tau_values(ld, mass, order)) <= bound)
    basis = np.eye(len(ld))
    for idx in itertools.combinations_with_replacement(range(len(ld)), order):
        assert tau_n(model, xi, basis[list(idx)]) == got[idx], idx


# a 3-parameter model on 20000 atoms: a scaled normal density on a grid
SCALED_NORMAL = {
    "domain": {"bounds": [[-2, 2], [0.3, 3], [0.5, 2]]},
    "space": {"grid": {"interval": [-5, 5], "points": 20000}},
    "density": "t3*exp(-0.5*((x1-t1)/t2)^2)/(t2*2.5066282746310002)",
}


@pytest.mark.parametrize("model, xi", [
    (gaussian_grid(5.0, 20000), [0.2, 1.1]),
    (serialize.model_from_obj(SCALED_NORMAL), [0.2, 1.1, 1.3]),
], ids=["gaussian-grid", "scaled-normal"])
def test_tau_tensor_is_exactly_symmetric_at_scale(model, xi):
    point = jet(model, xi)
    for order in range(1, 9):
        assert_tau_tensor(model, xi, order, point.ld, point.measure.mass)
    # each of the C(d + 7, 8) distinct entries is formed once: 45 at d 3, of 6561
    t0 = time.perf_counter()
    tau_tensor(model, xi, 8)
    assert time.perf_counter() - t0 < 0.5


# ---------------------------------------------------------------------------
# one product-sum keeps the bits of the formulas it replaced
# ---------------------------------------------------------------------------

def ref_blocked_tau_values(ld, mass, order):
    """Each sorted entry as ``np.prod`` of its rows of ld (copied by a fancy index, about
    2**20 values a block) times mass, summed, then copied to its permutations."""
    d, n = ld.shape
    index = np.array(list(itertools.combinations_with_replacement(range(d), order)))
    values = np.empty((d,) * order)
    block = max(1, 2**20 // (order * n))
    for lo in range(0, len(index), block):
        part = index[lo:lo + block].T
        values[tuple(part)] = (np.prod(ld[part], axis=0) * mass).sum(axis=1)
    for idx in np.ndindex(values.shape):
        values[idx] = values[tuple(sorted(idx))]
    return values


def ref_prod_tau_n(point, directions):
    rows = [point.log_derivative(v) for v in directions]
    return float((np.prod(rows, axis=0) * point.measure.mass).sum())


def ref_loop_canonical_tensor(power_measures):
    n = len(power_measures)
    coeffs = np.ones(power_measures[0].space.n_atoms)
    for nu in power_measures:
        coeffs = coeffs * nu.coeff
    return float(n ** n * coeffs.sum())


def _zero_mass_model():
    """An exponential model in 2 parameters on 20 atoms, every third of zero mass."""
    rng = np.random.default_rng(7)
    a, b = rng.uniform(-3.0, 3.0, size=20), rng.uniform(-2.0, 2.0, size=(20, 2))
    zero = np.arange(20) % 3 == 0

    def density_grad(xi):
        dens = np.where(zero, 0.0, np.exp(a + b @ xi))
        return dens, (b * dens[:, None]).T

    return ParametrizedMeasureModel(ParameterDomain(((-1.0, 1.0),) * 2),
                                    random_space(rng, 20, weights=True), density_grad=density_grad)


@pytest.mark.parametrize("model, xi", [
    (gaussian_grid(5.0, 20000), [0.2, 1.1]),
    (families.build("categorical(4)"), [0.2, 0.3, 0.1]),
    (families.build("ex-suff"), [0.4]),
    (serialize.model_from_obj(SCALED_NORMAL), [0.2, 1.1, 1.3]),
    (_zero_mass_model(), [0.3, -0.4]),
], ids=["gaussian-grid", "categorical-4", "ex-suff", "scaled-normal", "zero-mass"])
def test_tensors_keep_the_bits_of_the_replaced_formulas(model, xi):
    """Every tensor entry, ``tau_n`` and ``canonical_tensor`` multiply the same rows in the
    same order as the formulas they replaced, and sum the same products: bit for bit."""
    point = jet(model, xi)
    assert (point.measure.mass == 0.0).any() == (model.space.n_atoms == 20)
    rng = np.random.default_rng(3)
    for order in range(1, 9):
        np.testing.assert_array_equal(tau_tensor(model, xi, order).values,
                                      ref_blocked_tau_values(point.ld, point.measure.mass, order))
        dirs = rng.standard_normal((order, model.domain.dim))
        assert tau_n(model, xi, dirs) == ref_prod_tau_n(point, dirs), order
        for pair in (0, 1):  # the rescaled members, and their path derivatives
            nus = [power_path(model, xi, v, order)[pair] for v in dirs]
            assert canonical_tensor(*nus) == ref_loop_canonical_tensor(nus), (order, pair)


# ---------------------------------------------------------------------------
# domination is decided for every direction
# ---------------------------------------------------------------------------

# at xi = (0.4, 0.4) atom "b" has mass t1 - t2 = 0 and mass gradient (1, -1):
# a direction (1, 1) sees no derivative there, the coordinates do
LEAK_MODEL = {
    "domain": {"bounds": [[0, 1], [0, 1]]},
    "space": {"atoms": ["a", "b"], "coords": [0, 1]},
    "density": "if(x1 < 0.5, t1 + t2, t1 - t2)",
}
LEAK_XI = [0.4, 0.4]


def test_domination_fails_along_every_direction(capsys, tmp_path):
    model = serialize.model_from_obj(LEAK_MODEL)
    assert evaluate(model, LEAK_XI).mass[1] == 0.0
    np.testing.assert_array_equal(mass_gradient(model, LEAK_XI)[:, 1], [1.0, -1.0])
    v = [1.0, 1.0]
    msg = "along t1 is nonzero on zero-mass atom 'b'"
    with pytest.raises(DominationError, match=msg):
        log_derivative(model, LEAK_XI, v)
    with pytest.raises(DominationError, match=msg):
        tau_n(model, LEAK_XI, [v, v])
    with pytest.raises(DominationError, match=msg):
        k_norm(model, LEAK_XI, v, 2)
    with pytest.raises(DominationError, match=msg):
        check_k_integrability(model, [LEAK_XI], [v], 2)
    path = tmp_path / "leak.json"
    path.write_text(json.dumps(LEAK_MODEL), encoding="utf-8")
    code = main(["tensor", "--model", str(path), "--order", "2", "--xi", "0.4,0.4"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: DominationError: ") and msg in captured.err
