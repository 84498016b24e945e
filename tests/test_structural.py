"""Statistics transport structurally, without their dense 0/1 kernel.

Every function that accepts a kernel also accepts a Statistic and sums over
its fibers instead of multiplying by the n x m matrix of
``as_kernel``. That matrix stays the reference: ``DenseStatistic``
routes every push of a statistic through it, and both routes must agree
within 1e-14 of the absolute push ``|K|^T |a|``, elementwise.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import igk.markov
from igk import (
    Measure,
    ParameterDomain,
    ParametrizedMeasureModel,
    PowerMeasure,
    SampleSpace,
    SignedMeasure,
    Statistic,
    as_kernel,
    conditional_expectation,
    fisher_neyman_check,
    formal_power_derivative,
    induced_model,
    is_congruent,
    power_pushforward,
    pushforward,
    serialize,
)
from igk.cli import main
from igk.families import ex_suff, ex_suff_projection, gaussian_grid

REL = 1e-14


class DenseStatistic(Statistic):
    """A statistic whose pushes go through its dense 0/1 kernel."""

    def push_mass(self, a):
        return as_kernel(self).push_mass(a)


def _space(prefix, n, rng):
    labels = tuple("{}{}".format(prefix, i) for i in range(n))
    return SampleSpace(labels, weights=rng.uniform(0.5, 2.0, size=n))


def _random_statistic(rng):
    """n up to 3000 atoms onto m targets; m > n or few hits leave fibers empty."""
    n = int(rng.integers(1, 3001))
    m = int(rng.choice([1, 3, max(1, n // 4), n + 40 if n < 500 else n // 2]))
    hit = int(rng.integers(1, m + 1))  # only the first `hit` targets are used
    source, target = _space("a", n, rng), _space("b", m, rng)
    kappa = Statistic(source, target, rng.integers(0, hit, size=n))
    return kappa, DenseStatistic(source, target, kappa.map)


def _assert_close(got, want, scale):
    err = np.abs(got - want)
    assert np.all(err <= REL * scale), np.max(err - REL * scale)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_fibers_match_per_target_scan(seed):
    kappa, _ = _random_statistic(np.random.default_rng(seed))
    fibers = kappa.fibers()
    assert len(fibers) == kappa.target.n_atoms
    for j, idx in enumerate(fibers):
        np.testing.assert_array_equal(idx, kappa.fiber(j))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_transport_agrees_with_dense_kernel(seed):
    rng = np.random.default_rng(seed)
    kappa, dense = _random_statistic(rng)
    n = kappa.source.n_atoms
    d = int(rng.integers(1, 4))
    # masses spread over many orders of magnitude, with cancelling signs
    a = rng.standard_normal((d, n)) * np.exp(rng.uniform(-20.0, 20.0, size=(d, n)))
    _assert_close(kappa.push_mass(a), dense.push_mass(a), kappa.push_mass(np.abs(a)))
    _assert_close(kappa.push_mass(a[0]), dense.push_mass(a[0]), kappa.push_mass(np.abs(a[0])))

    nu = SignedMeasure(kappa.source, a[0])
    _assert_close(pushforward(kappa, nu).mass, pushforward(dense, nu).mass,
                  kappa.push_mass(np.abs(a[0])))

    mu = Measure(kappa.source, rng.uniform(0.0, 2.0, size=n) * (rng.random(n) < 0.9))
    phi = a[-1]
    pushed_mu = kappa.push_mass(mu.mass)
    mean_abs = np.zeros_like(pushed_mu)
    np.divide(kappa.push_mass(np.abs(phi) * mu.mass), pushed_mu, out=mean_abs,
              where=pushed_mu != 0)
    _assert_close(conditional_expectation(kappa, mu, phi),
                  conditional_expectation(dense, mu, phi), mean_abs)

    r = 1.0 / int(rng.integers(1, 4))
    power = PowerMeasure(kappa.source, r, rng.uniform(-1.0, 1.0, size=n))
    # compare the pushed signed measures behind the power coefficients
    back = lambda nu: np.sign(nu.coeff) * np.abs(nu.coeff) ** (1.0 / r)
    _assert_close(back(power_pushforward(kappa, power)), back(power_pushforward(dense, power)),
                  kappa.push_mass(np.abs(back(power))))

    rho = PowerMeasure(kappa.source, r, phi * mu.mass**r)
    _assert_close(formal_power_derivative(kappa, mu, rho).coeff,
                  formal_power_derivative(dense, mu, rho).coeff, mean_abs * pushed_mu**r)


def _model(rng, space, d, factor_through=None):
    """exp(a_i + b_i . xi), or h_i * exp(c_kappa(i) . xi) when it factorizes."""
    n = space.n_atoms
    a = rng.uniform(-1.0, 1.0, size=n)
    b = rng.uniform(-1.0, 1.0, size=(n, d))
    if factor_through is not None:
        b = rng.uniform(-1.0, 1.0, size=(factor_through.target.n_atoms, d))[factor_through.map]

    def density_grad(xi):
        dens = np.exp(a + b @ xi)
        return dens, (b * dens[:, None]).T

    return ParametrizedMeasureModel(ParameterDomain(((-1.0, 1.0),) * d), space,
                                    density_grad=density_grad)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_induced_model_agrees_with_dense_kernel(seed):
    rng = np.random.default_rng(seed)
    kappa, dense = _random_statistic(rng)
    d = int(rng.integers(1, 4))
    model = _model(rng, kappa.source, d)
    xi = rng.uniform(-0.9, 0.9, size=d)
    w, tw = kappa.source.base_masses, kappa.target.base_masses
    dens, grad = model.density_grad(xi)
    mass, grad = dens * w, grad * w
    structural, reference = induced_model(model, kappa), induced_model(model, dense)
    (s_dens, s_grad), (r_dens, r_grad) = structural.density_grad(xi), reference.density_grad(xi)
    _assert_close(s_dens, r_dens, kappa.push_mass(mass) / tw)
    _assert_close(s_grad, r_grad, kappa.push_mass(np.abs(grad)) / tw)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_is_congruent_agrees_with_dense_kernel(seed):
    rng = np.random.default_rng(seed)
    kappa, _ = _random_statistic(rng)
    m = kappa.target.n_atoms
    onto = np.bincount(kappa.map, minlength=m).all()
    if onto and rng.random() < 0.5:
        # a section: pick one atom of each fiber
        back = np.array([rng.choice(f) for f in kappa.fibers()])
    else:
        back = rng.integers(0, kappa.source.n_atoms, size=m)
    section = Statistic(kappa.target, kappa.source, back)
    want = is_congruent(as_kernel(section), kappa)
    assert is_congruent(section, kappa) == want
    assert want == bool(np.array_equal(kappa.map[back], np.arange(m)))


def _witness(result):
    c = result.conflict
    return None if c is None else (c.atom, c.xi_a, c.xi_b)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_fisher_neyman_check_agrees_with_dense_kernel(seed):
    rng = np.random.default_rng(seed)
    kappa, dense = _random_statistic(rng)
    d = int(rng.integers(1, 4))
    factors = rng.random() < 0.5
    model = _model(rng, kappa.source, d, factor_through=kappa if factors else None)
    grid = list(rng.uniform(-0.9, 0.9, size=(int(rng.integers(1, 5)), d)))
    got = fisher_neyman_check(model, kappa, grid)
    want = fisher_neyman_check(model, dense, grid)
    assert got.status == want.status
    assert _witness(got) == _witness(want)
    if factors:
        assert got.status == "factorizable"
    if got.status == "factorizable":
        _assert_close(got.mu0.mass, want.mu0.mass, want.mu0.mass)


def test_fisher_neyman_check_agrees_on_vanishing_model():
    # support changes sign with xi: several runs, compared fiber by fiber
    model = ex_suff(20, 10)
    kappa = ex_suff_projection(20, 10)
    dense = DenseStatistic(kappa.source, kappa.target, kappa.map)
    grid = [[x] for x in np.linspace(-1.0, 1.0, 7)]
    for rel_tol in (1e-9, 1.0):
        got = fisher_neyman_check(model, kappa, grid, rel_tol=rel_tol)
        want = fisher_neyman_check(model, dense, grid, rel_tol=rel_tol)
        assert got.status == want.status
        assert _witness(got) == _witness(want)
        assert len(got.subgrids) == len(want.subgrids) > 1
        for a, b in zip(got.subgrids, want.subgrids):
            _assert_close(a.mu.mass, b.mu.mass, b.mu.mass)


# ---------------------------------------------------------------------------
# no statistic path builds the dense kernel
# ---------------------------------------------------------------------------

def _no_dense(kappa):
    raise AssertionError("a statistic was expanded into a dense kernel")


def test_cli_statistic_paths_never_densify(tmp_path, monkeypatch):
    model = "builtin:gaussian-grid(5,2000)"
    space = gaussian_grid(5, 2000).space
    rng = np.random.default_rng(0)
    bins = SampleSpace(tuple("b{}".format(j) for j in range(500)))
    kappa = Statistic(space, bins, rng.permutation(np.repeat(np.arange(500), 4)))
    (tmp_path / "stat.json").write_text(serialize.dumps(serialize.statistic_to_obj(kappa)))
    nu = Measure(space, rng.uniform(0.0, 1.0, size=space.n_atoms))
    (tmp_path / "nu.json").write_text(serialize.dumps(serialize.measure_to_obj(nu)))
    stat, grid = str(tmp_path / "stat.json"), "0.1,1;-0.4,0.7"
    runs = [
        ["infoloss", "--model", model, "--statistic", stat, "--xi-grid", grid, "--random", "2"],
        ["sufficient", "--model", model, "--statistic", stat, "--xi-grid", grid],
        ["factorize", "--model", model, "--statistic", stat, "--xi-grid", grid],
        ["pushforward", "--kernel", stat, "--measure", str(tmp_path / "nu.json")],
        ["paper-example", "ex-suff"],
    ]
    monkeypatch.setattr(igk.markov, "_kernel_of_statistic", _no_dense)
    for i, argv in enumerate(runs):
        out = tmp_path / "out{}.json".format(i)
        assert main(argv + ["--out", str(out)]) == 0, argv
        json.loads(out.read_text())
    with pytest.raises(AssertionError):
        igk.markov.as_kernel(kappa)
