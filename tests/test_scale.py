"""The paper's transport theorems at benchmark scale, through structural transports.

A seeded 4:1 statistic bins 20000 atoms into 5000, as in the benchmark's
``transport-stat`` workload; its transverse family is the congruent kernel
back from 5000 atoms to 20000. Every bound is relative: it scales with the
quantities it compares, and allows c = 64 units of roundoff. Kernels with
other entries are stored as those entries, and are held to bounds that
scale with their number.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igk import (
    MarkovKernel,
    Measure,
    ParameterDomain,
    ParametrizedMeasureModel,
    ProbabilityMeasure,
    SampleSpace,
    Statistic,
    amari_chentsov,
    as_kernel,
    check_k_integrability,
    check_monotonicity,
    compose,
    conditional_expectation,
    congruent_kernel_from_embedding,
    decompose_kernel,
    equality_direction_check,
    evaluate,
    fisher_metric,
    fisher_neyman_check,
    is_sufficient,
    jet,
    lk_norm,
    loss_table,
    normalize,
    serialize,
    tau_tensor,
)
from igk.families import ex_suff, ex_suff_projection, gaussian_grid
from igk.infoloss import (
    _BLOCK,
    ConflictWitness,
    FactorizationResult,
    SubgridFactor,
    _image,
    _loss_pair,
)
from igk.measures import _sums_to
from igk.models import _tau_values

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


@given(
    n=st.integers(1, N_SOURCE),
    ratio=st.floats(0.0, 1.0),
    log_sigma=st.floats(-2.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=N_SOURCE, ratio=0.25, log_sigma=-2.0, seed=0)
@example(n=N_SOURCE, ratio=1.0, log_sigma=0.0, seed=1)
@example(n=N_SOURCE, ratio=0.0, log_sigma=-1.0, seed=2)
@settings(max_examples=30, deadline=None)
def test_conditional_expectation_contracts_lk_for_random_statistics(n, ratio, log_sigma, seed):
    """||E[phi | kappa]||_{L^k(kappa mu)} <= ||phi||_{L^k(mu)}, k = 1..8, for any statistic."""
    rng = np.random.default_rng(seed)
    m = 1 + int(ratio * (n - 1))
    source, target = SampleSpace(np.arange(n)), SampleSpace(np.arange(m))
    kappa = Statistic(source, target, rng.integers(0, m, size=n))  # fibers may be empty
    sigma = 10.0**log_sigma
    x = np.linspace(-5.0, 5.0, n)
    z = (x - x[rng.integers(n)]) / sigma  # centered on an atom: some mass survives
    mu = Measure(source, np.exp(-0.5 * z * z) / sigma * rng.uniform(0.5, 2.0, size=n))
    phi = (z * z - 1.0) / sigma + rng.standard_normal(n)
    phi_prime = conditional_expectation(kappa, mu, phi)
    image = Measure(target, kappa.push_mass(mu.mass))
    for k in range(1, 9):
        before = lk_norm(phi, mu, k)
        after = lk_norm(phi_prime, image, k)
        assert after - before <= ROUNDOFF * max(before, after), (k, after, before)


@given(
    n=st.integers(1, 200_000),
    lo=st.integers(-1074, 1023),
    span=st.integers(0, 2097),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=4, lo=1023, span=0, seed=0)  # the total overflows
@example(n=200_000, lo=-1074, span=0, seed=1)  # every mass subnormal
@example(n=200_000, lo=-1074, span=2097, seed=2)  # every binary exponent at once
@settings(max_examples=20, deadline=None)
def test_normalize_gives_a_probability_measure_at_every_scale(n, lo, span, seed):
    """Masses from 5e-324 to 1.8e308 normalize to a ProbabilityMeasure that keeps their ratios."""
    rng = np.random.default_rng(seed)
    hi = min(lo + span, 1023)
    mass = np.ldexp(rng.uniform(1.0, 2.0, size=n), rng.integers(lo, hi + 1, size=n))
    p = normalize(Measure(SampleSpace(np.arange(n)), mass))
    assert isinstance(p, ProbabilityMeasure)
    assert _sums_to(p.mass.sum(), 1.0, n)
    # ratios to the largest mass, wherever both sides keep full precision
    top = int(np.argmax(mass))
    want = mass / mass[top]
    got = p.mass / p.mass[top]
    tiny = np.finfo(float).tiny
    normal = (want >= tiny) & (p.mass >= tiny)
    assert normal[top]
    assert np.all(np.abs(got - want)[normal] <= 4 * np.finfo(float).eps * want[normal])


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


# the memory one loss through the 4:1 statistic held above what was live at
# entry, in bytes, when it was the difference of the norms (NumPy 2.4)
DIFFERENCE_FORM_RISE = 520_536


def test_one_loss_through_the_statistic_holds_few_arrays():
    """The Bregman sum reads the statistic's entries as they are stored, not as
    (i, j, weight) arrays: one loss may hold two (n,) float arrays more than the
    difference of the norms did."""
    kappa = _statistic()
    source = jet(gaussian_grid(5.0, N_SOURCE), GRID[0])
    image = _image(source, kappa)  # formed before the window: it measures one loss alone
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        _loss_pair(source, image, kappa, [1.0, 0.0], 2.0)
        rise = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert rise <= DIFFERENCE_FORM_RISE + 2 * 8 * N_SOURCE, rise


def test_loss_table_holds_one_grid_point_at_a_time():
    """A point's jet and image are released before the next point's jet is formed:
    four points peak within 4 KB of one. Holding the previous point's pair while
    the next jet ran raised the peak by about 360 KB."""
    model, kappa = gaussian_grid(5.0, N_SOURCE), _statistic()
    grid = [[0.0, 1.0], [0.3, 0.8], [-0.2, 1.1], [0.1, 0.9]]
    peaks = []
    for points in (grid[:1], grid):
        tracemalloc.start()
        try:
            loss_table(model, kappa, points, None, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 4096, peaks


def test_loss_through_a_dense_kernel_reads_its_stored_entries():
    """gaussian-grid(5,2000) through a random dense 2000 x 500 kernel, 10^6 entries:
    the loss reads the entries the kernel stores. The bound is two thirds of the
    48 MB that scanning its matrix for them on every call takes."""
    model = gaussian_grid(5.0, 2000)
    rows = np.random.default_rng(0).uniform(0.0, 1.0, size=(2000, 500))
    kernel = MarkovKernel(model.space, SampleSpace(np.arange(500)), rows / rows.sum(1)[:, None])
    assert all(a is b for a, b in zip(kernel._support(), kernel._support()))
    tracemalloc.start()
    try:
        loss_table(model, kernel, GRID[:1], None, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak


def _banded_kernel(n, m, width=3, seed=0):
    """A kernel from n onto m atoms, ``width`` consecutive entries per row, built
    from those entries: at 20000 x 5000 its matrix would take 800 MB."""
    weight = np.random.default_rng(seed).uniform(0.1, 1.0, size=(n, width))
    weight /= weight.sum(axis=1)[:, None]
    to = np.minimum(np.arange(n) * m // n, m - width)[:, None] + np.arange(width)
    entries = (np.full(n, width), to.ravel(), weight.ravel())
    source, target = SampleSpace(np.arange(n)), SampleSpace(np.arange(m))
    return MarkovKernel.__new__(MarkovKernel)._keep(source, target, *entries)


def test_decompose_and_recompose_a_banded_kernel_on_its_support():
    # on the full product 20000 x 5000 this is 10^8 labels, and the matrix of
    # the recomposition's first factor alone 10^8 x 5000 floats
    kernel = _banded_kernel(N_SOURCE, N_TARGET)
    nnz = 3 * N_SOURCE
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        k_cong, kappa1, kappa2 = decompose_kernel(kernel)
        recomposed = compose(as_kernel(kappa2), k_cong)
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k_cong.target.n_atoms == nnz and k_cong.target.atoms[:2] == ("0|0", "0|1")
    for got, want in zip(recomposed._support(), kernel._support()):
        np.testing.assert_array_equal(got, want)
    assert peak <= 400 * nnz, peak
    assert seconds < 5.0, seconds


def test_composing_two_dense_kernels_holds_a_few_of_their_matrices():
    """300 x 300 after 300 x 300, 2.7e7 products: summed a row of products at a time,
    not all at once (1.8 GB). The bound is 6 of the result's n x m float matrices; the
    dense product held about one (0.81 MB), the result's entries take two."""
    rng, space = np.random.default_rng(0), SampleSpace(np.arange(300))
    rows = [r / r.sum(axis=1)[:, None] for r in rng.uniform(0.1, 1.0, size=(2, 300, 300))]
    k1, k2 = (MarkovKernel(space, space, r) for r in rows)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        got = compose(k2, k1)
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(_sums_to(got.rows, rows[0] @ rows[1], 300))
    assert peak <= 6 * 8 * 300 * 300, peak
    assert seconds < 5.0, seconds


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
    for k in (1.0, 2.0, 4.0, 8.0):
        for e in loss_table(model, kappa, GRID, None, k).entries:
            bound = ROUNDOFF * max(e.source_norm_k, e.induced_norm_k)
            assert abs(e.loss) <= bound, (k, e)
    for xi in GRID:
        image = _image(jet(model, xi), kappa)
        for tensor, order in ((fisher_metric, 2), (amari_chentsov, 3)):
            got = _tau_values(image.ld, image.measure.mass, order, image.xi)
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
    masses = np.array([evaluate(model, xi).mass for xi in grid])
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


def test_planted_conflict_within_a_run_is_witnessed_where_it_peaks():
    # sigma 1 keeps every mass normal: the three points are one run, and the
    # planted atom's ratio peaks at the run's second point, not its first
    kappa = _statistic()
    planted, i = _planted_conflict(kappa)
    result = fisher_neyman_check(planted, kappa, [[0.0, 1.0], [0.2, 1.0], [0.1, 1.0]])
    assert result.status == "not-factorizable" and result.subgrids == ()
    assert result.conflict.atom == kappa.source.atoms[i]
    assert result.conflict.xi_a == (0.2, 1.0) and result.conflict.xi_b == (0.0, 1.0)
    assert result.conflict.variation == 1.5265911645911956e-07


@pytest.mark.parametrize("points", (5, 41))
def test_factorization_check_holds_one_points_by_atoms_array(points):
    """Above its (points, n) masses and their (points, m) image, the check of
    ex-suff(200,100) holds a fixed count of (n,) arrays at any grid length: the
    three runs' measures, mu0 and the statistic's fibers, 5.3 at peak. Run over
    whole arrays, the per-atom passes held 10.5. The runs' witnesses conflict, so the
    check returns from its per-fiber loop, before mu0's measure is formed."""
    model, kappa = ex_suff(200, 100), ex_suff_projection(200, 100)
    n, m = kappa.source.n_atoms, kappa.target.n_atoms
    grid = [[x] for x in np.linspace(-1.0, 1.0, points)]  # xi = 0 is a run of its own
    fisher_neyman_check(model, kappa, grid)  # first calls may fill caches
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        result = fisher_neyman_check(model, kappa, grid)
        rise = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert [f.n_points for f in result.subgrids] == [points // 2, 1, points // 2]
    assert rise <= 8 * (points * (n + m) + 6 * n), rise / (8 * n) - points * (n + m) / n


@pytest.mark.parametrize("points", (5, 41))
def test_factorizing_check_holds_neither_a_copy_of_mu0_nor_the_fibers_order(points):
    """A one-run grid of ex-suff(200,100) factorizes, so the check reaches its return:
    above its (points, n) masses and their (points, m) image it peaks at 3.3 (n,)
    arrays in the per-fiber loop (the run's measure, mu0 and the fibers). Copying mu0
    into its measure at the return, while the last fiber kept the fibers' (n,) order
    array alive, held 4.3 (4.7 at 41 points)."""
    model, kappa = ex_suff(200, 100), ex_suff_projection(200, 100)
    n, m = kappa.source.n_atoms, kappa.target.n_atoms
    grid = [[x] for x in np.linspace(0.1, 1.0, points)]
    fisher_neyman_check(model, kappa, grid)  # first calls may fill caches
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        result = fisher_neyman_check(model, kappa, grid)
        rise = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert result.status == "factorizable" and len(result.subgrids) == 1
    assert rise <= 8 * (points * (n + m) + 4 * n), rise / (8 * n) - points * (n + m) / n


def _whole_array_factorization(model, statistic, grid, rel_tol=1e-9):
    """The factorization check as it was written before its per-atom passes ran
    over blocks of atoms, on whole (n,) arrays, for the grid's masses."""
    space, kappa_of, tiny = model.space, statistic.map, np.finfo(float).tiny
    grid = [np.atleast_1d(np.asarray(x, dtype=float)) for x in grid]
    w, wp = space.base_masses, statistic.target.base_masses
    masses = np.array([evaluate(model, xi).mass for xi in grid])
    pushed = statistic.push_mass(masses)
    bounds = [0, *(i for i in range(1, len(grid))
                   if ((masses[i] > 0.0) != (masses[i - 1] > 0.0)).any()), len(grid)]
    n = space.n_atoms
    ratio, induced, high, low = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    worst, factors = 0.0, []
    for lo, hi in zip(bounds, bounds[1:]):
        support = masses[lo] > 0.0
        high.fill(0.0)
        low.fill(np.inf)
        for i in range(lo, hi):
            np.divide(masses[i], w, out=ratio)
            np.divide(ratio, np.take(pushed[i] / wp, kappa_of, out=induced), out=ratio,
                      where=support)
            normal = masses[i] >= tiny
            np.maximum(high, ratio, out=high, where=normal)
            np.minimum(low, ratio, out=low, where=normal)
            if i == lo:
                mu_mass = np.zeros(n)
                np.multiply(ratio, w, out=mu_mass, where=support)
        variation = np.divide(high, low, out=ratio)
        variation -= 1.0
        j = int(np.argmax(variation))
        v = float(variation[j])
        if v > rel_tol:
            h = masses[lo:hi, j] / w[j] / (pushed[lo:hi, kappa_of[j]] / wp[kappa_of[j]])
            return FactorizationResult("not-factorizable", v, conflict=ConflictWitness(
                tuple(grid[lo + int(np.argmax(h == high[j]))]),
                tuple(grid[lo + int(np.argmax(h == low[j]))]), space.atoms[j], v))
        worst = max(worst, v)
        factors.append(SubgridFactor(tuple(grid[lo]), tuple(grid[hi - 1]), hi - lo,
                                     Measure(space, mu_mass)))
    factors = tuple(factors)
    mu0_mass = np.zeros(n)
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
                witness = ConflictWitness(chosen_fac.xi_first, fac.xi_first,
                                          space.atoms[fiber[int(np.argmax(diff))]], d)
                return FactorizationResult("not-factorizable", d, conflict=witness,
                                           subgrids=factors)
            worst = max(worst, d)
    phi = np.zeros(pushed.shape)
    pushed_mu0 = statistic.push_mass(mu0_mass)
    np.divide(pushed, pushed_mu0, out=phi, where=pushed_mu0 > 0.0)
    recon = np.max([np.abs(p[kappa_of] * mu0_mass - m).max() for p, m in zip(phi, masses)])
    return FactorizationResult("factorizable", worst, Measure(space, mu0_mass),
                               subgrids=factors, reconstruction_residual=float(recon))


def _bits(result):
    """Every field of a factorization result: floats as hex, measures as bytes."""
    c, recon = result.conflict, result.reconstruction_residual
    return (
        result.status,
        float(result.residual).hex(),
        None if c is None else (c.xi_a, c.xi_b, c.atom, float(c.variation).hex()),
        None if result.mu0 is None else result.mu0.mass.tobytes(),
        tuple((f.xi_first, f.xi_last, f.n_points, f.mu.mass.tobytes()) for f in result.subgrids),
        None if recon is None else float(recon).hex(),
    )


def _planted_tie(kappa):
    """The factorizing model, with the first and last atoms of a fiber that spans two
    blocks given one density, times one mean-dependent factor: both atoms' ratios
    vary the most, equally. Returns the model and the two atoms."""
    model = _factorizing_model(kappa)
    fiber = next(f for f in kappa.fibers() if f[0] < _BLOCK <= f[-1])
    pair = [fiber[0], fiber[-1]]

    def density(xi):
        p = model.density_grad(xi)[0]
        p[pair] = p[pair[0]] * math.exp(1e-6 * xi[0])
        return p

    return ParametrizedMeasureModel(model.domain, model.space, density), pair


def _blocked_cases():
    kappa = _statistic()
    tie, pair = _planted_tie(kappa)
    one_run = [[0.0, 1.0], [0.2, 1.0], [0.1, 1.0]]  # sigma 1: every mass normal
    return {
        # 20000 atoms, not a multiple of the block: three runs, then a conflict across them
        "ex-suff": (ex_suff(200, 100), ex_suff_projection(200, 100),
                    [[x] for x in np.linspace(-1.0, 1.0, 5)]),
        # 200 atoms, fewer than a block
        "ex-suff-small": (ex_suff(20, 10), ex_suff_projection(20, 10),
                          [[x] for x in np.linspace(0.1, 1.0, 5)]),
        "factorizing": (_factorizing_model(kappa), kappa, GRID),
        "planted": (_planted_conflict(kappa)[0], kappa, one_run),
        "tie": (tie, kappa, one_run),
    }, kappa.source.atoms[pair[0]]


@pytest.mark.parametrize("case", ("ex-suff", "ex-suff-small", "factorizing", "planted", "tie"))
def test_blocked_factorization_keeps_the_whole_array_bits(case):
    """Over blocks of atoms, the check runs the same ufuncs on the same values in the
    same order as over whole arrays: every field keeps its bits. A tie between blocks
    goes to the first atom, as np.argmax's first occurrence does over all atoms."""
    cases, first = _blocked_cases()
    model, kappa, grid = cases[case]
    assert N_SOURCE % _BLOCK and 20 * 10 < _BLOCK  # the atom counts the cases are named for
    got = fisher_neyman_check(model, kappa, grid)
    assert _bits(got) == _bits(_whole_array_factorization(model, kappa, grid))
    if case == "tie":
        assert got.status == "not-factorizable" and got.conflict.atom == first


# the dsl-geometry workload's normal density, with symbolic derivatives and,
# its exponent behind abs(...), with finite differences
DSL_NORMAL = {
    "smooth": "exp(-0.5*((x1-t1)/t2)^2)/(t2*2.5066282746310002)",
    "fd": "exp(-0.5*abs((x1-t1)/t2)^2)/(t2*2.5066282746310002)",
}


@pytest.mark.parametrize("kind, arrays", [("smooth", 7), ("fd", 6)])
def test_integrability_check_holds_a_stated_count_of_atom_sized_arrays(kind, arrays):
    """One point's jet at a time, formed by a DSL program that runs in place, with a
    finite-difference Jacobian formed in one array. A new array per op, three Jacobian
    copies and lk_norm's two temporaries held 11 and 10 arrays; the previous point's jet
    (mass and log-derivatives, 3 arrays) held beside the next one's, 10 and 9."""
    model = serialize.model_from_obj({
        "domain": {"bounds": [["-inf", "inf"], [0, "inf"]]},
        "space": {"grid": {"interval": [-5.0, 5.0], "points": N_SOURCE}},
        "density": DSL_NORMAL[kind],
    })
    grid = [[0.1, 1.2], [-0.4, 0.7], [0.8, 1.9], [0.0, 1.0]]
    dirs = [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]
    check_k_integrability(model, grid, dirs, 4)  # first calls may fill caches
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        check_k_integrability(model, grid, dirs, 4)
        rise = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert rise <= arrays * 8 * N_SOURCE + 16384, rise / (8 * N_SOURCE)


def test_a_member_is_not_held_twice():
    """The member's mass is made from the density and kept as made: beside it,
    evaluate holds one mask of the atoms; a copy into the measure held 2 masses."""
    model = gaussian_grid(5.0, N_SOURCE)
    density = np.exp(-0.5 * model.space.coords[:, 0] ** 2)
    fixed = ParametrizedMeasureModel(model.domain, model.space, density=lambda xi: density)
    evaluate(fixed, GRID[0])  # first calls may fill caches
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        member = evaluate(fixed, GRID[0])
        rise = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert not member.mass.flags.writeable and not np.shares_memory(member.mass, density)
    assert rise <= 8 * N_SOURCE + N_SOURCE + 4096, rise / (8 * N_SOURCE)


def test_log_derivative_holds_two_atom_sized_arrays_and_the_bits_of_a_sum():
    """v @ ld along a 2-d direction, accumulated in its result: the sum and one term.
    Its bits are those of sum(...) from 0, signed zeros too; that sum held 3 arrays."""
    point = jet(gaussian_grid(5.0, N_SOURCE), GRID[0])
    for v in ([0.6, 0.8], [-0.0, 0.0], [-0.0, -1.0], [-1.0, -0.0], [0.0, -0.0]):
        want = sum(v[a] * point.ld[a] for a in range(2))
        assert point.log_derivative(v).tobytes() == want.tobytes(), v
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        point.log_derivative([0.6, 0.8])
        rise = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert rise <= 2 * 8 * N_SOURCE + 4096, rise / (8 * N_SOURCE)


# traced peak through the 4:1 statistic, in arrays of 20000 floats: 6 source-sized and 6
# target-sized for a loss; the jet's own peak for monotonicity and for a tensor of any
# order, whose entries are each multiplied into one atom-sized buffer after the jet is formed
@pytest.mark.parametrize("name, arrays", [
    ("loss_table", 7.5), ("is_sufficient", 7.5), ("check_monotonicity", 6.25),
    ("tau_tensor-2", 6.25), ("tau_tensor-3", 6.25), ("tau_tensor-4", 6.25),
])
def test_diagnostics_hold_a_stated_count_of_atom_sized_arrays(name, arrays):
    model, kappa = gaussian_grid(5.0, N_SOURCE), _statistic()
    grid = [[0.0, 1.0], [0.3, 0.8], [-0.2, 1.1], [0.1, 0.9]]
    run = {
        "loss_table": lambda: loss_table(model, kappa, grid, None, 2),
        "is_sufficient": lambda: is_sufficient(model, kappa, grid, 2),
        "check_monotonicity": lambda: check_monotonicity(model, kappa, grid[1]),
        "tau_tensor-2": lambda: tau_tensor(model, grid[1], 2),
        "tau_tensor-3": lambda: tau_tensor(model, grid[1], 3),
        "tau_tensor-4": lambda: tau_tensor(model, grid[1], 4),
    }[name]
    run()  # first calls may fill caches
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        run()
        rise = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert rise <= arrays * 8 * N_SOURCE + 16384, rise / (8 * N_SOURCE)


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
    for xi in GRID:
        image = _image(jet(model, xi), family)
        assert image.measure.space.n_atoms == N_SOURCE
        for tensor, order in ((fisher_metric, 2), (amari_chentsov, 3)):
            got = _tau_values(image.ld, image.measure.mass, order, image.xi)
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
