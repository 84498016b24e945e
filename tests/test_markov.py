import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igk import (
    ContractError,
    DominationError,
    EmptyFiberError,
    MarkovKernel,
    Measure,
    ParameterDomain,
    ParametrizedMeasureModel,
    PowerMeasure,
    ProbabilityMeasure,
    SampleSpace,
    SignedMeasure,
    SpaceMismatchError,
    Statistic,
    TransverseFamily,
    as_kernel,
    check_monotonicity,
    compose,
    conditional_expectation,
    congruent_embedding,
    congruent_kernel_from_embedding,
    decompose_kernel,
    equality_direction_check,
    fisher_neyman_check,
    formal_power_derivative,
    information_loss,
    is_congruent,
    is_sufficient,
    loss_table,
    power_pushforward,
    product_space,
    pushforward,
    transverse_measures,
    tv_norm,
)
from igk import serialize
from igk.measures import _sums_to

from conftest import (
    dense_is_congruent, random_kernel, random_measure_mass, random_onto_statistic, random_space,
)


@pytest.fixture
def pair():
    """Three source atoms collapsed onto two target atoms."""
    source = SampleSpace(["x1", "x2", "x3"])
    target = SampleSpace(["a", "b"])
    kappa = Statistic(source, target, [0, 0, 1])
    return source, target, kappa


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def test_statistic_push_pull_fiber(pair):
    source, target, kappa = pair
    mu = Measure(source, [0.2, 0.3, 0.5])
    pushed = pushforward(kappa, mu)
    assert isinstance(pushed, Measure)
    np.testing.assert_allclose(pushed.mass, [0.5, 0.5])
    np.testing.assert_array_equal(kappa.pull([10.0, 20.0]), [10.0, 10.0, 20.0])
    np.testing.assert_array_equal(kappa.fiber(0), [0, 1])
    np.testing.assert_array_equal(kappa.fiber(1), [2])
    np.testing.assert_array_equal(kappa.fiber(True), [2])  # as in list indexing


@pytest.mark.parametrize("j,error,match", [
    (2, IndexError, "target atom 2 is outside 0..1"),
    (5, IndexError, "target atom 5 is outside 0..1"),
    (-1, IndexError, "target atom -1 is outside 0..1"),
    (0.5, TypeError, "cannot be interpreted as an integer"),
], ids=["2", "5", "-1", "0.5"])
def test_fiber_outside_the_target_raises(pair, j, error, match):
    _, _, kappa = pair
    with pytest.raises(error, match=match):
        kappa.fiber(j)


def test_statistic_push_keeps_signedness(pair):
    source, _, kappa = pair
    nu = SignedMeasure(source, [1.0, -1.0, 0.5])
    pushed = pushforward(kappa, nu)
    assert not isinstance(pushed, Measure)
    np.testing.assert_allclose(pushed.mass, [0.0, 0.5])


def test_statistic_validation(pair):
    source, target, _ = pair
    with pytest.raises(ValueError):
        Statistic(source, target, [0, 0])
    with pytest.raises(ValueError):
        Statistic(source, target, [0, 0, 2])


def test_statistic_rejects_fractional_entries(pair):
    # a fractional entry once truncated silently: 1.7 named atom 1
    source, target, _ = pair
    for bad in ([0, 1.7, 1], [0, 0, np.nan], [0, 0, np.inf]):
        with pytest.raises(ValueError, match="integers"):
            Statistic(source, target, bad)
    # whole floats, as a JSON parser may return them, name their atoms
    np.testing.assert_array_equal(Statistic(source, target, [0.0, 1.0, 1.0]).map, [0, 1, 1])


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_validation(pair):
    source, target, _ = pair
    with pytest.raises(ValueError, match="row 1"):
        MarkovKernel(source, target, [[1, 0], [0.6, 0.3], [0, 1]])
    with pytest.raises(ValueError):
        MarkovKernel(source, target, [[1, 0], [-0.1, 1.1], [0, 1]])
    k = MarkovKernel(source, target, [[1, 0], [0.25, 0.75], [0, 1]])
    assert k.row_measure(1) == ProbabilityMeasure(target, [0.25, 0.75])


def test_a_kernel_row_is_held_to_the_roundoff_of_its_nonzeros():
    # 10000 target atoms: the rule for 10000 terms allows 2.2e-12, for 2 terms 1e-12
    one, wide = SampleSpace(["x"]), SampleSpace(np.arange(10_000))
    row = np.zeros((1, 10_000))
    row[0, :2] = 0.5, 0.5 + 1.5e-12
    with pytest.raises(ValueError, match="row 0 sums to"):
        MarkovKernel(one, wide, row)
    row[0, 1] = 0.5 + 0.9e-12
    full = np.full((1, 10_000), 1e-4)
    full[0, 0] += 2e-12  # within 10000 eps of 1, past the 1e-12 floor
    for rows in (row, full):
        k_cong, kappa1, kappa2 = decompose_kernel(MarkovKernel(one, wide, rows))
        assert k_cong.target.n_atoms == np.count_nonzero(rows) and is_congruent(k_cong, kappa1)


def test_kernel_of_statistic_is_dirac(pair):
    source, target, kappa = pair
    k = as_kernel(kappa)
    np.testing.assert_array_equal(k.rows, [[1, 0], [1, 0], [0, 1]])
    mu = Measure(source, [0.2, 0.3, 0.5])
    assert pushforward(k, mu) == pushforward(kappa, mu)


def test_pushforward_preserves_mass_and_contracts_tv(pair):
    source, target, _ = pair
    k = MarkovKernel(source, target, [[0.5, 0.5], [1, 0], [0.25, 0.75]])
    nu = SignedMeasure(source, [1.0, -2.0, 0.5])
    out = pushforward(k, nu)
    assert out.total() == pytest.approx(nu.total())
    assert tv_norm(out) <= tv_norm(nu) + 1e-15


def test_conditional_expectation_oracle(pair):
    source, _, kappa = pair
    mu = Measure(source, [0.2, 0.3, 0.5])
    phi = [1.0, 3.0, 2.0]
    # fiber a: (0.2*1 + 0.3*3) / 0.5, fiber b: 2
    np.testing.assert_allclose(conditional_expectation(kappa, mu, phi), [2.2, 2.0])


def test_conditional_expectation_null_convention(pair):
    source, _, kappa = pair
    mu = Measure(source, [0.0, 0.0, 1.0])
    out = conditional_expectation(kappa, mu, [5.0, 5.0, 2.0])
    np.testing.assert_allclose(out, [0.0, 2.0])


def test_conditional_expectation_defines_pushforward_density(pair):
    source, _, kappa = pair
    rng = np.random.default_rng(7)
    mu = Measure(source, rng.uniform(0.1, 1.0, size=3))
    phi = rng.normal(size=3)
    phi_prime = conditional_expectation(kappa, mu, phi)
    lhs = pushforward(kappa, SignedMeasure(source, phi * mu.mass))
    rhs = phi_prime * pushforward(kappa, mu).mass
    np.testing.assert_allclose(lhs.mass, rhs)


def test_every_transport_matches_its_source_by_atoms(pair):
    source, target, kappa = pair
    mass, coeff = [0.2, 0.3, 0.5], [0.1, 0.2, 0.3]
    domain = ParameterDomain(((0.0, 1.0),))

    def uses(s, t):
        """Every entry point that matches a space ``s`` against a transport ``t``."""
        yield lambda: pushforward(t, Measure(s, mass))
        yield lambda: conditional_expectation(t, Measure(s, mass), [1.0, 2.0, 3.0])
        yield lambda: power_pushforward(t, PowerMeasure(s, 0.5, coeff))
        yield lambda: formal_power_derivative(
            t, Measure(s, mass), PowerMeasure(s, 0.5, coeff)
        )
        yield lambda: compose(t, Statistic(s, s, [0, 1, 2]))
        model = ParametrizedMeasureModel(
            domain, s, lambda xi: np.array([xi[0], 0.5, 1.0 - xi[0]])
        )
        yield lambda: loss_table(model, t, [[0.3]], None, 2)
        yield lambda: is_sufficient(model, t, [[0.3]], 2)
        yield lambda: information_loss(model, t, [0.3], [1.0], 2)
        yield lambda: check_monotonicity(model, t, [0.3])
        if isinstance(t, Statistic):
            yield lambda: equality_direction_check(model, t, [0.3], [1.0])
            back = [[0.4, 0.6, 0.0], [0.0, 0.0, 1.0]]
            yield lambda: is_congruent(MarkovKernel(target, s, back), t)
            yield lambda: transverse_measures(t, Measure(s, mass))
            family = TransverseFamily(Statistic(s, target, [0, 0, 1]), [0.4, 0.6, 1.0])
            yield lambda: is_congruent(family, t)
            yield lambda: fisher_neyman_check(model, t, [[0.3], [0.6]])

    # the same atoms with coordinates and weights: mass moves by atom index
    twin = SampleSpace(source.atoms, coords=[0.0, 1.0, 2.0], weights=[1.0, 2.0, 3.0])
    other = SampleSpace(["x1", "x2", "x4"])
    for t in (kappa, as_kernel(kappa)):
        for use in uses(twin, t):
            use()
        for use in uses(other, t):
            with pytest.raises(SpaceMismatchError, match="source atoms do not match"):
                use()
    pushed = pushforward(kappa, Measure(twin, mass))
    np.testing.assert_array_equal(pushed.mass, [0.5, 0.5])


def test_compose_is_matrix_product():
    a = SampleSpace(["a1", "a2"])
    b = SampleSpace(["b1", "b2"])
    c = SampleSpace(["c1"])
    k1 = MarkovKernel(a, b, [[0.5, 0.5], [0.1, 0.9]])
    k2 = MarkovKernel(b, c, [[1.0], [1.0]])
    k = compose(k2, k1)
    assert k.source == a and k.target == c
    np.testing.assert_allclose(k.rows, [[1.0], [1.0]])
    with pytest.raises(SpaceMismatchError):
        compose(k1, k1)


KINDS = ("statistic", "family", "kernel")


def _transport(rng, kind, source, n_target, tag):
    """A random statistic, transverse family or dense kernel from ``source``
    onto ``n_target`` atoms; a family needs ``n_target >= source.n_atoms``."""
    target = random_space(rng, n_target, tag=tag)
    if kind == "statistic":
        return Statistic(source, target, rng.integers(0, n_target, size=source.n_atoms))
    if kind == "kernel":
        return random_kernel(rng, source, target)
    back = Statistic(target, source, random_onto_statistic(rng, target, source.n_atoms).map)
    return transverse_measures(back, Measure(target, random_measure_mass(rng, n_target)))


@pytest.mark.parametrize("kind1", KINDS)
@pytest.mark.parametrize("kind2", KINDS)
@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_compose_is_the_dense_product(kind1, kind2, seed):
    rng = np.random.default_rng(seed)
    x = random_space(rng, int(rng.integers(1, 6)))
    n_y = (x.n_atoms if kind1 == "family" else 1) + int(rng.integers(0, 7))
    k1 = _transport(rng, kind1, x, n_y, "y")
    n_z = (n_y if kind2 == "family" else 1) + int(rng.integers(0, 7))
    k2 = _transport(rng, kind2, k1.target, n_z, "z")
    got = compose(k2, k1)
    assert got.source is x and got.target is k2.target
    assert isinstance(got, Statistic) == (kind1 == kind2 == "statistic")
    want = as_kernel(k1).rows @ as_kernel(k2).rows
    if kind1 == "statistic" or kind2 == "family":
        np.testing.assert_array_equal(as_kernel(got).rows, want)  # one product per cell
    else:
        # compose adds a cell's products in entry order, the matrix product in its own
        assert np.all(_sums_to(as_kernel(got).rows, want, n_y))


def test_compose_keeps_statistics_as_maps():
    # 20000 -> 5000 -> 2: the dense product of the two matrices peaked at 900 MB
    a, b, c = (SampleSpace(np.arange(n)) for n in (20000, 5000, 2))
    s1 = Statistic(a, b, np.random.default_rng(0).integers(0, 5000, size=20000))
    s2 = Statistic(b, c, np.arange(5000) % 2)
    tracemalloc.start()
    try:
        got = compose(s2, s1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(got, Statistic) and got.source is a and got.target is c
    np.testing.assert_array_equal(got.map, s2.map[s1.map])
    assert peak < 5e6, peak


@pytest.mark.parametrize("d, n, m", [(2, 20000, 5000), (2000, 50, 10), (5, 20000, 200),
                                     (0, 50, 10)])
def test_batched_statistic_push_is_its_row_pushes_without_a_d_by_n_index_array(d, n, m):
    # one flat index per (row, atom) made a (d, n) array, the largest temporary of an
    # induced Jacobian when fibers hold many atoms; a block of rows pushed through such an
    # index held 280,916, 455,432 and 170,456 bytes for the first three cases
    kappa = Statistic(SampleSpace(np.arange(n)), SampleSpace(np.arange(m)),
                      np.random.default_rng(1).integers(0, m, size=n))
    rows = np.random.default_rng(2).standard_normal((d, n)) * np.exp(
        np.random.default_rng(3).uniform(-300, 300, (d, n)))
    tracemalloc.start()
    try:
        got = kappa.push_mass(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (d, m)
    for row, image in zip(rows, got):
        assert image.tobytes() == kappa.push_mass(row).tobytes()
    assert kappa.push_mass(np.asfortranarray(rows)).tobytes() == got.tobytes()
    assert peak <= got.nbytes + 8 * m + 4096, peak  # the result and one row's push


def test_batched_kernel_push_holds_one_rows_values_per_entry():
    # a dense 2000 x 500 kernel has 10^6 entries: spreading three rows over them
    # at once held 16.03 MB, one row at a time holds 8 MB
    n, m, d = 2000, 500, 3
    rows = np.random.default_rng(0).uniform(0.0, 1.0, size=(n, m))
    kernel = MarkovKernel(SampleSpace(np.arange(n)), SampleSpace(np.arange(m)),
                          rows / rows.sum(1)[:, None])
    a = np.random.default_rng(1).standard_normal((d, n))
    tracemalloc.start()
    try:
        got = kernel.push_mass(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for row, image in zip(a, got):
        assert image.tobytes() == kernel.push_mass(row).tobytes()
    np.testing.assert_allclose(got, a @ kernel.rows, rtol=1e-12, atol=1e-12)
    assert peak <= got.nbytes + 8 * n * m + 64 * 1024, peak


def test_statistic_push_reads_its_read_only_map_without_a_copy():
    # bincount copies an index array it cannot write: one push through the
    # read-only map itself traced 200,192 bytes for this 40,000-byte result
    n, m = 20000, 5000
    kappa = Statistic(SampleSpace(np.arange(n)), SampleSpace(np.arange(m)),
                      np.random.default_rng(1).integers(0, m, size=n))
    mass = np.random.default_rng(2).random(n)
    tracemalloc.start()
    try:
        got = kappa.push_mass(mass)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not kappa.map.flags.writeable
    want = np.bincount(np.array(kappa.map), weights=mass, minlength=m)
    assert got.tobytes() == want.tobytes()
    assert peak <= got.nbytes + 1000, peak


# ---------------------------------------------------------------------------
# congruence
# ---------------------------------------------------------------------------

def test_congruent_embedding_oracle(pair):
    source, target, kappa = pair
    mu = Measure(source, [0.2, 0.3, 0.5])
    nu_prime = SignedMeasure(target, [1.0, 0.0])
    emb = congruent_embedding(kappa, mu, nu_prime)
    np.testing.assert_allclose(emb.mass, [0.4, 0.6, 0.0])
    # round trip through the statistic
    np.testing.assert_allclose(pushforward(kappa, emb).mass, nu_prime.mass)


def test_congruent_embedding_needs_domination(pair):
    source, target, kappa = pair
    mu = Measure(source, [0.0, 0.0, 1.0])
    with pytest.raises(DominationError):
        congruent_embedding(kappa, mu, SignedMeasure(target, [0.5, 0.5]))


def test_transverse_measures_oracle(pair):
    source, _, kappa = pair
    fam = transverse_measures(kappa, Measure(source, [0.2, 0.3, 0.5]))
    np.testing.assert_allclose(as_kernel(fam).rows[0], [0.4, 0.6, 0.0])
    np.testing.assert_allclose(as_kernel(fam).rows[1], [0.0, 0.0, 1.0])
    # a null fiber falls back to the uniform probability on the fiber
    fam0 = transverse_measures(kappa, Measure(source, [0.0, 0.0, 1.0]))
    np.testing.assert_allclose(as_kernel(fam0).rows[0], [0.5, 0.5, 0.0])


def test_transverse_measures_empty_fiber():
    source = SampleSpace(["x1", "x2"])
    target = SampleSpace(["a", "b"])
    kappa = Statistic(source, target, [0, 0])
    fam = transverse_measures(kappa, Measure(source, [0.5, 0.5]))
    assert not is_congruent(fam, kappa)  # the empty fiber 1 has no row
    with pytest.raises(EmptyFiberError):
        congruent_kernel_from_embedding(kappa, Measure(source, [0.5, 0.5]))


def test_congruent_kernel_oracle(pair):
    source, target, kappa = pair
    mu = Measure(source, [0.2, 0.3, 0.5])
    k = congruent_kernel_from_embedding(kappa, mu)
    np.testing.assert_allclose(as_kernel(k).rows, [[0.4, 0.6, 0.0], [0.0, 0.0, 1.0]])
    assert is_congruent(k, kappa)
    # kernel pushforward agrees with the embedding map
    nu_prime = SignedMeasure(target, [0.25, 0.75])
    np.testing.assert_allclose(
        pushforward(k, nu_prime).mass,
        congruent_embedding(kappa, mu, nu_prime).mass,
    )


def test_congruence_needs_a_statistic_in_the_statistics_place(pair):
    # a kernel has no map: each of these raised AttributeError on its _index or pull
    source, target, kappa = pair
    kernel, mu = as_kernel(kappa), Measure(source, [0.2, 0.3, 0.5])
    nu_prime = SignedMeasure(target, [1.0, 0.0])
    section = congruent_kernel_from_embedding(kappa, mu)
    calls = [
        ("is_congruent", lambda k: is_congruent(section, k)),
        ("congruent_embedding", lambda k: congruent_embedding(k, mu, nu_prime)),
        ("transverse_measures", lambda k: transverse_measures(k, mu)),
        ("transverse_measures", lambda k: congruent_kernel_from_embedding(k, mu)),
    ]
    for name, call in calls:
        call(kappa)
        with pytest.raises(ContractError, match="^{} needs a Statistic, got MarkovKernel$"
                           .format(name)):
            call(kernel)


@pytest.mark.parametrize("shape", ["(n+1,)", "(2, n+1)"])
def test_every_push_rejects_masses_on_another_number_of_atoms(pair, shape):
    # a statistic and a kernel raised NumPy's bincount or broadcast ValueError
    _, target, kappa = pair
    kernel = MarkovKernel(target, kappa.source, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    for transport in (kappa, kernel, TransverseFamily(kappa, [0.4, 0.6, 1.0])):
        n = transport.source.n_atoms
        bad = np.ones((n + 1,) if shape == "(n+1,)" else (2, n + 1))
        message = "expected masses on {} atoms, got shape {}".format(n, bad.shape)
        with pytest.raises(ValueError, match="^{}$".format(re.escape(message))):
            transport.push_mass(bad)


def test_every_push_rejects_masses_of_another_rank(pair):
    # at rank 3 a statistic raised NumPy's "object too deep", a kernel a broadcast error,
    # and a family pushed the masses
    _, target, kappa = pair
    kernel = MarkovKernel(target, kappa.source, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    for transport in (kappa, kernel, TransverseFamily(kappa, [0.4, 0.6, 1.0])):
        n = transport.source.n_atoms
        for bad in (np.ones((2, 2, n)), np.ones((1, 3, 1, n))):
            message = "expected (n,) masses or (d, n) rows, got shape {}".format(bad.shape)
            with pytest.raises(ValueError, match="^{}$".format(re.escape(message))):
                transport.push_mass(bad)
        with pytest.raises(ValueError, match=re.escape("atoms, got shape ()")):
            transport.push_mass(1.0)


# ---------------------------------------------------------------------------
# one push body: a family pushes along its entries, as a statistic and a kernel do
# ---------------------------------------------------------------------------

def ref_family_push(family, a):
    """The gather a family pushed with before, one weighted source mass per target atom."""
    return np.asarray(a, dtype=float)[..., family.statistic.map] * family._kernel().weights


def _seeded_family(rng, n, m):
    """The family of a statistic of n atoms onto m, a quarter of its weights zero."""
    idx = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
    rng.shuffle(idx)
    kappa = Statistic(SampleSpace(np.arange(n)), SampleSpace(np.arange(m)), idx)
    mass = rng.uniform(0.1, 2.0, size=n) * (rng.random(n) > 0.25)
    return transverse_measures(kappa, Measure(kappa.source, mass))


def _awkward_masses(rng, shape):
    """Signed masses over 600 decades, with zeros, -0.0s and subnormals of both signs."""
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    pick = rng.random(shape)
    a[pick < 0.15] = 0.0
    a[(0.15 <= pick) & (pick < 0.3)] = -0.0
    tiny = (0.3 <= pick) & (pick < 0.4)
    a[tiny] = rng.choice([-1.0, 1.0], size=tiny.sum()) * rng.integers(1, 2**52, size=tiny.sum())
    a[tiny] *= 2.0 ** -1074
    return a


_SIZES = [(1, 1), (2000, 500), (255, 19), (191, 20), (153, 30), (81, 38), (93, 2), (13, 6)]


@pytest.mark.parametrize("n, m", _SIZES + [(20000, 5000)])
def test_family_push_is_the_replaced_gather_but_for_the_sign_of_zeros(n, m):
    rng = np.random.default_rng(n + m)
    family = _seeded_family(rng, n, m)
    assert n < 100 or (family.weights == 0).any()
    for shape in ((m,), (3, m), (0, m)):
        a = _awkward_masses(rng, shape)
        got, want = family.push_mass(a), ref_family_push(family, a)
        np.testing.assert_array_equal(got, want)  # every value, with -0.0 == 0.0
        differ = got.view(np.int64) != want.view(np.int64)
        assert np.all(want[differ] == 0) and not np.signbit(got[got == 0]).any()
        if n == 20000 and a.ndim == 1:  # a -0.0 mass, or a negative one at weight 0
            assert differ.sum() > 1000, differ.sum()


def _kernel_with_zeros(rng, n, m):
    rows = rng.dirichlet(np.ones(m), size=n) * (rng.random((n, m)) > 0.3)
    rows[rows.sum(axis=1) == 0, 0] = 1.0
    return MarkovKernel(SampleSpace(np.arange(n)), SampleSpace(np.arange(m)),
                        rows / rows.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("n, m", _SIZES)
def test_every_transport_pushes_as_its_kernel_bit_for_bit(n, m):
    # a family's gather kept a -0.0 its kernel's push sums to 0.0: 1810 of the 8000 values
    # it pushed differed in bits on the 2000 -> 500 case
    rng = np.random.default_rng(n * m)
    family = _seeded_family(rng, n, m)
    for transport in (family.statistic, _kernel_with_zeros(rng, n, m), family):
        kernel = as_kernel(transport)
        for shape in ((transport.source.n_atoms,), (3, transport.source.n_atoms)):
            a = _awkward_masses(rng, shape)
            assert transport.push_mass(a).tobytes() == kernel.push_mass(a).tobytes()


def test_a_family_keeps_its_entries_as_a_kernel_does():
    # as tests/test_scale.py checks for a kernel: every push reads the stored entries
    family = _seeded_family(np.random.default_rng(0), 2000, 500)
    first, second = family._support(), family._support()
    assert all(a is b for a, b in zip(first, second))
    size, order, weight = first
    np.testing.assert_array_equal(size, np.bincount(family.statistic.map, minlength=500))
    np.testing.assert_array_equal(order, np.argsort(family.statistic.map, kind="stable"))
    assert weight.tobytes() == family.weights[order].tobytes()


def test_family_with_an_empty_fiber_refuses_every_push(pair):
    source, target, _ = pair
    family = TransverseFamily(Statistic(source, target, [0, 0, 0]), [0.2, 0.3, 0.5])
    for a in (np.ones(2), np.ones((3, 2)), np.ones((0, 2)), np.ones(5)):
        with pytest.raises(EmptyFiberError, match="^target atom 'b' has an empty preimage$"):
            family.push_mass(a)


def test_transverse_family_validates_its_weights(pair):
    _, _, kappa = pair
    for bad in ([0.4, 0.6], [0.4, 0.6, np.nan], [1.4, -0.4, 1.0]):
        with pytest.raises(ValueError, match="weight per source atom"):
            TransverseFamily(kappa, bad)
    with pytest.raises(ValueError, match="fiber 0 weights sum to 0.9"):
        TransverseFamily(kappa, [0.4, 0.5, 1.0])
    # it pushes masses on the statistic's 2 target atoms, as a kernel would
    family = TransverseFamily(kappa, [0.4, 0.6, 1.0])
    for bad in (np.ones(3), np.ones((2, 1))):
        with pytest.raises(ValueError, match="expected masses on 2 atoms"):
            family.push_mass(bad)
    # summed in order, 200000 equal weights come to 1 + 2.3e-12: within size * eps
    n = 200_000
    one = Statistic(SampleSpace(np.arange(n)), SampleSpace(["y"]), np.zeros(n, dtype=int))
    assert abs(np.bincount(one.map, weights=np.full(n, 1 / n))[0] - 1) > 1e-12
    TransverseFamily(one, np.full(n, 1 / n))


def test_statistic_and_family_copy_the_callers_arrays(pair):
    source, target, _ = pair
    idx, weights = np.array([0, 0, 1]), np.array([0.4, 0.6, 1.0])
    rows = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    kappa = Statistic(source, target, idx)
    family = TransverseFamily(kappa, weights)
    kernel = MarkovKernel(source, target, rows)
    # once frozen in place: writing them raised "assignment destination is read-only"
    idx[0], weights[0], rows[0] = 1, 0.5, [0.0, 1.0]
    np.testing.assert_array_equal(kappa.map, [0, 0, 1])
    np.testing.assert_array_equal(family.weights, [0.4, 0.6, 1.0])
    np.testing.assert_array_equal(kernel.rows[0], [1.0, 0.0])
    assert not (kappa.map.flags.writeable or family.weights.flags.writeable)
    assert not kernel.rows.flags.writeable


@pytest.mark.parametrize("what", ["statistic", "family"])
def test_dense_conversion_builds_its_matrix_once(what):
    # 4000 -> 1000 atoms: a 32 MB matrix, which a second copy made peak at 64 MB
    n, m = 4000, 1000
    kappa = Statistic(SampleSpace(np.arange(n)), SampleSpace(np.arange(m)), np.arange(n) % m)
    if what == "family":
        kappa = transverse_measures(kappa, Measure(kappa.source, np.ones(n)))
    tracemalloc.start()
    try:
        dense = as_kernel(kappa).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dense.size == n * m
    assert peak <= 1.25 * dense.nbytes, (peak, dense.nbytes)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_transverse_family_is_its_dense_kernel(seed):
    rng = np.random.default_rng(seed)
    source = random_space(rng, int(rng.integers(1, 10)))
    m = int(rng.integers(1, 5))
    target = random_space(rng, m, tag="t")
    kappa = Statistic(source, target, rng.integers(0, m, size=source.n_atoms))
    mass = random_measure_mass(rng, source.n_atoms)
    # zero and tiny masses: null fibers, and leaks just inside the tolerance
    mass *= rng.choice([0.0, 1e-13, 1.0], p=[0.15, 0.15, 0.7], size=source.n_atoms)
    mu = Measure(source, mass)
    family = transverse_measures(kappa, mu)
    # the same family under perturbed maps: one atom moved to another fiber
    moved = kappa.map.copy()
    moved[int(rng.integers(0, source.n_atoms))] = int(rng.integers(0, m))
    perturbed = Statistic(source, target, moved)
    assert is_congruent(family, perturbed) == dense_is_congruent(family, perturbed)
    leaky = transverse_measures(perturbed, mu)
    assert is_congruent(leaky, kappa) == dense_is_congruent(leaky, kappa)
    if np.bincount(kappa.map, minlength=m).min() == 0:
        for use in (
            lambda: family.push_mass(np.ones(m)),
            lambda: as_kernel(family),
            lambda: congruent_kernel_from_embedding(kappa, mu),
        ):
            with pytest.raises(EmptyFiberError, match="empty preimage"):
                use()
        assert not is_congruent(family, kappa)
        return
    assert is_congruent(family, kappa)
    dense = as_kernel(family)
    # signed masses with zeros; only the sign of a zero may differ from a @ rows
    a = rng.standard_normal((3, m)) * rng.choice([0.0, 1.0], size=(3, m))
    np.testing.assert_array_equal(family.push_mass(a), dense.push_mass(a))
    np.testing.assert_array_equal(family.push_mass(a[0]), dense.push_mass(a[0]))
    nu = SignedMeasure(target, a[0])
    assert pushforward(family, nu) == pushforward(dense, nu)
    assert_same_decomposition(decompose_kernel(family),
                              decompose_kernel(MarkovKernel(target, source, dense.rows)))


def test_is_congruent_agrees_with_the_dense_formula():
    rng = np.random.default_rng(7)
    kappa = random_onto_statistic(rng, random_space(rng, 12), 4)
    mu = Measure(kappa.source, random_measure_mass(rng, 12))
    family = transverse_measures(kappa, mu)
    section = Statistic(kappa.target, kappa.source, [f[0] for f in kappa.fibers()])
    astray = Statistic(kappa.target, kappa.source, [f[0] for f in kappa.fibers()][::-1])
    leaky = random_kernel(rng, kappa.target, kappa.source)
    cases = [(section, True), (astray, False), (family, True), (as_kernel(family), True),
             (leaky, False)]
    for kernel, want in cases:
        assert is_congruent(kernel, kappa) == dense_is_congruent(kernel, kappa) == want, kernel
    # a family along a statistic that misses a target atom has an empty fiber
    missing = Statistic(kappa.source, kappa.target, np.minimum(kappa.map, 2))
    gappy = transverse_measures(missing, mu)
    assert not is_congruent(gappy, missing) and not dense_is_congruent(gappy, missing)
    with pytest.raises(EmptyFiberError, match="empty preimage"):
        as_kernel(gappy)


def test_is_congruent_rejects_leaky_rows(pair):
    source, target, kappa = pair
    leaky = MarkovKernel(target, source, [[0.9, 0.0, 0.1], [0.0, 0.0, 1.0]])
    assert not is_congruent(leaky, kappa)


def test_is_congruent_allows_the_roundoff_of_a_large_fiber():
    # summed in order, 200000 equal weights come to 1 + 2.3e-12; an absolute
    # 1e-12 judged this family, and its dense kernel, not congruent
    n = 200_000
    one = Statistic(SampleSpace(np.arange(n)), SampleSpace(["y"]), np.zeros(n, dtype=int))
    family = transverse_measures(one, Measure(one.source, np.ones(n)))
    assert abs(np.bincount(one.map, weights=family.weights)[0] - 1) > 1e-12
    assert is_congruent(family, one)
    assert is_congruent(as_kernel(family), one)
    # a leak of one weight, 1/(n-1), still shows
    two = SampleSpace(["y", "z"])
    kappa = Statistic(one.source, two, np.r_[1, 1, np.zeros(n - 2, dtype=int)])
    moved = Statistic(one.source, two, np.r_[0, 1, np.zeros(n - 2, dtype=int)])
    leaky = transverse_measures(moved, Measure(one.source, np.ones(n)))
    assert not is_congruent(leaky, kappa) and not is_congruent(as_kernel(leaky), kappa)


def test_a_family_within_the_rule_is_a_kernel_and_writes():
    # 3e-11 over, on one fiber of 200000 weights: inside 200000 * eps = 4.4e-11,
    # outside the absolute 1e-12 that MarkovKernel held its rows to
    n = 200_000
    one = Statistic(SampleSpace(np.arange(n)), SampleSpace(["y"]), np.zeros(n, dtype=int))
    weights = np.full(n, 1 / n) * (1 + 3e-11)
    family = TransverseFamily(one, weights)
    assert is_congruent(family, one)
    dense = as_kernel(family)
    assert serialize.kernel_to_obj(family)["rows"] == dense.rows.tolist()
    back = serialize.kernel_from_obj(json.loads(serialize.dumps(family)))
    np.testing.assert_array_equal(back.rows, dense.rows)
    over = weights * (1 + 1e-9)
    with pytest.raises(ValueError, match="fiber 0 weights sum to"):
        TransverseFamily(one, over)
    with pytest.raises(ValueError, match="kernel row 0 sums to"):
        MarkovKernel(one.target, one.source, over[None, :])


@pytest.mark.parametrize("seed", range(4))
def test_families_inside_the_rule_convert(seed):
    rng = np.random.default_rng(seed)
    n, m = 100_000, int(rng.integers(1, 6))
    kappa = random_onto_statistic(rng, SampleSpace(np.arange(n)), m)
    weights = rng.uniform(0.0, 1.0, size=n)
    weights /= np.bincount(kappa.map, weights=weights)[kappa.map]
    # each fiber's sum moved anywhere within 0.9 of its bound, past the old 1e-12
    size = np.bincount(kappa.map)
    bound = np.maximum(1e-12, size * np.finfo(float).eps)
    weights *= (1.0 + rng.uniform(-0.9, 0.9, size=m) * bound)[kappa.map]
    dense = as_kernel(TransverseFamily(kappa, weights))
    assert dense.rows.shape == (m, n)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_product_space_order():
    left = SampleSpace(["a", "b"])
    right = SampleSpace(["1", "2", "3"])
    prod = product_space(left, right)
    assert prod.atoms == ("a|1", "a|2", "a|3", "b|1", "b|2", "b|3")
    # a positive kernel's decomposition lives on the whole product, labelled alike
    k_cong, _, _ = decompose_kernel(MarkovKernel(left, right, np.full((2, 3), 1 / 3)))
    assert k_cong.target.atoms == prod.atoms


def test_decompose_kernel_oracle(pair):
    source, target, _ = pair
    k = MarkovKernel(source, target, [[0.5, 0.5], [1, 0], [0.25, 0.75]])
    k_cong, kappa1, kappa2 = decompose_kernel(k)
    # the support: x2|b, where K is 0, is no atom
    assert k_cong.target.atoms == ("x1|a", "x1|b", "x2|a", "x3|a", "x3|b")
    assert is_congruent(k_cong, kappa1)
    recomposed = compose(as_kernel(kappa2), k_cong)
    np.testing.assert_array_equal(recomposed.rows, k.rows)


def assert_same_decomposition(got, want):
    """Equal atoms, both maps and the weights."""
    (fam, kappa1, kappa2), (fam_w, kappa1_w, kappa2_w) = got, want
    assert fam.target.atoms == fam_w.target.atoms
    np.testing.assert_array_equal(kappa1.map, kappa1_w.map)
    np.testing.assert_array_equal(kappa2.map, kappa2_w.map)
    np.testing.assert_array_equal(fam.weights, fam_w.weights)


def test_a_family_decomposes_as_its_dense_kernel():
    # u|b has weight 0: no entry of the family's kernel, as of its rows
    abc, uv = SampleSpace(["a", "b", "c"]), SampleSpace(["u", "v"])
    family = TransverseFamily(Statistic(abc, uv, [0, 0, 1]), [1, 0, 1])
    got = decompose_kernel(family)
    assert got[0].target.atoms == ("u|a", "v|c")
    assert_same_decomposition(got, decompose_kernel(MarkovKernel(uv, abc, as_kernel(family).rows)))


# ---------------------------------------------------------------------------
# power transport
# ---------------------------------------------------------------------------

def test_power_pushforward_oracle():
    source = SampleSpace(["x1", "x2"])
    target = SampleSpace(["y1", "y2"])
    k = MarkovKernel(source, target, [[1, 0], [0.5, 0.5]])
    nu = PowerMeasure(source, 0.5, [1.0, 2.0])
    out = power_pushforward(k, nu)
    # signed masses (1, 4) push to (3, 2); back at exponent 1/2
    np.testing.assert_allclose(out.coeff, [np.sqrt(3.0), np.sqrt(2.0)])
    assert out.r == 0.5


def test_power_pushforward_reduces_to_plain_at_exponent_one(pair):
    source, target, _ = pair
    k = MarkovKernel(source, target, [[0.5, 0.5], [1, 0], [0.25, 0.75]])
    nu = SignedMeasure(source, [1.0, -2.0, 0.5])
    out = power_pushforward(k, PowerMeasure(source, 1.0, nu.mass))
    np.testing.assert_allclose(out.coeff, pushforward(k, nu).mass)


def test_formal_power_derivative_oracle():
    source = SampleSpace(["x1", "x2"])
    target = SampleSpace(["y1", "y2"])
    k = MarkovKernel(source, target, [[1, 0], [0.5, 0.5]])
    mu = Measure(source, [0.2, 0.8])
    phi = np.array([1.0, 3.0])
    rho = PowerMeasure(source, 0.5, phi * mu.mass**0.5)
    out = formal_power_derivative(k, mu, rho)
    np.testing.assert_allclose(
        out.coeff, [7.0 / 3.0 * np.sqrt(0.6), 3.0 * np.sqrt(0.4)]
    )


def test_formal_power_derivative_needs_a_nonnegative_base():
    source = SampleSpace(["x1", "x2"])
    k = MarkovKernel(source, SampleSpace(["y1"]), [[1.0], [1.0]])
    mu = SignedMeasure(source, [1.0, -0.5])
    rho = PowerMeasure(source, 0.5, [0.3, 0.2])
    with pytest.raises(ValueError, match="nonnegative base measure"):
        formal_power_derivative(k, mu, rho)


def test_formal_power_derivative_needs_domination():
    source = SampleSpace(["x1", "x2"])
    target = SampleSpace(["y1"])
    k = MarkovKernel(source, target, [[1.0], [1.0]])
    mu = Measure(source, [1.0, 0.0])
    rho = PowerMeasure(source, 0.5, [0.0, 1.0])
    # radon_nikodym's message: the density is taken against mu**r there
    with pytest.raises(DominationError,
                       match="^measure has mass 1.0 on dominator-null atom 'x2'$"):
        formal_power_derivative(k, mu, rho)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_embedding_always_inverts_push(seed):
    rng = np.random.default_rng(seed)
    source = random_space(rng, int(rng.integers(2, 7)))
    kappa = random_onto_statistic(rng, source, int(rng.integers(1, source.n_atoms + 1)))
    mu = Measure(source, random_measure_mass(rng, source.n_atoms))
    nu_prime = SignedMeasure(kappa.target, rng.normal(size=kappa.target.n_atoms))
    emb = congruent_embedding(kappa, mu, nu_prime)
    np.testing.assert_allclose(pushforward(kappa, emb).mass, nu_prime.mass, atol=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_congruent_kernel_sections_statistic(seed):
    rng = np.random.default_rng(seed)
    source = random_space(rng, int(rng.integers(2, 7)))
    kappa = random_onto_statistic(rng, source, int(rng.integers(1, source.n_atoms + 1)))
    mu = Measure(source, random_measure_mass(rng, source.n_atoms))
    k = congruent_kernel_from_embedding(kappa, mu)
    assert is_congruent(k, kappa)
    # composing the section after the statistic acts as the identity on Y
    ident = compose(as_kernel(kappa), k)
    np.testing.assert_allclose(ident.rows, np.eye(kappa.target.n_atoms), atol=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_decompose_reproduces_any_kernel(seed):
    rng = np.random.default_rng(seed)
    source = random_space(rng, int(rng.integers(1, 6)))
    target = random_space(rng, int(rng.integers(1, 6)), tag="t")
    k = random_kernel(rng, source, target)
    k_cong, kappa1, kappa2 = decompose_kernel(k)
    assert is_congruent(k_cong, kappa1)
    recomposed = compose(as_kernel(kappa2), k_cong)
    np.testing.assert_allclose(recomposed.rows, k.rows, atol=1e-15)
