import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igk import (
    DominationError,
    ExponentError,
    Measure,
    PowerMeasure,
    ProbabilityMeasure,
    SampleSpace,
    SignedMeasure,
    SpaceMismatchError,
    ZeroMassError,
    d_pow_abs,
    d_pow_signed,
    dominates,
    jordan_decompose,
    lk_norm,
    multiply,
    normalize,
    pow_abs,
    pow_signed,
    power_norm,
    power_of_measure,
    radon_nikodym,
    tv_norm,
)
from igk.measures import _sums_to

from conftest import random_signed, random_space


def small_space(n=3):
    return SampleSpace([chr(ord("a") + i) for i in range(n)])


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

def test_space_basics():
    sp = SampleSpace(["a", "b", "c"])
    assert sp.n_atoms == 3
    assert len(sp) == 3
    assert sp.atoms == ("a", "b", "c")
    assert sp.index("b") == 1
    np.testing.assert_array_equal(sp.base_masses, [1.0, 1.0, 1.0])


def test_space_weights_become_base_masses():
    sp = SampleSpace(["a", "b"], weights=[0.5, 2.0])
    np.testing.assert_array_equal(sp.base_masses, [0.5, 2.0])


def test_space_coords_promoted_to_column():
    sp = SampleSpace(["a", "b"], coords=[0.0, 1.0])
    assert sp.coords.shape == (2, 1)


def test_space_rejects_duplicates_and_bad_weights():
    with pytest.raises(ValueError):
        SampleSpace(["a", "a"])
    with pytest.raises(ValueError):
        SampleSpace([])
    with pytest.raises(ValueError):
        SampleSpace(["a", "b"], weights=[1.0, 0.0])
    with pytest.raises(ValueError):
        SampleSpace(["a", "b"], coords=[[0.0], [np.inf]])


def test_space_equality_includes_metadata():
    plain = SampleSpace(["a", "b"])
    assert plain == SampleSpace(["a", "b"])
    assert plain != SampleSpace(["a", "b"], weights=[1.0, 1.0])
    assert plain != SampleSpace(["b", "a"])


def test_space_is_immutable():
    sp = SampleSpace(["a", "b"], weights=[1.0, 2.0])
    with pytest.raises(Exception):
        sp.atoms = ("x",)
    with pytest.raises(ValueError):
        sp.weights[0] = 5.0


def _keeps_its_copy(obj_array, caller_array):
    """The caller may still write its array, and the object does not see it."""
    before = obj_array.copy()
    caller_array[...] = 7.0
    np.testing.assert_array_equal(obj_array, before)
    assert not obj_array.flags.writeable


def test_constructors_copy_the_callers_arrays():
    # these arrays were once frozen in place: writing them raised
    # "assignment destination is read-only"
    coords_1d, coords_2d, weights = np.arange(2.0), np.ones((2, 2)), np.ones(2)
    _keeps_its_copy(SampleSpace(["a", "b"], coords=coords_1d).coords, coords_1d)
    _keeps_its_copy(SampleSpace(["a", "b"], coords=coords_2d).coords, coords_2d)
    _keeps_its_copy(SampleSpace(["a", "b"], weights=weights).weights, weights)
    mass, coeff = np.array([0.5, 0.5]), np.array([1.0, -1.0])
    _keeps_its_copy(Measure(small_space(2), mass).mass, mass)
    _keeps_its_copy(PowerMeasure(small_space(2), 0.5, coeff).coeff, coeff)
    # igk keeps the arrays it makes itself without a copy (_adopt), never a caller's
    for cls in (SignedMeasure, ProbabilityMeasure):
        mass = np.array([0.25, 0.75])
        _keeps_its_copy(cls(small_space(2), mass).mass, mass)


@pytest.mark.parametrize("cls, mass", [
    (SignedMeasure, [1.0]),
    (SignedMeasure, [1.0, np.nan]),
    (Measure, [1.0, -2.0]),
    (ProbabilityMeasure, [0.5, 0.6]),
])
def test_an_adopted_array_passes_the_constructors_checks(cls, mass):
    """The path that keeps igk's own array runs every check of the public one."""
    with pytest.raises(ValueError) as public:
        cls(small_space(2), mass)
    with pytest.raises(ValueError) as adopted:
        cls._adopt(small_space(2), np.array(mass))
    assert str(adopted.value) == str(public.value)


def test_an_adopted_array_is_frozen_in_place():
    mass = np.array([0.25, 0.75])
    measure = ProbabilityMeasure._adopt(small_space(2), mass)
    assert measure.mass is mass and not mass.flags.writeable
    assert measure == ProbabilityMeasure(small_space(2), [0.25, 0.75])


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def test_measure_classes_validate():
    sp = small_space(2)
    SignedMeasure(sp, [1.0, -2.0])
    with pytest.raises(ValueError):
        Measure(sp, [1.0, -2.0])
    with pytest.raises(ValueError):
        ProbabilityMeasure(sp, [0.5, 0.6])
    with pytest.raises(ValueError):
        SignedMeasure(sp, [1.0, np.nan])
    with pytest.raises(ValueError):
        SignedMeasure(sp, [1.0])


def test_measure_total_and_equality():
    sp = small_space(2)
    nu = SignedMeasure(sp, [1.5, -0.5])
    assert nu.total() == 1.0
    assert nu == SignedMeasure(sp, [1.5, -0.5])
    assert nu != SignedMeasure(sp, [1.5, 0.5])


def test_jordan_and_tv():
    sp = small_space(3)
    nu = SignedMeasure(sp, [2.0, -3.0, 0.0])
    plus, minus = jordan_decompose(nu)
    np.testing.assert_array_equal(plus.mass, [2.0, 0.0, 0.0])
    np.testing.assert_array_equal(minus.mass, [0.0, 3.0, 0.0])
    assert tv_norm(nu) == 5.0
    assert tv_norm(plus) + tv_norm(minus) == tv_norm(nu)


def test_dominates():
    sp = small_space(3)
    mu = Measure(sp, [1.0, 0.0, 2.0])
    assert dominates(mu, SignedMeasure(sp, [5.0, 0.0, -1.0]))
    assert not dominates(mu, SignedMeasure(sp, [0.0, 1e-9, 0.0]))
    # the relative tolerance is measured against tv_norm of the candidate
    assert dominates(mu, SignedMeasure(sp, [5.0, 1e-9, 0.0]), tol=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-9])
def test_dominates_rejects_a_tolerance_that_is_not_a_finite_number_at_least_zero(bad):
    # tol=nan returned False, and tol=inf True, without a word
    sp = small_space(3)
    mu, nu = Measure(sp, [1.0, 0.0, 2.0]), SignedMeasure(sp, [5.0, 1e-9, 0.0])
    with pytest.raises(ValueError, match="^tol must be a finite number >= 0, got {}$".format(bad)):
        dominates(mu, nu, tol=bad)
    assert dominates(mu, mu, tol=0.0)


def test_radon_nikodym_zero_on_null_atoms():
    sp = small_space(3)
    mu = Measure(sp, [1.0, 0.0, 2.0])
    nu = SignedMeasure(sp, [2.0, 0.0, -4.0])
    phi = radon_nikodym(nu, mu)
    np.testing.assert_array_equal(phi, [2.0, 0.0, -2.0])


def test_radon_nikodym_names_offending_atom():
    sp = small_space(3)
    mu = Measure(sp, [1.0, 0.0, 2.0])
    nu = SignedMeasure(sp, [1.0, 0.5, 0.0])
    with pytest.raises(DominationError, match="'b'"):
        radon_nikodym(nu, mu)


def test_normalize():
    sp = small_space(2)
    p = normalize(Measure(sp, [1.0, 3.0]))
    assert isinstance(p, ProbabilityMeasure)
    np.testing.assert_allclose(p.mass, [0.25, 0.75])
    with pytest.raises(ZeroMassError):
        normalize(Measure(sp, [0.0, 0.0]))


def test_one_roundoff_rule_for_sums_to_one():
    # max(1e-12, size * eps): the floor up to 4503 terms, the roundoff of the sum above
    assert _sums_to(1 + 0.99e-12, 1.0, 4503) and not _sums_to(1 + 1.01e-12, 1.0, 4503)
    assert _sums_to(1 + 4.4e-11, 1.0, 200_000) and not _sums_to(1 + 4.5e-11, 1.0, 200_000)
    n = 200_000
    space = SampleSpace(np.arange(n))
    ProbabilityMeasure(space, np.full(n, 1 / n) * (1 + 3e-11))
    with pytest.raises(ValueError, match="total mass 1"):
        ProbabilityMeasure(space, np.full(n, 1 / n) * (1 + 1e-9))


def test_lk_norm_values():
    sp = small_space(3)
    mu = Measure(sp, [0.2, 0.3, 0.5])
    phi = [1.0, -3.0, 2.0]
    assert lk_norm(phi, mu, 1) == pytest.approx(0.2 + 0.9 + 1.0)
    assert lk_norm(phi, mu, 2) == pytest.approx(math.sqrt(0.2 + 9 * 0.3 + 4 * 0.5))
    assert lk_norm(phi, mu, math.inf) == 3.0
    with pytest.raises(ValueError):
        lk_norm(phi, mu, 0.5)


def test_lk_norm_rejects_a_nan_order():
    # NaN < 1 is false: the check "k < 1" let it through to a NaN norm
    mu = Measure(small_space(3), [0.2, 0.3, 0.5])
    with pytest.raises(ValueError, match="k must be >= 1"):
        lk_norm([1.0, -3.0, 2.0], mu, math.nan)


@pytest.mark.parametrize("k", [1, 2, math.inf])
@pytest.mark.parametrize("phi", [[2.0], [1.0, 2.0], [[1.0, -3.0, 2.0]] * 2, 2.0],
                         ids=["(1,)", "(2,)", "(2, 3)", "()"])
def test_lk_norm_rejects_phi_of_another_shape(phi, k):
    # broadcast, [2.0] gave 4.899 and the (2, 3) phi 3.464 at k = 2; k = inf raised IndexError
    mu = Measure(small_space(3), [0.2, 0.3, 0.5])
    with pytest.raises(ValueError, match=r"^phi has shape \(.*\), expected \(3,\)$"):
        lk_norm(phi, mu, k)


def test_lk_norm_sup_ignores_null_atoms():
    sp = small_space(3)
    mu = Measure(sp, [0.0, 1.0, 1.0])
    assert lk_norm([100.0, 2.0, 1.0], mu, math.inf) == 2.0
    zero = Measure(sp, [0.0, 0.0, 0.0])
    assert lk_norm([100.0, 2.0, 1.0], zero, math.inf) == 0.0


def test_space_mismatch_is_detected():
    a = SampleSpace(["a", "b"])
    b = SampleSpace(["a", "c"])
    with pytest.raises(SpaceMismatchError):
        radon_nikodym(SignedMeasure(a, [1, 1]), Measure(b, [1, 1]))


# ---------------------------------------------------------------------------
# power-measure algebra
# ---------------------------------------------------------------------------

def test_power_measure_validation():
    sp = small_space(2)
    with pytest.raises(ExponentError):
        PowerMeasure(sp, 0.0, [1.0, 1.0])
    with pytest.raises(ExponentError):
        PowerMeasure(sp, 1.5, [1.0, 1.0])
    pm = PowerMeasure(sp, 1.0, [1.0, -2.0])
    assert pm.as_signed_measure() == SignedMeasure(sp, [1.0, -2.0])
    with pytest.raises(ExponentError):
        PowerMeasure(sp, 0.5, [1.0, 1.0]).as_signed_measure()


def test_power_of_measure_and_norm():
    sp = small_space(2)
    mu = Measure(sp, [4.0, 9.0])
    half = power_of_measure(mu, 0.5)
    np.testing.assert_allclose(half.coeff, [2.0, 3.0])
    # (1^2 + 2^2)^(1/2)
    pm = PowerMeasure(sp, 0.5, [1.0, 2.0])
    assert power_norm(pm) == pytest.approx(math.sqrt(5.0))
    # at exponent 1 the norm is total variation
    assert power_norm(PowerMeasure(sp, 1.0, [1.0, -2.0])) == 3.0
    with pytest.raises(ValueError):
        power_of_measure(SignedMeasure(sp, [1.0, -1.0]), 0.5)


def test_multiply_recombines_powers():
    sp = small_space(3)
    mu = Measure(sp, [0.2, 0.3, 0.5])
    r = 0.3
    prod = multiply(power_of_measure(mu, r), power_of_measure(mu, 1.0 - r))
    assert prod.r == 1.0
    np.testing.assert_allclose(prod.coeff, mu.mass, rtol=1e-15)


def test_multiply_rejects_exponent_overflow():
    sp = small_space(2)
    a = PowerMeasure(sp, 0.7, [1.0, 1.0])
    with pytest.raises(ExponentError):
        multiply(a, a)


def test_pow_maps():
    sp = small_space(2)
    nu = PowerMeasure(sp, 0.5, [-1.0, 2.0])
    np.testing.assert_allclose(pow_abs(nu, 2.0).coeff, [1.0, 4.0])
    np.testing.assert_allclose(pow_signed(nu, 2.0).coeff, [-1.0, 4.0])
    assert pow_abs(nu, 2.0).r == 1.0
    with pytest.raises(ExponentError):
        pow_abs(nu, 2.5)
    with pytest.raises(ExponentError):
        pow_abs(nu, 0.0)


def test_pow_signed_fractional_keeps_zero():
    sp = small_space(3)
    nu = PowerMeasure(sp, 0.25, [-8.0, 0.0, 8.0])
    out = pow_signed(nu, 1.0 / 3.0)
    np.testing.assert_allclose(out.coeff, [-2.0, 0.0, 2.0])
    assert out.r == pytest.approx(0.25 / 3.0)


def test_power_map_derivatives():
    sp = small_space(2)
    nu = PowerMeasure(sp, 0.5, [-1.0, 2.0])
    rho = PowerMeasure(sp, 0.5, [1.0, 1.0])
    np.testing.assert_allclose(d_pow_signed(nu, rho, 2.0).coeff, [2.0, 4.0])
    np.testing.assert_allclose(d_pow_abs(nu, rho, 2.0).coeff, [-2.0, 4.0])
    with pytest.raises(ExponentError):
        d_pow_signed(nu, rho, 1.0)
    with pytest.raises(ExponentError):
        d_pow_signed(nu, PowerMeasure(sp, 0.25, [1.0, 1.0]), 2.0)


def test_d_pow_matches_difference_quotient():
    sp = small_space(3)
    nu = PowerMeasure(sp, 0.4, [0.5, -1.5, 2.0])
    rho = PowerMeasure(sp, 0.4, [1.0, -2.0, 0.5])
    k = 2.2
    eps = 1e-7
    for func, dfunc in ((pow_signed, d_pow_signed), (pow_abs, d_pow_abs)):
        bumped = PowerMeasure(sp, 0.4, nu.coeff + eps * rho.coeff)
        fd = (func(bumped, k).coeff - func(nu, k).coeff) / eps
        np.testing.assert_allclose(dfunc(nu, rho, k).coeff, fd, rtol=1e-6)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

mass_lists = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=6
)


@given(mass_lists)
def test_jordan_parts_recombine(masses):
    sp = SampleSpace(["x{}".format(i) for i in range(len(masses))])
    nu = SignedMeasure(sp, masses)
    plus, minus = jordan_decompose(nu)
    np.testing.assert_allclose(plus.mass - minus.mass, nu.mass)
    assert np.all(plus.mass * minus.mass == 0)
    assert tv_norm(nu) == pytest.approx(plus.total() + minus.total())


@given(
    st.lists(st.floats(min_value=0.01, max_value=10), min_size=1, max_size=6),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_power_norm_of_power(masses, r):
    sp = SampleSpace(["x{}".format(i) for i in range(len(masses))])
    mu = Measure(sp, masses)
    # ||mu^r|| = (total mass)^r
    assert power_norm(power_of_measure(mu, r)) == pytest.approx(mu.total() ** r)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_radon_nikodym_roundtrip(seed):
    rng = np.random.default_rng(seed)
    sp = random_space(rng, 5)
    mu_mass = rng.uniform(0.1, 2.0, size=5)
    mu_mass[rng.integers(0, 5)] = 0.0
    mu = Measure(sp, mu_mass)
    nu = SignedMeasure(sp, rng.normal(size=5) * mu_mass)
    phi = radon_nikodym(nu, mu)
    np.testing.assert_allclose(phi * mu.mass, nu.mass, atol=1e-15)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_multiply_satisfies_hoelder(seed):
    rng = np.random.default_rng(seed)
    sp = random_space(rng, 4)
    r = float(rng.uniform(0.1, 0.9))
    s = float(rng.uniform(0.05, 1.0 - r))
    a = PowerMeasure(sp, r, rng.normal(size=4))
    b = PowerMeasure(sp, s, rng.normal(size=4))
    assert power_norm(multiply(a, b)) <= power_norm(a) * power_norm(b) + 1e-10


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_tv_norm_is_a_norm(seed):
    rng = np.random.default_rng(seed)
    sp = random_space(rng, 5)
    a = random_signed(rng, sp)
    b = random_signed(rng, sp)
    both = SignedMeasure(sp, a.mass + b.mass)
    assert tv_norm(both) <= tv_norm(a) + tv_norm(b) + 1e-12
    assert tv_norm(a) >= 0
