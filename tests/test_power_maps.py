"""One power map on roots of measures.

The absolute and signed power maps, their differentials, the power pushforward,
the formal power derivative, the power path and the power norm all read one definition. Each is
compared here, bit for bit, with a reference copy of the formula it replaced:
values, and the error class and message of each raise. The one stated change of
message is ``formal_power_derivative``'s ``DominationError``, which is now
``radon_nikodym``'s; ``power_of_measure``'s stated changes are tested on their own.
"""

import math

import numpy as np
import pytest

from igk import (
    DominationError,
    ExponentError,
    Measure,
    ParameterDomain,
    ParametrizedMeasureModel,
    PowerMeasure,
    SampleSpace,
    SignedMeasure,
    Statistic,
    d_pow_abs,
    d_pow_signed,
    families,
    formal_power_derivative,
    jet,
    pow_abs,
    pow_signed,
    power_norm,
    power_of_measure,
    power_path,
    power_pushforward,
    transverse_measures,
)
from igk.markov import _conditional_expectation, _require_source
from igk.measures import _require_same_space, _sums_to

from conftest import random_kernel, random_onto_statistic, random_space


# ---------------------------------------------------------------------------
# reference copies of the replaced formulas
# ---------------------------------------------------------------------------

def ref_clamped_exponent(r, what):
    if r > 1.0 and not _sums_to(r, 1.0, 2):
        raise ExponentError("{} exponent {!r} exceeds 1".format(what, r))
    return min(r, 1.0)


def ref_check_pow_exponent(nu, k, lower_open=0.0):
    k = float(k)
    if k <= lower_open:
        raise ExponentError(
            "power-map exponent must exceed {!r}, got {!r}".format(lower_open, k)
        )
    if nu.r * k > 1.0 and not _sums_to(nu.r * k, 1.0, 2):
        raise ExponentError(
            "power-map exponent k={!r} leaves the representable range: r*k = {!r} > 1".format(
                k, nu.r * k
            )
        )
    return k


def ref_pow_abs(nu, k):
    k = ref_check_pow_exponent(nu, k)
    r = ref_clamped_exponent(nu.r * k, "result")
    return PowerMeasure(nu.space, r, np.abs(nu.coeff) ** k)


def ref_pow_signed(nu, k):
    k = ref_check_pow_exponent(nu, k)
    r = ref_clamped_exponent(nu.r * k, "result")
    return PowerMeasure(nu.space, r, np.sign(nu.coeff) * np.abs(nu.coeff) ** k)


def ref_require_same_exponent(nu, rho):
    if not _sums_to(nu.r, rho.r, 2):
        raise ExponentError(
            "tangent exponent {!r} does not match base point exponent {!r}".format(
                rho.r, nu.r
            )
        )


def ref_d_pow_signed(nu, rho, k):
    k = ref_check_pow_exponent(nu, k, lower_open=1.0)
    _require_same_space(nu, rho)
    ref_require_same_exponent(nu, rho)
    r = ref_clamped_exponent(nu.r * k, "result")
    return PowerMeasure(nu.space, r, k * np.abs(nu.coeff) ** (k - 1.0) * rho.coeff)


def ref_d_pow_abs(nu, rho, k):
    k = ref_check_pow_exponent(nu, k, lower_open=1.0)
    _require_same_space(nu, rho)
    ref_require_same_exponent(nu, rho)
    r = ref_clamped_exponent(nu.r * k, "result")
    signed = np.sign(nu.coeff) * np.abs(nu.coeff) ** (k - 1.0)
    return PowerMeasure(nu.space, r, k * signed * rho.coeff)


def ref_power_pushforward(kernel, nu):
    _require_source(kernel, nu.space, "the power measure's space")
    signed = np.sign(nu.coeff) * np.abs(nu.coeff) ** (1.0 / nu.r)
    pushed = kernel.push_mass(signed)
    return PowerMeasure(kernel.target, nu.r, np.sign(pushed) * np.abs(pushed) ** nu.r)


def ref_formal_power_derivative(kernel, mu, rho):
    _require_source(kernel, mu.space, "the base measure's space")
    _require_source(kernel, rho.space, "the power measure's space")
    null = mu.mass == 0
    offending = null & (rho.coeff != 0)
    if np.any(offending):
        i = int(np.argmax(offending))
        raise DominationError("power measure has coefficient {!r} on a null atom {!r} of the base "
                              "measure".format(float(rho.coeff[i]), mu.space.atoms[i]))
    if np.any(mu.mass < 0):
        raise ValueError("conditional expectation needs a nonnegative base measure")
    phi = np.divide(rho.coeff, mu.mass**rho.r, out=np.zeros(mu.space.n_atoms), where=~null)
    pushed = kernel.push_mass(mu.mass)
    phi_prime = _conditional_expectation(kernel, mu.mass, phi, pushed)
    return PowerMeasure(kernel.target, rho.r, phi_prime * pushed**rho.r)


def ref_power_path(model, xi, direction, k):
    k = float(k)
    if not 1.0 <= k < np.inf:
        raise ExponentError("power_path needs a finite k >= 1, got {}".format(k))
    r = 1.0 / k
    member = jet(model, xi)
    mass = member.measure.mass
    ld = member.log_derivative(direction)
    base = np.power(mass, r)
    point = PowerMeasure(model.space, r, base)
    velocity = PowerMeasure(model.space, r, r * ld * base)
    return point, velocity


def ref_power_of_measure(mu, r):
    r = float(r)
    if not (0.0 < r <= 1.0):
        raise ExponentError("exponent must lie in (0, 1], got {!r}".format(r))
    if np.any(mu.mass < 0):
        raise ValueError("powers are defined for nonnegative measures only")
    return PowerMeasure(mu.space, r, mu.mass**r)


def ref_power_norm(nu):
    inv = 1.0 / nu.r
    return float(np.sum(np.abs(nu.coeff) ** inv) ** nu.r)


# ---------------------------------------------------------------------------
# bit-for-bit comparison
# ---------------------------------------------------------------------------

def _outcome(fn, *args):
    """The value, or the class and message of what was raised (a warning is an error)."""
    try:
        return fn(*args)
    except Exception as err:  # every class counts: the comparison is of classes too
        return type(err), str(err)


def _bits(value):
    """A power measure (or a pair of them) as comparable bits, signed zeros apart."""
    if isinstance(value, tuple) and isinstance(value[0], PowerMeasure):
        return tuple(_bits(v) for v in value)
    if isinstance(value, PowerMeasure):
        return value.space.atoms, value.r.hex(), value.coeff.tobytes()
    return value.hex() if isinstance(value, float) else value


def assert_same(new, ref, *args, domination_message=None):
    got, want = _outcome(new, *args), _outcome(ref, *args)
    if domination_message is not None and isinstance(want, tuple) and want[0] is DominationError:
        want = (DominationError, domination_message(*args))
    assert _bits(got) == _bits(want)
    return got


def _coefficients(rng, n, signs=True):
    """Normal values over many scales, with zeros (one of them -0.0) and, if ``signs``,
    negative values."""
    c = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)
    c[rng.random(n) < 0.25] = 0.0
    c[rng.integers(n)] = -0.0
    return c if signs else np.abs(c)


def _exponents(rng, r):
    """Map exponents k: random ones in range, k = 1/r, k with r*k = 1 + 2**-52 (in range up
    to roundoff), out of range, at the lower bounds, below them, and NaN."""
    k_edge = 1.0 / r  # the first k with r*k >= 1 + 2**-52
    while r * k_edge < 1.0 + 2.0 ** -52:
        k_edge = np.nextafter(k_edge, np.inf)
    return [rng.uniform(0.0, 1.0 / r), rng.uniform(1.0, max(1.0, 1.0 / r)), 1.0 / r,
            float(k_edge), float(np.nextafter(k_edge, np.inf)), 1.0 / r + 1e-9, 1.5 / r,
            1.0, 0.0, -0.5, math.nan]


def _exponent_r(rng):
    return float(rng.choice([1.0, 0.5, 1.0 / 3.0, 0.25, 0.1, rng.uniform(0.05, 1.0)]))


@pytest.mark.parametrize("seed", range(40))
def test_power_maps_keep_the_bits_of_the_replaced_formulas(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    space = random_space(rng, n, weights=bool(seed % 2))
    r = _exponent_r(rng)
    nu = PowerMeasure(space, r, _coefficients(rng, n))
    # tangents: the same exponent, one within roundoff of it, another one, another space
    other = random_space(rng, n, weights=not seed % 2)
    tangents = [PowerMeasure(space, r, _coefficients(rng, n)),
                PowerMeasure(space, min(1.0, float(np.nextafter(r, 2.0))), _coefficients(rng, n)),
                PowerMeasure(space, r / 2.0, _coefficients(rng, n)),
                PowerMeasure(other, r, _coefficients(rng, n))]
    for k in _exponents(rng, r):
        assert_same(pow_abs, ref_pow_abs, nu, k)
        assert_same(pow_signed, ref_pow_signed, nu, k)
        for rho in tangents:
            assert_same(d_pow_abs, ref_d_pow_abs, nu, rho, k)
            assert_same(d_pow_signed, ref_d_pow_signed, nu, rho, k)


def test_power_maps_raise_as_the_replaced_formulas_on_overflow():
    space = random_space(np.random.default_rng(0), 3)
    nu = PowerMeasure(space, 0.25, [1e300, -2.0, 0.0])
    rho = PowerMeasure(space, 0.25, [1.0, 1.0, 1.0])
    outcome = assert_same(pow_signed, ref_pow_signed, nu, 4.0)
    assert outcome[0] is RuntimeWarning  # overflow in power, a warning made an error
    assert assert_same(d_pow_abs, ref_d_pow_abs, nu, rho, 4.0)[0] is RuntimeWarning


@pytest.mark.parametrize("seed", range(20))
def test_power_norm_keeps_the_bits_of_the_replaced_formula(seed):
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(1, 9))
    space = random_space(rng, n, weights=bool(seed % 2))
    for r in (_exponent_r(rng), 1.0, 0.5, 1.0 / 3.0, 0.1, 1e-300):
        assert_same(power_norm, ref_power_norm, PowerMeasure(space, r, _coefficients(rng, n)))
    assert_same(power_norm, ref_power_norm, PowerMeasure(space, 1.0, np.zeros(n)))


def test_power_norm_keeps_its_bits_on_a_large_normal_draw():
    rng = np.random.default_rng(7)
    space = SampleSpace(np.arange(20000))
    for r in (1.0, 0.5, 1.0 / 3.0, 0.1, rng.uniform(0.05, 1.0)):
        nu = PowerMeasure(space, r, rng.standard_normal(20000))
        assert power_norm(nu).hex() == ref_power_norm(nu).hex()


def test_power_norm_raises_as_the_replaced_formula_on_overflow():
    nu = PowerMeasure(random_space(np.random.default_rng(0), 3), 0.25, [1e300, -2.0, 0.0])
    assert assert_same(power_norm, ref_power_norm, nu)[0] is RuntimeWarning


def test_power_norm_refuses_an_exponent_whose_reciprocal_overflows():
    # 1/r is inf: the replaced formula gave inf (or 0 below 1), never the norm, max |a| in the limit
    nu = PowerMeasure(random_space(np.random.default_rng(0), 3), 5e-324, [2.0, -0.5, 0.0])
    assert ref_power_norm(nu) == math.inf
    with pytest.raises(ExponentError, match="^power-map exponent k=inf leaves the representable "
                                            "range: r\\*k = inf > 1$"):
        power_norm(nu)


def _transports(rng, n):
    """A statistic and a kernel on n source atoms, and a transverse family."""
    source = random_space(rng, n, weights=True)
    m = int(rng.integers(1, n + 1))
    kappa = random_onto_statistic(rng, random_space(rng, n, tag="S"), m)
    family = transverse_measures(kappa, Measure(kappa.source, _coefficients(rng, n, False)))
    kernel = random_kernel(rng, source, random_space(rng, int(rng.integers(1, 6)), tag="K"))
    return [random_onto_statistic(rng, source, m), kernel, family]


def _rn_message(kernel, mu, rho):
    i = int(np.argmax((mu.mass == 0) & (rho.coeff != 0)))
    return "measure has mass {!r} on dominator-null atom {!r}".format(
        float(rho.coeff[i]), mu.space.atoms[i])


@pytest.mark.parametrize("seed", range(60))
def test_transported_powers_keep_the_bits_of_the_replaced_formulas(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 9))
    for transport in _transports(rng, n):
        src = transport.source
        r = _exponent_r(rng)
        assert_same(power_pushforward, ref_power_pushforward, transport,
                    PowerMeasure(src, r, _coefficients(rng, src.n_atoms)))
        mass = _coefficients(rng, src.n_atoms, signs=False)
        phi = rng.standard_normal(src.n_atoms)
        dominated = PowerMeasure(src, r, phi * mass**r)
        leaky = PowerMeasure(src, r, np.where(mass == 0, 1.5, phi * mass**r))
        negative = mass.copy()
        negative[rng.integers(src.n_atoms)] = -1.0
        for mu in (Measure(src, mass), SignedMeasure(src, negative)):
            for rho in (dominated, leaky):
                assert_same(formal_power_derivative, ref_formal_power_derivative,
                            transport, mu, rho, domination_message=_rn_message)


def test_family_with_an_empty_fiber_raises_as_before():
    rng = np.random.default_rng(5)
    source = random_space(rng, 4)
    kappa = Statistic(source, random_space(rng, 4, tag="E"), [0, 2, 2, 3])  # fiber 1 is empty
    family = transverse_measures(kappa, Measure(source, [1.0, 2.0, 0.0, 3.0]))
    nu = PowerMeasure(family.source, 0.5, [1.0, 0.0, -2.0, 3.0])
    mu = Measure(family.source, [1.0, 0.0, 2.0, 3.0])
    assert assert_same(power_pushforward, ref_power_pushforward, family, nu)[0].__name__ == \
        "EmptyFiberError"
    assert assert_same(formal_power_derivative, ref_formal_power_derivative, family, mu,
                       PowerMeasure(family.source, 0.5, [1.0, 0.0, 0.5, 0.5]))[0].__name__ == \
        "EmptyFiberError"


def _null_atom_model(n, dim, seed):
    """An exponential model in ``dim`` parameters on ``n`` weighted atoms, every third of
    zero mass."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-3.0, 3.0, size=n), rng.uniform(-2.0, 2.0, size=(n, dim))
    zero = np.arange(n) % 3 == 0

    def density_grad(xi):
        dens = np.where(zero, 0.0, np.exp(a + b @ xi))
        return dens, (b * dens[:, None]).T

    return ParametrizedMeasureModel(ParameterDomain(((-1.0, 1.0),) * dim),
                                    random_space(rng, n, weights=True), density_grad=density_grad)


@pytest.mark.parametrize("model, xi, null", [
    (_null_atom_model(12, 2, 1), [0.3, -0.4], True),
    (_null_atom_model(7, 1, 2), [0.1], True),
    (families.build("gaussian-grid(5,200)"), [0.2, 1.1], False),
    (families.build("categorical(4)"), [0.2, 0.3, 0.1], False),
    (families.build("ex-suff(20,10)"), [0.4], False),
], ids=["null-atoms-2", "null-atoms-1", "gaussian-grid", "categorical-4", "ex-suff"])
def test_power_path_keeps_the_bits_of_the_replaced_formula(model, xi, null):
    rng = np.random.default_rng(11)
    assert (jet(model, xi).measure.mass == 0).any() == null
    for k in (1.0, 2.0, 3.0, 4.0, 1.5, rng.uniform(1.0, 9.0), 0.5, math.inf, math.nan):
        direction = rng.standard_normal(model.domain.dim)
        assert_same(power_path, ref_power_path, model, xi, direction, k)


# ---------------------------------------------------------------------------
# power_of_measure: PowerMeasure checks the exponent
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_power_of_measure_keeps_its_values(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(1, 9))
    mu = Measure(random_space(rng, n), _coefficients(rng, n, signs=False))
    for r in (_exponent_r(rng), 1.0, 0.5, float(np.nextafter(0.0, 1.0))):
        assert_same(power_of_measure, ref_power_of_measure, mu, r)


@pytest.mark.parametrize("r", [0.0, -0.5, 1.5, 1.0 + 2.0 ** -52, math.inf, -math.inf, math.nan])
def test_power_of_measure_rejects_an_exponent_as_power_measure_does(r):
    mu = Measure(random_space(np.random.default_rng(0), 3), [0.0, 2.0, 1e300])
    message = "^power-measure exponent must lie in \\(0, 1\\], got {}$".format(repr(r))
    with pytest.raises(ExponentError, match=message):  # and no warning on the way
        power_of_measure(mu, r)
    # a negative measure is refused first, whatever the exponent
    with pytest.raises(ValueError, match="^powers are defined for nonnegative measures only$"):
        power_of_measure(SignedMeasure(mu.space, [0.0, -2.0, 1.0]), r)
