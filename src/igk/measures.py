"""Finite signed measures and the algebra of real powers of measures.

Everything lives on a :class:`SampleSpace`, a finite ordered list of labeled
atoms (optionally carrying coordinates and quadrature weights). Measures are
per-atom mass vectors; an element of the power space of exponent ``r`` is
stored in canonical atomic form as a coefficient vector against the r-th
powers of the unit atom masses. All values are immutable after construction
and every operation is a pure function of its inputs.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import (
    DominationError,
    ExponentError,
    SpaceMismatchError,
    ZeroMassError,
)

__all__ = [
    "AtomLabels",
    "SampleSpace",
    "SignedMeasure",
    "Measure",
    "ProbabilityMeasure",
    "PowerMeasure",
    "tv_norm",
    "jordan_decompose",
    "dominates",
    "radon_nikodym",
    "normalize",
    "power_of_measure",
    "power_norm",
    "multiply",
    "pow_abs",
    "pow_signed",
    "d_pow_signed",
    "d_pow_abs",
    "lk_norm",
]

def _sums_to(sums, target, size):
    """Does each value, ``size`` roundings from exact, equal ``target`` up to roundoff?

    The one rule for every sums-to-one check (measures, kernel rows, fibers, statistical
    models: a sum of ``size`` nonnegative terms) and every exponent check (a sum or product
    of two exponents, ``size`` 2, so r*(1/r) = 1 + 2**-52 passes): ``size`` roundings in
    any order may miss by ``size * eps``, and no value is held tighter than a unitless 1e-12.
    """
    return np.abs(sums - target) <= np.maximum(1e-12, size * np.finfo(float).eps)


def _require_tolerance(tol, name):
    """A verdict's tolerance must be a finite number >= 0: a NaN compares false."""
    if not 0 <= tol < np.inf:
        raise ValueError("{} must be a finite number >= 0, got {}".format(name, tol))


def _frozen(a, dtype=float):
    """A read-only copy, so that the caller's array stays writeable and apart."""
    arr = np.array(a, dtype=dtype, ndmin=1)
    arr.setflags(write=False)
    return arr


class AtomLabels(Sequence):
    """The labels of a generated space, kept as a rule and made on demand.

    Label i is ``fmt.format(i)`` on a shape (n,) and
    ``fmt.format(*divmod(i, m))`` on (n, m); the rule must give distinct
    labels. Read-only, and equal to (and hashing as) the tuple of its labels.
    """

    __slots__ = ("_rule", "_n")

    def __init__(self, fmt, shape):
        self._rule = (str(fmt), tuple(int(s) for s in shape))
        self._n = math.prod(self._rule[1])

    def _label(self, i):
        fmt, shape = self._rule
        return fmt.format(*divmod(i, shape[1])) if len(shape) == 2 else fmt.format(i)

    def __len__(self):
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._label, range(*i.indices(self._n))))
        i = operator.index(i)
        if not -self._n <= i < self._n:
            raise IndexError("atom index out of range")
        return self._label(i % self._n)

    def __iter__(self):
        return map(self._label, range(self._n))

    def __eq__(self, other):
        if isinstance(other, AtomLabels) and self._rule == other._rule:
            return True  # one rule, one label sequence: none is made
        if not isinstance(other, (AtomLabels, tuple)):
            return NotImplemented
        return len(other) == self._n and all(map(operator.eq, self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return "AtomLabels({!r}, {!r})".format(*self._rule)


@dataclass(frozen=True, eq=False)
class SampleSpace:
    """A finite sample space: ordered, uniquely labeled atoms.

    Parameters
    ----------
    atoms : sequence of str, or AtomLabels
        Pairwise-distinct atom labels, not one string. Order is significant;
        it fixes the index set shared by every measure on the space. A
        generated space keeps its :class:`AtomLabels` rule; ``atoms`` is a
        read-only sequence equal to the tuple of labels either way.
    coords : array-like of shape (n_atoms, m), optional
        Real coordinates of the atoms, for density evaluation on grids.
    weights : array-like of shape (n_atoms,), optional
        Strictly positive quadrature weights. When present, measures built
        from density functions carry mass ``density * weight`` per atom.
    """

    atoms: Sequence
    coords: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __init__(self, atoms, coords=None, weights=None):
        if isinstance(atoms, str):
            raise ValueError("atoms must be a sequence of labels, not one string")
        if not isinstance(atoms, AtomLabels):
            atoms = tuple(map(str, atoms))
            ordered = sorted(atoms)  # equal labels end up side by side
            if any(map(operator.eq, ordered, islice(ordered, 1, None))):
                raise ValueError("atom labels must be pairwise distinct")
        if len(atoms) == 0:
            raise ValueError("a sample space needs at least one atom")
        if coords is not None:
            coords = np.array(coords, dtype=float)
            if coords.ndim == 1:
                coords = coords[:, None]
            if coords.shape[0] != len(atoms):
                raise ValueError("coords must have one row per atom")
            if not np.all(np.isfinite(coords)):
                raise ValueError("coords must be finite")
            coords.setflags(write=False)
        if weights is not None:
            weights = _frozen(weights)
            if weights.shape != (len(atoms),):
                raise ValueError("weights must have one entry per atom")
            if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
                raise ValueError("weights must be finite and strictly positive")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "weights", weights)

    @property
    def n_atoms(self):
        return len(self.atoms)

    @property
    def base_masses(self):
        """Per-atom base mass: the quadrature weights, or all ones."""
        if self.weights is not None:
            return self.weights
        return np.ones(self.n_atoms)

    def index(self, label):
        return self.atoms.index(label)

    def __len__(self):
        return len(self.atoms)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SampleSpace):
            return NotImplemented
        if self.atoms != other.atoms:
            return False
        for a, b in ((self.coords, other.coords), (self.weights, other.weights)):
            if (a is None) != (b is None):
                return False
            if a is not None and not np.array_equal(a, b):
                return False
        return True

    __hash__ = None

    def __repr__(self):
        return "SampleSpace(n_atoms={}, coords={}, weights={})".format(
            self.n_atoms, self.coords is not None, self.weights is not None
        )


def _require_same_space(a, b):
    if a.space is not b.space and a.space != b.space:
        raise SpaceMismatchError(
            "operands live on different sample spaces ({} vs {})".format(
                a.space, b.space
            )
        )


@dataclass(frozen=True, eq=False)
class SignedMeasure:
    """A finite signed measure: one real mass per atom."""

    space: SampleSpace
    mass: np.ndarray = field(repr=False)

    def __init__(self, space, mass):
        self._hold(space, _frozen(mass))

    @classmethod
    def _adopt(cls, space, mass):
        """A measure around ``mass``, a float array igk has just made and no longer writes:
        the constructor's checks, with the array frozen in place and not copied."""
        mass.setflags(write=False)
        measure = cls.__new__(cls)
        measure._hold(space, mass)
        return measure

    def _hold(self, space, mass):  # the checks, on a read-only float array kept as it is
        if mass.shape != (space.n_atoms,):
            raise ValueError("mass vector must have one entry per atom")
        if not np.all(np.isfinite(mass)):
            raise ValueError("masses must be finite")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mass", mass)

    def total(self):
        """Total (signed) mass, i.e. the measure of the whole space."""
        return float(self.mass.sum())

    def __eq__(self, other):
        if not isinstance(other, SignedMeasure):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.mass, other.mass)

    __hash__ = None

    def __repr__(self):
        return "{}({})".format(type(self).__name__, np.array2string(self.mass))


class Measure(SignedMeasure):
    """A finite nonnegative measure."""

    def _hold(self, space, mass):
        super()._hold(space, mass)
        if np.any(mass < 0):
            raise ValueError("a Measure must have nonnegative masses")


class ProbabilityMeasure(Measure):
    """A nonnegative measure of mass 1 within max(1e-12, n_atoms * eps), as statistical members."""

    def _hold(self, space, mass):
        super()._hold(space, mass)
        total = mass.sum()
        if not _sums_to(total, 1.0, mass.size):
            raise ValueError(
                "a ProbabilityMeasure must have total mass 1, got {!r}".format(float(total))
            )


@dataclass(frozen=True, eq=False)
class PowerMeasure:
    """An element of the power space of exponent ``r`` in canonical form.

    The value is ``sum_i coeff[i] * (unit atom mass at atom i)**r``. For
    ``r = 1`` the coefficients are ordinary signed-measure masses.
    """

    space: SampleSpace
    r: float
    coeff: np.ndarray = field(repr=False)

    def __init__(self, space, r, coeff):
        r = float(r)
        if not (0.0 < r <= 1.0):
            raise ExponentError("power-measure exponent must lie in (0, 1], got {!r}".format(r))
        coeff = _frozen(coeff)
        if coeff.shape != (space.n_atoms,):
            raise ValueError("coefficient vector must have one entry per atom")
        if not np.all(np.isfinite(coeff)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "coeff", coeff)

    def as_signed_measure(self):
        """Reinterpret as a signed measure; only valid at exponent 1."""
        if self.r != 1.0:
            raise ExponentError(
                "only exponent-1 power measures are signed measures (r={!r})".format(self.r)
            )
        return SignedMeasure(self.space, self.coeff)

    def __eq__(self, other):
        if not isinstance(other, PowerMeasure):
            return NotImplemented
        return (
            self.space == other.space
            and self.r == other.r
            and np.array_equal(self.coeff, other.coeff)
        )

    __hash__ = None

    def __repr__(self):
        return "PowerMeasure(r={}, coeff={})".format(self.r, np.array2string(self.coeff))


# ---------------------------------------------------------------------------
# signed-measure operations
# ---------------------------------------------------------------------------

def tv_norm(nu):
    """Total variation norm: the sum of absolute atom masses."""
    return float(np.abs(nu.mass).sum())


def jordan_decompose(nu):
    """Split ``nu`` into its positive and negative parts.

    Returns the unique pair of nonnegative measures ``(plus, minus)`` with
    ``nu = plus - minus`` and disjoint per-atom supports.
    """
    plus = np.where(nu.mass > 0, nu.mass, 0.0)
    minus = np.where(nu.mass < 0, -nu.mass, 0.0)
    return Measure(nu.space, plus), Measure(nu.space, minus)


def dominates(mu, nu, tol=0.0):
    """Does ``mu`` dominate ``nu`` (within a relative tolerance)?

    True iff on every atom where ``mu`` vanishes, ``|nu|`` is at most
    ``tol * tv_norm(nu)``; with the default ``tol=0`` the check is exact.
    A NaN, negative or infinite ``tol`` raises ValueError, as in every verdict.
    """
    _require_tolerance(tol, "tol")
    _require_same_space(mu, nu)
    null = mu.mass == 0
    if not np.any(null):
        return True
    bound = tol * tv_norm(nu)
    return bool(np.all(np.abs(nu.mass[null]) <= bound))


def radon_nikodym(nu, mu):
    """Per-atom density of ``nu`` with respect to ``mu``.

    The density is ``nu_i / mu_i`` where ``mu_i > 0`` and 0 on dominator-null
    atoms (which carry no ``nu``-mass either, by the domination precondition).

    Raises
    ------
    DominationError
        If ``nu`` has mass on a ``mu``-null atom.
    """
    _require_same_space(nu, mu)
    null = mu.mass == 0
    offending = null & (nu.mass != 0)
    if np.any(offending):
        i = int(np.argmax(offending))
        raise DominationError(
            "measure has mass {!r} on dominator-null atom {!r}".format(
                float(nu.mass[i]), nu.space.atoms[i]
            )
        )
    out = np.zeros(nu.space.n_atoms)
    np.divide(nu.mass, mu.mass, out=out, where=~null)
    return out


def normalize(mu):
    """Scale a nonzero measure to total mass 1."""
    mass = mu.mass
    with np.errstate(over="ignore"):
        t = tv_norm(mu)
    if t == 0.0:
        raise ZeroMassError("cannot normalize the zero measure")
    if not math.isfinite(t):
        # the total overflows; dividing by the largest mass first keeps the ratios
        mass = mass / np.abs(mass).max()
        t = float(np.abs(mass).sum())
    return ProbabilityMeasure(mu.space, mass / t)


def lk_norm(phi, mu, k):
    """L^k norm of the per-atom function ``phi`` against the measure ``mu``.

    ``k`` may be ``math.inf``, giving the essential sup over atoms of
    positive mass. ``phi`` must have shape (n_atoms,). Beside ``phi`` and
    ``mu`` it holds one atom-sized array, in which it forms ``|phi|^k * m``.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (mu.space.n_atoms,):
        raise ValueError("phi has shape {}, expected ({},)".format(phi.shape, mu.space.n_atoms))
    if not k >= 1:  # a NaN compares false
        raise ValueError("k must be >= 1, got {!r}".format(k))
    if k == math.inf:
        return float(np.max(np.abs(phi[mu.mass > 0]), initial=0.0))
    terms = np.abs(phi)
    terms **= k
    terms *= mu.mass
    return float(np.sum(terms) ** (1.0 / k))


# ---------------------------------------------------------------------------
# power-measure algebra
# ---------------------------------------------------------------------------

def power_of_measure(mu, r):
    """The r-th power of a nonnegative measure, in canonical atomic form."""
    r = float(r)
    if not (0.0 < r <= 1.0):
        raise ExponentError("exponent must lie in (0, 1], got {!r}".format(r))
    if np.any(mu.mass < 0):
        raise ValueError("powers are defined for nonnegative measures only")
    return PowerMeasure(mu.space, r, mu.mass**r)


def power_norm(nu):
    """Norm of a power measure: ``(sum_i |coeff_i|**(1/r))**r``.

    At exponent 1 this is the total variation norm.
    """
    inv = 1.0 / nu.r
    return float(np.sum(np.abs(nu.coeff) ** inv) ** nu.r)


def _clamped_exponent(r, what):
    if r > 1.0 and not _sums_to(r, 1.0, 2):
        raise ExponentError("{} exponent {!r} exceeds 1".format(what, r))
    return min(r, 1.0)


def multiply(nu, rho):
    """Product of power measures: coefficients multiply, exponents add.

    The result has exponent ``nu.r + rho.r`` (which must stay <= 1) and
    satisfies the Hölder bound
    ``power_norm(result) <= power_norm(nu) * power_norm(rho)``.
    """
    _require_same_space(nu, rho)
    r = _clamped_exponent(nu.r + rho.r, "product")
    return PowerMeasure(nu.space, r, nu.coeff * rho.coeff)


def _check_pow_exponent(nu, k, lower_open=0.0):
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


def pow_abs(nu, k):
    """Absolute k-th power map: coefficients become ``|a|**k``."""
    k = _check_pow_exponent(nu, k)
    r = _clamped_exponent(nu.r * k, "result")
    return PowerMeasure(nu.space, r, np.abs(nu.coeff) ** k)


def pow_signed(nu, k):
    """Sign-preserving k-th power map: ``a`` becomes ``sign(a)*|a|**k``.

    A zero coefficient maps to 0 for every ``k > 0``.
    """
    k = _check_pow_exponent(nu, k)
    r = _clamped_exponent(nu.r * k, "result")
    return PowerMeasure(nu.space, r, np.sign(nu.coeff) * np.abs(nu.coeff) ** k)


def _require_same_exponent(nu, rho):
    if not _sums_to(nu.r, rho.r, 2):
        raise ExponentError(
            "tangent exponent {!r} does not match base point exponent {!r}".format(
                rho.r, nu.r
            )
        )


def d_pow_signed(nu, rho, k):
    """Derivative of the sign-preserving power map at ``nu`` applied to ``rho``.

    For ``1 < k <= 1/r`` the map is continuously differentiable with
    ``d pow_signed = k * |nu|**(k-1) * rho`` (componentwise coefficients).
    """
    k = _check_pow_exponent(nu, k, lower_open=1.0)
    _require_same_space(nu, rho)
    _require_same_exponent(nu, rho)
    r = _clamped_exponent(nu.r * k, "result")
    return PowerMeasure(nu.space, r, k * np.abs(nu.coeff) ** (k - 1.0) * rho.coeff)


def d_pow_abs(nu, rho, k):
    """Derivative of the absolute power map at ``nu`` applied to ``rho``:
    ``k * sign(nu)*|nu|**(k-1) * rho`` componentwise."""
    k = _check_pow_exponent(nu, k, lower_open=1.0)
    _require_same_space(nu, rho)
    _require_same_exponent(nu, rho)
    r = _clamped_exponent(nu.r * k, "result")
    signed = np.sign(nu.coeff) * np.abs(nu.coeff) ** (k - 1.0)
    return PowerMeasure(nu.space, r, k * signed * rho.coeff)
