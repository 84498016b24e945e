"""Statistics, Markov kernels, conditional expectation, and congruence.

A statistic is a map between finite sample spaces, stored as one target
index per source atom. A Markov kernel attaches a probability row over the
target atoms to every source atom; statistics are the 0/1 special case. A
transverse family, one weight per source atom of a statistic, is the
congruent kernel back along it. All three move mass through ``push_mass``
and are accepted wherever a kernel is; only the explicit conversion
``as_kernel`` builds their n x m matrix. The module also provides the
(power) pushforwards, conditional expectation, congruent embeddings, and
the split of any kernel into a congruent kernel followed by a statistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DominationError, EmptyFiberError, SpaceMismatchError
from .measures import (
    Measure,
    PowerMeasure,
    ProbabilityMeasure,
    SampleSpace,
    SignedMeasure,
    _sums_to,
    radon_nikodym,
)

__all__ = [
    "Statistic",
    "MarkovKernel",
    "TransverseFamily",
    "as_kernel",
    "pushforward",
    "conditional_expectation",
    "compose",
    "is_congruent",
    "congruent_embedding",
    "transverse_measures",
    "congruent_kernel_from_embedding",
    "decompose_kernel",
    "power_pushforward",
    "formal_power_derivative",
    "product_space",
]


def _require_source(transport, space, what):
    """The one rule for matching a transport's source: equal atom labels.

    Mass moves by atom index, so coordinates and weights may differ.
    """
    if space.atoms != transport.source.atoms:
        kind = "statistic" if isinstance(transport, Statistic) else "kernel"
        raise SpaceMismatchError(
            "{} source atoms do not match {}".format(kind, what)
        )


@dataclass(frozen=True, eq=False)
class Statistic:
    """A map between sample spaces: one target-atom index per source atom."""

    source: SampleSpace
    target: SampleSpace
    map: np.ndarray = field(repr=False)

    def __init__(self, source, target, map):
        idx = np.atleast_1d(np.asarray(map))
        # a fractional entry would silently truncate to another atom
        if idx.dtype.kind == "f" and not np.all(np.isfinite(idx) & (idx == np.floor(idx))):
            raise ValueError("statistic map entries must be integers")
        idx = np.array(idx, dtype=np.intp)  # a copy: the caller keeps its array
        if idx.shape != (source.n_atoms,):
            raise ValueError("statistic map must have one entry per source atom")
        if np.any(idx < 0) or np.any(idx >= target.n_atoms):
            raise ValueError("statistic map entry out of target range")
        idx.setflags(write=False)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "map", idx)

    def push_mass(self, a):
        """Push a ``(n,)`` mass vector or ``(d, n)`` rows: sum over each fiber."""
        a = np.asarray(a, dtype=float)
        m = self.target.n_atoms
        if a.ndim == 1:
            return np.bincount(self.map, weights=a, minlength=m)
        d = a.shape[0]
        flat = (self.map + m * np.arange(d)[:, None]).ravel()
        return np.bincount(flat, weights=a.ravel(), minlength=d * m).reshape(d, m)

    def pull(self, values):
        """Pullback of a per-target-atom function: compose with the map."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.target.n_atoms,):
            raise ValueError("expected one value per target atom")
        return values[self.map]

    def fiber(self, j):
        """Indices of the source atoms mapped to target atom ``j``."""
        return np.flatnonzero(self.map == j)

    def fibers(self):
        """Every fiber in target order, atoms ascending, grouped in one pass."""
        order = np.argsort(self.map, kind="stable")
        ends = np.cumsum(np.bincount(self.map, minlength=self.target.n_atoms))
        return np.split(order, ends[:-1])


@dataclass(frozen=True, eq=False)
class MarkovKernel:
    """A row-stochastic matrix from the atoms of one space to another."""

    source: SampleSpace
    target: SampleSpace
    rows: np.ndarray = field(repr=False)

    def __init__(self, source, target, rows):
        self._keep(source, target, np.array(rows, dtype=float))  # a copy: the caller keeps its array

    @classmethod
    def _take(cls, source, target, rows):
        """The kernel of ``rows``, a matrix built for it: checked, then kept without a copy."""
        kernel = cls.__new__(cls)
        kernel._keep(source, target, rows)
        return kernel

    def _keep(self, source, target, rows):
        if rows.shape != (source.n_atoms, target.n_atoms):
            raise ValueError(
                "kernel matrix must be (n_source, n_target) = ({}, {}), got {}".format(
                    source.n_atoms, target.n_atoms, rows.shape
                )
            )
        if not np.all(np.isfinite(rows)) or np.any(rows < 0):
            raise ValueError("kernel entries must be finite and nonnegative")
        sums = rows.sum(axis=1)
        bad = ~_sums_to(sums, 1.0, target.n_atoms)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(
                "kernel row {} sums to {!r}, not 1".format(i, float(sums[i]))
            )
        rows.setflags(write=False)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "rows", rows)

    def push_mass(self, a):
        """Push a ``(n,)`` mass vector or ``(d, n)`` rows: ``a @ rows``."""
        return np.asarray(a, dtype=float) @ self.rows

    def row_measure(self, i):
        """The probability row attached to source atom ``i``."""
        mass = self.rows[i] / self.rows[i].sum()
        return ProbabilityMeasure(self.target, mass)


@dataclass(frozen=True, eq=False)
class TransverseFamily:
    """A statistic with one weight per source atom, summing to 1 on each nonempty fiber;
    with no empty fiber, the congruent kernel from the statistic's target to its source."""

    statistic: Statistic
    weights: np.ndarray = field(repr=False)
    source = property(lambda self: self.statistic.target)
    target = property(lambda self: self.statistic.source)

    def __init__(self, statistic, weights):
        w = np.array(weights, dtype=float)
        if w.shape != statistic.map.shape or not np.all(np.isfinite(w) & (w >= 0)):
            raise ValueError("need one finite nonnegative weight per source atom")
        size = np.bincount(statistic.map, minlength=statistic.target.n_atoms)
        sums = np.bincount(statistic.map, weights=w, minlength=len(size))
        bad = np.flatnonzero(~_sums_to(sums, size > 0, size))
        if bad.size:
            j = bad[0]
            raise ValueError("fiber {} weights sum to {!r}, not 1".format(j, float(sums[j])))
        w.setflags(write=False)
        object.__setattr__(self, "statistic", statistic)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_empty", np.flatnonzero(size == 0)[:1])

    def _kernel(self):  # itself, once it has passed the empty-fiber check
        if self._empty.size:
            atom = self.source.atoms[self._empty[0]]
            raise EmptyFiberError("target atom {!r} has an empty preimage".format(atom))
        return self

    def push_mass(self, a):
        """Push a ``(m,)`` mass vector or ``(d, m)`` rows: ``a[..., map] * weights``."""
        a, n = np.asarray(a, dtype=float), self.source.n_atoms
        if a.shape[-1:] != (n,):
            raise ValueError("expected masses on {} atoms, got shape {}".format(n, a.shape))
        return a[..., self.statistic.map] * self._kernel().weights


# ---------------------------------------------------------------------------
# kernels and pushforwards
# ---------------------------------------------------------------------------

def _kernel_of_statistic(kappa):
    """The 0/1 kernel of n*m floats whose row at each atom is the Dirac at its image."""
    rows = np.zeros((kappa.source.n_atoms, kappa.target.n_atoms))
    rows[np.arange(kappa.source.n_atoms), kappa.map] = 1.0
    return MarkovKernel._take(kappa.source, kappa.target, rows)


def as_kernel(k_or_statistic):
    """The n x m matrix of a statistic or transverse family; kernels pass through."""
    k = k_or_statistic
    if isinstance(k, Statistic):
        return _kernel_of_statistic(k)
    if isinstance(k, TransverseFamily):
        # row j holds the weights on fiber j
        rows = np.zeros((k.source.n_atoms, k.target.n_atoms))
        rows[k.statistic.map, np.arange(k.target.n_atoms)] = k._kernel().weights
        return MarkovKernel._take(k.source, k.target, rows)
    return k


def pushforward(kernel, nu):
    """Push a signed measure through a kernel: ``mass'_j = sum_i K_ij mass_i``.

    Preserves total mass; preserves the TV norm of nonnegative measures and
    never increases it for signed ones.
    """
    _require_source(kernel, nu.space, "the measure's space")
    cls = Measure if isinstance(nu, Measure) else SignedMeasure
    return cls(kernel.target, kernel.push_mass(nu.mass))


def conditional_expectation(kernel, mu, phi):
    """Average ``phi`` over the kernel against the base measure ``mu``.

    Returns the per-target-atom function ``phi'`` with
    ``pushforward(K, phi*mu) = phi' * pushforward(K, mu)``; explicitly
    ``phi'_j = (sum_i K_ij phi_i mu_i) / (sum_i K_ij mu_i)`` with the 0/0
    convention ``phi'_j = 0`` on pushforward-null atoms. For every k >= 1
    it contracts the L^k norm: ``||phi'||_{L^k(K mu)} <= ||phi||_{L^k(mu)}``.
    """
    _require_source(kernel, mu.space, "the measure's space")
    if np.any(mu.mass < 0):
        raise ValueError("conditional expectation needs a nonnegative base measure")
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (kernel.source.n_atoms,):
        raise ValueError("expected one value per source atom")
    num = kernel.push_mass(phi * mu.mass)
    den = kernel.push_mass(mu.mass)
    out = np.zeros(kernel.target.n_atoms)
    np.divide(num, den, out=out, where=den != 0)
    return out


def compose(k2, k1):
    """Apply ``k1`` first, then ``k2``: the kernel of the matrix product.

    Two statistics compose to the ``Statistic`` of their composed maps, and
    a first statistic picks rows of ``k2``, so no statistic becomes a matrix.
    """
    _require_source(k2, k1.target, "the inner target space")
    if isinstance(k1, Statistic):
        if isinstance(k2, Statistic):
            return Statistic(k1.source, k2.target, k2.map[k1.map])
        rows = as_kernel(k2).rows[k1.map]
    else:
        rows = k2.push_mass(as_kernel(k1).rows)
    return MarkovKernel._take(k1.source, k2.target, rows)


def is_congruent(kernel, kappa):
    """Is ``kernel`` congruent for the statistic ``kappa``?

    ``kernel`` maps the target of ``kappa`` back to its source; congruence
    means pushing each row forward through ``kappa`` gives the Dirac at the
    row's own atom, i.e. each row's mass stays inside the matching fiber,
    within the roundoff of summing each fiber.
    """
    # congruence pairs a kernel from Y to X with a statistic from X to Y
    _require_source(kappa, kernel.target, "the kernel's target space")
    _require_source(kernel, kappa.target, "the statistic's target space")
    n = kappa.target.n_atoms
    size = np.bincount(kappa.map, minlength=n)
    if isinstance(kernel, Statistic):
        # a Dirac row stays in its fiber exactly when kappa undoes the map
        return bool(np.array_equal(kappa.map[kernel.map], np.arange(n)))
    if isinstance(kernel, TransverseFamily):
        # mass of row j on fiber j', per (j, j') that occurs; an empty j has no (j, j)
        pairs, at = np.unique(kernel.statistic.map * n + kappa.map, return_inverse=True)
        mass = np.bincount(at, weights=kernel.weights)
        own = pairs // n == pairs % n
        return bool(own.sum() == n and np.all(_sums_to(mass, own, size[pairs % n])))
    # aggregated[j', j] = mass row j' places on fiber j
    aggregated = kappa.push_mass(kernel.rows)
    return bool(np.all(_sums_to(aggregated, np.eye(n), size)))


def congruent_embedding(kappa, mu, nu_prime):
    """Embed a measure from the target space back into the source space.

    Writes ``nu'`` as a density against the pushforward of ``mu``, pulls the
    density back along ``kappa``, and multiplies by ``mu``. Pushing the
    result forward through ``kappa`` recovers ``nu'`` exactly.
    """
    mu_prime = pushforward(kappa, mu)
    phi_prime = radon_nikodym(nu_prime, mu_prime)
    return SignedMeasure(kappa.source, kappa.pull(phi_prime) * mu.mass)


def transverse_measures(kappa, mu):
    """Disintegrate ``mu`` along ``kappa`` into per-fiber probabilities.

    Fibers of positive pushforward mass get the normalized restriction of
    ``mu``; nonempty null fibers get the uniform probability on the fiber.
    Returns the :class:`TransverseFamily` of these weights.
    """
    _require_source(kappa, mu.space, "the measure's space")
    if np.any(mu.mass < 0):
        raise ValueError("transverse measures need a nonnegative measure")
    size = np.bincount(kappa.map, minlength=kappa.target.n_atoms)
    total = kappa.push_mass(mu.mass)[kappa.map]
    weight = np.divide(mu.mass, total, out=1.0 / size[kappa.map], where=total > 0)
    return TransverseFamily(kappa, weight)


def congruent_kernel_from_embedding(kappa, mu):
    """The congruent kernel whose rows are the transverse fiber measures.

    Requires every target atom to have a nonempty preimage. Pushing any
    measure dominated by the pushforward of ``mu`` through the result agrees
    with :func:`congruent_embedding`.
    """
    return transverse_measures(kappa, mu)._kernel()


def product_space(left, right, sep="|"):
    """Product sample space with row-major atom order (left index outer)."""
    atoms = [
        "{}{}{}".format(a, sep, b) for a in left.atoms for b in right.atoms
    ]
    return SampleSpace(atoms)


def decompose_kernel(kernel):
    """Split a kernel into a congruent kernel followed by a statistic.

    Returns ``(k_cong, kappa1, kappa2)`` where ``k_cong`` maps the source
    into the product space (source x target) by ``delta_omega x K(omega)``,
    ``kappa1``/``kappa2`` are the product projections, ``k_cong`` is the
    family of ``kappa1`` weighted by the kernel's rows, and composing the
    ``kappa2`` kernel after ``k_cong`` reproduces the original kernel exactly.
    """
    kernel = as_kernel(kernel)
    n, m = kernel.rows.shape
    prod = product_space(kernel.source, kernel.target)
    kappa1 = Statistic(prod, kernel.source, np.repeat(np.arange(n), m))
    kappa2 = Statistic(prod, kernel.target, np.tile(np.arange(m), n))
    return TransverseFamily(kappa1, kernel.rows.ravel()), kappa1, kappa2


# ---------------------------------------------------------------------------
# power-measure transport
# ---------------------------------------------------------------------------

def power_pushforward(kernel, nu):
    """Push a power measure of exponent r through a kernel.

    Computed by raising to the power 1/r (back to a signed measure),
    pushing forward, and taking the sign-preserving r-th power again.
    """
    _require_source(kernel, nu.space, "the power measure's space")
    signed = np.sign(nu.coeff) * np.abs(nu.coeff) ** (1.0 / nu.r)
    pushed = kernel.push_mass(signed)
    return PowerMeasure(kernel.target, nu.r, np.sign(pushed) * np.abs(pushed) ** nu.r)


def formal_power_derivative(kernel, mu, rho):
    """Derivative of the power pushforward at ``mu**r`` applied to ``rho``.

    ``rho`` must be of the form ``phi * mu**r`` (coefficients vanishing on
    ``mu``-null atoms); the result is ``phi' * (K mu)**r`` with ``phi'`` the
    conditional expectation of ``phi``. Its norm never exceeds the norm of
    ``rho``.
    """
    _require_source(kernel, mu.space, "the base measure's space")
    _require_source(kernel, rho.space, "the power measure's space")
    null = mu.mass == 0
    offending = null & (rho.coeff != 0)
    if np.any(offending):
        i = int(np.argmax(offending))
        raise DominationError(
            "power measure has coefficient {!r} on a null atom {!r} of the base measure".format(
                float(rho.coeff[i]), mu.space.atoms[i]
            )
        )
    base = mu.mass**rho.r
    phi = np.zeros(mu.space.n_atoms)
    np.divide(rho.coeff, base, out=phi, where=~null)
    phi_prime = conditional_expectation(kernel, mu, phi)
    pushed = pushforward(kernel, mu)
    return PowerMeasure(kernel.target, rho.r, phi_prime * pushed.mass**rho.r)
