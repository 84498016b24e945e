"""Statistics, Markov kernels, conditional expectation, and congruence.

A statistic is a map between finite sample spaces, one target index per source
atom. A Markov kernel attaches a probability row over the target atoms to every
source atom and is stored as its entries; statistics are the 0/1 case. A
transverse family, one weight per source atom of a statistic, is the congruent
kernel back along it. All three list their entries row by row (``_support``),
push mass along them and are accepted wherever a kernel is. Built on them:
(power) pushforwards, conditional expectation, congruent embeddings, and the
split of any kernel into a congruent kernel followed by a statistic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DominationError, EmptyFiberError, SpaceMismatchError
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


def _require_statistic(statistic, caller):
    if not isinstance(statistic, Statistic):
        raise ContractError("{} needs a Statistic, got {}".format(
            caller, type(statistic).__name__))


def _push(transport, a):
    """Push a ``(n,)`` mass vector along the transport's entries (``_support``): each adds
    its weight times its source atom's mass to its target atom, in entry order, in one
    ``np.bincount``. ``(d, n)`` rows are d such pushes, each written into its row of the
    ``(d, m)`` result, so one row's values per entry are held at a time."""
    a, m = np.asarray(a, dtype=float), transport.target.n_atoms
    if a.ndim == 2:
        out = np.empty((len(a), m))
        for i, row in enumerate(a):
            out[i] = _push(transport, row)
        return out
    count, to, weight = transport._support()
    if not isinstance(count, int):  # a statistic's entries are its atoms, of weight 1
        a = np.repeat(a, count)
        a *= weight
    return np.bincount(to, weights=a, minlength=m)


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
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_index", idx)  # writable: bincount copies a read-only index
        object.__setattr__(self, "map", idx.view())
        self.map.setflags(write=False)

    push_mass = _push  # sums over each fiber

    def pull(self, values):
        """Pullback of a per-target-atom function: compose with the map."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.target.n_atoms,):
            raise ValueError("expected one value per target atom")
        return values[self.map]

    def fiber(self, j):
        """Indices of the source atoms mapped to target atom ``j``, one of ``0..m-1``."""
        j = operator.index(j)  # a fractional j raises TypeError, as list indexing does
        if not 0 <= j < self.target.n_atoms:
            raise IndexError("target atom {} is outside 0..{}".format(j, self.target.n_atoms - 1))
        return np.flatnonzero(self.map == j)

    def fibers(self):
        """Every fiber in target order, atoms ascending, grouped in one pass."""
        order = np.argsort(self.map, kind="stable")
        ends = np.cumsum(np.bincount(self._index, minlength=self.target.n_atoms))
        return np.split(order, ends[:-1])

    def _support(self):  # entries per source atom, their target atoms and weights
        return 1, self._index, 1.0


@dataclass(frozen=True, eq=False)
class MarkovKernel:
    """A row-stochastic matrix between the atoms of two spaces, stored as its entries
    (from ``rows``, the nonzero ones): the count per row, then columns and values (CSR)."""

    source: SampleSpace
    target: SampleSpace

    def __init__(self, source, target, rows):
        rows = np.asarray(rows, dtype=float)
        if rows.shape != (source.n_atoms, target.n_atoms):
            raise ValueError("kernel matrix must be (n_source, n_target) = ({}, {}), got {}"
                             .format(source.n_atoms, target.n_atoms, rows.shape))
        if not np.all(np.isfinite(rows)) or np.any(rows < 0):
            raise ValueError("kernel entries must be finite and nonnegative")
        on = rows != 0
        sums, count = rows.sum(axis=1), on.sum(axis=1)
        bad = ~_sums_to(sums, 1.0, count)  # a row's terms are its nonzeros, as in its fibers
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError("kernel row {} sums to {!r}, not 1".format(i, float(sums[i])))
        to = np.broadcast_to(np.arange(target.n_atoms), rows.shape)[on]
        self._keep(source, target, count, to, rows[on])

    def _keep(self, source, target, count, to, weight):
        """Store entries listed as ``_support`` lists them, and return the kernel:
        ``MarkovKernel.__new__(MarkovKernel)._keep`` builds one unchecked."""
        count.setflags(write=False)
        weight.setflags(write=False)  # not the columns: bincount copies a read-only index
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_entries", (count, to, weight))
        return self

    push_mass = _push

    def _support(self):  # the stored entries, as Statistic._support lists them
        return self._entries

    @property
    def rows(self):
        """The n x m matrix, built from the entries when read; read-only."""
        count, to, weight = self._entries
        rows = np.zeros((self.source.n_atoms, self.target.n_atoms))
        rows[np.repeat(np.arange(len(rows)), count), to] = weight
        rows.setflags(write=False)
        return rows

    def row_measure(self, i):
        """The probability row attached to source atom ``i``, read from its entries."""
        count, to, weight = self._entries
        row = slice(*np.cumsum(count)[i] - [count[i], 0])
        mass = np.bincount(to[row], weights=weight[row], minlength=self.target.n_atoms)
        return ProbabilityMeasure(self.target, mass / mass.sum())


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
        size = np.bincount(statistic._index, minlength=statistic.target.n_atoms)
        sums = np.bincount(statistic._index, weights=w, minlength=len(size))
        bad = np.flatnonzero(~_sums_to(sums, size > 0, size))
        if bad.size:
            j = bad[0]
            raise ValueError("fiber {} weights sum to {!r}, not 1".format(j, float(sums[j])))
        w.setflags(write=False)
        object.__setattr__(self, "statistic", statistic)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_size", size)
        object.__setattr__(self, "_order", np.argsort(statistic.map, kind="stable"))

    def _kernel(self):  # itself, once it has passed the empty-fiber check
        if not self._size.all():
            atom = self.source.atoms[int(np.argmin(self._size))]
            raise EmptyFiberError("target atom {!r} has an empty preimage".format(atom))
        return self

    def push_mass(self, a):
        """Push a ``(m,)`` mass vector or ``(d, m)`` rows: ``a[..., map] * weights``."""
        a, n = np.asarray(a, dtype=float), self.source.n_atoms
        if a.shape[-1:] != (n,):
            raise ValueError("expected masses on {} atoms, got shape {}".format(n, a.shape))
        return a[..., self.statistic.map] * self._kernel().weights

    def _support(self):  # the fibers, atoms ascending, as Statistic._support lists them
        return self._size, self._order, self.weights[self._order]


# ---------------------------------------------------------------------------
# kernels and pushforwards
# ---------------------------------------------------------------------------

def as_kernel(k_or_statistic):
    """The kernel of a statistic or family, built from its entries; kernels pass through."""
    k = k_or_statistic
    if isinstance(k, MarkovKernel):
        return k
    if isinstance(k, TransverseFamily):
        k = k._kernel()  # raises on an empty fiber
    count, to, weight = k._support()
    row, weight = np.repeat(np.arange(k.source.n_atoms), count), np.full(len(to), weight)
    on = weight != 0  # a family's zero weights are no entries, as in MarkovKernel(rows)
    count = np.bincount(row[on], minlength=k.source.n_atoms)
    return MarkovKernel.__new__(MarkovKernel)._keep(k.source, k.target, count, to[on], weight[on])


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
    return _conditional_expectation(kernel, mu.mass, phi, kernel.push_mass(mu.mass))


def _conditional_expectation(kernel, mass, phi, den):
    """``conditional_expectation``, unchecked, of ``(n,)`` values or ``(d, n)``
    rows ``phi``; ``den`` is ``mass`` pushed through ``kernel``."""
    num = kernel.push_mass(phi * mass)
    return np.divide(num, den, out=np.zeros(num.shape), where=den != 0)


def compose(k2, k1):
    """Apply ``k1`` first, then ``k2``: entries ``(x, y)`` of ``k1`` and ``(y, z)`` of ``k2``
    add their product to cell ``(x, z)``, in entry order, so no transport becomes a matrix.

    Two statistics compose to the ``Statistic`` of their composed maps. Other pairs sum a
    block of rows ``x`` at a time in a dense accumulator of its cells (Gustavson's row-wise
    product): no more products or cells than the larger factor has entries, or one row needs.
    """
    _require_source(k2, k1.target, "the inner target space")
    if isinstance(k1, Statistic) and isinstance(k2, Statistic):
        return Statistic(k1.source, k2.target, k2.map[k1.map])
    count1, to1, weight1 = as_kernel(k1)._support()
    count2, to2, weight2 = as_kernel(k2)._support()
    n, m, end2 = k1.source.n_atoms, k2.target.n_atoms, np.cumsum(count2)
    first = np.concatenate(([0], np.cumsum(count1)))  # each row's first entry in k1
    done = np.concatenate(([0], np.cumsum(count2[to1])))[first]  # and its first product

    def block(lo, hi):  # rows lo..hi-1: entry (x, y) meets each entry of row y of k2, in order
        y = to1[first[lo]:first[hi]]
        per = count2[y]
        at = np.repeat(end2[y] - np.cumsum(per), per)
        at += np.arange(len(at))  # the k2 entry of each product
        w = np.repeat(weight1[first[lo]:first[hi]], per)
        w *= weight2[at]
        cell = to2[at]
        del at  # three arrays of one value per product at a time, not four
        cell += np.repeat(np.arange(hi - lo) * m, np.diff(done[lo:hi + 1]))
        acc = np.bincount(cell, weights=w, minlength=(hi - lo) * m)
        on = np.flatnonzero(acc)
        return np.bincount(on // m, minlength=hi - lo), on % m, acc[on]

    step = max(1, max(len(to1), len(to2)) // max(m, np.diff(done).max()))  # rows per block
    blocks = [block(lo, min(lo + step, n)) for lo in range(0, n, step)]
    count, to, weight = (np.concatenate(b) for b in zip(*blocks))
    return MarkovKernel.__new__(MarkovKernel)._keep(k1.source, k2.target, count, to, weight)


def is_congruent(kernel, kappa):
    """Is ``kernel``, from the target of ``kappa`` back to its source, congruent for it?
    That is, does each row's mass stay inside its own atom's fiber, within the roundoff
    of summing the fiber (pushed through ``kappa``, each row is the Dirac at its atom)?
    """
    _require_statistic(kappa, "is_congruent")
    _require_source(kappa, kernel.target, "the kernel's target space")
    _require_source(kernel, kappa.target, "the statistic's target space")
    n = kappa.target.n_atoms
    size = np.bincount(kappa._index, minlength=n)
    count, to, weight = kernel._support()
    # mass of row j on fiber j', per (j, j') that occurs; an empty row j has no (j, j)
    pairs, at = np.unique(np.repeat(np.arange(n) * n, count) + kappa.map[to], return_inverse=True)
    mass = np.bincount(at, weights=np.broadcast_to(weight, at.shape))
    own = pairs // n == pairs % n
    return bool(own.sum() == n and np.all(_sums_to(mass, own, size[pairs % n])))


def congruent_embedding(kappa, mu, nu_prime):
    """Embed a measure from the target space back into the source space.

    Writes ``nu'`` as a density against the pushforward of ``mu``, pulls the
    density back along ``kappa``, and multiplies by ``mu``. Pushing the
    result forward through ``kappa`` recovers ``nu'`` exactly.
    """
    _require_statistic(kappa, "congruent_embedding")
    phi_prime = radon_nikodym(nu_prime, pushforward(kappa, mu))
    return SignedMeasure(kappa.source, kappa.pull(phi_prime) * mu.mass)


def transverse_measures(kappa, mu):
    """Disintegrate ``mu`` along ``kappa`` into per-fiber probabilities.

    Fibers of positive pushforward mass get the normalized restriction of
    ``mu``; nonempty null fibers get the uniform probability on the fiber.
    Returns the :class:`TransverseFamily` of these weights.
    """
    _require_statistic(kappa, "transverse_measures")
    _require_source(kappa, mu.space, "the measure's space")
    if np.any(mu.mass < 0):
        raise ValueError("transverse measures need a nonnegative measure")
    size = np.bincount(kappa._index, minlength=kappa.target.n_atoms)
    total = kappa.push_mass(mu.mass)[kappa.map]
    weight = np.divide(mu.mass, total, out=1.0 / size[kappa.map], where=total > 0)
    return TransverseFamily(kappa, weight)


def congruent_kernel_from_embedding(kappa, mu):
    """The congruent kernel whose rows are the transverse fiber measures; every target atom
    needs a nonempty preimage. Pushing any measure dominated by the pushforward of ``mu``
    through it agrees with :func:`congruent_embedding`."""
    return transverse_measures(kappa, mu)._kernel()


def _pair_space(left, right, i, j, sep="|"):
    """The space of atoms ``left[i]|right[j]``, one per index pair: the one label format."""
    x, y = left.atoms, right.atoms
    return SampleSpace(["{}{}{}".format(x[a], sep, y[b]) for a, b in zip(i.tolist(), j.tolist())])


def product_space(left, right, sep="|"):
    """Product sample space with row-major atom order (left index outer)."""
    i, j = np.divmod(np.arange(left.n_atoms * right.n_atoms), right.n_atoms)
    return _pair_space(left, right, i, j, sep)


def decompose_kernel(kernel):
    """Split a kernel into a congruent kernel followed by a statistic: ``(k_cong, kappa1,
    kappa2)`` on the atoms ``omega|omega'`` of its entries (``K(omega)(omega') > 0``), row-major.
    ``kappa1``/``kappa2`` send each to ``omega``/``omega'``; ``k_cong``, the family of ``kappa1``
    weighted by ``K(omega)(omega')``, maps ``omega`` to ``delta_omega x K(omega)``, and the
    ``kappa2`` kernel composed after ``k_cong`` reproduces the kernel exactly.
    """
    kernel = as_kernel(kernel)
    count, to, weight = kernel._support()
    rows = np.repeat(np.arange(kernel.source.n_atoms), count)
    support = _pair_space(kernel.source, kernel.target, rows, to)
    kappa1 = Statistic(support, kernel.source, rows)
    kappa2 = Statistic(support, kernel.target, to)
    return TransverseFamily(kappa1, weight), kappa1, kappa2


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
        raise DominationError("power measure has coefficient {!r} on a null atom {!r} of the base "
                              "measure".format(float(rho.coeff[i]), mu.space.atoms[i]))
    if np.any(mu.mass < 0):
        raise ValueError("conditional expectation needs a nonnegative base measure")
    phi = np.divide(rho.coeff, mu.mass**rho.r, out=np.zeros(mu.space.n_atoms), where=~null)
    pushed = kernel.push_mass(mu.mass)  # once: the conditional expectation's denominator
    phi_prime = _conditional_expectation(kernel, mu.mass, phi, pushed)
    return PowerMeasure(kernel.target, rho.r, phi_prime * pushed**rho.r)
