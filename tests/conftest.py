"""Shared random generators for the test suite.

Everything is driven by explicit numpy Generators so each test controls
its own seed; nothing here touches global random state.
"""

from __future__ import annotations

import numpy as np

from igk import (
    EmptyFiberError,
    MarkovKernel,
    ParameterDomain,
    ParametrizedMeasureModel,
    SampleSpace,
    SignedMeasure,
    Statistic,
    as_kernel,
)
from igk.measures import _sums_to

_LABELS = "abcdefghijklmnopqrstuvwxyz"


def random_space(rng, n, coords=False, weights=False, tag=""):
    atoms = tuple(tag + _LABELS[i] for i in range(n))
    c = rng.uniform(-1.0, 1.0, size=(n, 1)) if coords else None
    w = rng.uniform(0.5, 2.0, size=n) if weights else None
    return SampleSpace(atoms, coords=c, weights=w)


def random_signed(rng, space):
    return SignedMeasure(space, rng.uniform(-2.0, 2.0, size=space.n_atoms))


def random_measure_mass(rng, n, floor=0.05):
    return rng.uniform(floor, 2.0, size=n)


def random_kernel(rng, source, target):
    rows = rng.dirichlet(np.ones(target.n_atoms), size=source.n_atoms)
    return MarkovKernel(source, target, rows)


def random_onto_statistic(rng, source, n_target, tag="T"):
    """A map hitting every target atom (each fiber nonempty)."""
    n = source.n_atoms
    assert n_target <= n
    mapping = np.concatenate(
        [np.arange(n_target), rng.integers(0, n_target, size=n - n_target)]
    )
    rng.shuffle(mapping)
    target = SampleSpace(tuple(tag + _LABELS[j] for j in range(n_target)))
    return Statistic(source, target, mapping)


def dense_is_congruent(kernel, kappa):
    """The reference verdict of ``is_congruent``, from the kernel's n x m matrix:
    pushed through ``kappa``, each row must be the Dirac at its own atom, to the
    roundoff of summing each fiber. A family with an empty fiber has no matrix."""
    try:
        rows = as_kernel(kernel).rows
    except EmptyFiberError:
        return False
    n = kappa.target.n_atoms
    size = np.bincount(kappa.map, minlength=n)
    return bool(np.all(_sums_to(kappa.push_mass(rows), np.eye(n), size)))


def candidate_statistic(kernel, tol=1e-12):
    """The only statistic a congruent kernel can be congruent for.

    Each target atom receiving mass must be owned by exactly one row;
    returns None when ownership is ambiguous (such kernels cannot pass
    is_congruent for any statistic).
    """
    owner = np.full(kernel.target.n_atoms, -1)
    for i, row in enumerate(kernel.rows):
        hit = np.flatnonzero(row > tol)
        for j in hit:
            if owner[j] not in (-1, i):
                return None
            owner[j] = i
    owner[owner == -1] = 0
    return Statistic(kernel.target, kernel.source, owner)


def exp_family_model(rng, n_atoms, dim, weights=False):
    """exp(a_i + sum_j b_ij t_j): strictly positive with exact gradients."""
    a = rng.uniform(-0.5, 0.5, size=n_atoms)
    b = rng.uniform(-1.0, 1.0, size=(n_atoms, dim))
    space = random_space(rng, n_atoms, weights=weights)

    def density_grad(xi):
        dens = np.exp(a + b @ xi)
        return dens, (b * dens[:, None]).T

    return ParametrizedMeasureModel(
        ParameterDomain(((-1.0, 1.0),) * dim),
        space,
        density_grad=density_grad,
        name="exp-family",
    )


def density_of(model):
    """The density alone of a model given by ``density_grad``."""
    return lambda xi: model.density_grad(xi)[0]


# ---------------------------------------------------------------------------
# DSL generators
# ---------------------------------------------------------------------------

def positive_density_text(rng, dim, with_coord=True):
    """Expression text that is strictly positive and smooth in t1..td."""
    terms = []
    for _ in range(rng.integers(1, 4)):
        c = rng.uniform(-0.8, 0.8)
        j = int(rng.integers(1, dim + 1))
        kind = rng.integers(0, 3)
        if kind == 0:
            terms.append("{:.3f}*t{}".format(c, j))
        elif kind == 1 and with_coord:
            terms.append("{:.3f}*t{}*x1".format(c, j))
        else:
            shift = rng.uniform(0.0, 3.0)
            arg = "t{} + {:.3f}".format(j, shift)
            if with_coord and rng.integers(0, 2):
                arg += " + x1"
            fn = "sin" if rng.integers(0, 2) else "cos"
            terms.append("{:.3f}*{}({})".format(c, fn, arg))
    return "exp({})".format(" + ".join(terms))


def dsl_model(rng, n_atoms, dim, serialize_mod):
    """A strictly positive model with a DSL density and symbolic gradients."""
    obj = {
        "domain": {"bounds": [[-1.0, 1.0]] * dim},
        "space": {
            "atoms": [_LABELS[i] for i in range(n_atoms)],
            "coords": [[float(v)] for v in rng.uniform(-1.0, 1.0, size=n_atoms)],
        },
        "density": positive_density_text(rng, dim),
    }
    return serialize_mod.model_from_obj(obj)


def _smooth_expr(rng, depth, n_coords, n_params):
    """Random expression using only operators differentiate() accepts."""
    leaf_p = 0.35 if depth > 0 else 1.0
    if rng.random() < leaf_p:
        r = rng.random()
        if r < 0.4:
            return "{:.3f}".format(rng.uniform(0.2, 1.5))
        if r < 0.7 and n_params:
            return "t{}".format(rng.integers(1, n_params + 1))
        if n_coords:
            return "x{}".format(rng.integers(1, n_coords + 1))
        return "t{}".format(rng.integers(1, n_params + 1))
    a = _smooth_expr(rng, depth - 1, n_coords, n_params)
    b = _smooth_expr(rng, depth - 1, n_coords, n_params)
    kind = rng.integers(0, 8)
    if kind == 0:
        return "({} + {})".format(a, b)
    if kind == 1:
        return "({} - {})".format(a, b)
    if kind == 2:
        return "({} * {})".format(a, b)
    if kind == 3:
        # denominator bounded away from zero
        return "({} / (1.5 + sin({})))".format(a, b)
    if kind == 4:
        return "sin({})".format(a)
    if kind == 5:
        return "cos({})".format(a)
    if kind == 6:
        return "exp({:.3f} * {})".format(rng.uniform(-0.6, 0.6), a)
    # log of something >= 0.5, and an occasional literal power
    if rng.integers(0, 2):
        return "log(1.5 + sin({}))".format(a)
    return "(0.5 + sin({})) ^ {}".format(a, int(rng.integers(2, 4)))


def smooth_expr_text(rng, n_coords=1, n_params=2, depth=3):
    return _smooth_expr(rng, depth, n_coords, n_params)


def random_tree(rng, depth=3):
    """Random syntax tree over the full grammar (for round-trip checks)."""
    from igk import dsl

    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.4:
            return dsl.Num(float(round(rng.uniform(0.0, 9.0), 3)))
        kind = "x" if r < 0.7 else "t"
        return dsl.Var(kind, int(rng.integers(1, 4)))
    kind = rng.integers(0, 6)
    if kind == 0:
        return dsl.Neg(random_tree(rng, depth - 1))
    if kind == 1:
        op = ["+", "-", "*", "/", "^"][rng.integers(0, 5)]
        return dsl.Bin(op, random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if kind == 2:
        op = ["<", "<=", ">", ">=", "=="][rng.integers(0, 5)]
        return dsl.Cmp(op, random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if kind == 3:
        name = ["exp", "log", "sin", "cos", "abs", "sign"][rng.integers(0, 6)]
        return dsl.Call(name, (random_tree(rng, depth - 1),))
    if kind == 4:
        name = ["min", "max"][rng.integers(0, 2)]
        return dsl.Call(
            name, (random_tree(rng, depth - 1), random_tree(rng, depth - 1))
        )
    return dsl.If(
        random_tree(rng, depth - 1),
        random_tree(rng, depth - 1),
        random_tree(rng, depth - 1),
    )
