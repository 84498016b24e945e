"""Compiled DSL programs against a reference tree-walking evaluator.

``_ref_eval``/``ref_eval_on_grid`` are a verbatim copy of the interpreter
that ``dsl.compile`` replaced: it walks one tree, evaluates untaken ``if``
branches under a mask, and checks the result for non-finite values. Every
case here must give the same bits, or the same error class and message,
including which error a multi-root program raises first.
"""

import numpy as np
import pytest

from igk import dsl, models, serialize
from igk.dsl import Bin, Call, Cmp, If, Neg, Num, Var, print_expr
from igk.errors import DomainError
from igk.models import ParametrizedMeasureModel

from conftest import random_tree, smooth_expr_text


# ---------------------------------------------------------------------------
# reference: the tree-walking interpreter
# ---------------------------------------------------------------------------

def _masked_any(mask, cond):
    return bool(np.any(cond[mask])) if cond.shape else bool(mask.any() and cond)


def _ref_eval(e, coords, params, mask):
    n = mask.shape[0]
    if isinstance(e, Num):
        return np.full(n, e.value)
    if isinstance(e, Var):
        if e.kind == "t":
            if e.index > params.shape[0]:
                raise DomainError(
                    "expression references t{} but only {} parameter(s) were supplied".format(
                        e.index, params.shape[0]
                    )
                )
            return np.full(n, params[e.index - 1])
        if coords is None:
            raise DomainError(
                "expression references x{} but the sample space has no coordinates".format(
                    e.index
                )
            )
        if e.index > coords.shape[1]:
            raise DomainError(
                "expression references x{} but coordinates have dimension {}".format(
                    e.index, coords.shape[1]
                )
            )
        return coords[:, e.index - 1].astype(float, copy=True)
    if isinstance(e, Neg):
        return -_ref_eval(e.arg, coords, params, mask)
    if isinstance(e, Bin):
        left = _ref_eval(e.left, coords, params, mask)
        right = _ref_eval(e.right, coords, params, mask)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if e.op == "/":
            if _masked_any(mask, right == 0):
                raise DomainError("division by zero in {}".format(print_expr(e)))
            with np.errstate(all="ignore"):
                out = left / right
            return np.where(mask, out, 0.0)
        if e.op == "^":
            frac = right != np.floor(right)
            if _masked_any(mask, (left < 0) & frac):
                raise DomainError(
                    "negative base with non-integer exponent in {}".format(print_expr(e))
                )
            if _masked_any(mask, (left == 0) & (right < 0)):
                raise DomainError(
                    "zero base with negative exponent in {}".format(print_expr(e))
                )
            with np.errstate(all="ignore"):
                out = np.power(left, right)
            return np.where(mask, out, 0.0)
        raise AssertionError("unreachable operator " + e.op)
    if isinstance(e, Cmp):
        left = _ref_eval(e.left, coords, params, mask)
        right = _ref_eval(e.right, coords, params, mask)
        op = e.op
        if op == "<":
            res = left < right
        elif op == "<=":
            res = left <= right
        elif op == ">":
            res = left > right
        elif op == ">=":
            res = left >= right
        else:
            res = left == right
        return res.astype(float)
    if isinstance(e, Call):
        if e.name in ("min", "max"):
            a = _ref_eval(e.args[0], coords, params, mask)
            b = _ref_eval(e.args[1], coords, params, mask)
            return np.minimum(a, b) if e.name == "min" else np.maximum(a, b)
        arg = _ref_eval(e.args[0], coords, params, mask)
        if e.name == "exp":
            with np.errstate(all="ignore"):
                return np.exp(arg)
        if e.name == "log":
            if _masked_any(mask, arg <= 0):
                raise DomainError("log of nonpositive value in {}".format(print_expr(e)))
            with np.errstate(all="ignore"):
                out = np.log(arg)
            return np.where(mask, out, 0.0)
        if e.name == "sin":
            return np.sin(arg)
        if e.name == "cos":
            return np.cos(arg)
        if e.name == "abs":
            return np.abs(arg)
        if e.name == "sign":
            return np.sign(arg)
        raise AssertionError("unreachable function " + e.name)
    if isinstance(e, If):
        cond = _ref_eval(e.cond, coords, params, mask)
        take = cond != 0
        m_then = mask & take
        m_other = mask & ~take
        out = np.zeros(n)
        if m_then.any():
            out = np.where(m_then, _ref_eval(e.then, coords, params, m_then), out)
        if m_other.any():
            out = np.where(m_other, _ref_eval(e.other, coords, params, m_other), out)
        return out
    raise TypeError("not an expression node: {!r}".format(e))


def ref_eval_on_grid(e, coords, params):
    params = np.atleast_1d(np.asarray(params, dtype=float))
    if coords is not None:
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        n = coords.shape[0]
    else:
        n = 1
    mask = np.ones(n, dtype=bool)
    with np.errstate(all="ignore"):
        out = _ref_eval(e, coords, params, mask)
    if not np.all(np.isfinite(out)):
        raise DomainError(
            "expression evaluated to a non-finite value in {}".format(print_expr(e))
        )
    return out


def ref_program(roots, coords, params):
    """Each root on its own, in order, stacked (the first error wins)."""
    rows = [ref_eval_on_grid(e, coords, params) for e in roots]
    n = 1 if coords is None else np.asarray(coords).shape[0]
    return np.array(rows, dtype=float).reshape(len(roots), n)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except (DomainError, TypeError) as err:
        return (type(err).__name__, str(err))


def assert_same(got, want, what):
    assert got[0] == want[0], (what, got, want)
    if got[0] == "value":
        a, b = got[1], want[1]
        # bytes, not ==: signed zeros must match too
        assert (a.shape, a.dtype) == (b.shape, b.dtype), what
        assert a.tobytes() == b.tobytes(), (what, a, b)
        assert np.array_equal(a, b)
    else:
        assert got[1] == want[1], what


_GRID_VALUES = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0])


def random_inputs(rng, n_coords=3, n_params=3):
    """A grid with exact zeros and integers half the time; sometimes no
    coordinates, or fewer coordinates/parameters than a tree mentions."""
    n = int(rng.integers(0, 25))
    m = int(rng.integers(1, n_coords + 1))
    d = int(rng.integers(1, n_params + 1))
    if rng.random() < 0.5:
        coords = rng.choice(_GRID_VALUES, size=(n, m))
        params = rng.choice(_GRID_VALUES, size=d)
    else:
        coords = rng.uniform(-3.0, 3.0, size=(n, m))
        params = rng.uniform(-3.0, 3.0, size=d)
    if rng.random() < 0.1:
        coords = None
    return coords, params


def shared_tree(rng, pool, depth):
    """A tree whose leaves are drawn from a few shared subtrees, used inside
    and outside ``if`` branches, so equal subexpressions meet under
    different masks."""
    if depth == 0 or rng.random() < 0.3:
        return pool[rng.integers(0, len(pool))]
    a = shared_tree(rng, pool, depth - 1)
    b = shared_tree(rng, pool, depth - 1)
    kind = rng.integers(0, 4)
    if kind == 0:
        return Bin(["+", "-", "*", "/", "^"][rng.integers(0, 5)], a, b)
    if kind == 1:
        return Call(["exp", "log", "sin", "abs"][rng.integers(0, 4)], (a,))
    if kind == 2:
        return If(Cmp(["<", ">=", "=="][rng.integers(0, 3)], a, pool[0]), a, b)
    return Neg(a)


# ---------------------------------------------------------------------------
# (a) single trees over the full grammar
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_random_trees_match_reference(seed):
    rng = np.random.default_rng(seed)
    errors = 0
    for _ in range(400):
        e = random_tree(rng, depth=int(rng.integers(1, 6)))
        coords, params = random_inputs(rng)
        want = outcome(ref_eval_on_grid, e, coords, params)
        errors += want[0] != "value"
        assert_same(outcome(dsl.eval_on_grid, e, coords, params), want, print_expr(e))
        program = dsl.compile((e,))
        got = outcome(lambda: dsl.eval_on_grid(program, coords, params)[0])
        assert_same(got, want, print_expr(e))
    # both values and domain errors are exercised
    assert 50 < errors < 350


@pytest.mark.parametrize("seed", range(3))
def test_shared_subtrees_across_branches_match_reference(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(300):
        pool = [random_tree(rng, 2) for _ in range(3)]
        roots = tuple(
            shared_tree(rng, pool, int(rng.integers(1, 5)))
            for _ in range(int(rng.integers(1, 4)))
        )
        coords, params = random_inputs(rng)
        want = outcome(ref_program, roots, coords, params)
        got = outcome(dsl.eval_on_grid, dsl.compile(roots), coords, params)
        assert_same(got, want, [print_expr(r) for r in roots])


def test_untaken_branch_is_not_evaluated():
    # the then-branch mentions t5 and log(-1), but no atom takes it
    e = dsl.parse("if(x1 > 10, log(-1) + t5, x1 * t1)")
    coords = np.linspace(-1.0, 1.0, 7)[:, None]
    want = outcome(ref_eval_on_grid, e, coords, [2.0])
    assert want[0] == "value"
    assert_same(outcome(dsl.eval_on_grid, e, coords, [2.0]), want, "untaken")


def test_masked_and_unmasked_uses_are_checked_separately():
    # log(x1) is fine where x1 > 0 but fails on the whole grid; the error
    # comes from the unmasked use, after the masked one has run
    e = dsl.parse("if(x1 > 0, log(x1), 0) + log(x1)")
    coords = np.array([[-1.0], [0.5], [2.0]])
    want = outcome(ref_eval_on_grid, e, coords, [])
    assert want == ("DomainError", "log of nonpositive value in log(x1)")
    assert_same(outcome(dsl.eval_on_grid, e, coords, []), want, "masked")


def test_signed_zero_literals_stay_apart():
    x = Var("x", 1)
    roots = (Bin("*", x, Num(-0.0)), Bin("*", x, Num(0.0)))
    coords = np.array([[1.0], [2.0]])
    want = outcome(ref_program, roots, coords, [])
    assert_same(outcome(dsl.eval_on_grid, dsl.compile(roots), coords, []), want, roots)


def test_equal_subexpressions_are_one_op():
    e = dsl.parse("exp(-((x1 - t1) / t2) ^ 2) / t2")
    roots = (e, dsl.differentiate(e, 1), dsl.differentiate(e, 2))
    program = dsl.compile(roots)
    ops = [op for op in program._ops if op[1] != dsl._OUT]
    texts = [print_expr(op[4]) for op in ops]
    assert len(texts) == len(set(texts))
    # the exponential is computed once for the value and both partials
    assert sum(op[0] is dsl._CALLS["exp"] for op in ops) == 1


# ---------------------------------------------------------------------------
# (b) multi-root programs of symbolic derivatives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_derivative_programs_match_each_tree_in_turn(seed):
    rng = np.random.default_rng(200 + seed)
    firsts = set()
    for _ in range(150):
        text = smooth_expr_text(rng, n_coords=1, n_params=2, depth=int(rng.integers(1, 5)))
        params = rng.uniform(-3.0, 3.0, size=2)
        if rng.random() < 0.4:
            # with large t1*x1, exp(t1*x1) overflows in every root, while
            # exp(-exp(t1*x1)) underflows to 0 and only its t1-partial
            # (0 * inf) fails
            factor = ("exp(t1 * x1)", "exp(-exp(t1 * x1))")[rng.integers(0, 2)]
            text = "({}) * {}".format(text, factor)
            params *= 300.0
        e = dsl.parse(text)
        roots = (e, dsl.differentiate(e, 1), dsl.differentiate(e, 2))
        coords = rng.uniform(-3.0, 3.0, size=(int(rng.integers(1, 40)), 1))
        want = outcome(ref_program, roots, coords, params)
        got = outcome(dsl.eval_on_grid, dsl.compile(roots), coords, params)
        assert_same(got, want, text)
        if want[0] != "value":
            firsts.add(want[1].split(" in ")[1] in [print_expr(r) for r in roots[1:]])
    # errors come from the value root and from later roots alone
    assert firsts == {False, True}


def test_first_error_follows_root_order():
    # root 1 overflows; root 2 divides by zero and shares x1 - t1 with root 1
    roots = (
        dsl.parse("exp(1000 * (x1 - t1))"),
        dsl.parse("1 / (x1 - t1)"),
    )
    coords = np.array([[0.0], [1.0]])
    for first in (roots, roots[::-1]):
        want = outcome(ref_program, first, coords, [1.0])
        assert want[0] == "DomainError"
        got = outcome(dsl.eval_on_grid, dsl.compile(first), coords, [1.0])
        assert_same(got, want, [print_expr(r) for r in first])


# ---------------------------------------------------------------------------
# (c) literal exponents on mixed-sign bases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("exponent", ["2", "3", "0.5", "-1", "1"])
@pytest.mark.parametrize(
    "template",
    [
        "x1 ^ {}",
        "(x1 - t1) ^ {}",
        "t1 ^ {}",
        "if(x1 > 0, x1 ^ {}, 0)",
        "if(x1 == 0, 1, x1 ^ {})",
        "sin(3 * x1) ^ {} + t1 ^ {}",
    ],
)
def test_literal_exponents(template, exponent):
    e = dsl.parse(template.replace("{}", exponent))
    literal = float(exponent)
    rng = np.random.default_rng(7)
    grids = [
        rng.normal(0.0, 2.0, size=(2000, 1)),
        np.array([[-2.0], [-0.5], [0.0], [0.25], [3.0]]),
        np.array([[1.5]]),
        np.zeros((0, 1)),
    ]
    for coords in grids:
        for t in (-1.5, 0.0, 0.7):
            want = outcome(ref_eval_on_grid, e, coords, [t])
            assert_same(outcome(dsl.eval_on_grid, e, coords, [t]), want, (e, t))
    # the AST literal Num(-1.0) (a parsed -1 is Neg(Num(1.0)))
    e = Bin("^", Var("x", 1), Num(literal))
    coords = grids[0]
    assert_same(
        outcome(dsl.eval_on_grid, e, coords, []),
        outcome(ref_eval_on_grid, e, coords, []),
        e,
    )


def test_unit_exponent_keeps_every_bit():
    # a ^ 1.0 compiles to the base itself; pow(a, 1) is a on every finite value
    values = np.array(
        [-0.0, 0.0, 5e-324, -2.2e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, 1.0, -3.25, np.pi]
    )
    e = dsl.parse("x1 ^ 1")
    want = ref_eval_on_grid(e, values[:, None], [])
    got = dsl.eval_on_grid(e, values[:, None], [])
    assert got.tobytes() == want.tobytes() == values.tobytes()


# ---------------------------------------------------------------------------
# (d) no coordinates
# ---------------------------------------------------------------------------

def test_program_without_coordinates():
    e = dsl.parse("t1 * (1 - t1) + t2 ^ 2 + log(t2)")
    roots = (e, dsl.differentiate(e, 1), dsl.differentiate(e, 2))
    for params in ([0.3, 2.0], [0.3, -1.0], [0.3]):
        want = outcome(ref_program, roots, None, params)
        got = outcome(dsl.eval_on_grid, dsl.compile(roots), None, params)
        assert_same(got, want, params)
    e = dsl.parse("t1 + x1")
    want = outcome(ref_eval_on_grid, e, None, [1.0])
    assert want[0] == "DomainError"
    assert_same(outcome(dsl.eval_on_grid, e, None, [1.0]), want, "x1")


def test_model_without_coordinates_matches_reference():
    obj = {
        "domain": {"bounds": [[0, 1], [0, 3]]},
        "space": {"atoms": ["a", "b", "c"]},
        "density": "t1 * (1 - t1) + t2 ^ 2 + 0.5",
    }
    model = serialize.model_from_obj(obj)
    e = dsl.parse(obj["density"])
    partials = [dsl.differentiate(e, j) for j in (1, 2)]
    for xi in ([0.3, 2.0], [0.9, 0.1]):
        dens, grad = model.density_grad(xi)
        want = np.full(3, ref_eval_on_grid(e, None, xi)[0])
        assert dens.tobytes() == want.tobytes()
        want = np.stack([np.full(3, ref_eval_on_grid(d, None, xi)[0]) for d in partials])
        assert grad.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the benchmark's two DSL models
# ---------------------------------------------------------------------------

# the same normal density, once smooth (symbolic gradients) and once with
# its exponent behind abs(...), which forces finite differences
BENCH_DENSITIES = {
    "smooth": "exp(-0.5*((x1-t1)/t2)^2)/(t2*2.5066282746310002)",
    "fd": "exp(-0.5*abs((x1-t1)/t2)^2)/(t2*2.5066282746310002)",
}


def bench_model(density):
    return serialize.model_from_obj({
        "domain": {"bounds": [["-inf", "inf"], [0, "inf"]]},
        "space": {"grid": {"interval": [-5.0, 5.0], "points": 20000}},
        "density": density,
    })


@pytest.mark.parametrize("kind", sorted(BENCH_DENSITIES))
def test_benchmark_models_match_reference(kind):
    model = bench_model(BENCH_DENSITIES[kind])
    coords = model.space.coords
    e = dsl.parse(BENCH_DENSITIES[kind])

    def ref_density(xi):
        return ref_eval_on_grid(e, coords, xi)

    reference = ParametrizedMeasureModel(model.domain, model.space, ref_density)
    rng = np.random.default_rng(11)
    points = np.column_stack([rng.uniform(-1, 1, 10), rng.uniform(0.5, 2.0, 10)])
    for xi in points:
        if kind == "smooth":
            dens, grad = model.density_grad(xi)
            assert dens.tobytes() == ref_density(xi).tobytes()
            want = np.stack(
                [ref_eval_on_grid(dsl.differentiate(e, j), coords, xi) for j in (1, 2)]
            )
            assert grad.tobytes() == want.tobytes()
        else:
            assert model.density_grad is None
            assert model.density(xi).tobytes() == ref_density(xi).tobytes()
            got = models.mass_gradient(model, xi)
            assert got.tobytes() == models.mass_gradient(reference, xi).tobytes()


@pytest.mark.parametrize("kind", sorted(BENCH_DENSITIES))
def test_one_eval_call_per_jet(monkeypatch, kind):
    model = bench_model(BENCH_DENSITIES[kind])
    calls = []
    real = dsl.eval_on_grid

    def counting(e, coords, params):
        calls.append(e)
        return real(e, coords, params)

    monkeypatch.setattr(dsl, "eval_on_grid", counting)
    xi = [0.1, 1.2]
    models.jet(model, xi)
    d = model.domain.dim
    if kind == "smooth":
        # one program: the value and both partials
        assert len(calls) == 1 and len(calls[0].roots) == 1 + d
    else:
        # the value alone, then two per partial for central differences
        assert len(calls) == 1 + 2 * d
        assert all(len(program.roots) == 1 for program in calls)
    # row 0 is the value-only program, bit for bit
    value = dsl.compile((dsl.parse(BENCH_DENSITIES[kind]),))
    dens = model.density_grad(xi)[0] if kind == "smooth" else model.density(xi)
    assert dens.tobytes() == real(value, model.space.coords, xi)[0].tobytes()
