import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igk.dsl import (
    _FUNCTIONS,
    Bin,
    Call,
    Cmp,
    If,
    Neg,
    Num,
    Var,
    differentiate,
    eval_expr,
    eval_on_grid,
    parse,
    print_expr,
    references_param,
)
from igk.errors import (
    DomainError,
    ExprSyntaxError,
    UnknownIdentifierError,
    UnsupportedError,
)

from conftest import random_tree, smooth_expr_text


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_product_tree():
    e = parse("t1*(1-t1)")
    assert e == Bin("*", Var("t", 1), Bin("-", Num(1.0), Var("t", 1)))


def test_parse_precedence():
    assert eval_expr(parse("1+2*3^2")) == 19.0
    assert eval_expr(parse("2^3^2")) == 512.0  # right-associative
    assert eval_expr(parse("-2^2")) == -4.0
    assert eval_expr(parse("(1+2)*3")) == 9.0
    assert eval_expr(parse("8/4/2")) == 1.0  # left-associative


def test_parse_comparison_and_if():
    e = parse("if(x1 >= 0, 1, 2)")
    assert isinstance(e, If)
    assert e.cond == Cmp(">=", Var("x", 1), Num(0.0))
    with pytest.raises(ExprSyntaxError):
        parse("1 < 2 < 3")


def test_parse_functions_and_arity():
    assert parse("min(1, 2)") == Call("min", (Num(1.0), Num(2.0)))
    with pytest.raises(ExprSyntaxError):
        parse("min(1)")
    with pytest.raises(UnknownIdentifierError, match="foo"):
        parse("foo(1)")


def test_parse_variable_bounds():
    parse("x2 + t1", n_coords=2, n_params=1)
    with pytest.raises(UnknownIdentifierError, match="x3"):
        parse("x3", n_coords=2)
    with pytest.raises(UnknownIdentifierError, match="t2"):
        parse("t2", n_params=1)
    with pytest.raises(UnknownIdentifierError):
        parse("t0")


def test_parse_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("1 + ")
    assert exc.value.offset == 4
    with pytest.raises(ExprSyntaxError) as exc:
        parse("1 @ 2")
    assert exc.value.offset == 2
    with pytest.raises(ExprSyntaxError):
        parse("(1 + 2")


def test_parse_scientific_notation():
    assert eval_expr(parse("1.5e-3")) == 1.5e-3
    assert eval_expr(parse(".5 + 2.")) == 2.5


# A reference copy of the tokenizer and parser that wrote each grammar level as its
# own loop; parse must give its tree, or its error class, message, offset and expected.

_REF_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|==|[-+*/^(),<>])"
    r")"
)


def _ref_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = len(text) - len(text[pos:].lstrip())
            if stripped >= len(text):
                break
            raise ExprSyntaxError(
                "unexpected character {!r} at offset {}".format(text[stripped], stripped),
                offset=stripped,
                expected=("number", "identifier", "operator"),
            )
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _RefParser:
    def __init__(self, text, n_coords=None, n_params=None):
        self.tokens = _ref_tokenize(text)
        self.pos = 0
        self.n_coords = n_coords
        self.n_params = n_params

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        kind, value, offset = self.peek()
        got = repr(value) if kind != "eof" else "end of input"
        raise ExprSyntaxError(
            "expected {} but found {} at offset {}".format(" or ".join(expected), got, offset),
            offset=offset,
            expected=expected,
        )

    def expect_op(self, op):
        kind, value, _ = self.peek()
        if kind == "op" and value == op:
            return self.advance()
        self.fail(("'" + op + "'",))

    def parse(self):
        e = self.expression()
        if self.peek()[0] != "eof":
            self.fail(("end of input",))
        return e

    def expression(self):
        left = self.additive()
        kind, value, _ = self.peek()
        if kind == "op" and value in ("<", "<=", ">", ">=", "=="):
            self.advance()
            left = Cmp(value, left, self.additive())
            kind, value, _ = self.peek()
            if kind == "op" and value in ("<", "<=", ">", ">=", "=="):
                self.fail(("end of comparison (chained comparisons are not allowed)",))
        return left

    def additive(self):
        left = self.multiplicative()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("+", "-"):
                self.advance()
                left = Bin(value, left, self.multiplicative())
            else:
                return left

    def multiplicative(self):
        left = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("*", "/"):
                self.advance()
                left = Bin(value, left, self.unary())
            else:
                return left

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.primary()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Bin("^", base, self.unary())
        return base

    def primary(self):
        kind, value, offset = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(value))
        if kind == "op" and value == "(":
            self.advance()
            e = self.expression()
            self.expect_op(")")
            return e
        if kind == "ident":
            self.advance()
            if value == "if":
                self.expect_op("(")
                cond = self.expression()
                self.expect_op(",")
                then = self.expression()
                self.expect_op(",")
                other = self.expression()
                self.expect_op(")")
                return If(cond, then, other)
            if value in _FUNCTIONS:
                arity = _FUNCTIONS[value]
                self.expect_op("(")
                args = [self.expression()]
                while len(args) < arity:
                    self.expect_op(",")
                    args.append(self.expression())
                self.expect_op(")")
                return Call(value, tuple(args))
            return self.variable(value, offset)
        self.fail(("number", "identifier", "'('", "'-'"))

    def variable(self, name, offset):
        m = re.fullmatch(r"([xt])([0-9]+)", name)
        if m is None:
            raise UnknownIdentifierError(
                "unknown identifier {!r} at offset {} (known functions: {})".format(
                    name, offset, ", ".join(sorted(_FUNCTIONS) + ["if"])
                )
            )
        kind, idx = m.group(1), int(m.group(2))
        if idx < 1:
            raise UnknownIdentifierError("variable indices are 1-based, got {!r}".format(name))
        limit = self.n_coords if kind == "x" else self.n_params
        if limit is not None and idx > limit:
            raise UnknownIdentifierError(
                "{!r} is out of range: only {} {}-variable(s) declared".format(name, limit, kind)
            )
        return Var(kind, idx)


def _outcome(read, text, n_coords, n_params):
    try:
        return read(text, n_coords, n_params)
    except Exception as err:
        return type(err), str(err), getattr(err, "offset", None), getattr(err, "expected", None)


_OPERANDS = ["1", "2.5", ".5", "3.", "1e3", "2E-1", "٣", "x1", "x2", "x3", "t1", "t2",
             "t0", "x0", "foo", "e"]
_NAMES = sorted(_FUNCTIONS) + ["if"]
_OPERATORS = ["+", "-", "*", "/", "^", "<", "<=", ">", ">=", "=="]
_TOKENS = _OPERANDS + _NAMES + _OPERATORS + ["(", ")", ",", "=", ".", "$", "é", "!"]
_SPACES = ["", "", " ", "\t", "\n", "  "]

# token soup: every token, space and bad character, mostly ill-formed
_soup = st.lists(st.tuples(st.sampled_from(_SPACES), st.sampled_from(_TOKENS)), max_size=40).map(
    lambda pairs: "".join(space + token for space, token in pairs)
)
# grammar-shaped text: mostly well formed, with wrong arities, chains and bad variables
_shaped = st.recursive(
    st.sampled_from(_OPERANDS),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(_OPERATORS), inner).map(" ".join),
        inner.map(lambda a: "-" + a),
        inner.map(lambda a: "(" + a + ")"),
        st.tuples(st.sampled_from(_NAMES), st.lists(inner, min_size=1, max_size=3)).map(
            lambda call: call[0] + "(" + ", ".join(call[1]) + ")"
        ),
    ),
    max_leaves=12,
)
_bound = st.none() | st.integers(min_value=0, max_value=3)


@given(st.one_of(_soup, _shaped, st.tuples(_shaped, _soup).map("".join)), _bound, _bound)
@settings(max_examples=2000, deadline=None)
def test_parse_matches_the_reference_parser(text, n_coords, n_params):
    reference = _outcome(lambda *a: _RefParser(*a).parse(), text, n_coords, n_params)
    assert _outcome(parse, text, n_coords, n_params) == reference


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_expr_scalar():
    e = parse("exp(-1/abs(t1))")
    assert eval_expr(e, params=[0.5]) == pytest.approx(math.exp(-2.0))


def test_eval_on_grid_coords():
    e = parse("x1^2 + t1")
    out = eval_on_grid(e, np.array([[1.0], [2.0], [3.0]]), [10.0])
    np.testing.assert_allclose(out, [11.0, 14.0, 19.0])


def test_eval_min_max_sign():
    e = parse("min(x1, 0) + max(x1, 0) + sign(x1)")
    out = eval_on_grid(e, np.array([[-2.0], [0.0], [3.0]]), [])
    np.testing.assert_allclose(out, [-3.0, 0.0, 4.0])


def test_eval_if_masks_untaken_branch():
    # log(-1) would raise if the untaken branch were evaluated unmasked
    e = parse("if(x1 > 0, log(x1), 1)")
    out = eval_on_grid(e, np.array([[-1.0], [0.5]]), [])
    np.testing.assert_allclose(out, [1.0, math.log(0.5)])


def test_eval_if_masks_division():
    e = parse("if(x1 == 0, 0, 1/x1)")
    out = eval_on_grid(e, np.array([[0.0], [2.0]]), [])
    np.testing.assert_allclose(out, [0.0, 0.5])


def test_eval_domain_errors():
    with pytest.raises(DomainError, match="log"):
        eval_expr(parse("log(t1)"), params=[-1.0])
    with pytest.raises(DomainError, match="division"):
        eval_expr(parse("1/t1"), params=[0.0])
    with pytest.raises(DomainError, match="negative base"):
        eval_expr(parse("t1^0.5"), params=[-2.0])
    with pytest.raises(DomainError, match="zero base"):
        eval_expr(parse("t1^(-1)"), params=[0.0])
    with pytest.raises(DomainError, match="non-finite"):
        eval_expr(parse("exp(t1)"), params=[1e9])


def test_eval_reports_missing_bindings():
    with pytest.raises(DomainError, match="x1"):
        eval_on_grid(parse("x1"), None, [])
    with pytest.raises(DomainError, match="t2"):
        eval_expr(parse("t2"), params=[1.0])


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def d_value(text, j, params, coords=()):
    return eval_expr(differentiate(parse(text), j), coords=coords, params=params)


def test_differentiate_zero_when_param_absent():
    assert differentiate(parse("abs(x1) * sign(x1)"), 1) == Num(0.0)
    assert differentiate(parse("t2^2"), 1) == Num(0.0)


def test_differentiate_polynomial():
    assert d_value("t1*(1-t1)", 1, [0.3]) == pytest.approx(1.0 - 0.6)
    assert d_value("t1^3", 1, [2.0]) == pytest.approx(12.0)
    assert d_value("t1^0", 1, [2.0]) == 0.0


def test_differentiate_negative_literal_exponent_reparses():
    d = differentiate(parse("t1^(-1)"), 1)
    # printed literals stay nonnegative, so the derivative re-parses
    assert parse(print_expr(d)) == d
    assert eval_expr(d, params=[2.0]) == pytest.approx(-0.25)


def test_differentiate_quotient_and_chain():
    assert d_value("1/(1+t1)", 1, [1.0]) == pytest.approx(-0.25)
    assert d_value("exp(2*t1)", 1, [0.5]) == pytest.approx(2.0 * math.exp(1.0))
    assert d_value("log(t1)", 1, [4.0]) == pytest.approx(0.25)
    assert d_value("sin(t1)*cos(t1)", 1, [0.7]) == pytest.approx(math.cos(1.4))


def test_differentiate_general_power_via_exp_log():
    # t1^t1 at 2: 4*(log 2 + 1)
    assert d_value("t1^t1", 1, [2.0]) == pytest.approx(4.0 * (math.log(2.0) + 1.0))


def test_differentiate_if_branchwise():
    d = differentiate(parse("if(t1 > 0, t1^2, -t1)"), 1)
    assert isinstance(d, If)
    assert d.cond == Cmp(">", Var("t", 1), Num(0.0))
    assert eval_expr(d, params=[3.0]) == pytest.approx(6.0)
    assert eval_expr(d, params=[-2.0]) == pytest.approx(-1.0)


def test_differentiate_unsupported_paths():
    with pytest.raises(UnsupportedError):
        differentiate(parse("abs(t1)"), 1)
    with pytest.raises(UnsupportedError):
        differentiate(parse("min(t1, 0)"), 1)
    with pytest.raises(UnsupportedError):
        differentiate(parse("t1 > 0"), 1)
    # the same calls off the t1 path are fine
    assert differentiate(parse("abs(x1) + t1"), 1) == Num(1.0)


def test_references_param():
    e = parse("if(t2 > 0, x1, t1)")
    assert references_param(e, 1)
    assert references_param(e, 2)
    assert not references_param(e, 3)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def test_print_expr_forms():
    assert print_expr(parse("t1*(1-t1)")) == "(t1 * (1.0 - t1))"
    assert print_expr(parse("-x1")) == "(-x1)"
    assert print_expr(parse("if(x1 < 0, 1, 2)")) == "if((x1 < 0.0), 1.0, 2.0)"
    assert print_expr(parse("min(x1, t1)")) == "min(x1, t1)"


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=300, deadline=None)
def test_print_parse_roundtrip(seed):
    rng = np.random.default_rng(seed)
    e = random_tree(rng)
    assert parse(print_expr(e)) == e


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=150, deadline=None)
def test_symbolic_derivative_matches_finite_difference(seed):
    rng = np.random.default_rng(seed)
    text = smooth_expr_text(rng)
    e = parse(text)
    params = rng.uniform(-0.8, 0.8, size=2)
    coords = rng.uniform(-0.8, 0.8, size=(4, 1))
    h = 1e-6
    for j in (1, 2):
        d = differentiate(e, j)
        sym = eval_on_grid(d, coords, params)
        up = params.copy()
        up[j - 1] += h
        dn = params.copy()
        dn[j - 1] -= h
        fd = (eval_on_grid(e, coords, up) - eval_on_grid(e, coords, dn)) / (2 * h)
        np.testing.assert_allclose(sym, fd, rtol=1e-5, atol=1e-6)
