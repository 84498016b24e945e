"""A small expression language for densities and their parameter derivatives.

Grammar (lowest to highest precedence)::

    expression  := additive (('<' | '<=' | '>' | '>=' | '==') additive)?
    additive    := multiplicative (('+' | '-') multiplicative)*
    multiplicative := unary (('*' | '/') unary)*
    unary       := '-' unary | power
    power       := primary ('^' unary)?          (right associative)
    primary     := NUMBER | variable | call | '(' expression ')'
    variable    := 'x' digits | 't' digits       (1-based indices)
    call        := ('exp'|'log'|'sin'|'cos'|'abs'|'sign') '(' expression ')'
                 | ('min'|'max') '(' expression ',' expression ')'
                 | 'if' '(' expression ',' expression ',' expression ')'

``x``-variables are atom coordinates, ``t``-variables are model parameters.
Comparisons evaluate to 0.0/1.0 and are meant as ``if`` conditions; ``if``
treats any nonzero condition as true, so a ``>=`` comparison selects the
first branch on the boundary.

Evaluation is strict about domains: ``log`` of a nonpositive value, division
by zero, and ``0^negative`` raise :class:`~igk.errors.DomainError` rather
than producing NaN or infinity.

Expressions are evaluated through :func:`compile`, which hash-conses a tuple
of expressions into one :class:`Program`: equal subexpressions (under the
same ``if`` branch) become one op, so every distinct subexpression is
evaluated once per call, and those that do not mention ``x`` are computed
on one value and broadcast. A JSON model compiles its density and all its
partial derivatives once, at load, into one program whose roots are the
value and then the partials, so one run serves a whole jet. The output
(values, domain errors, and which error is raised first) is bit-identical
to evaluating each expression tree on its own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    ExprSyntaxError,
    UnknownIdentifierError,
    UnsupportedError,
)

__all__ = [
    "Num",
    "Var",
    "Neg",
    "Bin",
    "Cmp",
    "Call",
    "If",
    "parse",
    "Program",
    "compile",
    "eval_expr",
    "eval_on_grid",
    "differentiate",
    "print_expr",
    "references_param",
]


# ---------------------------------------------------------------------------
# syntax tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    kind: str  # 'x' or 't'
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Cmp:
    op: str  # < <= > >= ==
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


@dataclass(frozen=True)
class If:
    cond: object
    then: object
    other: object


_FUNCTIONS = {
    "exp": 1,
    "log": 1,
    "sin": 1,
    "cos": 1,
    "abs": 1,
    "sign": 1,
    "min": 2,
    "max": 2,
}


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|==|[-+*/^(),<>])"
    r")"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == m.start():
            # skip leading whitespace manually to report the true offset
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


class _Parser:
    def __init__(self, text, n_coords=None, n_params=None):
        self.text = text
        self.tokens = _tokenize(text)
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
            "expected {} but found {} at offset {}".format(
                " or ".join(expected), got, offset
            ),
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
        kind, value, offset = self.peek()
        if kind != "eof":
            self.fail(("end of input",))
        return e

    def expression(self):
        left = self.additive()
        kind, value, _ = self.peek()
        if kind == "op" and value in ("<", "<=", ">", ">=", "=="):
            self.advance()
            right = self.additive()
            left = Cmp(value, left, right)
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
            raise UnknownIdentifierError(
                "variable indices are 1-based, got {!r}".format(name)
            )
        limit = self.n_coords if kind == "x" else self.n_params
        if limit is not None and idx > limit:
            raise UnknownIdentifierError(
                "{!r} is out of range: only {} {}-variable(s) declared".format(
                    name, limit, kind
                )
            )
        return Var(kind, idx)


def parse(text, n_coords=None, n_params=None):
    """Parse expression text into a syntax tree.

    ``n_coords``/``n_params`` optionally bound the allowed variable indices
    (``x1..xm`` and ``t1..td``); out-of-range indices raise
    :class:`UnknownIdentifierError`.
    """
    return _Parser(text, n_coords, n_params).parse()


# ---------------------------------------------------------------------------
# evaluation: expressions compiled into one program
# ---------------------------------------------------------------------------
#
# A program is a list of ops over numbered slots. Slots 0, 1 and 2 hold the
# coordinates, the parameters and the (k, n) output; each literal has a slot
# filled at compile time. An op reads slots, fills one, and has a guard: the
# slot of the ``if`` branch mask it runs under, or None outside any branch.
# An op whose mask is empty does not run, just as an untaken branch is not
# evaluated. Values are arrays of length n, or of length 1 where the
# subexpression does not mention x (they broadcast). A value is exact at
# every atom its mask selects; atoms outside the mask are never read.

_COORDS, _PARAMS, _OUT = 0, 1, 2


def _hit(cond, mask, n):
    """Does a domain check fail at an atom the mask selects?"""
    if mask is None:
        return bool(n and cond.any())
    return bool((cond & mask).any())


def _full(v, n):
    # np.power takes a fast path for a length-1 or stride-0 exponent whose
    # last bits differ from elementwise pow, so it always gets n values
    return v if v.shape[0] == n else np.full(n, v[0])


def _coord(mask, n, e, coords):
    if coords is None:
        raise DomainError("expression references x{} but the sample space has no "
                          "coordinates".format(e.index))
    if e.index > coords.shape[1]:
        raise DomainError("expression references x{} but coordinates have dimension {}".format(
            e.index, coords.shape[1]))
    return np.ascontiguousarray(coords[:, e.index - 1])


def _param(mask, n, e, params):
    if e.index > params.shape[0]:
        raise DomainError("expression references t{} but only {} parameter(s) were "
                          "supplied".format(e.index, params.shape[0]))
    return params[e.index - 1:e.index]


def _div(mask, n, e, a, b, out=None):
    if _hit(b == 0, mask, n):
        raise DomainError("division by zero in {}".format(print_expr(e)))
    return np.divide(a, b, out=out)


def _pow(mask, n, e, a, b, out=None):
    # the base is only compared where some exponent could fail
    frac = b != np.floor(b)
    if frac.any() and _hit((a < 0) & frac, mask, n):
        raise DomainError("negative base with non-integer exponent in {}".format(print_expr(e)))
    negative = b < 0
    if negative.any() and _hit((a == 0) & negative, mask, n):
        raise DomainError("zero base with negative exponent in {}".format(print_expr(e)))
    return np.power(_full(a, n), _full(b, n), out=out)


def _log(mask, n, e, a, out=None):
    if _hit(a <= 0, mask, n):
        raise DomainError("log of nonpositive value in {}".format(print_expr(e)))
    return np.log(a, out=out)


def _branch(take, mask, n):
    """The atoms a branch runs on, or None if there are none."""
    m = take if mask is None else mask & take
    return m if n and m.any() else None


def _taken(mask, n, e, cond):
    return _branch(cond != 0, mask, n)


def _untaken(mask, n, e, cond):
    return _branch(cond == 0, mask, n)


def _if(mask, n, e, then, other, m_then, m_other):
    if m_then is None:
        return np.zeros(n) if m_other is None else other
    return then if m_other is None else np.where(m_then, then, other)


def _ufunc(f):
    return lambda mask, n, e, *args, out=None: f(*args, out=out)


def _compare(f):
    return lambda mask, n, e, a, b: f(a, b).astype(float)


def _store(k):
    def store(mask, n, e, out, v):
        out[k] = v
        if not np.all(np.isfinite(out[k])):
            raise DomainError("expression evaluated to a non-finite value in {}".format(
                print_expr(e)))
        return out

    return store


_NEG = _ufunc(np.negative)
_ARITH = {
    "+": _ufunc(np.add),
    "-": _ufunc(np.subtract),
    "*": _ufunc(np.multiply),
    "/": _div,
    "^": _pow,
}
# a ^ 1.0 is a bit for bit, so it is a's own slot, and a ^ 2.0 the correctly
# rounded a * a; the domain checks of either can never fail, so neither runs pow
_SQUARE = lambda mask, n, e, a, out=None: np.multiply(a, a, out=out)
_COMPARE = {
    "<": _compare(np.less),
    "<=": _compare(np.less_equal),
    ">": _compare(np.greater),
    ">=": _compare(np.greater_equal),
    "==": _compare(np.equal),
}
_CALLS = {
    "exp": _ufunc(np.exp),
    "log": _log,
    "sin": _ufunc(np.sin),
    "cos": _ufunc(np.cos),
    "abs": _ufunc(np.abs),
    "sign": _ufunc(np.sign),
    "min": _ufunc(np.minimum),
    "max": _ufunc(np.maximum),
}
_IN_PLACE = {_NEG, _SQUARE, *_ARITH.values(), *_CALLS.values()}


def _sink(slots, args, n, out, take, row):
    """Where an op writes its value (None: a new array): its root's row of ``out``, else
    an input dying at the op that is n values in data of its own. Values are float64,
    and one that owns its data was made by an op: it is writable and no input's view."""
    if row is not None and any(a.shape == (n,) for a in args):
        return out[row]
    for v in map(slots.__getitem__, take):
        if v.base is None and v.shape == (n,):
            return v
    return None


class Program:
    """Expressions compiled into one straight-line program (see :func:`compile`).

    ``roots`` are the compiled expressions; :func:`eval_on_grid` runs the
    program and returns one row per root. A run holds its (k, n) output and one atom-sized
    array per value alive across an op: an op writes over an input that dies there (not a
    literal, a length-1 value or an ``if``'s), and a root no later op reads into its row.
    """

    def __init__(self, roots, ops, init):
        self.roots = roots
        self._init = init
        last = {}
        for i, (_, _, ins, guard, _) in enumerate(ops):
            for s in ins + (guard,):
                last[s] = i
        free = [[] for _ in ops]
        for s, i in last.items():
            if s is not None and s > _OUT and init[s] is None:
                free[i].append(s)
        stores = [(i, ins[1]) for i, (_, dst, ins, _, _) in enumerate(ops) if dst == _OUT]
        rows = {s: k for k, (i, s) in enumerate(stores) if last[s] == i}
        shared = {s for fn, dst, ins, _, _ in ops if fn is _if for s in (dst,) + ins}
        self._ops = []
        for (fn, dst, ins, guard, e), f in zip(ops, free):
            # each intermediate is released after the op that reads it last
            take = tuple(s for s in f if s in ins and s not in shared)
            sink = (take, rows.get(dst)) if fn in _IN_PLACE else None
            self._ops.append((fn, dst, ins, guard, e, tuple(f), sink))

    def _run(self, coords, params, n):
        slots = list(self._init)
        slots[_COORDS] = coords
        slots[_PARAMS] = params
        slots[_OUT] = out = np.empty((len(self.roots), n))
        for fn, dst, ins, guard, e, free, sink in self._ops:
            mask = None if guard is None else slots[guard]
            if guard is None or mask is not None:
                args = [slots[i] for i in ins]
                if sink is None:
                    slots[dst] = fn(mask, n, e, *args)
                else:
                    slots[dst] = fn(mask, n, e, *args, out=_sink(slots, args, n, out, *sink))
            for i in free:
                slots[i] = None
        return out


class _Compiler:
    def __init__(self):
        self.init = [None, None, None]  # slot contents before a run
        self.ops = []
        self.slots = {}  # (op function, tag, input slots, guard) -> slot
        self.memo = {}  # (id(expr), guard) -> slot

    def new_slot(self, value=None):
        self.init.append(value)
        return len(self.init) - 1

    def op(self, fn, ins, guard, e, tag=None):
        key = (fn, tag, ins, guard)
        if key not in self.slots:
            self.slots[key] = self.new_slot()
            self.ops.append((fn, self.slots[key], ins, guard, e))
        return self.slots[key]

    def node(self, e, guard):
        memo = (id(e), guard)
        if memo not in self.memo:
            self.memo[memo] = self._node(e, guard)
        return self.memo[memo]

    def _node(self, e, guard):
        if isinstance(e, Num):
            key = (Num, repr(e.value))  # repr tells -0.0 from 0.0
            if key not in self.slots:
                self.slots[key] = self.new_slot(np.full(1, e.value))
            return self.slots[key]
        if isinstance(e, Var):
            if e.kind == "t":
                return self.op(_param, (_PARAMS,), guard, e, e.index)
            return self.op(_coord, (_COORDS,), guard, e, e.index)
        if isinstance(e, Neg):
            return self.op(_NEG, (self.node(e.arg, guard),), guard, e)
        if isinstance(e, Bin) and e.op in _ARITH:
            left = self.node(e.left, guard)
            if e.op == "^" and isinstance(e.right, Num) and e.right.value in (1.0, 2.0):
                return left if e.right.value == 1.0 else self.op(_SQUARE, (left,), guard, e)
            ins = (left, self.node(e.right, guard))
            return self.op(_ARITH[e.op], ins, guard, e)
        if isinstance(e, Cmp) and e.op in _COMPARE:
            ins = (self.node(e.left, guard), self.node(e.right, guard))
            return self.op(_COMPARE[e.op], ins, guard, e)
        if isinstance(e, Call) and e.name in _CALLS:
            ins = tuple(self.node(a, guard) for a in e.args)
            return self.op(_CALLS[e.name], ins, guard, e)
        if isinstance(e, If):
            cond = self.node(e.cond, guard)
            m_then = self.op(_taken, (cond,), guard, e)
            m_other = self.op(_untaken, (cond,), guard, e)
            ins = (
                self.node(e.then, m_then),
                self.node(e.other, m_other),
                m_then,
                m_other,
            )
            return self.op(_if, ins, guard, e)
        raise TypeError("not an expression node: {!r}".format(e))


def compile(exprs):
    """Compile a sequence of expressions into one :class:`Program`.

    The expressions are hash-consed into one DAG: equal subexpressions
    under the same ``if`` branch become one op, so each is evaluated once
    per run. Ops run in the deduplicated post-order of the roots, taken in
    order, and root k is stored and checked for non-finite values after
    the ops of roots 1..k. Values, domain errors and the order in which
    they are raised are exactly those of evaluating each expression on its
    own.
    """
    c = _Compiler()
    exprs = tuple(exprs)
    for k, e in enumerate(exprs):
        c.ops.append((_store(k), _OUT, (_OUT, c.node(e, None)), None, e))
    return Program(exprs, c.ops, c.init)


def eval_on_grid(e, coords, params):
    """Evaluate an expression, or every root of a program, at every atom
    of a coordinate grid.

    Parameters
    ----------
    e : Expr or Program
    coords : ndarray of shape (n, m) or None
        Atom coordinates (None if the expression uses no x-variables).
    params : array-like of shape (d,)
        Parameter values bound to ``t1..td``.

    Returns
    -------
    ndarray of shape (n,) for an expression, (k, n) for a program of k roots
    """
    program = e if isinstance(e, Program) else compile((e,))
    params = np.atleast_1d(np.asarray(params, dtype=float))
    if coords is not None:
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        n = coords.shape[0]
    else:
        n = 1
    with np.errstate(all="ignore"):
        out = program._run(coords, params, n)
    return out if program is e else out[0]


def eval_expr(e, coords=(), params=()):
    """Evaluate an expression at a single point; returns a float."""
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    c = coords[None, :] if coords.size else None
    return float(eval_on_grid(e, c, params)[0])


# ---------------------------------------------------------------------------
# symbolic differentiation
# ---------------------------------------------------------------------------

def references_param(e, j):
    """Does the expression mention the parameter variable ``t_j``?"""
    if isinstance(e, Var):
        return e.kind == "t" and e.index == j
    if isinstance(e, Num):
        return False
    if isinstance(e, Neg):
        return references_param(e.arg, j)
    if isinstance(e, (Bin, Cmp)):
        return references_param(e.left, j) or references_param(e.right, j)
    if isinstance(e, Call):
        return any(references_param(a, j) for a in e.args)
    if isinstance(e, If):
        return any(references_param(x, j) for x in (e.cond, e.then, e.other))
    raise TypeError("not an expression node: {!r}".format(e))


_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is_zero(e):
    return isinstance(e, Num) and e.value == 0.0


def _is_one(e):
    return isinstance(e, Num) and e.value == 1.0


def _num(v):
    # keep literals nonnegative so printed trees re-parse structurally
    return Neg(Num(-v)) if v < 0 else Num(float(v))


def _add(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return Bin("+", a, b)


def _sub(a, b):
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Neg(b)
    return Bin("-", a, b)


def _mul(a, b):
    if _is_zero(a) or _is_zero(b):
        return _ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return Bin("*", a, b)


def _quot(a, b):
    if _is_zero(a):
        return _ZERO
    if _is_one(b):
        return a
    return Bin("/", a, b)


def differentiate(e, j):
    """Exact partial derivative of ``e`` with respect to ``t_j``.

    Only smooth operators are differentiated. Subtrees that do not mention
    ``t_j`` contribute a zero derivative regardless of their contents, so
    ``abs``/``sign``/``min``/``max`` over pure coordinate expressions are
    fine. On a path that does mention ``t_j`` those four raise
    :class:`UnsupportedError` (callers then fall back to finite
    differences). ``if`` differentiates branchwise with the condition kept
    verbatim; at a condition boundary the value follows whichever branch the
    condition selects there. A power with a non-literal exponent is handled
    through the identity ``a^b = exp(b*log(a))``.
    """
    if not references_param(e, j):
        return _ZERO
    if isinstance(e, Var):
        return _ONE  # must be t_j, by the reference check
    if isinstance(e, Neg):
        return Neg(differentiate(e.arg, j))
    if isinstance(e, Bin):
        if e.op == "+":
            return _add(differentiate(e.left, j), differentiate(e.right, j))
        if e.op == "-":
            return _sub(differentiate(e.left, j), differentiate(e.right, j))
        if e.op == "*":
            return _add(
                _mul(differentiate(e.left, j), e.right),
                _mul(e.left, differentiate(e.right, j)),
            )
        if e.op == "/":
            num = _sub(
                _mul(differentiate(e.left, j), e.right),
                _mul(e.left, differentiate(e.right, j)),
            )
            return _quot(num, _mul(e.right, e.right))
        if e.op == "^":
            if isinstance(e.right, Num):
                c = e.right.value
                if c == 0.0:
                    return _ZERO
                da = differentiate(e.left, j)
                power = Bin("^", e.left, _num(c - 1.0))
                return _mul(_mul(_num(c), power), da)
            # general exponent: a^b = exp(b*log(a))
            rewritten = Call("exp", (_mul(e.right, Call("log", (e.left,))),))
            return differentiate(rewritten, j)
        raise AssertionError("unreachable operator " + e.op)
    if isinstance(e, Cmp):
        raise UnsupportedError(
            "comparison {} depends on t{} and is not differentiable".format(
                print_expr(e), j
            )
        )
    if isinstance(e, Call):
        if e.name in ("abs", "sign", "min", "max"):
            raise UnsupportedError(
                "non-smooth call {} on a path that depends on t{}".format(
                    print_expr(e), j
                )
            )
        arg = e.args[0]
        da = differentiate(arg, j)
        if e.name == "exp":
            return _mul(e, da)
        if e.name == "log":
            return _quot(da, arg)
        if e.name == "sin":
            return _mul(Call("cos", (arg,)), da)
        if e.name == "cos":
            return _mul(Neg(Call("sin", (arg,))), da)
        raise AssertionError("unreachable function " + e.name)
    if isinstance(e, If):
        return If(e.cond, differentiate(e.then, j), differentiate(e.other, j))
    raise TypeError("not an expression node: {!r}".format(e))


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

def print_expr(e):
    """Normalized, fully parenthesized text form; re-parses to an equal tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return "{}{}".format(e.kind, e.index)
    if isinstance(e, Neg):
        return "(-{})".format(print_expr(e.arg))
    if isinstance(e, (Bin, Cmp)):
        return "({} {} {})".format(print_expr(e.left), e.op, print_expr(e.right))
    if isinstance(e, Call):
        return "{}({})".format(e.name, ", ".join(print_expr(a) for a in e.args))
    if isinstance(e, If):
        return "if({}, {}, {})".format(
            print_expr(e.cond), print_expr(e.then), print_expr(e.other)
        )
    raise TypeError("not an expression node: {!r}".format(e))
