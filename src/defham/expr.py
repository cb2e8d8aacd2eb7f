"""Scalar expression trees: parsing, exact differentiation, evaluation.

Expressions live in the variables x1..xn, y1..yn and are built from exact
rational constants, +, -, *, /, integer powers and the functions sin, cos,
exp.  Trees are immutable; constant folding and the 0/1 identities are the
only simplifications applied.
"""

from __future__ import annotations

import functools
import math
import re
import weakref
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Node",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Neg",
    "Call",
    "ExprError",
    "ParseError",
    "EvalError",
    "parse",
    "differentiate",
    "evaluate",
    "to_text",
    "const",
    "var",
    "add",
    "sub",
    "mul",
    "div",
    "powi",
    "neg",
    "call",
    "used_variables",
    "compile_scalar",
    "compile_vector",
    "compile_scaled",
    "coordinate_names",
    "define",
    "hessian_index",
    "matrix_source",
    "JetEvaluator",
]

FUNCTIONS = ("sin", "cos", "exp")


class ExprError(ValueError):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(ExprError):
    pass


# ---------------------------------------------------------------------------
# AST nodes.  Every node records the declared dimension n so that derived
# expressions (derivatives, assembled Hamiltonians) keep their variable range.


def define(source: str, name: str, module: str, **env) -> Callable:
    """The function ``name`` that the generated ``source`` defines, run with
    ``__name__ = module`` (its ``__module__``) and sin, cos, exp, inf and
    ``env`` in scope.  It is popped from the namespace it was run in, so no
    reference cycle keeps it, or what it reaches, alive."""
    namespace = {"__name__": module, "sin": math.sin, "cos": math.cos, "exp": math.exp,
                 "inf": math.inf, **env}
    exec(source, namespace)
    return namespace.pop(name)


def _node(cls):
    """A frozen dataclass whose hash, the one the dataclass computes from
    its fields, is computed once: a node never changes, and a tree is
    otherwise rehashed whole at every lookup of it.  Its ``__init__``,
    generated here and not by the dataclass, calls one global
    ``object.__setattr__`` per field."""
    cls = dataclass(frozen=True, init=False)(cls)
    field_hash = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    names = [f.name for f in fields(cls)]
    sets = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
    cls.__init__ = define(f"def __init__(self, {', '.join(names)}):{sets}\n", "__init__",
                          __name__, _set=object.__setattr__)
    return cls


@dataclass(frozen=True)
class Node:
    n: int
    _hash = None  # not a field: the cached hash of a subclass node

    def __getstate__(self):
        # the hash of a str differs between processes; recompute it after a copy
        return {k: v for k, v in vars(self).items() if k != "_hash"}


@_node
class Const(Node):
    value: Fraction


@_node
class Var(Node):
    kind: str  # 'x' or 'y'
    index: int  # 1-based


@_node
class Add(Node):
    a: Node
    b: Node


@_node
class Sub(Node):
    a: Node
    b: Node


@_node
class Mul(Node):
    a: Node
    b: Node


@_node
class Div(Node):
    a: Node
    b: Node


@_node
class Pow(Node):
    base: Node
    exponent: int


@_node
class Neg(Node):
    a: Node


@_node
class Call(Node):
    func: str
    arg: Node


# ---------------------------------------------------------------------------
# Smart constructors: constant folding plus 0/1 identities, nothing more.
# The identities are tested before two constants are folded: they give the
# same tree without any Fraction arithmetic, and read a constant's reduced
# numerator and denominator (0: numerator 0; 1: the two equal), not its ==.

_ZERO, _ONE = Fraction(0), Fraction(1)


def const(value, n: int) -> Const:
    return Const(n, Fraction(value))


def var(kind: str, index: int, n: int) -> Var:
    if kind not in ("x", "y"):
        raise ExprError(f"unknown variable kind {kind!r}")
    if not 1 <= index <= n:
        raise ExprError(f"variable index {kind}{index} out of range for n={n}")
    return Var(n, kind, index)


@functools.lru_cache(maxsize=None)
def _units(n: int) -> tuple[Const, Const]:
    """The constants 0 and 1 of dimension n, shared by every derivative."""
    return Const(n, _ZERO), Const(n, _ONE)


def _join_n(a: Node, b: Node) -> int:
    if a.n != b.n:
        raise ExprError(f"dimension mismatch: {a.n} vs {b.n}")
    return a.n


def add(a: Node, b: Node) -> Node:
    n = a.n if a.n == b.n else _join_n(a, b)
    if type(a) is Const and not a.value._numerator:
        return b
    if type(b) is Const:
        if not b.value._numerator:
            return a
        if type(a) is Const:
            return Const(n, a.value + b.value)
    return Add(n, a, b)


def sub(a: Node, b: Node) -> Node:
    n = a.n if a.n == b.n else _join_n(a, b)
    if type(b) is Const and not b.value._numerator:
        return a
    if type(a) is Const:
        if not a.value._numerator:
            return neg(b)
        if type(b) is Const:
            return Const(n, a.value - b.value)
    return Sub(n, a, b)


def mul(a: Node, b: Node) -> Node:
    n = a.n if a.n == b.n else _join_n(a, b)
    if type(a) is Const:
        v = a.value
        if not v._numerator:
            return a
        if v._numerator == v._denominator:
            return b
    if type(b) is Const:
        v = b.value
        if not v._numerator:
            return b
        if v._numerator == v._denominator:
            return a
        if type(a) is Const:
            return Const(n, a.value * v)
    return Mul(n, a, b)


def div(a: Node, b: Node) -> Node:
    n = a.n if a.n == b.n else _join_n(a, b)
    if type(b) is Const:
        v = b.value
        if not v._numerator:
            raise ExprError("division by constant zero")
        if type(a) is Const:
            return Const(n, a.value / v)
        if v._numerator == v._denominator:
            return a
    if type(a) is Const and not a.value._numerator:
        return a
    return Div(n, a, b)


def powi(base: Node, exponent: int) -> Node:
    if exponent == 0:
        return Const(base.n, _ONE)
    if exponent == 1:
        return base
    if type(base) is Const:
        if not base.value._numerator and exponent < 0:
            raise ExprError("constant zero raised to a negative power")
        return Const(base.n, base.value ** exponent)
    return Pow(base.n, base, exponent)


def neg(a: Node) -> Node:
    t = type(a)
    if t is Const:
        return Const(a.n, -a.value)
    if t is Neg:
        return a.a
    return Neg(a.n, a)


def call(func: str, arg: Node) -> Node:
    if func not in FUNCTIONS:
        raise ExprError(f"unknown function {func!r}")
    return Call(arg.n, func, arg)


# ---------------------------------------------------------------------------
# Parsing.  Grammar (left-associative, ^ binds tightest, then unary -):
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := atom ['^' integer] | '-' factor
#   atom   := number | ident | func '(' expr ')' | '(' expr ')'

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z]+\d*)|(?P<op>[-+*/^()]))"
)


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = pos + len(text[pos:]) - len(text[pos:].lstrip())
                raise ParseError(f"unexpected character {text[stripped]!r}", stripped)
            if m.lastgroup == "num":
                self.tokens.append(("num", m.group("num"), m.start("num")))
            elif m.lastgroup == "name":
                self.tokens.append(("name", m.group("name"), m.start("name")))
            else:
                self.tokens.append(("op", m.group("op"), m.start("op")))
            pos = m.end()
        self.tokens.append(("end", "", len(text)))
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok


_VAR_RE = re.compile(r"^([xy])(\d+)$")


class _Parser:
    def __init__(self, text: str, n: int):
        if n < 1:
            raise ExprError(f"dimension must be >= 1, got {n}")
        self.toks = _Tokenizer(text)
        self.n = n

    def parse(self) -> Node:
        e = self.expr()
        kind, value, offset = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", offset)
        return e

    def expr(self) -> Node:
        e = self.term()
        while True:
            kind, value, _ = self.toks.peek()
            if kind == "op" and value in "+-":
                self.toks.next()
                rhs = self.term()
                e = add(e, rhs) if value == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Node:
        e = self.factor()
        while True:
            kind, value, _ = self.toks.peek()
            if kind == "op" and value in "*/":
                self.toks.next()
                rhs = self.factor()
                e = mul(e, rhs) if value == "*" else div(e, rhs)
            else:
                return e

    def factor(self) -> Node:
        kind, value, _ = self.toks.peek()
        if kind == "op" and value == "-":
            self.toks.next()
            return neg(self.factor())
        e = self.atom()
        kind, value, _ = self.toks.peek()
        if kind == "op" and value == "^":
            self.toks.next()
            e = powi(e, self.integer())
        return e

    def integer(self) -> int:
        sign = 1
        kind, value, offset = self.toks.peek()
        if kind == "op" and value == "-":
            self.toks.next()
            sign = -1
            kind, value, offset = self.toks.peek()
        if kind != "num" or "." in value:
            raise ParseError("expected integer exponent", offset)
        self.toks.next()
        return sign * int(value)

    def atom(self) -> Node:
        kind, value, offset = self.toks.next()
        if kind == "num":
            return const(Fraction(value), self.n)
        if kind == "name":
            m = _VAR_RE.match(value)
            if m:
                index = int(m.group(2))
                if not 1 <= index <= self.n:
                    raise ParseError(
                        f"variable index {value} out of range for n={self.n}", offset
                    )
                return var(m.group(1), index, self.n)
            if value in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return call(value, arg)
            raise ParseError(f"unknown identifier {value!r}", offset)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(f"expected a value, got {value!r}" if value else "unexpected end of input", offset)

    def expect(self, op: str) -> None:
        kind, value, offset = self.toks.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)


def parse(text: str, n: int) -> Node:
    """Parse ``text`` into an expression tree over x1..xn, y1..yn."""
    try:
        return _Parser(text, n).parse()
    except RecursionError:  # the parser recurses once per nested bracket
        raise ExprError("expression nested too deeply") from None


# ---------------------------------------------------------------------------
# Printing, chosen so that parse(to_text(e), e.n) reproduces e exactly; the
# same print is the Python source of the compiled functions.

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5
_PREC = {Add: _PREC_ADD, Sub: _PREC_ADD, Mul: _PREC_MUL, Div: _PREC_MUL, Neg: _PREC_NEG,
         Pow: _PREC_POW, Var: _PREC_ATOM, Call: _PREC_ATOM}


def _prec(e: Node) -> int:
    if type(e) is Const:
        # "1/2" and "-1/2" re-parse through the / production, "-2" through
        # unary minus; parenthesize them accordingly
        v = e.value
        if v._denominator != 1:
            return _PREC_MUL
        return _PREC_NEG if v._numerator < 0 else _PREC_ATOM
    return _PREC[type(e)]


def _wrap(e: Node, minimum: int, names: Optional[Sequence[str]]) -> str:
    s = to_text(e, names)
    return f"({s})" if _prec(e) < minimum else s


def to_text(e: Node, names: Optional[Sequence[str]] = None) -> str:
    """The text of ``e``; given ``names``, the Python source of its value,
    which differs in writing the coordinate of index i (x1..xn, then
    y1..yn, from 0) as ``names[i]``, ``^`` as ``**`` (Python's ``**`` and
    unary ``-`` bind as ``^`` and ``-`` do here) and a constant c as the
    float literal ``repr(float(c))`` where float(c) is finite.

    The literal is the double Python made of the exact text: the
    constructors fold every constant-constant node, so a printed constant
    meets a float operand, is the argument of sin, cos or exp, or is a
    whole entry, and Python converts an int operand and divides two ints
    with correct rounding.  The generated code then does float arithmetic
    only.  A constant with no finite float keeps its exact text, and Python
    raises OverflowError where it converts that to a float."""
    t = type(e)  # kinds by their count in derivatives
    if t is Mul:
        return f"{_wrap(e.a, _PREC_MUL, names)}*{_wrap(e.b, _PREC_MUL + 1, names)}"
    if t is Var:
        if names is not None:
            return names[(0 if e.kind == "x" else e.n) + e.index - 1]
        return f"{e.kind}{e.index}"
    if t is Const:
        v = e.value
        if names is not None:
            try:
                return repr(v._numerator / v._denominator)  # float(v), correctly rounded
            except OverflowError:  # no finite float
                pass
        return str(v._numerator) if v._denominator == 1 else f"{v._numerator}/{v._denominator}"
    if t is Add:
        return f"{_wrap(e.a, _PREC_ADD, names)} + {_wrap(e.b, _PREC_ADD + 1, names)}"
    if t is Sub:
        return f"{_wrap(e.a, _PREC_ADD, names)} - {_wrap(e.b, _PREC_ADD + 1, names)}"
    if t is Neg:
        return f"-{_wrap(e.a, _PREC_NEG, names)}"
    if t is Pow:
        return f"{_wrap(e.base, _PREC_ATOM, names)}{'^' if names is None else '**'}{e.exponent}"
    if t is Div:
        return f"{_wrap(e.a, _PREC_MUL, names)}/{_wrap(e.b, _PREC_MUL + 1, names)}"
    if t is Call:
        return f"{e.func}({to_text(e.arg, names)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Differentiation (exact, symbolic).


def differentiate(e: Node, v) -> Node:
    """Exact partial derivative of ``e`` with respect to variable ``v``.

    ``v`` is a ``Var`` or a ``(kind, index)`` pair such as ``("y", 1)``.
    Each distinct node of ``e`` is differentiated once, so a subtree shared
    by several parents has one shared derivative.  The derivative's leaves
    0 and 1 are one shared node each per dimension; every other node is
    built afresh, and nothing else is kept between calls.
    """
    kind, index = (v.kind, v.index) if isinstance(v, Var) else v
    index = int(index)
    if kind not in ("x", "y") or not 1 <= index <= e.n:
        raise ExprError(f"variable {kind}{index} not declared for n={e.n}")
    zero, one = _units(e.n)
    return _diff(e, kind, index, {}, zero, one)


def _diff(e: Node, kind: str, index: int, memo: dict, zero: Const, one: Const) -> Node:
    # memo: id(node) -> derivative, for the inner nodes of the expression
    # being differentiated; they stay alive for the call, so no id is reused
    t = type(e)  # leaves first, without the memo; then kinds by their count in brackets
    if t is Var:
        return one if e.index == index and e.kind == kind else zero
    if t is Const:
        return zero
    out = memo.get(id(e))
    if out is not None:
        return out
    if t is Mul:
        # da*b + a*db, less a term that the constructors would fold to 0
        a, b = e.a, e.b
        da, db = _diff(a, kind, index, memo, zero, one), _diff(b, kind, index, memo, zero, one)
        out = (mul(da, b) if db is zero else mul(a, db) if da is zero
               else add(mul(da, b), mul(a, db)))
    elif t is Add:
        out = add(_diff(e.a, kind, index, memo, zero, one),
                  _diff(e.b, kind, index, memo, zero, one))
    elif t is Sub:
        out = sub(_diff(e.a, kind, index, memo, zero, one),
                  _diff(e.b, kind, index, memo, zero, one))
    elif t is Neg:
        out = neg(_diff(e.a, kind, index, memo, zero, one))
    elif t is Pow:
        dbase = _diff(e.base, kind, index, memo, zero, one)
        out = mul(mul(const(e.exponent, e.n), powi(e.base, e.exponent - 1)), dbase)
    elif t is Div:
        a, b = e.a, e.b
        da, db = _diff(a, kind, index, memo, zero, one), _diff(b, kind, index, memo, zero, one)
        out = div(sub(mul(da, b), mul(a, db)), powi(b, 2))
    elif t is Call:
        darg = _diff(e.arg, kind, index, memo, zero, one)
        if e.func == "sin":
            outer: Node = call("cos", e.arg)
        elif e.func == "cos":
            outer = neg(call("sin", e.arg))
        else:  # exp
            outer = call("exp", e.arg)
        out = mul(outer, darg)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = out
    return out


def used_variables(e: Node) -> set[tuple[str, int]]:
    out: set[tuple[str, int]] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if type(node) is Var:
            out.add((node.kind, node.index))
        else:
            stack.extend(v for v in vars(node).values() if isinstance(v, Node))
    return out


# ---------------------------------------------------------------------------
# Evaluation.


def evaluate(e: Node, point) -> float:
    """Evaluate ``e`` at a phase point; raises EvalError on division by zero.

    ``point`` is a PhasePoint-like object (with .x and .y) or a flat
    sequence of length 2n ordered (x1..xn, y1..yn).  Each distinct node is
    evaluated once, so a subtree shared by several parents costs one
    evaluation.
    """
    if hasattr(point, "x") and hasattr(point, "y"):
        z = list(point.x) + list(point.y)
    else:
        z = list(point)
    if len(z) != 2 * e.n:
        raise ExprError(f"point of length {len(z)} does not match dimension n={e.n}")
    return _eval(e, z, {})


def _eval(e: Node, z: Sequence[float], memo: dict) -> float:
    # memo: id(node) -> value, as in _diff; operands are evaluated left to
    # right, as the compiled source evaluates them
    t = type(e)  # as in _diff
    if t is Const:
        v = e.value
        return v._numerator / v._denominator  # float(v), correctly rounded
    if t is Var:
        return float(z[(0 if e.kind == "x" else e.n) + e.index - 1])
    out = memo.get(id(e))
    if out is not None:
        return out
    if t is Mul:
        out = _eval(e.a, z, memo) * _eval(e.b, z, memo)
    elif t is Add:
        out = _eval(e.a, z, memo) + _eval(e.b, z, memo)
    elif t is Sub:
        out = _eval(e.a, z, memo) - _eval(e.b, z, memo)
    elif t is Neg:
        out = -_eval(e.a, z, memo)
    elif t is Pow:
        base = _eval(e.base, z, memo)
        if base == 0.0 and e.exponent < 0:
            raise EvalError(f"zero raised to negative power in '{to_text(e)}'")
        out = base ** e.exponent
    elif t is Div:
        num = _eval(e.a, z, memo)
        denom = _eval(e.b, z, memo)
        if denom == 0.0:
            raise EvalError(f"division by zero in '{to_text(e)}'")
        out = num / denom
    elif t is Call:
        out = getattr(math, e.func)(_eval(e.arg, z, memo))
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = out
    return out


# ---------------------------------------------------------------------------
# Compilation to plain Python functions for tight numeric loops.


@functools.lru_cache(maxsize=None)
def coordinate_names(pattern: str, n: int) -> tuple[str, ...]:
    """``pattern`` formatted with 0 .. 2n-1: the names that to_text gives the
    coordinates of dimension n, e.g. ``z[0]`` .. in a function of z."""
    return tuple(pattern.format(i) for i in range(2 * n))


def compile_scalar(e: Node) -> Callable[[Sequence[float]], float]:
    """Compile an expression to a fast float-valued function of z[0:2n]."""
    source = to_text(e, coordinate_names("z[{}]", e.n))
    return define(f"def _f(z):\n    return {source}\n", "_f", __name__)


def compile_vector(exprs: Iterable[Node]) -> Callable[[Sequence[float]], tuple]:
    body = ", ".join(to_text(e, coordinate_names("z[{}]", e.n)) for e in exprs)
    return define(f"def _f(z):\n    return ({body},)\n", "_f", __name__)


def compile_scaled(
    jet: "JetEvaluator", pairs: Iterable[tuple[float, int]], module: str
) -> Callable[[Sequence[float]], list]:
    """Compile ``z -> [c * g[i] for c, i in pairs]``, g = jet.gradient(z),
    looked up at each call, so a wrapper patched on JetEvaluator sees every
    call.  Each entry rounds as ``c * (e)`` on the source of the i-th
    derivative e (``-1.0 * (0.0)`` is -0.0).  It carries ((c, e), ...) as
    its attribute ``terms``, for the loops that inline them.  ``module`` is
    its ``__module__``."""
    pairs = tuple(pairs)
    body = ", ".join(f"{c!r} * g[{i}]" for c, i in pairs)
    f = define(f"def _f(z):\n    g = jet.gradient(z)\n    return [{body}]\n", "_f", module,
               jet=jet)
    f.terms = tuple((c, jet.derivatives[i]) for c, i in pairs)
    return f


def _variable_list(n: int) -> list[tuple[str, int]]:
    return [("x", i) for i in range(1, n + 1)] + [("y", i) for i in range(1, n + 1)]


@functools.lru_cache(maxsize=None)
def hessian_index(m: int) -> tuple[tuple[int, ...], ...]:
    """The position of each entry (i, j) of a symmetric m x m matrix in its
    upper triangle read row by row: the order of a compiled Hessian tuple."""
    upper = {pair: k for k, pair in enumerate((i, j) for i in range(m) for j in range(i, m))}
    return tuple(tuple(upper[min(i, j), max(i, j)] for j in range(m)) for i in range(m))


def matrix_source(rows: Iterable[Iterable[str]]) -> str:
    """The source of the nested tuple of ``rows`` of entry sources, which
    np.array makes a C-ordered matrix."""
    return "(" + "".join(f"({', '.join(row)},), " for row in rows) + ")"


class _CompiledJet:
    """Compiled gradient of one expression; its value and Hessian are
    compiled on first use.  It must not refer to that expression: an entry
    of _COMPILED_JETS whose value refers to its key is never freed, so the
    value is compiled from the caller's equal expression."""

    def __init__(self, e: Node):
        self.variables = _variable_list(e.n)
        self.grads = [differentiate(e, v) for v in self.variables]
        self.value = None
        self.gradient = compile_vector(self.grads)

    @functools.cached_property
    def hessian(self) -> Callable[[Sequence[float]], tuple]:
        """z -> the tuple of second derivatives in hessian_index's order."""
        m = len(self.variables)
        return compile_vector(
            [differentiate(self.grads[i], self.variables[j]) for i in range(m) for j in range(i, m)]
        )

    @functools.cached_property
    def hessian_matrix(self) -> Callable[[Sequence[float]], np.ndarray]:
        """z -> the Hessian matrix: one np.array of the compiled tuple,
        mirrored by hessian_index; a constant entry with no finite float
        (printed exactly, an int) raises OverflowError, as float() does."""
        m = len(self.variables)
        names = [f"h{k}" for k in range(m * (m + 1) // 2)]
        rows = matrix_source([names[k] for k in row] for row in hessian_index(m))
        source = f"def _f(z):\n    {', '.join(names)}, = hessian(z)\n    return array({rows}, dtype=float)\n"
        return define(source, "_f", __name__, hessian=self.hessian, array=np.array)


# Frozen node -> its compiled jet.  Equal expressions share one entry, which
# goes when the node that created it is freed: nothing outlives the
# expressions in use.
_COMPILED_JETS: "weakref.WeakKeyDictionary[Node, _CompiledJet]" = weakref.WeakKeyDictionary()


class JetEvaluator:
    """Precompiled value/gradient/Hessian evaluation for one expression."""

    def __init__(self, e: Node):
        self.expression = e
        self.n = e.n
        compiled = _COMPILED_JETS.get(e)
        if compiled is None:
            compiled = _COMPILED_JETS[e] = _CompiledJet(e)
        self._compiled = compiled
        self._gradient = compiled.gradient

    @functools.cached_property
    def _value(self) -> Callable[[Sequence[float]], float]:
        compiled = self._compiled
        if compiled.value is None:
            compiled.value = compile_scalar(self.expression)
        return compiled.value

    @property
    def derivatives(self) -> list[Node]:
        """The partials (d/dx1..d/dxn, d/dy1..d/dyn) the gradient is compiled from."""
        return self._compiled.grads

    def value(self, z) -> float:
        return self._value(z)

    def gradient(self, z) -> tuple:
        """The compiled tuple (d/dx1..d/dxn, d/dy1..d/dyn) at z; callers that
        do array algebra convert it."""
        return self._gradient(z)

    @property
    def hessian_tuple(self) -> Callable[[Sequence[float]], tuple]:
        """The compiled second derivatives at z, in hessian_index's order."""
        return self._compiled.hessian

    def hessian(self, z) -> np.ndarray:
        return self._compiled.hessian_matrix(z)
