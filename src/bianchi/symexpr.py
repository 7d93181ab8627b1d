"""Symbolic scalar expressions over named real variables.

This module is the computational bedrock of the package: every geometric
object (vector field component, form component, Christoffel symbol) is an
expression tree built from rational constants, variables, arithmetic, integer
powers and the elementary functions sin, cos, exp, ln.  Trees are immutable,
support exact differentiation, and evaluate to IEEE doubles.

There is no mandatory simplification.  The constructors below fold constants
and drop additive/multiplicative identities so that derivative cascades do
not swell, but any such rewrite preserves the value of the expression at
every point where it is defined.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Add",
    "Mul",
    "Div",
    "Pow",
    "Neg",
    "Sin",
    "Cos",
    "Exp",
    "Ln",
    "ZERO",
    "ONE",
    "add",
    "sub",
    "mul",
    "div",
    "power",
    "neg",
    "sin",
    "cos",
    "exp",
    "ln",
    "as_expr",
    "add_all",
    "differentiate",
    "evaluate",
    "worst_residual",
    "max_abs",
    "parse",
    "to_text",
    "ExpressionError",
    "ParseError",
    "UnknownIdentifierError",
    "EvaluationError",
]


class ExpressionError(Exception):
    """Base class for errors raised by this module."""


class ParseError(ExpressionError):
    """Malformed expression text.  ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownIdentifierError(ParseError):
    """An identifier that is neither a known variable nor a function."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier '{name}'", position)
        self.name = name


class EvaluationError(ExpressionError):
    """Domain failure during numeric evaluation (ln of a non-positive
    value, division by zero).  The offending subexpression is named in
    the message."""


class Expr:
    """Immutable expression node.  Subclasses fix the arity and payload."""

    __slots__ = ("_hash",)

    # Arithmetic sugar; all routes go through the folding constructors.
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, n):
        return power(self, n)

    def __neg__(self):
        return neg(self)

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({to_text(self)!r})"

    def __hash__(self):
        return self._hash

    def children(self) -> tuple:
        return ()


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", Fraction(value))
        object.__setattr__(self, "_hash", hash(("const", self.value)))

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    def __eq__(self, other):
        return isinstance(other, Const) and self.value == other.value

    __hash__ = Expr.__hash__


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("var", name)))

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    def __eq__(self, other):
        return isinstance(other, Var) and self.name == other.name

    __hash__ = Expr.__hash__


class _Binary(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a: Expr, b: Expr):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_hash", hash((type(self).__name__, a._hash, b._hash)))

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    def __eq__(self, other):
        return type(other) is type(self) and self.a == other.a and self.b == other.b

    __hash__ = Expr.__hash__

    def children(self):
        return (self.a, self.b)


class _Unary(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "_hash", hash((type(self).__name__, arg._hash)))

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    def __eq__(self, other):
        return type(other) is type(self) and self.arg == other.arg

    __hash__ = Expr.__hash__

    def children(self):
        return (self.arg,)


class Add(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Expr):
    """Integer power.  The exponent is a plain int, never an expression."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", int(exponent))
        object.__setattr__(self, "_hash", hash(("pow", base._hash, exponent)))

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Pow)
            and self.exponent == other.exponent
            and self.base == other.base
        )

    __hash__ = Expr.__hash__

    def children(self):
        return (self.base,)


class Neg(_Unary):
    __slots__ = ()


class Sin(_Unary):
    __slots__ = ()


class Cos(_Unary):
    __slots__ = ()


class Exp(_Unary):
    __slots__ = ()


class Ln(_Unary):
    __slots__ = ()


ZERO = Const(0)
ONE = Const(1)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(x)
    if isinstance(x, float):
        # exact binary fraction; keeps evaluation reproducible
        return Const(Fraction(x))
    raise TypeError(f"cannot interpret {x!r} as an expression")


def _is_const(e: Expr, v=None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


# -- folding constructors ---------------------------------------------------

def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    if _is_const(a, -1):
        return neg(b)
    if _is_const(b, -1):
        return neg(a)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const):
        if b.value == 0:
            raise ZeroDivisionError("division by the constant zero")
        if isinstance(a, Const):
            return Const(a.value / b.value)
        if b.value == 1:
            return a
    # 0/e is left alone unless e is a constant: it still has to fail
    # wherever e vanishes.
    if _is_const(a, 0) and isinstance(b, Const):
        return ZERO
    return Div(a, b)


def power(base: Expr, exponent: int) -> Expr:
    n = int(exponent)
    if n == 1:
        return base
    if n == 0:
        return ONE
    if isinstance(base, Const) and (base.value != 0 or n > 0):
        return Const(base.value**n)
    return Pow(base, n)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def sin(a: Expr) -> Expr:
    return Sin(as_expr(a))


def cos(a: Expr) -> Expr:
    return Cos(as_expr(a))


def exp(a: Expr) -> Expr:
    return Exp(as_expr(a))


def ln(a: Expr) -> Expr:
    return Ln(as_expr(a))


def add_all(terms: Iterable[Expr]) -> Expr:
    total = ZERO
    for t in terms:
        total = add(total, t)
    return total


# -- differentiation --------------------------------------------------------

def differentiate(e: Expr, var: str) -> Expr:
    """Exact partial derivative of ``e`` with respect to ``var``.

    Shared subtrees are differentiated once per call, so iterated
    derivatives of heavily shared trees stay close to linear in the
    size of the underlying DAG.
    """

    memo: dict[int, Expr] = {}

    def d(node: Expr) -> Expr:
        got = memo.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Const):
            out = ZERO
        elif isinstance(node, Var):
            out = ONE if node.name == var else ZERO
        elif isinstance(node, Add):
            out = add(d(node.a), d(node.b))
        elif isinstance(node, Mul):
            out = add(mul(d(node.a), node.b), mul(node.a, d(node.b)))
        elif isinstance(node, Div):
            out = sub(div(d(node.a), node.b), div(mul(node.a, d(node.b)), Pow(node.b, 2)))
        elif isinstance(node, Pow):
            out = mul(mul(Const(node.exponent), power(node.base, node.exponent - 1)), d(node.base))
        elif isinstance(node, Neg):
            out = neg(d(node.arg))
        elif isinstance(node, Sin):
            out = mul(cos(node.arg), d(node.arg))
        elif isinstance(node, Cos):
            out = neg(mul(sin(node.arg), d(node.arg)))
        elif isinstance(node, Exp):
            out = mul(node, d(node.arg))
        elif isinstance(node, Ln):
            out = div(d(node.arg), node.arg)
        else:  # pragma: no cover - closed node set
            raise TypeError(f"cannot differentiate {type(node).__name__}")
        memo[id(node)] = out
        return out

    return d(e)


# -- evaluation --------------------------------------------------------------

def evaluate(e: Expr, point: Mapping[str, float]) -> float:
    """Evaluate at an assignment of floats to variable names.

    Raises :class:`EvaluationError`, and no other error, on domain
    failures, on results too large for a float and on variables missing
    from ``point``.  Shared subtrees are evaluated once.
    """

    memo: dict[int, float] = {}

    def ev(node: Expr) -> float:
        got = memo.get(id(node))
        if got is not None:
            return got
        try:
            if isinstance(node, Const):
                out = float(node.value)
            elif isinstance(node, Var):
                try:
                    out = float(point[node.name])
                except KeyError:
                    raise EvaluationError(f"no value supplied for variable '{node.name}'") from None
            elif isinstance(node, Add):
                out = ev(node.a) + ev(node.b)
            elif isinstance(node, Mul):
                out = ev(node.a) * ev(node.b)
            elif isinstance(node, Div):
                den = ev(node.b)
                if den == 0.0:
                    raise EvaluationError(f"division by zero in '{_clip(node)}'")
                out = ev(node.a) / den
            elif isinstance(node, Pow):
                base = ev(node.base)
                if base == 0.0 and node.exponent < 0:
                    raise EvaluationError(f"zero raised to a negative power in '{_clip(node)}'")
                out = base**node.exponent
            elif isinstance(node, Neg):
                out = -ev(node.arg)
            elif isinstance(node, Sin):
                out = math.sin(ev(node.arg))
            elif isinstance(node, Cos):
                out = math.cos(ev(node.arg))
            elif isinstance(node, Exp):
                out = math.exp(ev(node.arg))
            elif isinstance(node, Ln):
                val = ev(node.arg)
                if val <= 0.0:
                    raise EvaluationError(f"ln of non-positive value {val!r} in '{_clip(node)}'")
                out = math.log(val)
            else:  # pragma: no cover - closed node set
                raise TypeError(f"cannot evaluate {type(node).__name__}")
        except (OverflowError, ValueError) as exc:
            # float(Const), ** and exp overflow; sin and cos reject infinities
            raise EvaluationError(f"cannot evaluate '{_clip(node)}': {exc}") from None
        memo[id(node)] = out
        return out

    return ev(e)


def worst_residual(pairs, points, relative: bool = False) -> tuple:
    """Worst residual |lhs - rhs| over ``(tag, lhs, rhs)`` triples and points.

    ``pairs`` is consumed lazily, one triple at a time.  ``rhs`` is an
    expression or a plain number.  Each expression is evaluated on its own
    through this module's ``evaluate`` attribute, so a replacement
    evaluator decides every value; the residual arithmetic also works on
    ``decimal.Decimal`` values.  With ``relative`` each residual is divided
    by 1 + max(|lhs|, |rhs|).  A residual replaces the worst only when it
    is strictly greater, except that the first NaN or infinite residual is
    returned at once: it fails every tolerance.

    Returns ``(residual, point, tag)``; ``(0.0, None, None)`` when every
    residual is zero.
    """
    worst, worst_point, worst_tag = 0.0, None, None
    for tag, lhs, rhs in pairs:
        for point in points:
            left = evaluate(lhs, point)
            right = evaluate(rhs, point) if isinstance(rhs, Expr) else rhs
            residual = abs(left - right)
            if relative:
                residual /= 1 + max(abs(left), abs(right))
            if residual != residual or residual == math.inf:
                return residual, point, tag
            if residual > worst:
                worst, worst_point, worst_tag = residual, point, tag
    return worst, worst_point, worst_tag


def max_abs(exprs, points) -> float:
    """Worst |e| over expressions and points, by :func:`worst_residual`."""
    return worst_residual(((None, e, 0) for e in exprs), points)[0]


def _clip(node: Expr, limit: int = 80) -> str:
    text = to_text(node)
    return text if len(text) <= limit else text[: limit - 3] + "..."


# -- printing ----------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _precedence(e: Expr) -> int:
    if isinstance(e, Add):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Const) and (e.value < 0 or e.value.denominator != 1):
        return _PREC_MUL  # prints with a sign or a slash
    return _PREC_ATOM


def to_text(e: Expr) -> str:
    """Render to text that :func:`parse` accepts and that evaluates to the
    same values (the round trip is evaluation-equivalent, not structural)."""

    def wrap(node: Expr, minimum: int) -> str:
        text = render(node)
        return f"({text})" if _precedence(node) < minimum else text

    def render(node: Expr) -> str:
        if isinstance(node, Const):
            return str(node.value)
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Add):
            # a + -b prints as a - b for readability
            if isinstance(node.b, Neg):
                return f"{wrap(node.a, _PREC_ADD)} - {wrap(node.b.arg, _PREC_ADD + 1)}"
            if isinstance(node.b, Const) and node.b.value < 0:
                return f"{wrap(node.a, _PREC_ADD)} - {Const(-node.b.value).value}"
            return f"{wrap(node.a, _PREC_ADD)} + {wrap(node.b, _PREC_ADD + 1)}"
        if isinstance(node, Mul):
            return f"{wrap(node.a, _PREC_MUL)}*{wrap(node.b, _PREC_MUL + 1)}"
        if isinstance(node, Div):
            return f"{wrap(node.a, _PREC_MUL)}/{wrap(node.b, _PREC_MUL + 1)}"
        if isinstance(node, Neg):
            return f"-{wrap(node.arg, _PREC_NEG)}"
        if isinstance(node, Pow):
            exp_text = str(node.exponent) if node.exponent >= 0 else f"(-{-node.exponent})"
            return f"{wrap(node.base, _PREC_POW + 1)}^{exp_text}"
        for cls, name in ((Sin, "sin"), (Cos, "cos"), (Exp, "exp"), (Ln, "ln")):
            if isinstance(node, cls):
                return f"{name}({render(node.arg)})"
        raise TypeError(f"cannot print {type(node).__name__}")  # pragma: no cover

    return render(e)


# -- parsing -----------------------------------------------------------------

_FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp, "ln": ln}


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            out.append(_Token("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("name", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            out.append(_Token(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    """Recursive descent over the grammar

        expr   := term (('+' | '-') term)*
        term   := unary (('*' | '/') unary)*
        unary  := '-' unary | power
        power  := atom ('^' unary)?        # right-associative
        atom   := number | name | name '(' expr ')' | '(' expr ')'

    '^' binds tightest, then unary minus, then '*' '/', then '+' '-'.
    Exponents must fold to integer constants.
    """

    def __init__(self, tokens: list[_Token], variables: frozenset):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.pos)
        return self.take()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            node = add(node, rhs) if op.kind == "+" else sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.take()
            rhs = self.parse_unary()
            node = mul(node, rhs) if op.kind == "*" else div(node, rhs)
        return node

    def parse_unary(self) -> Expr:
        if self.peek().kind == "-":
            self.take()
            return neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek().kind == "^":
            caret = self.take()
            exponent = self.parse_unary()
            if not (isinstance(exponent, Const) and exponent.value.denominator == 1):
                raise ParseError("exponent must be an integer constant", caret.pos)
            return power(base, int(exponent.value))
        return base

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return Const(Fraction(tok.text))
        if tok.kind == "name":
            self.take()
            if self.peek().kind == "(":
                fn = _FUNCTIONS.get(tok.text)
                if fn is None:
                    raise UnknownIdentifierError(tok.text, tok.pos)
                self.take()
                arg = self.parse_expr()
                self.expect(")")
                return fn(arg)
            if tok.text in self.variables:
                return Var(tok.text)
            raise UnknownIdentifierError(tok.text, tok.pos)
        if tok.kind == "(":
            self.take()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {tok.text!r}" if tok.kind != "end" else "unexpected end of input", tok.pos)


def parse(text: str, variables: Iterable[str]) -> Expr:
    """Parse ``text`` against the given variable names.

    Unknown identifiers raise :class:`UnknownIdentifierError`; all other
    malformed input raises :class:`ParseError` with the offset of the
    offending token.
    """

    parser = _Parser(_tokenize(text), frozenset(variables))
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing input {tail.text!r}", tail.pos)
    return node
