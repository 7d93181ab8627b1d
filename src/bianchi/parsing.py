"""The text syntax of :mod:`bianchi.symexpr` expressions: a tokenizer and a
recursive-descent parser.

Only case files and tests parse text, so :func:`bianchi.symexpr.parse`
imports this module at its first call and a run without them never
compiles it.  The folding constructors are called through the
``symexpr`` module, so a wrapper installed on it before this module is
imported still sees every call.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterable

from . import symexpr as se
from .symexpr import Const, Expr, ParseError, UnknownIdentifierError, Var

_FUNCTIONS = {"sin": se.sin, "cos": se.cos, "exp": se.exp, "ln": se.ln}


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


def _in_float_range(node: Expr, pos: int) -> Expr:
    """``node``, or a ParseError at ``pos`` when it is a constant whose
    numerator or denominator is larger than every float: no float
    evaluation can use it, and printing it can pass the int-to-str limit."""
    if type(node) is Const:
        value = node.value
        if abs(value.numerator) > sys.float_info.max or value.denominator > sys.float_info.max:
            raise ParseError("constant outside the float range", pos)
    return node


class _Parser:
    """Recursive descent over the grammar

        expr   := term (('+' | '-') term)*
        term   := unary (('*' | '/') unary)*
        unary  := '-' unary | power
        power  := atom ('^' unary)?        # right-associative
        atom   := number | name | name '(' expr ')' | '(' expr ')'

    '^' binds tightest, then unary minus, then '*' '/', then '+' '-'.
    Exponents must fold to integer constants.  Every constant that a
    number or an operator folds must lie in the float range, and no
    constant may be divided by zero.
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
            node = se.add(node, rhs) if op.kind == "+" else se.sub(node, rhs)
            node = _in_float_range(node, op.pos)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.take()
            rhs = self.parse_unary()
            try:
                node = se.mul(node, rhs) if op.kind == "*" else se.div(node, rhs)
            except ZeroDivisionError:
                raise ParseError("division by the constant zero", op.pos) from None
            node = _in_float_range(node, op.pos)
        return node

    def parse_unary(self) -> Expr:
        if self.peek().kind == "-":
            self.take()
            return se.neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek().kind == "^":
            caret = self.take()
            exponent = self.parse_unary()
            if not (isinstance(exponent, Const) and exponent.value.denominator == 1):
                raise ParseError("exponent must be an integer constant", caret.pos)
            n = int(exponent.value)
            if type(base) is Const:
                # a numerator or denominator of b bits, to the power n, is at
                # least 2^(|n| * (b - 1)): refuse one past the float range
                # before computing it
                bits = max(abs(base.value.numerator), base.value.denominator).bit_length()
                if abs(n) * (bits - 1) >= sys.float_info.max_exp:
                    raise ParseError("constant outside the float range", caret.pos)
            return _in_float_range(se.power(base, n), caret.pos)
        return base

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            try:
                value = Fraction(tok.text)
            except ValueError:  # past the int-to-str digit limit
                raise ParseError("constant outside the float range", tok.pos) from None
            return _in_float_range(Const(value), tok.pos)
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
