"""The text syntax of :mod:`bianchi.symexpr` expressions, a tokenizer and a
recursive-descent parser, and the sections of :mod:`bianchi.casefile`.

Only case files and tests parse text, so :func:`bianchi.symexpr.parse`
and :func:`bianchi.casefile.load_case_file` import this module at their
first call and a run without them never compiles it.  The folding
constructors are called through the ``symexpr`` module, so a wrapper
installed on it before this module is imported still sees every call.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterable

from . import connection as con
from . import geometry as geo
from . import symexpr as se
from .casefile import DEFAULT_RANGE, MAX_DEPTH, _fail
from .geometry import Chart, PForm, VectorField
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


# -- case-file sections --------------------------------------------------------
#
# One parser per section of a case file, called by
# bianchi.casefile.load_case_file; each raises CaseFileError naming the entry
# at fault.


def _parse_range(text: str, context: str) -> tuple[float, float]:
    parts = text.split()
    if len(parts) != 2:
        _fail(f"{context}: expected two numbers, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        _fail(f"{context}: expected two numbers, got {text!r}")
    return lo, hi


def parse_chart(section, default_name: str) -> Chart:
    if "coords" not in section:
        _fail("[chart] needs a 'coords' entry")
    coords = tuple(section["coords"].split())
    if not coords:
        _fail("[chart] coords entry is empty")
    base = DEFAULT_RANGE
    if "range" in section:
        base = _parse_range(section["range"], "[chart] range")
    intervals = [base] * len(coords)
    for key, value in section.items():
        if key in ("coords", "range", "name"):
            continue
        if not key.startswith("range "):
            _fail(f"[chart]: unknown entry {key!r}")
        coord = key[len("range "):].strip()
        if coord not in coords:
            _fail(f"[chart]: range override for unknown coordinate {coord!r}")
        intervals[coords.index(coord)] = _parse_range(value, f"[chart] range {coord}")
    name = section.get("name", default_name).strip()
    if not name:
        _fail("[chart] name entry is empty")
    try:
        return Chart(name, coords, tuple(intervals))
    except geo.GeometryError as exc:
        _fail(f"[chart]: {exc}")


def _deeper_than(expr: Expr, levels: int) -> bool:
    return levels == 0 or any(_deeper_than(c, levels - 1) for c in expr.children())


def _parse_expr(chart: Chart, text: str, context: str) -> Expr:
    try:
        expr = parse(text, chart.coords)
    except ParseError as exc:
        _fail(f"{context}: {exc}")
    except RecursionError:  # parentheses, signs or powers nested past the stack
        expr = None
    if expr is None or _deeper_than(expr, MAX_DEPTH):
        _fail(f"{context}: expression nested deeper than {MAX_DEPTH} levels")
    return expr


def _parse_index(token: str, chart: Chart, context: str) -> int:
    try:
        value = int(token)
    except ValueError:
        _fail(f"{context}: index {token!r} is not an integer")
    if not 1 <= value <= chart.dim:
        _fail(f"{context}: index {value} out of range 1..{chart.dim}")
    return value - 1


def parse_christoffel(section, chart: Chart) -> con.Connection:
    entries = {}
    for key, value in section.items():
        context = f"[christoffel] {key}"
        tokens = key.split()
        if len(tokens) != 3:
            _fail(f"{context}: expected three indices 'k i j'")
        k, i, j = (_parse_index(t, chart, context) for t in tokens)
        if (k, i, j) in entries:
            _fail(f"{context}: duplicate entry")
        entries[(k, i, j)] = _parse_expr(chart, value, context)
    return con.Connection.from_nonzero(chart, entries)


def parse_metric(section, chart: Chart) -> con.Metric:
    entries = {}
    for key, value in section.items():
        context = f"[metric] {key}"
        tokens = key.split()
        if len(tokens) != 2:
            _fail(f"{context}: expected two indices 'i j'")
        i, j = (_parse_index(t, chart, context) for t in tokens)
        pair = (min(i, j), max(i, j))
        if pair in entries:
            _fail(f"{context}: pair given twice")
        entries[pair] = _parse_expr(chart, value, context)
    return con.Metric.from_nonzero(chart, entries)


def _parse_indexed_name(key: str, chart: Chart, context: str) -> tuple[str, tuple[int, ...]]:
    if not key.endswith("]") or "[" not in key:
        _fail(f"{context}: expected name[indices], got {key!r}")
    name, _, inside = key[:-1].partition("[")
    name = name.strip()
    if not name:
        _fail(f"{context}: missing name before the bracket")
    tokens = [t.strip() for t in inside.split(",")]
    indices = tuple(_parse_index(t, chart, context) for t in tokens)
    return name, indices


def parse_forms(section, chart: Chart) -> dict[str, PForm]:
    collected: dict[str, dict[tuple[int, ...], Expr]] = {}
    degrees: dict[str, int] = {}
    for key, value in section.items():
        context = f"[forms] {key}"
        name, indices = _parse_indexed_name(key, chart, context)
        if list(indices) != sorted(set(indices)):
            _fail(f"{context}: indices must be strictly increasing")
        if name in degrees and degrees[name] != len(indices):
            _fail(f"{context}: component degree disagrees with earlier entries")
        degrees[name] = len(indices)
        comps = collected.setdefault(name, {})
        if indices in comps:
            _fail(f"{context}: duplicate component")
        comps[indices] = _parse_expr(chart, value, context)
    return {
        name: PForm(chart, degrees[name], comps) for name, comps in collected.items()
    }


def parse_fields(section, chart: Chart) -> dict[str, VectorField]:
    collected: dict[str, dict[int, Expr]] = {}
    for key, value in section.items():
        context = f"[fields] {key}"
        name, indices = _parse_indexed_name(key, chart, context)
        if len(indices) != 1:
            _fail(f"{context}: a vector field takes exactly one index per entry")
        comps = collected.setdefault(name, {})
        if indices[0] in comps:
            _fail(f"{context}: duplicate component")
        comps[indices[0]] = _parse_expr(chart, value, context)
    return {
        name: VectorField(chart, [comps.get(i, se.ZERO) for i in range(chart.dim)])
        for name, comps in collected.items()
    }
