"""Symbolic scalar expressions over named real variables.

This module is the computational bedrock of the package: every geometric
object (vector field component, form component, Christoffel symbol) is an
expression tree built from rational constants, variables, arithmetic, integer
powers and the elementary functions sin, cos, exp, ln.  Trees are immutable
by contract, which is not enforced at run time; they support exact
differentiation, and evaluate to IEEE doubles or to residues modulo a
prime.  Each node memoises its own derivatives
(:func:`differentiate`), so a derivative is computed once per node and
variable and shared by every caller.

Nodes are cheap to build: a constructor stores only the node's children or
payload, straight into its slots.  A constant's value is an ``int`` when
it is integral and a ``Fraction`` otherwise, so constant folding stays
exact.  The derivative memo is made by the first :func:`differentiate`
that reaches the node.  Nodes compare and hash by identity, so every
memo keys a node by the node itself.  An evaluation walk stores the
value only of a node held by something besides its parent.

There is no mandatory simplification.  The constructors below fold constants
and drop additive/multiplicative identities so that derivative cascades do
not swell, but any such rewrite preserves the value of the expression at
every point where it is defined.  ``add``, ``mul`` and ``neg`` return an
existing operand when the result equals it (0 + c, 1 * c, -0), so a fold
builds a constant only for a new value.

Every evaluation is one postorder walk of the DAG, which tests node kinds
inline and does the arithmetic in place, with no table lookup or
Python-level call per Mul, Add or Neg node.  There are two such walks
here: floats at one point (:func:`evaluate`, and the scan over one
point), and floats over lists with one entry per sample point (the scan
over several points).  The third, over residues modulo a prime, is the
exact recheck of :mod:`bianchi.exact`, which :func:`holds_exactly`
imports at its first call.

Checks compare two expressions over many sample points with
:func:`worst_residual`.  One scan, for any number of points, evaluates each
side of a pair at every point in one walk: the float walk over one point,
the walk over lists with the same IEEE operation per point over several,
so the values are bit-identical to those of :func:`evaluate`.  The pairs
of a run of equal tags (the pairs of one sampled tuple, in a check) share
the scan's memo, and the scan keeps their sides alive until the tag
changes, so a subtree they share is computed once per run.  The memo may
be a dict of node values at the same points that outlives the call: the
identity suite passes one per case and point set, so a node that several
checks or tuples reach is walked once per case.  A run stores the value
of a node held twice until it ends, and of a node held three or more
times for as long as the dict lives.  ``evaluate`` is still called once
per side and point and serves each value from the scan.  A pair with a
residual above the check's tolerance is rechecked by
:func:`holds_exactly`, an identity test modulo a prime; a pair that holds
exactly keeps its float residual in the result, but that residual is
rounding error and does not fail the check.

:func:`to_text` prints the syntax that :func:`parse` reads.  The parser
lives in :mod:`bianchi.parsing`, which ``parse`` imports at its first
call, so a run that parses no text does not compile it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import repeat
from sys import getrefcount
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
    "holds_exactly",
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
    """Expression node.  Subclasses fix the arity and payload.

    A constructor only stores the node's payload, directly in its slots.
    A node is immutable by contract, which is not enforced at run time:
    no code reassigns the payload of a built node, since every memo and
    every tree that shares the node relies on it.  The ``_derivs`` slot
    stays unset until the node is first differentiated, then holds a dict
    from variable name to derivative (Const and Var keep no memo).  Nodes
    compare and hash by identity.
    """

    __slots__ = ("_derivs",)

    # +, - and unary - for code that sums expressions, vector fields and forms
    # alike; they are the folding constructors add, sub and neg.
    def __add__(self, other):
        return add(self, as_expr(other))

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __neg__(self):
        return neg(self)

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({to_text(self)!r})"

    def children(self) -> tuple:
        return ()


class Const(Expr):
    """A rational constant.  ``value`` is an ``int`` when it is integral and
    a ``Fraction`` otherwise; a float is taken as its exact binary
    fraction."""

    __slots__ = ("value",)

    def __init__(self, value):
        if type(value) is not int:
            value = Fraction(value)
            if value.denominator == 1:
                value = value.numerator
        self.value = value


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class _Binary(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a: Expr, b: Expr):
        self.a = a
        self.b = b

    def children(self):
        return (self.a, self.b)


class _Unary(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg

    def children(self):
        return (self.arg,)


class Add(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Expr):
    """Integer power.  The exponent is a plain int, never an expression; a
    number equal to an int is taken as that int, anything else is a
    ValueError."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        self.base = base
        self.exponent = _integral(exponent)

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


def _is_zero(e: Expr) -> bool:
    return type(e) is Const and e.value == 0


# -- folding constructors ---------------------------------------------------
#
# Each tests ``type(x) is Const`` once per operand and then compares the
# constant's value.  Constants fold exactly: ``div`` and negative powers go
# through Fraction, never through int / int or int ** -n.

def add(a: Expr, b: Expr) -> Expr:
    if type(a) is Const:
        if a.value == 0:
            return b
        if type(b) is Const:
            return a if b.value == 0 else Const(a.value + b.value)
    elif type(b) is Const and b.value == 0:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def mul(a: Expr, b: Expr) -> Expr:
    if type(a) is Const:
        if type(b) is Const:
            x, y = a.value, b.value
            if x == 0 or y == 1:
                return a
            if y == 0 or x == 1:
                return b
            return Const(x * y)
        value, other = a.value, b
    elif type(b) is Const:
        value, other = b.value, a
    else:
        return Mul(a, b)
    if value == 0:
        return ZERO
    if value == 1:
        return other
    if value == -1:
        return neg(other)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if type(b) is Const:
        value = b.value
        if value == 0:
            raise ZeroDivisionError("division by the constant zero")
        if type(a) is Const:
            return Const(Fraction(a.value, value))
        if value == 1:
            return a
    # 0/e is left alone unless e is a constant: it still has to fail
    # wherever e vanishes.
    return Div(a, b)


def _integral(exponent) -> int:
    """``exponent`` as an int: any number equal to an int (``2.0``,
    ``Fraction(4, 2)``) is accepted, anything else is a ValueError."""
    if type(exponent) is int:
        return exponent
    try:
        n = int(exponent)
    except (OverflowError, ValueError):  # inf, nan
        n = None
    if n != exponent:
        raise ValueError(f"exponent must be an integer, not {exponent!r}")
    return n


def power(base: Expr, exponent: int) -> Expr:
    """``base`` to an integral power, as for :class:`Pow`."""
    n = _integral(exponent)
    if n == 1:
        return base
    if n == 0:
        return ONE
    if type(base) is Const and (base.value != 0 or n > 0):
        return Const(Fraction(base.value) ** n)
    return Pow(base, n)


def neg(a: Expr) -> Expr:
    kind = type(a)
    if kind is Const:
        return a if a.value == 0 else Const(-a.value)
    if kind is Neg:
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

    Each node keeps its derivatives in its ``_derivs`` memo, which lives
    and dies with the node: a (node, variable) pair is differentiated
    once, in whichever call first reaches it, and every later call
    returns the same derivative object.  Iterated derivatives of heavily
    shared trees therefore stay close to linear in the size of the
    underlying DAG, and derivatives share their subtrees.  A derivative
    refers only to its node's descendants, never to the node itself, so
    no memo makes a reference cycle.
    """
    return _d(e, var)


def _d(node: Expr, var: str) -> Expr:
    """The derivative of :func:`differentiate`, by recursion through the
    nodes' memos."""
    kind = type(node)
    if kind is Const:
        return ZERO
    if kind is Var:
        return ONE if node.name == var else ZERO
    memo = getattr(node, "_derivs", None)
    if memo is None:
        memo = {}
        node._derivs = memo
    else:
        got = memo.get(var)
        if got is not None:
            return got
    if kind is Add:
        out = add(_d(node.a, var), _d(node.b, var))
    elif kind is Mul:
        out = add(mul(_d(node.a, var), node.b), mul(node.a, _d(node.b, var)))
    elif kind is Div:
        out = sub(div(_d(node.a, var), node.b), div(mul(node.a, _d(node.b, var)), Pow(node.b, 2)))
    elif kind is Pow:
        out = mul(mul(Const(node.exponent), power(node.base, node.exponent - 1)), _d(node.base, var))
    elif kind is Neg:
        out = neg(_d(node.arg, var))
    elif kind is Sin:
        out = mul(cos(node.arg), _d(node.arg, var))
    elif kind is Cos:
        out = neg(mul(sin(node.arg), _d(node.arg, var)))
    elif kind is Exp:
        # a copy of the node, not the node: its memo must not refer to it
        out = mul(Exp(node.arg), _d(node.arg, var))
    elif kind is Ln:
        out = div(_d(node.arg, var), node.arg)
    else:  # pragma: no cover - closed node set
        raise TypeError(f"cannot differentiate {kind.__name__}")
    memo[var] = out
    return out


# -- evaluation --------------------------------------------------------------

# Float arithmetic.  Python raises where an operation has no float value:
# x/0.0 and 0.0**-n raise ZeroDivisionError, ln of a non-positive value and
# sin or cos of an infinity ValueError, and exp, ** and float(Const)
# OverflowError; ln of NaN is NaN.  Both float walks do Add, Mul, Div, Neg
# and Pow inline and look up only the elementary functions here.
_UNARY = {Sin: math.sin, Cos: math.cos, Exp: math.exp, Ln: math.log}


def evaluate(e: Expr, point: Mapping[str, float]) -> float:
    """Evaluate at an assignment of floats to variable names.

    Raises :class:`EvaluationError`, and no other error, on domain
    failures, on results too large for a float and on variables missing
    from ``point``.  Shared subtrees are evaluated once, by one
    :func:`_walk_floats`.  A sample point of a :func:`worst_residual` scan
    is served from the scan's walk over all its points, whose memo the
    pairs of a run of equal tags share; it gives the same value.
    """
    if type(point) is _ScanPoint:
        column = point.scan.column(e)
        if column is not None:
            return column[point.index]
    memo: dict[Expr, float] = {}

    def leaf(node: Expr) -> float:
        return float(node.value) if type(node) is Const else float(point[node.name])

    def fail(node: Expr, exc: Exception) -> EvaluationError:
        if isinstance(exc, KeyError):
            return EvaluationError(f"no value supplied for variable '{node.name}'")
        if isinstance(exc, ZeroDivisionError):
            what = "division by zero" if type(node) is Div else "zero raised to a negative power"
            return EvaluationError(f"{what} in '{_clip(node)}'")
        if type(node) is Ln and isinstance(exc, ValueError):
            # the argument is in the memo only if something else holds it
            value = _walk_floats(node.arg, memo, leaf)
            return EvaluationError(f"ln of non-positive value {value!r} in '{_clip(node)}'")
        if type(node) is Pow and isinstance(exc, OverflowError):
            # float ** reports errno and libc text; say what math.exp says
            exc = "math range error"
        return EvaluationError(f"cannot evaluate '{_clip(node)}': {exc}")

    return _walk_floats(e, memo, leaf, fail=fail)


class _ScanPoint(dict):
    """A sampled point of a scan: its values, its scan and its index."""

    __slots__ = ("scan", "index")


def _held_once(x) -> int:
    return getrefcount(x)


# The reference count that a node held by exactly one parent reads inside
# an evaluation walk: the parent's slot, the walk's argument and
# getrefcount's own.  It is measured on a probe held by one list, which
# reads the same (3 on CPython 3.11), so that it follows an interpreter
# that counts arguments differently.  A count too high would leave a node
# of two parents unstored, to be computed once per path; one too low only
# stores more.  A node held twice reads one more.
_probe = [object()]
_ONE_HOLDER = _held_once(_probe[0])
_TWO_HOLDERS = _ONE_HOLDER + 1
del _probe


def _walk_floats(e: Expr, memo: dict, leaf, run=None, fail=None) -> float:
    """The float value of ``e`` at one point, by one postorder walk of its
    DAG.  ``leaf(node)`` is the value of a Const or Var, and ``memo`` maps
    nodes to values, so a shared subtree is computed once.  A value is
    stored only for a node that something besides its one parent holds:
    a node held once is reached only through that parent, which the walk
    computes once, so its value is never asked for again.  A node held
    exactly twice is also appended to the list ``run``, whose owner
    deletes its value when the run ends.  The node kinds are tested
    inline, the most frequent first, and their arithmetic is done in
    place, so no table lookup or Python-level call is made per Mul, Add
    or Neg node.  Children are computed left to right, so of two
    failing subtrees the left one raises.  An operation's ArithmeticError,
    ValueError or KeyError propagates, or, with ``fail``, is replaced by
    the exception ``fail(node, exc)`` of the innermost failing node, which
    must be none of those, so that it passes the node's ancestors as is.
    """
    if run is None:
        run = []

    def ev(node: Expr) -> float:
        got = memo.get(node)
        if got is not None:
            return got
        kind = type(node)
        try:
            if kind is Mul:
                out = ev(node.a) * ev(node.b)
            elif kind is Add:
                out = ev(node.a) + ev(node.b)
            elif kind is Neg:
                out = -ev(node.arg)
            elif kind is Const or kind is Var:
                out = leaf(node)
            elif kind is Pow:
                out = ev(node.base) ** node.exponent
            elif kind is Div:
                out = ev(node.a) / ev(node.b)
            else:
                out = _UNARY[kind](ev(node.arg))
        except (ArithmeticError, ValueError, KeyError) as exc:
            if fail is None:
                raise
            raise fail(node, exc) from None
        held = getrefcount(node)
        if held > _ONE_HOLDER:
            memo[node] = out
            if held == _TWO_HOLDERS:
                run.append(node)
        return out

    try:
        return ev(e)
    finally:
        del ev  # ev refers to itself; free it without the cycle collector


def _walk_lists(e: Expr, memo: dict, leaf, run=None) -> list:
    """The values of ``e`` at several points, one list entry per point: the
    walk of :func:`_walk_floats` over lists of floats, with the same IEEE
    operation per point through ``list(map(op, a, b))``."""
    if run is None:
        run = []

    def ev(node: Expr) -> list:
        got = memo.get(node)
        if got is not None:
            return got
        kind = type(node)
        if kind is Mul:
            out = list(map(operator.mul, ev(node.a), ev(node.b)))
        elif kind is Add:
            out = list(map(operator.add, ev(node.a), ev(node.b)))
        elif kind is Neg:
            out = list(map(operator.neg, ev(node.arg)))
        elif kind is Const or kind is Var:
            out = leaf(node)
        elif kind is Pow:
            out = list(map(pow, ev(node.base), repeat(node.exponent)))
        elif kind is Div:
            out = list(map(operator.truediv, ev(node.a), ev(node.b)))
        else:
            out = list(map(_UNARY[kind], ev(node.arg)))
        held = getrefcount(node)
        if held > _ONE_HOLDER:
            memo[node] = out
            if held == _TWO_HOLDERS:
                run.append(node)
        return out

    try:
        return ev(e)
    finally:
        del ev  # ev refers to itself; free it without the cycle collector


class _Scan:
    """The values of the sides of the current run of pairs at every point.

    A side is computed at all points in one walk of its DAG, with one memo
    shared by every side of the run, so a subtree that several of those
    sides share is computed once.  The memo keeps the value of each node
    held more than once, such as the sides, which their pairs hold, but
    not of a node that only its one parent holds.  Over one point the walk
    is :func:`_walk_floats`, the walk of :func:`evaluate`; over several it
    is :func:`_walk_lists`, with the same IEEE operation per point, so
    every value is the one :func:`evaluate` gives at that point.  The walk
    raises wherever :func:`evaluate` raises at some point; such a side has
    no column and is evaluated point by point, which raises the
    EvaluationError at the same point as before.

    The memo is ``values``, a dict of node values at these points that
    outlives the scan, or a fresh dict per run without it.  A run deletes
    the values it stored of nodes held exactly twice when it ends, and
    leaves those of nodes held three or more times to every later run over
    the same dict: nodes that two parents share with a piece, with their
    primal's derivative memo or with a connection, and the sides that
    something besides their pairs holds, such as a piece's components.
    """

    def __init__(self, samples: list, values: dict | None = None):
        self.samples = samples
        self.single = len(samples) == 1
        self.walk = _walk_floats if self.single else _walk_lists
        # one leaf value per variable name and per constant value
        self.leaves: dict = {}
        self.values = values
        self.memo: dict = {} if values is None else values
        # the nodes held twice whose values this run stored
        self.run: list = []
        # each side seen in this run: its column, or None when its walk raised
        self.sides: dict[Expr, list | None] = {}

    def points(self) -> list:
        """The samples as points that know this scan (which keeps no
        reference to them, so no cycle keeps its memo alive)."""
        points = []
        for index, sample in enumerate(self.samples):
            point = _ScanPoint(sample)
            point.scan, point.index = self, index
            points.append(point)
        return points

    def start_run(self) -> None:
        """End the current run and start the next."""
        self.end_run()
        if self.values is None:
            self.memo = {}

    def end_run(self) -> None:
        """Delete the values that the run stored of nodes held twice, and
        drop its sides.  A side's count was raised by the callers that held
        it during its walk; once its pair is gone, the value of a side held
        by the sides and the memo alone is deleted too."""
        memo = self.memo
        for node in self.run:
            del memo[node]
        self.run.clear()
        for side in self.sides:
            if getrefcount(side) == _TWO_HOLDERS:
                memo.pop(side, None)
        self.sides.clear()

    def column(self, e: Expr):
        """The values of ``e`` at every point, or None when the walk raised."""
        try:
            return self.sides[e]
        except KeyError:
            pass
        try:
            values = self.walk(e, self.memo, self._leaf, self.run)
        except (ArithmeticError, ValueError, KeyError):
            values = None
        else:
            if self.single:
                values = [values]
        self.sides[e] = values
        return values

    def _leaf(self, node: Expr):
        key = node.value if type(node) is Const else node.name
        out = self.leaves.get(key)
        if out is None:
            if type(node) is Const:
                out = [float(key)] * len(self.samples)
            else:
                out = list(map(float, map(operator.itemgetter(key), self.samples)))
            self.leaves[key] = out = out[0] if self.single else out
        return out


def worst_residual(pairs, points, tol=None, values=None) -> tuple:
    """Worst residual |lhs - rhs| over ``(tag, lhs, rhs)`` triples and points.

    ``pairs`` is consumed lazily, one triple at a time.  ``rhs`` is an
    expression or a plain number.  Each side is evaluated once per point
    through this module's ``evaluate`` attribute, so a replacement
    evaluator decides every value; the residual arithmetic also works on
    ``decimal.Decimal`` values.  A residual replaces the worst only when it
    is strictly greater, except that the first NaN or infinite residual is
    returned at once: it fails every tolerance.

    ``evaluate`` serves each value from one scan of all the points.  The
    pairs of a run of equal tags share the scan's memo, so a subtree that
    they share is computed once per run; the sides it keeps alive, and the
    values of nodes held twice, are dropped when the tag changes.  Without
    ``values`` each run gets a fresh memo.  With it, ``values`` is the memo
    of every run: a dict of node values at these points (a float over one
    point, a list over several) that outlives the call and keeps the
    values of nodes held three or more times, and of the sides that
    something besides their pairs still holds.  The identity suite passes
    one per case and point set, so every check and tuple of a case reads
    what the earlier ones computed; the other callers pass none.

    With a tolerance ``tol``, a pair with a residual above it is tested
    once by :func:`holds_exactly`.  The residuals of a pair that holds
    exactly are float rounding error: they are still the worst residual,
    but they do not fail the tolerance.  Once some pair fails that test,
    the result is the worst residual among the pairs that fail it, so its
    point and tag name a pair that really fails; a pair whose residual
    cannot raise that worst is not tested.

    Returns ``(residual, point, tag, cleared)``; ``(0.0, None, None,
    False)`` when every residual is zero.  ``point`` is one of the given
    points.  ``cleared`` is True when ``residual`` exceeds ``tol`` and
    every residual above ``tol`` belongs to a pair that holds exactly.
    """
    samples = list(points)
    scan = _Scan(samples, values)
    points = scan.points()
    worst, failing = (0.0, None, None), None
    run_tag = object()  # equal to no tag
    try:
        for tag, lhs, rhs in pairs:
            if tag != run_tag:
                scan.start_run()
                run_tag = tag
            exact = None
            for index, point in enumerate(points):
                left = evaluate(lhs, point)
                right = evaluate(rhs, point) if isinstance(rhs, Expr) else rhs
                residual = abs(left - right)
                if residual != residual or residual == math.inf:
                    return residual, samples[index], tag, False
                if residual > worst[0]:
                    worst = residual, samples[index], tag
                if tol is not None and residual > tol and (failing is None or residual > failing[0]):
                    if exact is None:
                        exact = holds_exactly(lhs, rhs)
                    if not exact:
                        failing = residual, samples[index], tag
    finally:
        lhs = rhs = None  # the last pair is gone when its run ends
        scan.end_run()
    if failing is not None:
        return (*failing, False)
    return (*worst, tol is not None and worst[0] > tol)


def holds_exactly(lhs: Expr, rhs) -> bool:
    """Whether ``lhs == rhs`` holds at a pseudo-random point of GF(p): an
    identity test modulo the prime p = 2^61 - 1 that overturns only float
    rounding error.  The recheck lives in :mod:`bianchi.exact`, imported at
    the first call; see :func:`bianchi.exact.holds_exactly`.
    """
    from . import exact

    return exact.holds_exactly(lhs, rhs)


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

    try:
        return render(e)
    finally:
        del render, wrap  # they refer to each other; free them without the cycle collector


# -- parsing -----------------------------------------------------------------


def parse(text: str, variables: Iterable[str]) -> Expr:
    """Parse ``text`` against the given variable names.

    Unknown identifiers raise :class:`UnknownIdentifierError`; all other
    malformed input raises :class:`ParseError` with the offset of the
    offending token.  The parser lives in :mod:`bianchi.parsing`, imported
    at the first call.
    """
    from . import parsing

    return parsing.parse(text, variables)
