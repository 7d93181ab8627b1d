"""Charts, fields and differential forms with symbolic components.

Conventions
-----------
* A chart is a single coordinate patch with named coordinates and a sampling
  interval per coordinate.  All objects are tied to one chart; mixing charts
  raises :class:`ChartMismatchError`.
* A p-form stores one component per strictly increasing index tuple.  The
  wedge is the shuffle sum without factorial normalisation, anchored by
  (dx ^ dy)(d/dx, d/dy) = 1.
* Evaluation of a p-form on p vector fields expands over increasing tuples
  against the determinant of the argument components, which is exactly the
  shuffle convention.

The exterior derivative is the coordinate formula on components; the
tests hold it against the alternating vector-field formula with Lie
brackets, an independent oracle kept in the test suite.

Signed sums
-----------
The structure equations and Bianchi identities are alternating sums over
argument positions.  :func:`_signed_sum` is the one kernel for them: d,
the Laplace expansion of the minors and the alternating sums of
:mod:`bianchi.structure_forms` pass it a ``term`` for the positions they
pick and the items they leave.

Sharing
-------
One sampled tuple of a check asks for the same pieces many times: the
identities are signed sums over the fields they are given, so omega(X),
nabla_X Z, nabla_{d/dx^i} theta, X wedge Y and R(X, Y) recur from term to
term.  Inside a :func:`sharing` scope, which the identity suite opens
around each tuple's build over the table that it keeps for that tuple,
:func:`shared` returns the object that the first request built, so its
nodes are built once for all the checks of a case.  They are walked once
per case too: the scans of a case share one memo per point set, which
keeps the value of every node with three or more holders, such as a
piece's component that its piece and two parents hold.  Outside a scope
nothing is kept and every request builds afresh.  The minors of
:meth:`PForm.apply` go through it, and so does every tensor-valued form
call.  Scopes nest: an inner table (the one in which
:func:`bianchi.structure_forms.cartan_coframe_forms` builds a coframe's
forms, or :func:`symbolic_inverse` the minors of a matrix) takes the
requests while it is open, and the table that was open before takes them
again when it closes.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from contextlib import contextmanager
from typing import Callable, Mapping, Sequence

from . import symexpr as se
from .symexpr import Expr, ZERO

__all__ = [
    "GeometryError",
    "ChartMismatchError",
    "DegreeError",
    "Chart",
    "Point",
    "VectorField",
    "PForm",
    "LinearMap",
    "TensorValuedForm",
    "apply_vector_field",
    "lie_bracket",
    "wedge",
    "interior_product",
    "exterior_derivative",
    "symbolic_inverse",
    "sort_with_sign",
    "random_point",
    "sample_points",
    "random_polynomial",
    "random_vector_field",
    "random_pform",
    "sharing",
    "shared",
]


class GeometryError(Exception):
    pass


class ChartMismatchError(GeometryError):
    pass


class DegreeError(GeometryError):
    pass


Point = Mapping[str, float]


# -- sharing -------------------------------------------------------------------

# the entries of the open sharing scope, or None outside one
_scope: dict | None = None


@contextmanager
def sharing(table: dict):
    """A scope inside which :func:`shared` builds each result once, into
    ``table``.  The table keeps its entries when the scope closes: the
    identity suite keeps one per sampled tuple, so the checks of a case
    share each piece built from the tuple's fields, and empties it when
    the case's sampling scope closes.  Closing the scope reopens the
    table that was open before it, if any.
    """
    global _scope
    outer, _scope = _scope, table
    try:
        yield
    finally:
        _scope = outer


def shared(build: Callable, *args):
    """``build(*args)``, built once per sharing table for the same ``build``
    and argument objects; outside a scope, built at every call.

    Entries are keyed by the ids of the arguments and hold the arguments,
    so no id can be reused while its entry lives.  ``build`` must be a pure
    function of its arguments' identities, which is what makes the first
    result good for every later request.
    """
    scope = _scope
    if scope is None:
        return build(*args)
    key = (build, *map(id, args))
    got = scope.get(key)
    if got is None:
        got = scope[key] = (args, build(*args))
    return got[1]


class Chart:
    """A named coordinate patch.

    ``intervals`` bounds the sampling domain coordinate by coordinate, and
    ``trig_sampling`` lets the field sampler mix sin/cos factors in (useful
    on charts whose natural data is trigonometric).  A chart is immutable
    by contract, and two charts with equal fields are equal and hash alike.
    """

    __slots__ = ("name", "coords", "intervals", "trig_sampling")

    def __init__(
        self,
        name: str,
        coords: tuple[str, ...],
        intervals: tuple[tuple[float, float], ...],
        trig_sampling: bool = False,
    ):
        if len(set(coords)) != len(coords):
            raise GeometryError(f"duplicate coordinate names in chart '{name}'")
        if len(intervals) != len(coords):
            raise GeometryError("one sampling interval is required per coordinate")
        for coord, (lo, hi) in zip(coords, intervals):
            # an infinite width would sample inf and NaN coordinates
            if not 0 < hi - lo < math.inf:
                raise GeometryError(f"empty or infinite sampling interval for coordinate '{coord}'")
        self.name = name
        self.coords = coords
        self.intervals = intervals
        self.trig_sampling = trig_sampling

    def _fields(self) -> tuple:
        return self.name, self.coords, self.intervals, self.trig_sampling

    def __eq__(self, other):
        if type(other) is not Chart:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    @property
    def dim(self) -> int:
        return len(self.coords)

    def parse(self, text: str) -> Expr:
        return se.parse(text, self.coords)

    def basis_field(self, i: int) -> "VectorField":
        comps = [ZERO] * self.dim
        comps[i] = se.ONE
        return VectorField(self, tuple(comps))

    def basis_covector(self, i: int) -> "PForm":
        return PForm(self, 1, {(i,): se.ONE})

    def coordinate_frame(self) -> tuple["VectorField", ...]:
        return tuple(self.basis_field(i) for i in range(self.dim))


def _same_chart(*objs):
    chart = objs[0].chart
    for o in objs[1:]:
        if o.chart is not chart and o.chart != chart:
            raise ChartMismatchError(
                f"objects live on different charts: '{chart.name}' vs '{o.chart.name}'"
            )
    return chart


class VectorField:
    """Vector field with one symbolic component per coordinate."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart: Chart, comps: Sequence[Expr]):
        comps = tuple(se.as_expr(c) for c in comps)
        if len(comps) != chart.dim:
            raise GeometryError("component count does not match chart dimension")
        self.chart = chart
        self.comps = comps

    def __add__(self, other: "VectorField") -> "VectorField":
        _same_chart(self, other)
        return VectorField(self.chart, tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        _same_chart(self, other)
        return VectorField(self.chart, tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, tuple(-c for c in self.comps))

    def scale(self, factor) -> "VectorField":
        f = se.as_expr(factor)
        return VectorField(self.chart, tuple(se.mul(f, c) for c in self.comps))

    def __repr__(self):
        return f"VectorField({[str(c) for c in self.comps]})"


def apply_vector_field(X: VectorField, f) -> Expr:
    """Directional derivative X(f) of an expression or number ``f``."""
    expr = se.as_expr(f)
    chart = X.chart
    return se.add_all(
        se.mul(X.comps[i], se.differentiate(expr, chart.coords[i])) for i in range(chart.dim)
    )


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^k = X(Y^k) - Y(X^k)."""
    chart = _same_chart(X, Y)
    comps = [
        se.sub(apply_vector_field(X, Y.comps[k]), apply_vector_field(Y, X.comps[k]))
        for k in range(chart.dim)
    ]
    return VectorField(chart, comps)


def sort_with_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort an index tuple, returning (sorted, permutation sign).

    Sign is 0 when an index repeats.
    """
    idx = list(indices)
    sign = 1
    # insertion sort; tuples have at most five entries here
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


def _signed_sum(items, size, term, odd=0, start=None):
    """start + sum of (-1)^(sum(P) + odd) term(*P, rest) over the increasing
    zero-based position tuples P of ``size`` of ``items``, where ``rest``
    is the tuple of the other items in order.

    Terms are added left to right with ``+`` and negated with unary ``-``,
    so one kernel sums expressions, vector fields, forms and endomorphisms.
    Without ``start`` the sum begins at its first term; an empty sum is
    ``start``.
    """
    # the complements of the position tuples, taken in lexicographic order,
    # are the (n - size)-tuples of items in reverse lexicographic order
    rests = list(itertools.combinations(items, max(len(items) - size, 0)))
    total = start
    for P, rest in zip(itertools.combinations(range(len(items)), size), reversed(rests)):
        value = term(*P, rest)
        if (sum(P) + odd) % 2:
            value = -value
        total = value if total is None else total + value
    return total


@functools.cache
def _increasing_keys(dim: int, degree: int) -> frozenset:
    """The strictly increasing index tuples of ``degree`` indices below
    ``dim``: every valid component key, so a key in it needs no check."""
    return frozenset(itertools.combinations(range(dim), degree))


class PForm:
    """Differential p-form with components on strictly increasing tuples.

    Degree may reach dim + 1, the canonical zero that `d` of a top-degree
    form and a wedge one degree past the top return; such forms have no
    components.
    """

    __slots__ = ("chart", "degree", "comps")

    def __init__(self, chart: Chart, degree: int, comps: Mapping[tuple[int, ...], Expr] | None = None):
        if degree < 0 or degree > chart.dim + 1:
            raise DegreeError(f"degree {degree} out of range on a {chart.dim}-dimensional chart")
        self.chart = chart
        self.degree = degree
        cleaned: dict[tuple[int, ...], Expr] = {}
        keys = _increasing_keys(chart.dim, degree)
        for key, value in (comps or {}).items():
            key = tuple(key)
            if key not in keys:
                if len(key) != degree:
                    raise DegreeError(f"component key {key} does not have {degree} indices")
                if any(not 0 <= i < chart.dim for i in key):
                    raise GeometryError(f"index out of range in component key {key}")
                if list(key) != sorted(key) or len(set(key)) != len(key):
                    raise GeometryError(f"component keys must be strictly increasing, got {key}")
            value = se.as_expr(value)
            if not se._is_zero(value):
                cleaned[key] = value
        self.comps = cleaned

    @staticmethod
    def zero(chart: Chart, degree: int) -> "PForm":
        return PForm(chart, degree, {})

    def component(self, indices: Sequence[int]) -> Expr:
        """Signed component for an arbitrary index tuple."""
        key, sign = sort_with_sign(indices)
        if sign == 0:
            return ZERO
        base = self.comps.get(key, ZERO)
        return base if sign == 1 else se.neg(base)

    def __add__(self, other: "PForm") -> "PForm":
        _same_chart(self, other)
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
        out = dict(self.comps)
        for key, value in other.comps.items():
            out[key] = se.add(out.get(key, ZERO), value)
        return PForm(self.chart, self.degree, out)

    def __sub__(self, other: "PForm") -> "PForm":
        return self + (-other)

    def __neg__(self) -> "PForm":
        return PForm(self.chart, self.degree, {k: se.neg(v) for k, v in self.comps.items()})

    def scale(self, factor) -> "PForm":
        f = se.as_expr(factor)
        return PForm(self.chart, self.degree, {k: se.mul(f, v) for k, v in self.comps.items()})

    def apply(self, fields: Sequence[VectorField]) -> Expr:
        """Symbolic evaluation on ``degree`` vector fields."""
        if len(fields) != self.degree:
            raise DegreeError(f"a {self.degree}-form takes {self.degree} arguments, got {len(fields)}")
        if self.degree == 0:
            raise DegreeError("0-forms are scalars; evaluate their expression directly")
        _same_chart(self, *fields)
        minors = shared(_Minors, *(field.comps for field in fields))
        total = ZERO
        for key, value in self.comps.items():
            total = se.add(total, se.mul(value, minors[key]))
        return total

    def __repr__(self):
        body = ", ".join(f"{k}: {v}" for k, v in sorted(self.comps.items()))
        return f"PForm(p={self.degree}, {{{body}}})"


class _Minors(dict):
    """The minors det[rows[b][key[a]]] of some rows of components by
    increasing key, each built at its first lookup: the one minors kernel
    for p-form evaluation (the rows are the fields' comps), the torsion
    and curvature pairing and every determinant and cofactor.

    Two rows x, y give (X wedge Y)^{ij} = x[i] y[j] - x[j] y[i], which the
    torsion and curvature rules pair with their components.  More rows
    expand along the last one (Laplace) over ``rest``, the shared minors
    of the others, so each smaller minor is built once.  The empty key has
    the minor 1.  A sharing table keeps a :class:`_Minors` as long as any
    other piece.
    """

    __slots__ = ("rows", "rest")

    def __init__(self, *rows: Sequence[Expr]):
        self.rows = rows
        self.rest = None

    def __missing__(self, key: tuple[int, ...]) -> Expr:
        rows = self.rows
        if not key:
            det = se.ONE
        elif len(key) == 1:
            det = rows[0][key[0]]
        elif len(key) == 2:
            i, j = key
            x, y = rows
            det = se.sub(se.mul(x[i], y[j]), se.mul(x[j], y[i]))
        else:
            if self.rest is None:
                self.rest = shared(_Minors, *rows[:-1])
            last = rows[-1]
            det = _signed_sum(
                key, 1, lambda a, minor: se.mul(self.rest[minor], last[key[a]]), odd=len(key) - 1
            )
        self[key] = det
        return det


def symbolic_inverse(matrix: Sequence[Sequence[Expr]]) -> list[list[Expr]]:
    """Inverse of a square symbolic matrix: the adjugate times one shared
    reciprocal of the determinant.

    The determinant and the cofactors are minors of the matrix's rows,
    built in one sharing table so that they share their smaller minors.
    Every entry refers to the same ``1/det`` node, so a derivative of the
    inverse differentiates that quotient once per variable, not once per
    entry.  A constant determinant folds; a constant zero one raises
    ZeroDivisionError.
    """
    n = len(matrix)
    with sharing({}):
        recip = se.div(se.ONE, shared(_Minors, *matrix)[tuple(range(n))])
        out = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            minors = shared(_Minors, *matrix[:i], *matrix[i + 1 :])
            for j in range(n):
                cof = minors[tuple(c for c in range(n) if c != j)]
                if (i + j) % 2 == 1:
                    cof = se.neg(cof)
                out[j][i] = se.mul(cof, recip)
    return out


def wedge(A: PForm, B: PForm) -> PForm:
    """Shuffle-sum wedge without factorials.

    Componentwise: (A ^ B)_K = sum over splittings K = I u J of
    sign(I, J) * A_I * B_J with I, J increasing.  Above top degree every
    I and J overlap, so degree dim + 1 gives the empty form, like `d` of a
    top-degree form; :class:`PForm` rejects any higher degree.
    """
    chart = _same_chart(A, B)
    out: dict[tuple[int, ...], Expr] = {}
    for I, a in A.comps.items():
        for J, b in B.comps.items():
            if set(I) & set(J):
                continue
            key, sign = sort_with_sign(I + J)
            term = se.mul(a, b)
            if sign == -1:
                term = se.neg(term)
            out[key] = se.add(out.get(key, ZERO), term)
    return PForm(chart, A.degree + B.degree, out)


def interior_product(X: VectorField, theta: PForm) -> PForm:
    """Contraction into the first slot: (X . theta)(Y...) = theta(X, Y...)."""
    chart = _same_chart(X, theta)
    if theta.degree == 0:
        raise DegreeError("cannot contract a 0-form")
    out: dict[tuple[int, ...], Expr] = {}
    for key, value in theta.comps.items():
        for slot, idx in enumerate(key):
            rest = key[:slot] + key[slot + 1 :]
            term = se.mul(X.comps[idx], value)
            if slot % 2 == 1:
                term = se.neg(term)
            out[rest] = se.add(out.get(rest, ZERO), term)
    return PForm(chart, theta.degree - 1, out)


def exterior_derivative(theta: PForm) -> PForm:
    """Coordinate exterior derivative on components.

    (d theta)_K = sum_a (-1)^a  d(theta_{K minus K_a}) / dx^{K_a} over the
    increasing tuple K.  Top-degree forms map to the canonical zero form of
    degree dim + 1.
    """
    chart, comps = theta.chart, theta.comps
    out = {
        key: _signed_sum(
            key,
            1,
            lambda a, rest: se.differentiate(comps.get(rest, ZERO), chart.coords[key[a]]),
        )
        for key in itertools.combinations(range(chart.dim), theta.degree + 1)
    }
    return PForm(chart, theta.degree + 1, out)


class LinearMap:
    """Endomorphism field: matrix of expressions acting on vector fields.

    entries[k][j] is the dx^k component of the image of d/dx^j.
    """

    __slots__ = ("chart", "entries")

    def __init__(self, chart: Chart, entries: Sequence[Sequence[Expr]]):
        entries = tuple(tuple(se.as_expr(e) for e in row) for row in entries)
        if len(entries) != chart.dim or any(len(row) != chart.dim for row in entries):
            raise GeometryError("endomorphism entries must form a dim x dim matrix")
        self.chart = chart
        self.entries = entries

    def __call__(self, X: VectorField) -> VectorField:
        _same_chart(self, X)
        comps = [
            se.add_all(se.mul(self.entries[k][j], X.comps[j]) for j in range(self.chart.dim))
            for k in range(self.chart.dim)
        ]
        return VectorField(self.chart, comps)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        _same_chart(self, other)
        return LinearMap(
            self.chart,
            [
                [se.add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self + (-other)

    def __neg__(self) -> "LinearMap":
        return LinearMap(self.chart, [[se.neg(e) for e in row] for row in self.entries])


class TensorValuedForm:
    """Antisymmetric multilinear map with tensor values.

    ``arity`` is the number of vector-field arguments; ``rule`` maps that
    many fields to a VectorField, a degree-1 PForm (a covector) or a
    LinearMap, and the type of that value is the form's kind.  The rule is
    expected to be multilinear and alternating; tests probe both.
    """

    __slots__ = ("chart", "arity", "rule")

    def __init__(self, chart: Chart, arity: int, rule: Callable):
        if arity < 0:
            raise GeometryError("arity must be non-negative")
        self.chart = chart
        self.arity = arity
        self.rule = rule

    def __call__(self, *fields: VectorField):
        if len(fields) != self.arity:
            raise GeometryError(f"form of arity {self.arity} called with {len(fields)} arguments")
        if fields:
            _same_chart(self, *fields)
        return shared(self.rule, *fields)


# -- seeded randomness -------------------------------------------------------

def random_point(chart: Chart, rng: random.Random) -> dict[str, float]:
    return {
        name: rng.uniform(lo, hi) for name, (lo, hi) in zip(chart.coords, chart.intervals)
    }


def sample_points(chart: Chart, seed, count: int) -> list[dict[str, float]]:
    """``count`` random points drawn from a generator seeded by ``str(seed)``."""
    rng = random.Random(str(seed))
    return [random_point(chart, rng) for _ in range(count)]


def random_polynomial(chart: Chart, rng: random.Random, degree: int = 2) -> Expr:
    """Sparse polynomial with integer coefficients in [-3, 3].

    Charts flagged ``trig_sampling`` may multiply one monomial by sin or cos
    of a coordinate, so trigonometric cancellations get exercised too.
    """
    terms = []
    n_terms = rng.randint(2, 4)
    for _ in range(n_terms):
        coeff = rng.randint(-3, 3)
        if coeff == 0:
            coeff = 1
        term: Expr = se.Const(coeff)
        for _ in range(rng.randint(0, degree)):
            term = se.mul(term, se.Var(rng.choice(chart.coords)))
        if chart.trig_sampling and rng.random() < 0.4:
            fn = se.sin if rng.random() < 0.5 else se.cos
            term = se.mul(term, fn(se.Var(rng.choice(chart.coords))))
        terms.append(term)
    return se.add_all(terms)


def random_vector_field(chart: Chart, rng: random.Random) -> VectorField:
    return VectorField(chart, [random_polynomial(chart, rng) for _ in range(chart.dim)])


def random_pform(chart: Chart, degree: int, rng: random.Random) -> PForm:
    if degree < 0 or degree > chart.dim:
        raise DegreeError(
            f"cannot sample a degree-{degree} form on a {chart.dim}-dimensional chart"
        )
    comps = {
        key: random_polynomial(chart, rng)
        for key in itertools.combinations(range(chart.dim), degree)
    }
    return PForm(chart, degree, comps)
