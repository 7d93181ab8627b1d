"""Independent reference implementations and shared helpers of the tests.

The oracles evaluate torsion, curvature, the exterior derivative and the
curvature 3-form straight from their defining vector-field formulas, Lie
brackets included.  The package computes the same objects another way
(coordinate components, componentwise builders), so agreement on
non-commuting fields checks both.
"""

import gc
import itertools
import math
import random
import types
from contextlib import contextmanager

import pytest

from bianchi import connection as con
from bianchi import gallery
from bianchi import geometry as geo
from bianchi import symexpr as se

R3, R4, SPHERE = gallery.R3, gallery.R4, gallery.SPHERE


# -- oracles -------------------------------------------------------------------


def torsion_via_definition(conn, X, Y):
    """T(X, Y) = nabla_X Y - nabla_Y X - [X, Y]; bracket included.  Oracle
    for :func:`bianchi.connection.torsion` on non-commuting fields."""
    nabla = con.covariant_derivative
    return nabla(conn, X, Y) - nabla(conn, Y, X) - geo.lie_bracket(X, Y)


def curvature_via_definition(conn, X, Y, Z):
    """R(X, Y)Z straight from the definition, bracket term included.  Oracle
    for the component path on non-commuting fields."""
    nabla = con.covariant_derivative
    first = nabla(conn, X, nabla(conn, Y, Z))
    second = nabla(conn, Y, nabla(conn, X, Z))
    third = nabla(conn, geo.lie_bracket(X, Y), Z)
    return first - second - third


def covariant_vector_via_christoffels(conn, X, Y):
    """(nabla_X Y)^k = X(Y^k) + sum_ij X^i Gamma^k_ij Y^j, the triple sum
    over the symbols.  Oracle for the connection-matrix path of
    :func:`bianchi.connection.covariant_derivative`."""
    n = conn.chart.dim
    comps = [
        se.add(
            geo.apply_vector_field(X, Y.comps[k]),
            se.add_all(
                se.mul(X.comps[i], se.mul(conn.christoffel(k, i, j), Y.comps[j]))
                for i in range(n)
                for j in range(n)
            ),
        )
        for k in range(n)
    ]
    return geo.VectorField(conn.chart, comps)


def covariant_endomorphism_via_leibniz(conn, X, E, W):
    """(nabla_X E)(W) = nabla_X(E(W)) - E(nabla_X W), both derivatives by
    :func:`covariant_vector_via_christoffels`."""
    nabla = covariant_vector_via_christoffels
    return nabla(conn, X, E(W)) - E(nabla(conn, X, W))


def connection_form_via_definition(conn, theta, Z, fields):
    """sum_i (-1)^(i+1) Theta(nabla_{X_i} Z, ..., no X_i, ...) on p fields;
    degree 1 reduces to X -> theta(nabla_X Z).  Oracle for the componentwise
    :func:`bianchi.structure_forms.connection_form` on non-coordinate
    fields."""
    total = se.ZERO
    for i, x in enumerate(fields):
        rest = [f for a, f in enumerate(fields) if a != i]
        term = theta.apply([con.covariant_derivative(conn, x, Z)] + rest)
        total = se.add(total, term if i % 2 == 0 else se.neg(term))
    return total


def exterior_derivative_intrinsic_expr(theta, fields):
    """Alternating-sum exterior derivative evaluated on p + 1 vector fields.

    d theta(X_1 .. X_{p+1}) =
        sum_i (-1)^{i+1} X_i(theta(.. X_i-hat ..))
      + sum_{i<j} (-1)^{i+j} theta([X_i, X_j], .. X_i-hat .. X_j-hat ..)

    This is an independent oracle for
    :func:`bianchi.geometry.exterior_derivative`; the Lie bracket terms only
    vanish on commuting argument fields.
    """
    p = theta.degree
    if len(fields) != p + 1:
        raise geo.DegreeError(f"need {p + 1} argument fields, got {len(fields)}")
    total = se.ZERO
    for i in range(p + 1):
        others = [f for a, f in enumerate(fields) if a != i]
        inner = theta.apply(others) if p > 0 else theta.comps.get((), se.ZERO)
        term = geo.apply_vector_field(fields[i], inner)
        total = se.add(total, term if i % 2 == 0 else se.neg(term))
    if p > 0:
        for i in range(p + 1):
            for j in range(i + 1, p + 1):
                rest = [f for a, f in enumerate(fields) if a not in (i, j)]
                term = theta.apply([geo.lie_bracket(fields[i], fields[j])] + rest)
                # (-1)^{i+j} with 1-based positions i+1, j+1 gives (-1)^{i+j+2}
                total = se.add(total, term if (i + j) % 2 == 0 else se.neg(term))
    return total


def leibniz_determinant(matrix):
    """det(matrix) as the Leibniz sum of n! signed products, the order of
    the permutations as :func:`itertools.permutations` gives them.  Oracle
    for the Laplace minors of :class:`bianchi.geometry._Minors`."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = se.ZERO
    for perm in itertools.permutations(range(n)):
        sign = geo.sort_with_sign(perm)[1]
        term = se.ONE
        for row, col in enumerate(perm):
            term = se.mul(term, matrix[row][col])
        total = se.add(total, term if sign == 1 else se.neg(term))
    return total


def curvature_three_form_via_iterated_derivatives(conn, theta, fields):
    """Dual route to the curvature 3-form through iterated derivatives.

    Evaluates::

        - sum_cyc [ (nabla_X nabla_Y theta)(Z) - (nabla_Y nabla_X theta)(Z)
                    - (nabla_[X,Y] theta)(Z) ]

    where nabla_X nabla_Y theta means the covariant derivative along X of
    the 1-form nabla_Y theta (an iterated derivative, not the second
    covariant differential).  Kept deliberately independent of
    ``structure_forms.curvature_three_form_apply`` so the two routes can
    cross-check.
    """
    if theta.degree != 1:
        raise geo.DegreeError("the curvature 3-form is defined for 1-forms")
    a, b, c = fields
    nabla = con.covariant_derivative
    terms = []
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        lead = nabla(conn, x, nabla(conn, y, theta)).apply([z])
        swapped = nabla(conn, y, nabla(conn, x, theta)).apply([z])
        bracket = nabla(conn, geo.lie_bracket(x, y), theta).apply([z])
        terms.append(se.neg(se.sub(se.sub(lead, swapped), bracket)))
    return se.add_all(terms)


def evaluate_recursively(e, point) -> float:
    """The float value of ``e`` at ``point`` by plain recursion over the
    tree, with no memo: a shared subtree is evaluated once per path to it.
    Oracle for :func:`bianchi.symexpr.evaluate`, whose walks it shares no
    code with; each node kind is the same IEEE operation, so the two
    agree bit for bit."""
    kind = type(e)
    if kind is se.Const:
        return float(e.value)
    if kind is se.Var:
        return float(point[e.name])
    if kind is se.Pow:
        return evaluate_recursively(e.base, point) ** e.exponent
    if kind in (se.Add, se.Mul, se.Div):
        a, b = evaluate_recursively(e.a, point), evaluate_recursively(e.b, point)
        return a + b if kind is se.Add else a * b if kind is se.Mul else a / b
    arg = evaluate_recursively(e.arg, point)
    if kind is se.Neg:
        return -arg
    return {se.Sin: math.sin, se.Cos: math.cos, se.Exp: math.exp, se.Ln: math.log}[kind](arg)


def field_values(field, point):
    """The components of a vector field at a point, as floats."""
    return [se.evaluate(c, point) for c in field.comps]


def worst_abs(values) -> float:
    """The largest |v| of some floats, 0.0 for none; NaN as soon as one is
    NaN, so that a NaN fails every ``<=`` or ``<`` bound.  Python's ``max``
    is no substitute: it keeps its first element past a later NaN."""
    worst = 0.0
    for value in values:
        value = abs(value)
        if value != value:
            return value
        if value > worst:
            worst = value
    return worst


def field_max_abs(field, points) -> float:
    """:func:`worst_abs` over the components of a vector field at points."""
    return worst_abs(v for point in points for v in field_values(field, point))


# -- shared helpers --------------------------------------------------------------


def same_tree(a, b) -> bool:
    """Whether two expressions are the same tree: the same node kinds with
    the same constants, variable names and exponents in the same places.
    Nodes compare by identity, so this is the structural test.  The walk
    keeps its own stack, so a deep chain is compared without recursion."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        kind = type(a)
        if kind is not type(b):
            return False
        if kind is se.Const:
            if a.value != b.value:
                return False
        elif kind is se.Var:
            if a.name != b.name:
                return False
        elif kind is se.Pow and a.exponent != b.exponent:
            return False
        stack.extend(zip(a.children(), b.children()))
    return True


def reachable(*roots) -> set:
    """The distinct nodes reachable from ``roots``; nodes hash by
    identity, so a shared subtree is counted once."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(node.children())
    return seen


@contextmanager
def collector(enabled: bool):
    """Run a block with Python's cycle collector on or off, then leave it
    as it was found."""
    found = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if found else gc.disable()


@contextmanager
def const_constructions():
    """Count the :class:`bianchi.symexpr.Const` nodes constructed inside a
    ``with`` block: yields a namespace whose ``count`` grows by one per
    constructor call, and restores the constructor when the block ends."""
    counter = types.SimpleNamespace(count=0)
    init = se.Const.__init__

    def counting_init(self, value):
        counter.count += 1
        init(self, value)

    se.Const.__init__ = counting_init
    try:
        yield counter
    finally:
        se.Const.__init__ = init


def sphere_metric():
    """The round metric d phi^2 + sin(phi)^2 d psi^2 on :data:`SPHERE`."""
    phi = se.Var("phi")
    return con.Metric.from_nonzero(SPHERE, {(0, 0): se.ONE, (1, 1): se.power(se.sin(phi), 2)})


def dense_metric_entry(i, j):
    """Entry (i, j), 1-based, of a dense metric on coordinates x1..xn:
    g_ii = 4 + x_i^2 and g_ij = x_i x_j / 10 + 1/(i + j + 3), diagonally
    dominant on [-1, 1]^n for n <= 7, in case-file syntax."""
    return f"4 + x{i}^2" if i == j else f"x{i}*x{j}/10 + 1/{i + j + 3}"


def random_linear_connection(chart, seed):
    """Christoffels: degree <= 1 polynomials with small integer coefficients."""
    rng = random.Random(seed)
    n = chart.dim
    gamma = [
        [[geo.random_polynomial(chart, rng, degree=1) for _ in range(n)] for _ in range(n)]
        for _ in range(n)
    ]
    return con.Connection(chart, gamma)


def sample_points(chart, rng, n=5):
    return [geo.random_point(chart, rng) for _ in range(n)]


def sample_fields(chart, rng, n):
    return [geo.random_vector_field(chart, rng) for _ in range(n)]


def assert_close(lhs, rhs, points, tol=1e-9):
    for pt in points:
        assert se.evaluate(lhs, pt) == pytest.approx(se.evaluate(rhs, pt), abs=tol)
