"""Linear connections in coordinates: covariant derivatives, torsion, curvature.

Conventions (fixed across the package):

* Christoffel symbols:  nabla_{d/dx^i} d/dx^j = Gamma^k_{ij} d/dx^k.
* Torsion:              T(X, Y) = nabla_X Y - nabla_Y X - [X, Y].
* Curvature:            R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
                                   - nabla_{[X,Y]} Z.
* Coordinate curvature: R^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
                                   + Gamma^l_{im} Gamma^m_{jk}
                                   - Gamma^l_{jm} Gamma^m_{ik},
  so that R(d_i, d_j) d_k = R^l_{kij} d_l.

Torsion and curvature are exposed twice: through precomputed coordinate
components (production path) and through the defining vector-field formulas
with genuine Lie brackets (oracle path).  Tests pit one against the other on
non-commuting argument fields.  The component objects are built once per
connection: :func:`torsion` and :func:`curvature` store them on the
connection at the first call and return the stored object afterwards.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Sequence

from . import symexpr as se
from .symexpr import Expr, ZERO
from .geometry import (
    Chart,
    ChartMismatchError,
    GeometryError,
    LinearMap,
    PForm,
    TensorValuedForm,
    VectorField,
    _symbolic_det,
    apply_vector_field,
    lie_bracket,
    random_point,
    symbolic_inverse,
)

__all__ = [
    "ConnectionError",
    "Torsion",
    "SingularMetricError",
    "Connection",
    "Metric",
    "covariant_derivative",
    "torsion",
    "torsion_via_definition",
    "Curvature",
    "curvature",
    "curvature_via_definition",
    "levi_civita",
]


class ConnectionError(GeometryError):
    pass


class SingularMetricError(ConnectionError):
    pass


class Connection:
    """Connection given by Christoffel symbols on a chart.

    ``gamma[k][i][j]`` holds Gamma^k_{ij}; access through
    :meth:`christoffel` to keep index roles straight.  The symbols are
    never changed after construction, which is what lets :func:`torsion`
    and :func:`curvature` keep their result on the connection.
    """

    __slots__ = ("chart", "gamma", "_torsion", "_curvature")

    def __init__(self, chart: Chart, gamma: Sequence[Sequence[Sequence[Expr]]]):
        n = chart.dim
        gamma = tuple(
            tuple(tuple(se.as_expr(gamma[k][i][j]) for j in range(n)) for i in range(n))
            for k in range(n)
        )
        self.chart = chart
        self.gamma = gamma
        self._torsion = None
        self._curvature = None

    @staticmethod
    def zero(chart: Chart) -> "Connection":
        n = chart.dim
        return Connection(chart, [[[ZERO] * n for _ in range(n)] for _ in range(n)])

    @staticmethod
    def from_nonzero(chart: Chart, entries: dict[tuple[int, int, int], Expr | int]) -> "Connection":
        """Build from a sparse {(k, i, j): Gamma^k_{ij}} table."""
        n = chart.dim
        gamma = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for (k, i, j), value in entries.items():
            gamma[k][i][j] = se.as_expr(value)
        return Connection(chart, gamma)

    def christoffel(self, k: int, i: int, j: int) -> Expr:
        return self.gamma[k][i][j]

    def perturbed(self, k: int, i: int, j: int, delta) -> "Connection":
        """Copy with Gamma^k_{ij} shifted by ``delta`` (mutation probes)."""
        n = self.chart.dim
        gamma = [[list(row) for row in plane] for plane in self.gamma]
        gamma[k][i][j] = se.add(gamma[k][i][j], se.as_expr(delta))
        return Connection(self.chart, gamma)


def _require_chart(conn: Connection, obj):
    if obj.chart != conn.chart:
        raise ChartMismatchError("connection and object live on different charts")


def covariant_derivative(conn: Connection, X: VectorField, target):
    """nabla_X applied to a scalar, vector field, p-form, endomorphism field
    or tensor-valued form.  The directional slot is tensorial; values follow
    the Leibniz rule through every argument slot.
    """
    _require_chart(conn, X)
    if isinstance(target, Expr):
        return apply_vector_field(X, target)
    if isinstance(target, VectorField):
        return _cov_vector(conn, X, target)
    if isinstance(target, PForm):
        return _cov_pform(conn, X, target)
    if isinstance(target, LinearMap):
        return _cov_endo(conn, X, target)
    if isinstance(target, TensorValuedForm):
        return _cov_tensor_valued(conn, X, target)
    raise TypeError(f"cannot covariantly differentiate {type(target).__name__}")


def _cov_vector(conn: Connection, X: VectorField, Y: VectorField) -> VectorField:
    _require_chart(conn, Y)
    n = conn.chart.dim
    coords = conn.chart.coords
    comps = []
    for k in range(n):
        term = apply_vector_field(X, Y.comps[k])
        correction = se.add_all(
            se.mul(X.comps[i], se.mul(conn.gamma[k][i][j], Y.comps[j]))
            for i in range(n)
            for j in range(n)
        )
        comps.append(se.add(term, correction))
    return VectorField(conn.chart, comps)


def _cov_pform_along_axis(conn: Connection, i: int, theta: PForm) -> dict[tuple[int, ...], Expr]:
    """Components of nabla_{d/dx^i} theta."""
    n = conn.chart.dim
    coords = conn.chart.coords
    out: dict[tuple[int, ...], Expr] = {}
    for key in itertools.combinations(range(n), theta.degree):
        total = se.differentiate(theta.comps.get(key, ZERO), coords[i])
        for slot in range(theta.degree):
            for m in range(n):
                gamma = conn.gamma[m][i][key[slot]]
                if se._is_const(gamma, 0):
                    continue
                replaced = key[:slot] + (m,) + key[slot + 1 :]
                total = se.sub(total, se.mul(gamma, theta.component(replaced)))
        out[key] = total
    return out


def _cov_pform(conn: Connection, X: VectorField, theta: PForm) -> PForm:
    _require_chart(conn, theta)
    if theta.degree > conn.chart.dim:
        return PForm(conn.chart, theta.degree, {})
    n = conn.chart.dim
    partials = [_cov_pform_along_axis(conn, i, theta) for i in range(n)]
    out: dict[tuple[int, ...], Expr] = {}
    for key in itertools.combinations(range(n), theta.degree):
        out[key] = se.add_all(se.mul(X.comps[i], partials[i][key]) for i in range(n))
    return PForm(conn.chart, theta.degree, out)


def _cov_endo(conn: Connection, X: VectorField, E: LinearMap) -> LinearMap:
    """(nabla_X E)(W) = nabla_X(E(W)) - E(nabla_X W), done on components."""
    _require_chart(conn, E)
    n = conn.chart.dim
    entries = [[ZERO] * n for _ in range(n)]
    for k in range(n):
        for j in range(n):
            term = apply_vector_field(X, E.entries[k][j])
            for i in range(n):
                for m in range(n):
                    term = se.add(
                        term, se.mul(X.comps[i], se.mul(conn.gamma[k][i][m], E.entries[m][j]))
                    )
                    term = se.sub(
                        term, se.mul(X.comps[i], se.mul(conn.gamma[m][i][j], E.entries[k][m]))
                    )
            entries[k][j] = term
    return LinearMap(conn.chart, entries)


def _cov_tensor_valued(conn: Connection, X: VectorField, A: TensorValuedForm) -> TensorValuedForm:
    def rule(*fields: VectorField):
        value = A(*fields)
        out = covariant_derivative(conn, X, value)
        for slot in range(A.arity):
            shifted = list(fields)
            shifted[slot] = _cov_vector(conn, X, fields[slot])
            out = out - A(*shifted)
        return out

    return TensorValuedForm(conn.chart, A.kind, A.arity, rule)


# -- torsion -----------------------------------------------------------------

class Torsion(TensorValuedForm):
    """Vector-valued torsion 2-form from components
    T^k_{ij} = Gamma^k_{ij} - Gamma^k_{ji}."""

    __slots__ = ("components",)

    def __init__(self, conn: Connection):
        chart = conn.chart
        n = chart.dim
        comps = [
            [[se.sub(conn.gamma[k][i][j], conn.gamma[k][j][i]) for j in range(n)] for i in range(n)]
            for k in range(n)
        ]

        def rule(X: VectorField, Y: VectorField) -> VectorField:
            out = [
                se.add_all(
                    se.mul(comps[k][i][j], se.mul(X.comps[i], Y.comps[j]))
                    for i in range(n)
                    for j in range(n)
                    if not se._is_const(comps[k][i][j], 0)
                )
                for k in range(n)
            ]
            return VectorField(chart, out)

        super().__init__(chart, "vector", 2, rule)
        self.components = comps


def torsion(conn: Connection) -> Torsion:
    """The torsion of ``conn``, built at the first call and kept on it."""
    if conn._torsion is None:
        conn._torsion = Torsion(conn)
    return conn._torsion


def torsion_via_definition(conn: Connection, X: VectorField, Y: VectorField) -> VectorField:
    """T(X, Y) = nabla_X Y - nabla_Y X - [X, Y]; bracket included.  Oracle
    for :func:`torsion` on non-commuting fields."""
    return _cov_vector(conn, X, Y) - _cov_vector(conn, Y, X) - lie_bracket(X, Y)


# -- curvature ----------------------------------------------------------------

class Curvature(TensorValuedForm):
    """Endomorphism-valued curvature 2-form with precomputed components.

    ``components[l][k][i][j]`` is R^l_{kij}.
    """

    __slots__ = ("components",)

    def __init__(self, conn: Connection):
        chart = conn.chart
        n = chart.dim
        coords = chart.coords
        comps = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for l in range(n):
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        term = se.sub(
                            se.differentiate(conn.gamma[l][j][k], coords[i]),
                            se.differentiate(conn.gamma[l][i][k], coords[j]),
                        )
                        term = se.add(
                            term,
                            se.add_all(
                                se.sub(
                                    se.mul(conn.gamma[l][i][m], conn.gamma[m][j][k]),
                                    se.mul(conn.gamma[l][j][m], conn.gamma[m][i][k]),
                                )
                                for m in range(n)
                            ),
                        )
                        comps[l][k][i][j] = term

        def rule(X: VectorField, Y: VectorField) -> LinearMap:
            entries = [
                [
                    se.add_all(
                        se.mul(comps[l][k][i][j], se.mul(X.comps[i], Y.comps[j]))
                        for i in range(n)
                        for j in range(n)
                        if not se._is_const(comps[l][k][i][j], 0)
                    )
                    for k in range(n)
                ]
                for l in range(n)
            ]
            return LinearMap(chart, entries)

        super().__init__(chart, "endomorphism", 2, rule)
        self.components = comps

    def apply_to(self, X: VectorField, Y: VectorField, Z: VectorField) -> VectorField:
        return self(X, Y)(Z)


def curvature(conn: Connection) -> Curvature:
    """The curvature of ``conn``, built at the first call and kept on it."""
    if conn._curvature is None:
        conn._curvature = Curvature(conn)
    return conn._curvature


def curvature_via_definition(
    conn: Connection, X: VectorField, Y: VectorField, Z: VectorField
) -> VectorField:
    """R(X, Y)Z straight from the definition, bracket term included.  Oracle
    for the component path on non-commuting fields."""
    first = _cov_vector(conn, X, _cov_vector(conn, Y, Z))
    second = _cov_vector(conn, Y, _cov_vector(conn, X, Z))
    third = _cov_vector(conn, lie_bracket(X, Y), Z)
    return first - second - third


# -- metrics and Levi-Civita ---------------------------------------------------

class Metric:
    """Symmetric metric tensor with symbolic entries g[i][j]."""

    __slots__ = ("chart", "g")

    def __init__(self, chart: Chart, g: Sequence[Sequence[Expr]]):
        n = chart.dim
        g = tuple(tuple(se.as_expr(g[i][j]) for j in range(n)) for i in range(n))
        self.chart = chart
        self.g = g

    @staticmethod
    def from_nonzero(chart: Chart, entries: dict[tuple[int, int], Expr | int]) -> "Metric":
        """Sparse symmetric build: give each pair once, either order."""
        n = chart.dim
        g = [[ZERO] * n for _ in range(n)]
        for (i, j), value in entries.items():
            g[i][j] = se.as_expr(value)
            if i != j:
                g[j][i] = se.as_expr(value)
        return Metric(chart, g)

    def value(self, X: VectorField, Y: VectorField) -> Expr:
        n = self.chart.dim
        return se.add_all(
            se.mul(self.g[i][j], se.mul(X.comps[i], Y.comps[j]))
            for i in range(n)
            for j in range(n)
            if not se._is_const(self.g[i][j], 0)
        )

    def determinant(self) -> Expr:
        return _symbolic_det([list(row) for row in self.g])

    def inverse(self) -> tuple[tuple[Expr, ...], ...]:
        """Symbolic inverse by adjugate over determinant."""
        return tuple(tuple(row) for row in symbolic_inverse(self.g))


def levi_civita(metric: Metric) -> Connection:
    """Torsion-free metric-compatible connection:

        Gamma^k_{ij} = (1/2) g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij}).

    The metric determinant is probed at 5 seeded sample points; a
    (near-)singular or NaN value raises :class:`SingularMetricError`.
    """
    chart = metric.chart
    n = chart.dim
    det = metric.determinant()
    rng = random.Random(0)
    for _ in range(5):
        pt = random_point(chart, rng)
        value = se.evaluate(det, pt)
        if not abs(value) >= 1e-12:
            raise SingularMetricError(f"metric determinant is {value:.3e} near {pt}")
    inv = metric.inverse()
    coords = chart.coords
    half = se.Const(Fraction(1, 2))
    gamma = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                total = ZERO
                for l in range(n):
                    bracket = se.add(
                        se.differentiate(metric.g[j][l], coords[i]),
                        se.differentiate(metric.g[i][l], coords[j]),
                    )
                    bracket = se.sub(bracket, se.differentiate(metric.g[i][j], coords[l]))
                    total = se.add(total, se.mul(inv[k][l], bracket))
                gamma[k][i][j] = se.mul(half, total)
    return Connection(chart, gamma)
