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

nabla_X acts as X plus the connection matrix omega(X)^k_j = X^i Gamma^k_{ij}
on vector and endomorphism components; a tensor-valued form builds
omega(X) once for its whole rule.
Torsion and curvature are 2-forms: components are computed for i < j only
([j][i] is their negation, the diagonal zero) and paired with
(X wedge Y)^{ij} = X^i Y^j - X^j Y^i.  The tests pit them against the
defining vector-field formulas with Lie brackets.  :func:`torsion` and
:func:`curvature` build them once per connection and keep them on it;
:func:`bianchi.structure_forms.cartan_coframe_forms` keeps the Cartan forms
of the last coframe it was given the same way.

Inside a :func:`bianchi.geometry.sharing` scope (one sampled tuple of
all the checks of a case) each omega(X), nabla_X Y of a vector field,
nabla_X theta and nabla_{d/dx^i} theta of a form, R(X, Y)Z and wedge
entry (X wedge Y)^{ij} is built once per connection and arguments, and
so, through the tensor-valued form call, is each T(X, Y) and R(X, Y); the
wedge entries are the ones that 2-forms pair with in
:meth:`bianchi.geometry.PForm.apply`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from . import symexpr as se
from .symexpr import Expr, ZERO
from .geometry import (
    Chart,
    GeometryError,
    LinearMap,
    PForm,
    TensorValuedForm,
    VectorField,
    _Minors,
    _same_chart,
    apply_vector_field,
    sample_points,
    shared,
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
    "Curvature",
    "curvature",
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
    and :func:`curvature` keep their result on the connection, and
    :func:`bianchi.structure_forms.cartan_coframe_forms` its forms for one
    coframe.  :meth:`perturbed` returns a new connection, which builds its
    own.
    """

    __slots__ = ("chart", "gamma", "_torsion", "_curvature", "_cartan")

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
        self._cartan = None

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
        gamma = [[list(row) for row in plane] for plane in self.gamma]
        gamma[k][i][j] = se.add(gamma[k][i][j], se.as_expr(delta))
        return Connection(self.chart, gamma)


def _connection_matrix(conn: Connection, X: VectorField) -> list[list[Expr]]:
    """omega(X)^k_j = X^i Gamma^k_{ij} at ``[k][j]``: nabla_X d/dx^j =
    omega(X)^k_j d/dx^k."""
    n = conn.chart.dim
    gamma = conn.gamma
    return [
        [
            se.add_all(
                se.mul(X.comps[i], gamma[k][i][j])
                for i in range(n)
                if not se._is_zero(gamma[k][i][j])
            )
            for j in range(n)
        ]
        for k in range(n)
    ]


def covariant_derivative(conn: Connection, X: VectorField, target):
    """nabla_X applied to a scalar, vector field, p-form, endomorphism field
    or tensor-valued form.  The directional slot is tensorial; values follow
    the Leibniz rule through every argument slot.
    """
    _same_chart(conn, X)
    return _covariant(conn, X, None, target)


def _covariant(conn: Connection, X: VectorField, omega, target):
    """nabla_X ``target``, with ``omega`` = omega(X) or None to build it."""
    if isinstance(target, Expr):
        return apply_vector_field(X, target)
    if isinstance(target, PForm):
        return shared(_cov_pform, conn, X, target)
    if not isinstance(target, (VectorField, LinearMap, TensorValuedForm)):
        raise TypeError(f"cannot covariantly differentiate {type(target).__name__}")
    _same_chart(conn, target)
    if omega is None:
        omega = shared(_connection_matrix, conn, X)
    if isinstance(target, VectorField):
        # omega is the one omega(X) of conn in a sharing scope, so it
        # stands for the connection in the key
        return shared(_cov_vector, X, omega, target)
    if isinstance(target, LinearMap):
        return _cov_endo(X, omega, target)
    return _cov_tensor_valued(conn, X, omega, target)


def _cov_vector(X: VectorField, omega, Y: VectorField) -> VectorField:
    """(nabla_X Y)^k = X(Y^k) + omega^k_j Y^j."""
    n = Y.chart.dim
    comps = [
        se.add(
            apply_vector_field(X, Y.comps[k]),
            se.add_all(se.mul(omega[k][j], Y.comps[j]) for j in range(n)),
        )
        for k in range(n)
    ]
    return VectorField(Y.chart, comps)


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
                if se._is_zero(gamma):
                    continue
                replaced = key[:slot] + (m,) + key[slot + 1 :]
                total = se.sub(total, se.mul(gamma, theta.component(replaced)))
        out[key] = total
    return out


def _cov_pform(conn: Connection, X: VectorField, theta: PForm) -> PForm:
    _same_chart(conn, theta)
    n = conn.chart.dim
    # an axis along which X^i is the constant 0 adds nothing
    partials = {
        i: shared(_cov_pform_along_axis, conn, i, theta)
        for i in range(n)
        if not se._is_zero(X.comps[i])
    }
    out: dict[tuple[int, ...], Expr] = {}
    for key in itertools.combinations(range(n), theta.degree):
        out[key] = se.add_all(se.mul(X.comps[i], partial[key]) for i, partial in partials.items())
    return PForm(conn.chart, theta.degree, out)


def _cov_endo(X: VectorField, omega, E: LinearMap) -> LinearMap:
    """(nabla_X E)^k_j = X(E^k_j) + omega^k_m E^m_j - E^k_m omega^m_j."""
    n = E.chart.dim
    e = E.entries
    return LinearMap(
        E.chart,
        [
            [
                se.add(
                    apply_vector_field(X, e[k][j]),
                    se.add_all(
                        se.sub(se.mul(omega[k][m], e[m][j]), se.mul(e[k][m], omega[m][j]))
                        for m in range(n)
                    ),
                )
                for j in range(n)
            ]
            for k in range(n)
        ],
    )


def _cov_tensor_valued(
    conn: Connection, X: VectorField, omega, A: TensorValuedForm
) -> TensorValuedForm:
    def rule(*fields: VectorField):
        out = _covariant(conn, X, omega, A(*fields))
        for slot in range(A.arity):
            shifted = list(fields)
            shifted[slot] = shared(_cov_vector, X, omega, fields[slot])
            out = out - A(*shifted)
        return out

    return TensorValuedForm(conn.chart, A.arity, rule)


# -- torsion and curvature -------------------------------------------------------


def _antisymmetric(n: int, upper) -> list[list[Expr]]:
    """n x n block: ``upper(i, j)`` at i < j, its negation at [j][i], 0 on
    the diagonal."""
    block = [[ZERO] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        block[i][j] = upper(i, j)
        block[j][i] = se.neg(block[i][j])
    return block


def _live_pairs(n: int, blocks) -> list[tuple[int, int]]:
    """The pairs i < j at which some block is not the constant 0."""
    return [
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if any(not se._is_zero(block[i][j]) for block in blocks)
    ]


def _pair(block, wedge, pairs) -> Expr:
    """sum over the pairs i < j of block[i][j] (X wedge Y)^{ij}, where
    ``wedge`` is the shared :class:`~bianchi.geometry._Minors` of the
    components of X, Y."""
    return se.add_all(
        se.mul(block[i][j], wedge[i, j]) for i, j in pairs if not se._is_zero(block[i][j])
    )


class Torsion(TensorValuedForm):
    """Vector-valued torsion 2-form; ``components[k][i][j]`` is
    T^k_{ij} = Gamma^k_{ij} - Gamma^k_{ji}, computed for i < j only and
    paired with (X wedge Y)^{ij}."""

    __slots__ = ("components",)

    def __init__(self, conn: Connection):
        chart = conn.chart
        n = chart.dim
        gamma = conn.gamma
        comps = [
            _antisymmetric(n, lambda i, j: se.sub(gamma[k][i][j], gamma[k][j][i]))
            for k in range(n)
        ]
        pairs = _live_pairs(n, comps)

        def rule(X: VectorField, Y: VectorField) -> VectorField:
            wedge = shared(_Minors, X.comps, Y.comps)
            return VectorField(chart, [_pair(comps[k], wedge, pairs) for k in range(n)])

        super().__init__(chart, 2, rule)
        self.components = comps


def torsion(conn: Connection) -> Torsion:
    """The torsion of ``conn``, built at the first call and kept on it."""
    if conn._torsion is None:
        conn._torsion = Torsion(conn)
    return conn._torsion


class Curvature(TensorValuedForm):
    """Endomorphism-valued curvature 2-form; ``components[l][k][i][j]`` is
    R^l_{kij}, computed for i < j only and paired with (X wedge Y)^{ij}."""

    __slots__ = ("components",)

    def __init__(self, conn: Connection):
        chart = conn.chart
        n = chart.dim
        coords = chart.coords
        gamma = conn.gamma

        def component(l: int, k: int, i: int, j: int) -> Expr:
            term = se.sub(
                se.differentiate(gamma[l][j][k], coords[i]),
                se.differentiate(gamma[l][i][k], coords[j]),
            )
            return se.add(
                term,
                se.add_all(
                    se.sub(
                        se.mul(gamma[l][i][m], gamma[m][j][k]),
                        se.mul(gamma[l][j][m], gamma[m][i][k]),
                    )
                    for m in range(n)
                ),
            )

        comps = [
            [_antisymmetric(n, lambda i, j: component(l, k, i, j)) for k in range(n)]
            for l in range(n)
        ]
        pairs = _live_pairs(n, [block for row in comps for block in row])

        def rule(X: VectorField, Y: VectorField) -> LinearMap:
            wedge = shared(_Minors, X.comps, Y.comps)
            return LinearMap(chart, [[_pair(block, wedge, pairs) for block in row] for row in comps])

        super().__init__(chart, 2, rule)
        self.components = comps

    def apply_to(self, X: VectorField, Y: VectorField, Z: VectorField) -> VectorField:
        return shared(LinearMap.__call__, self(X, Y), Z)


def curvature(conn: Connection) -> Curvature:
    """The curvature of ``conn``, built at the first call and kept on it."""
    if conn._curvature is None:
        conn._curvature = Curvature(conn)
    return conn._curvature


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
            if not se._is_zero(self.g[i][j])
        )


def levi_civita(metric: Metric) -> Connection:
    """Torsion-free metric-compatible connection:

        Gamma^k_{ij} = (1/2) g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij}).

    The metric determinant is probed at 5 seeded sample points; a
    (near-)singular or NaN value raises :class:`SingularMetricError`.
    """
    chart = metric.chart
    n = chart.dim
    det = _Minors(*metric.g)[tuple(range(n))]
    for pt in sample_points(chart, "levi-civita/0", 5):
        value = se.evaluate(det, pt)
        if not abs(value) >= 1e-12:
            raise SingularMetricError(f"metric determinant is {value:.3e} near {pt}")
    inv = symbolic_inverse(metric.g)
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
