"""Signed-sum operators induced by a linear connection.

A linear connection splits the exterior derivative of any form into a
torsion part and a covariant-derivative part.  This module implements the
operator families appearing in those splittings:

* insertion sums that feed torsion or curvature values into the slots of
  an ordinary form (``torsion_form``, ``curvature_form``,
  ``torsion_mixed_form_apply``, ``curvature_three_form_apply``),
* alternating covariant-derivative sums (``xi_form``, ``psi_form_apply``,
  ``connection_form``),
* the tensor-valued wedge pairings the identities use, each evaluated
  directly on its arguments (``wedge_*_apply``): nabla theta ^ T,
  nabla theta ^ R_Z, R_theta ^ nabla Z and R ^ I,
* the exterior covariant derivative on tensor-valued forms
  (``exterior_covariant_derivative``),
* the moving-frame apparatus: connection one-forms plus torsion and
  curvature two-forms of a coframe (``cartan_coframe_forms``).

The alternating sums run through :func:`bianchi.geometry._signed_sum`,
each as the ``term`` of the positions it picks; only the cyclic sums and
the torsion-mixed sum are written out.

A direct evaluator, suffixed ``_apply``, runs its signed sum on arbitrary
vector fields and returns a scalar expression.  A builder returns a
componentwise :class:`~bianchi.geometry.PForm`: the componentwise assembly
of its ``_apply`` sum on the coordinate frame, coefficients kept symbolic;
the connection form has only a builder.  Agreement of the two routes on
non-coordinate fields is exactly the tensoriality of the operator; the
tests probe it on random fields.  Cartan's structure forms are the
builders on a coframe.  The builders keep no cache: inside a
:func:`bianchi.geometry.sharing` table every value they insert is built
once, and outside one every request builds afresh.

Docstring formulas use one-based argument positions, matching the usual
blackboard presentation; the code is zero-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import symexpr as se
from .symexpr import Expr
from .geometry import (
    Chart,
    DegreeError,
    GeometryError,
    PForm,
    TensorValuedForm,
    VectorField,
    _signed_sum,
    lie_bracket,
    sample_points,
    shared,
    sharing,
)
from .connection import (
    Connection,
    covariant_derivative,
    curvature,
    torsion,
)


class StructureFormError(GeometryError):
    pass


class UnsupportedValueKindError(StructureFormError):
    """The exterior covariant derivative only acts on tensor-valued forms."""


class CoFrameError(StructureFormError):
    """A claimed coframe has the wrong shape or failed its duality check."""


# -- signed-sum plumbing ------------------------------------------------------


def _expect_args(fields, count: int) -> None:
    if len(fields) != count:
        raise DegreeError(f"expected {count} vector-field arguments, got {len(fields)}")


def _expect_form_args(theta: PForm, fields, extra: int = 1) -> None:
    """A p-form with p >= 1 and p + ``extra`` argument fields."""
    if theta.degree < 1:
        raise DegreeError(f"operator needs a form of degree >= 1, got {theta.degree}")
    _expect_args(fields, theta.degree + extra)


def _componentwise(chart: Chart, degree: int, value_at) -> PForm:
    """Assemble a PForm by running a defining sum on coordinate frames; above
    top degree there are no components.

    The frame is the chart's one d/dx^i in a sharing table, so the values
    that a sum inserts (nabla_{d/dx^i} Z, T(d/dx^i, d/dx^j), ...) are built
    once there for every component and builder that contains them."""
    frame = shared(Chart.coordinate_frame, chart)
    keys = combinations(range(chart.dim), degree)
    return PForm(chart, degree, {key: value_at([frame[i] for i in key]) for key in keys})


def _rotations(triple):
    a, b, c = triple
    return ((a, b, c), (b, c, a), (c, a, b))


def _cyclic_sum(fields, term):
    """term(X, Y, Z) + term(Y, Z, X) + term(Z, X, Y) over three fields; the
    terms are expressions or vector fields."""
    _expect_args(fields, 3)
    first, second, third = (term(*args) for args in _rotations(tuple(fields)))
    return first + second + third


# -- insertion and covariant-derivative sums -----------------------------------


def _insertion_pair_sum(theta: PForm, fields, insert) -> Expr:
    """sum_{i<j} (-1)^(i+j+1) Theta(insert(X_i, X_j), rest), the torsion
    and curvature sums."""
    _expect_form_args(theta, fields)
    return _signed_sum(
        fields, 2, lambda a, b, rest: theta.apply([insert(fields[a], fields[b]), *rest]), odd=1
    )


def torsion_form_apply(conn: Connection, theta: PForm, fields) -> Expr:
    """Defining sum of the torsion form on arbitrary fields.

    For a p-form Theta and p+1 fields::

        sum_{i<j} (-1)^(i+j+1) Theta(T(X_i, X_j), ..., no X_i, no X_j, ...)

    The inserted torsion value occupies slot 1; the surviving arguments
    keep their original order.
    """
    return _insertion_pair_sum(theta, fields, torsion(conn))


def torsion_form(conn: Connection, theta: PForm) -> PForm:
    """Torsion (p+1)-form of a p-form; degree 1 gives (X, Y) -> theta(T(X, Y))."""
    return _componentwise(
        conn.chart, theta.degree + 1, lambda fs: torsion_form_apply(conn, theta, fs)
    )


def xi_form_apply(conn: Connection, theta: PForm, fields) -> Expr:
    """Alternating covariant-derivative sum on arbitrary fields.

    For a p-form Theta and p+1 fields::

        sum_i (-1)^i (nabla_{X_i} Theta)(..., no X_i, ...)

    Degree 1 reduces to (X, Y) -> nabla_Y theta(X) - nabla_X theta(Y).
    """
    _expect_form_args(theta, fields)
    # one-based (-1)^i: the first position enters negatively
    return _signed_sum(
        fields, 1, lambda a, rest: covariant_derivative(conn, fields[a], theta).apply(rest), odd=1
    )


def xi_form(conn: Connection, theta: PForm) -> PForm:
    """Covariant-derivative (p+1)-form completing d to the torsion form."""
    return _componentwise(conn.chart, theta.degree + 1, lambda fs: xi_form_apply(conn, theta, fs))


def connection_form(conn: Connection, theta: PForm, z: VectorField) -> PForm:
    """Connection p-form of a p-form against a reference field Z: its
    defining sum sum_i (-1)^(i+1) Theta(nabla_{X_i} Z, ..., no X_i, ...)."""

    def value_at(fields):
        _expect_form_args(theta, fields, extra=0)
        return _signed_sum(
            fields,
            1,
            lambda a, rest: theta.apply([covariant_derivative(conn, fields[a], z), *rest]),
        )

    return _componentwise(conn.chart, theta.degree, value_at)


def curvature_form_apply(conn: Connection, theta: PForm, z: VectorField, fields) -> Expr:
    """Defining sum of the curvature form on arbitrary fields.

    For a p-form Theta, a field Z and p+1 fields::

        sum_{i<j} (-1)^(i+j+1) Theta(R(X_i, X_j)Z, ..., no X_i, no X_j, ...)

    Degree 1 reduces to (X, Y) -> theta(R(X, Y)Z).
    """
    curv = curvature(conn)
    return _insertion_pair_sum(theta, fields, lambda x, y: curv.apply_to(x, y, z))


def curvature_form(conn: Connection, theta: PForm, z: VectorField) -> PForm:
    """Curvature (p+1)-form of a p-form against a reference field Z."""
    return _componentwise(
        conn.chart, theta.degree + 1, lambda fs: curvature_form_apply(conn, theta, z, fs)
    )


def psi_form_apply(conn: Connection, theta: PForm, z: VectorField, fields) -> Expr:
    """Double covariant-derivative sum on arbitrary fields.

    For a p-form Theta, a field Z and p+1 fields::

        sum_{i<j} (-1)^(i+j) [ (nabla_{X_i}Theta)(nabla_{X_j}Z, rest)
                             - (nabla_{X_j}Theta)(nabla_{X_i}Z, rest) ]

    Degree 1 reduces to (X, Y) -> nabla_Y theta(nabla_X Z) - nabla_X theta(nabla_Y Z).
    """
    _expect_form_args(theta, fields)

    def paired(x, y, rest):
        """(nabla_x Theta)(nabla_y Z, rest)."""
        return covariant_derivative(conn, x, theta).apply([covariant_derivative(conn, y, z), *rest])

    # one-based (-1)^(i+j): the pair sign, negated
    return _signed_sum(
        fields,
        2,
        lambda a, b, rest: se.neg(
            se.sub(paired(fields[a], fields[b], rest), paired(fields[b], fields[a], rest))
        ),
        odd=1,
    )


def torsion_mixed_form_apply(conn: Connection, theta: PForm, z: VectorField, fields) -> Expr:
    """Torsion-and-derivative insertion sum on arbitrary fields.

    For a p-form Theta and p+1 fields, every increasing triple of
    positions i<j<k contributes (none for a 1-form, whose sum is 0),
    with sign (-1)^(i+j+k), the three cyclic role assignments::

        Theta(T(X_i, X_j), nabla_{X_k} Z, rest)
        Theta(T(X_j, X_k), nabla_{X_i} Z, rest)
        Theta(T(X_k, X_i), nabla_{X_j} Z, rest)

    with the surviving arguments in original order after the two inserts.
    """
    _expect_form_args(theta, fields)
    tor = torsion(conn)
    # not the signed-sum kernel: one flat sum of all the rotation terms, since
    # summing each triple's three first would re-associate it and move residuals
    terms = []
    for key in combinations(range(len(fields)), 3):
        # one-based (-1)^(i+j+k)
        sign = 1 if sum(key) % 2 else -1
        rest = [f for pos, f in enumerate(fields) if pos not in key]
        trio = tuple(fields[pos] for pos in key)
        for xi, xj, xk in _rotations(trio):
            value = theta.apply(
                [tor(xi, xj), covariant_derivative(conn, xk, z)] + rest
            )
            terms.append(value if sign > 0 else se.neg(value))
    return se.add_all(terms)


def curvature_three_form_apply(conn: Connection, theta: PForm, fields) -> Expr:
    """Cyclic sum (X, Y, Z) -> theta(R(X, Y)Z) over three fields."""
    if theta.degree != 1:
        raise DegreeError("the curvature 3-form is defined for 1-forms")
    curv = curvature(conn)
    return _cyclic_sum(fields, lambda x, y, z: theta.apply([curv.apply_to(x, y, z)]))


# -- tensor-valued wedge pairings ----------------------------------------------


def wedge_covector_torsion_apply(conn: Connection, theta: PForm, fields) -> Expr:
    """(nabla theta ^ T)(X, Y, Z) = cyclic sum of nabla_X theta(T(Y, Z))."""
    tor = torsion(conn)
    return _cyclic_sum(
        fields, lambda x, y, z: covariant_derivative(conn, x, theta).apply([tor(y, z)])
    )


def wedge_covector_curvature_apply(
    conn: Connection, theta: PForm, z0: VectorField, fields
) -> Expr:
    """(nabla theta ^ R_Z0)(X, Y, Z) = cyclic sum of nabla_X theta(R(Y, Z)Z0)."""
    curv = curvature(conn)
    return _cyclic_sum(
        fields,
        lambda x, y, z: covariant_derivative(conn, x, theta).apply([curv.apply_to(y, z, z0)]),
    )


def wedge_curvature_three_nabla_apply(
    conn: Connection, theta: PForm, z0: VectorField, fields
) -> Expr:
    """(R_theta ^ nabla Z0)(X, Y, Z) = cyclic sum of theta(R(Y, Z) nabla_X Z0)."""
    curv = curvature(conn)
    return _cyclic_sum(
        fields,
        lambda x, y, z: theta.apply([curv.apply_to(y, z, covariant_derivative(conn, x, z0))]),
    )


def wedge_curvature_identity_apply(conn: Connection, fields) -> VectorField:
    """(R ^ I)(X, Y, Z) = cyclic sum of R(X, Y)Z, a vector value."""
    return _cyclic_sum(fields, curvature(conn).apply_to)


# -- exterior covariant derivative ---------------------------------------------


def covariant_differential(conn: Connection, z: VectorField) -> TensorValuedForm:
    """The vector-valued 1-form X -> nabla_X Z."""
    return TensorValuedForm(conn.chart, 1, lambda x: covariant_derivative(conn, x, z))


def soldering_form(chart: Chart) -> TensorValuedForm:
    """The identity as a vector-valued 1-form, X -> X."""
    return TensorValuedForm(chart, 1, lambda x: x)


def exterior_covariant_derivative(conn: Connection, target) -> TensorValuedForm:
    """Exterior covariant derivative of a tensor-valued form.

    On a vector-, covector- or endomorphism-valued k-form, with zero-based
    positions::

        sum_i (-1)^i nabla_{X_i}(A(..., no X_i, ...))
        + sum_{i<j} (-1)^(i+j) A([X_i, X_j], ..., no X_i, no X_j, ...)

    nabla acts on each value by its type, so d^nabla of the covector-valued
    form X -> nabla_X theta is theta's curvature: (X, Y) -> -theta(R(X, Y) .).
    """
    if not isinstance(target, TensorValuedForm):
        raise UnsupportedValueKindError(
            f"cannot take the exterior covariant derivative of {type(target).__name__}"
        )
    # arity dim + 1 is allowed, mirroring d on top-degree forms: the
    # alternating-sum rule still evaluates and cancels pointwise
    if target.arity > conn.chart.dim:
        raise DegreeError("exterior covariant derivative would exceed top arity")

    def rule(*fields):
        derivatives = _signed_sum(
            fields, 1, lambda a, rest: covariant_derivative(conn, fields[a], target(*rest))
        )
        return _signed_sum(
            fields,
            2,
            lambda a, b, rest: target(lie_bracket(fields[a], fields[b]), *rest),
            start=derivatives,
        )

    return TensorValuedForm(conn.chart, target.arity + 1, rule)


# -- coframes and their structure forms ----------------------------------------


class CoFrame:
    """A frame of vector fields with its dual coframe of 1-forms.

    Duality is a pointwise claim, checked once when the coframe is built,
    numerically at 8 seeded points rather than symbolically: a residual
    above 1e-10, or NaN, raises :class:`CoFrameError`.
    """

    __slots__ = ("chart", "frame", "coframe")

    def __init__(self, chart: Chart, frame, coframe):
        frame = tuple(frame)
        coframe = tuple(coframe)
        if len(frame) != chart.dim or len(coframe) != chart.dim:
            raise CoFrameError(
                f"need {chart.dim} frame fields and {chart.dim} coframe forms"
            )
        for field in frame:
            if field.chart is not chart:
                raise CoFrameError("frame field lives on a different chart")
        for form in coframe:
            if form.chart is not chart or form.degree != 1:
                raise CoFrameError("coframe entries must be 1-forms on the same chart")
        pairs = (
            (None, theta.apply([u]), 1 if a == b else 0)
            for a, theta in enumerate(coframe)
            for b, u in enumerate(frame)
        )
        worst = se.worst_residual(pairs, sample_points(chart, "coframe-duality/0", 8))[0]
        if not worst <= 1e-10:
            raise CoFrameError(f"coframe duality violated: residual {worst:.3e} > 1.0e-10")
        self.chart = chart
        self.frame = frame
        self.coframe = coframe

    @staticmethod
    def coordinate(chart: Chart) -> "CoFrame":
        return CoFrame(
            chart,
            chart.coordinate_frame(),
            tuple(chart.basis_covector(i) for i in range(chart.dim)),
        )


@dataclass(frozen=True)
class CartanForms:
    """Connection 1-forms, torsion 2-forms and curvature 2-forms of a coframe.

    ``connection_one_forms[a][b]`` is the 1-form V -> theta^a(nabla_V U_b);
    ``torsion_two_forms[a]`` is (X, Y) -> theta^a(T(X, Y));
    ``curvature_two_forms[a][b]`` is (X, Y) -> theta^a(R(X, Y)U_b).
    """

    coframe: CoFrame
    connection_one_forms: tuple
    torsion_two_forms: tuple
    curvature_two_forms: tuple


def cartan_coframe_forms(conn: Connection, coframe: CoFrame) -> CartanForms:
    """Build the classical structure forms of a coframe.

    They are the connection, torsion and curvature forms of the coframe's
    1-forms theta^a against its frame fields U_b; the coframe checked its
    duality when it was built.  The builders run in one sharing table, so
    nabla_{d/dx^i} U_b, T(d/dx^i, d/dx^j) and R(d/dx^i, d/dx^j) U_b are
    built once each and inserted into every theta^a.

    The forms are kept on ``conn``: a later call with the same coframe
    object returns them, and a call with another coframe builds that
    coframe's forms and keeps those instead.
    """
    if coframe.chart is not conn.chart:
        raise CoFrameError("coframe lives on a different chart than the connection")
    if conn._cartan is not None and conn._cartan.coframe is coframe:
        return conn._cartan

    thetas, frame = coframe.coframe, coframe.frame
    with sharing({}):
        conn._cartan = CartanForms(
            coframe=coframe,
            connection_one_forms=tuple(
                tuple(connection_form(conn, t, u) for u in frame) for t in thetas
            ),
            torsion_two_forms=tuple(torsion_form(conn, t) for t in thetas),
            curvature_two_forms=tuple(
                tuple(curvature_form(conn, t, u) for u in frame) for t in thetas
            ),
        )
    return conn._cartan
