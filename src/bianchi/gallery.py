"""Concrete geometries for exercising the identity catalog.

Besides flat, torsioned, curved and randomized baseline cases, the gallery
carries the cases of three structured applications: a contact 3-space, two
codimension-one foliations with adapted connections, and the phase space
of a second-order ODE with the Cartan form of its Lagrangian.  Their
structures and derivations live in :mod:`bianchi.applications`, which
:func:`build_case` imports only when it builds one of those cases, so a
run of the baseline cases does not compile it.

Every structural claim a case makes (flatness, torsion-freeness, metric
compatibility, coframe duality, adaptedness, the contact invariants) is
verified numerically when the case is built; violations raise errors naming
the broken property.  The applications' own claims are the
``IdentityCheck`` entries of :data:`CASE_CHECKS`, each with an
applicability predicate; :func:`identity_suite.run_check` runs them like
the catalog checks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import symexpr as se
from . import geometry as geo
from . import connection as con
from . import structure_forms as sf
from .geometry import Chart, GeometryError, PForm, VectorField
from .connection import Connection, Metric
from .identity_suite import CheckConfig, IdentityCheck, Report, _spec_fixed, run_check, sampling
from .symexpr import Expr

if TYPE_CHECKING:
    from .applications import ContactStructure, FoliationStructure, SodeStructure


class GalleryError(GeometryError):
    pass


class UnknownCaseError(GalleryError):
    pass


class CaseValidationError(GalleryError):
    pass


class ContactConditionError(GalleryError):
    pass


class FrameSolveError(GalleryError):
    pass


class SingularLagrangianError(GalleryError):
    pass


@dataclass(frozen=True)
class GeometryCase:
    """A chart plus connection with optional structure and verified flags.

    ``cartan_form`` is the (theta, omega) of
    :func:`bianchi.applications.build_cartan_form` for
    the case's semispray and Lagrangian, built and validated once with the
    case.  ``rhs_connection`` lets a probe drive the two sides of an
    identity with different connections; ``reference_connection`` is what
    right-hand sides should use and defaults to the primary connection.
    """

    id: str
    chart: Chart
    connection: Connection
    description: str
    metric: Metric | None = None
    coframe: sf.CoFrame | None = None
    torsion_free: bool = False
    flat: bool = False
    contact: ContactStructure | None = None
    foliation: FoliationStructure | None = None
    sode: SodeStructure | None = None
    lagrangian: Expr | None = None
    cartan_form: tuple[PForm, PForm] | None = None
    rhs_connection: Connection | None = None

    @property
    def reference_connection(self) -> Connection:
        return self.rhs_connection if self.rhs_connection is not None else self.connection


# -- numeric validation helpers ----------------------------------------------------


# tolerance of every structural claim checked while a case is built
_TOL = 1e-9


def _require_vanishing(exprs, points, message: str, tol: float = _TOL) -> None:
    """Raise :class:`CaseValidationError` unless every expression is within
    ``tol`` of zero at every point (NaN fails); ``message`` is formatted
    with the worst absolute value as ``worst``."""
    worst = se.max_abs(exprs, points)
    if not worst <= tol:
        raise CaseValidationError(message.format(worst=worst))


def _validate_case(case: GeometryCase):
    """Numerically verify every structural flag the case declares, at 8
    seeded points; a coframe checked its duality when it was built."""
    chart = case.chart
    points = geo.sample_points(chart, f"case-validation/{case.id}/0", 8)

    if case.connection.chart is not chart:
        raise CaseValidationError(f"case {case.id}: connection lives on the wrong chart")

    try:
        if case.torsion_free:
            _require_vanishing(
                _torsion_values(case.connection), points,
                "declared torsion-free but torsion residual is {worst:.3e}",
            )
        if case.flat:
            _require_vanishing(
                _curvature_values(case.connection), points,
                "declared flat but curvature residual is {worst:.3e}",
            )
        if case.metric is not None:
            _require_vanishing(
                _metric_compatibility_values(case.connection, case.metric), points,
                "connection is not compatible with the metric (residual {worst:.3e})",
            )
    except CaseValidationError as exc:
        raise CaseValidationError(f"case {case.id}: {exc}") from exc

    if case.foliation is not None:
        from . import applications

        applications._validate_foliation(case.connection, case.foliation, points)


def _torsion_values(conn: Connection):
    basis = conn.chart.coordinate_frame()
    tor = con.torsion(conn)
    return (c for x, y in itertools.combinations(basis, 2) for c in tor(x, y).comps)


def _curvature_values(conn: Connection):
    basis = conn.chart.coordinate_frame()
    curv = con.curvature(conn)
    return (
        c
        for x, y in itertools.combinations(basis, 2)
        for z in basis
        for c in curv.apply_to(x, y, z).comps
    )


def torsion_residual(conn: Connection, points) -> float:
    """Worst torsion component on coordinate pairs; zero iff torsion-free."""
    return se.max_abs(_torsion_values(conn), points)


def curvature_residual(conn: Connection, points) -> float:
    """Worst curvature component on coordinate triples; zero iff flat."""
    return se.max_abs(_curvature_values(conn), points)


def _metric_compatibility_values(conn: Connection, metric: Metric) -> list:
    """(nabla_X g)(Y, Z) over coordinate fields; zero iff metric-compatible."""
    chart = conn.chart
    basis = [chart.basis_field(i) for i in range(chart.dim)]
    exprs = []
    for x in basis:
        nabla = [con.covariant_derivative(conn, x, y) for y in basis]
        for j, y in enumerate(basis):
            for k, z in enumerate(basis[j:], start=j):
                value = geo.apply_vector_field(x, metric.value(y, z))
                value = se.sub(value, metric.value(nabla[j], z))
                value = se.sub(value, metric.value(y, nabla[k]))
                exprs.append(value)
    return exprs


# -- case registry -------------------------------------------------------------------


R3 = Chart("r3", ("x", "y", "z"), ((-1.0, 1.0),) * 3)
R4 = Chart("r4", ("x", "y", "z", "w"), ((-1.0, 1.0),) * 4)
SPHERE = Chart("sphere", ("phi", "psi"), ((0.3, 2.8), (0.1, 6.18)), trig_sampling=True)
OSCILLATOR = Chart("oscillator", ("t", "x", "u"), ((-1.0, 1.0),) * 3)


def _case_flat_euclidean() -> GeometryCase:
    return GeometryCase(
        id="flat_euclidean",
        chart=R3,
        connection=Connection.zero(R3),
        description="Flat 3-space with the zero connection.",
        coframe=sf.CoFrame.coordinate(R3),
        torsion_free=True,
        flat=True,
    )


def _case_flat_with_torsion() -> GeometryCase:
    conn = Connection.from_nonzero(R3, {(2, 0, 1): se.ONE, (2, 1, 0): se.neg(se.ONE)})
    return GeometryCase(
        id="flat_with_torsion",
        chart=R3,
        connection=conn,
        description="Flat connection on 3-space with constant torsion in the third axis.",
        coframe=sf.CoFrame.coordinate(R3),
        torsion_free=False,
        flat=True,
    )


def _sphere_metric() -> Metric:
    phi = se.Var("phi")
    return Metric.from_nonzero(
        SPHERE, {(0, 0): se.ONE, (1, 1): se.power(se.sin(phi), 2)}
    )


def _case_sphere_lc() -> GeometryCase:
    metric = _sphere_metric()
    return GeometryCase(
        id="sphere_lc",
        chart=SPHERE,
        connection=con.levi_civita(metric),
        description="Round 2-sphere in polar angles with its Levi-Civita connection.",
        metric=metric,
        coframe=sf.CoFrame.coordinate(SPHERE),
        torsion_free=True,
        flat=False,
    )


def _random_connection(chart: Chart, seed: int) -> Connection:
    rng = random.Random(f"random-poly/{chart.name}/{seed}")
    gamma = [
        [
            [geo.random_polynomial(chart, rng, degree=1) for _ in range(chart.dim)]
            for _ in range(chart.dim)
        ]
        for _ in range(chart.dim)
    ]
    return Connection(chart, gamma)


def _random_poly(chart: Chart, stem: str):
    """Builder of the random-polynomial case ``stem`` on ``chart``, by seed."""

    def build(seed: int) -> GeometryCase:
        return GeometryCase(
            id=f"{stem}:{seed}" if seed else stem,
            chart=chart,
            connection=_random_connection(chart, seed),
            description=f"Random degree-1 polynomial connection on {chart.dim}-space.",
            coframe=sf.CoFrame.coordinate(chart),
        )

    return build


def _application_case(name: str):
    """Builder of the case ``name`` of :mod:`bianchi.applications`, which it
    imports at its first call."""

    def build(seed):
        from . import applications

        return applications.CASES[name]()

    return build


_BUILDERS = {
    "flat_euclidean": lambda seed: _case_flat_euclidean(),
    "flat_with_torsion": lambda seed: _case_flat_with_torsion(),
    "sphere_lc": lambda seed: _case_sphere_lc(),
    "random_poly": _random_poly(R3, "random_poly"),
    "random_poly4": _random_poly(R4, "random_poly4"),
    **{
        name: _application_case(name)
        for name in ("contact_r3", "foliation_adapted", "foliation_adapted_n4", "sode_oscillator")
    },
}


def case_ids() -> list[str]:
    return sorted(_BUILDERS)


def build_case(case_id: str) -> GeometryCase:
    """Build and numerically validate a gallery case.

    Randomized families accept an explicit seed suffix: ``random_poly:7``.
    """
    name, _, suffix = case_id.partition(":")
    if name not in _BUILDERS:
        raise UnknownCaseError(f"unknown case '{case_id}' (known: {', '.join(case_ids())})")
    seed = 0
    if suffix:
        if name not in ("random_poly", "random_poly4"):
            raise UnknownCaseError(f"case '{name}' does not take a seed suffix")
        try:
            seed = int(suffix)
        except ValueError:
            raise UnknownCaseError(f"seed suffix must be an integer, got '{suffix}'") from None
    case = _BUILDERS[name](seed)
    _validate_case(case)
    return case


# -- case-specific checks ----------------------------------------------------------------
#
# Each application claim is an IdentityCheck: identity_suite.run_check samples
# its points and vectors and scans its (lhs, rhs) pairs like any catalog
# check.  They stay out of identity_suite.CATALOG, so ``verify`` runs them
# only with ``--case-checks``.


def _vanishes(exprs):
    """Builder of the pairs (e, 0) of a claim that takes no sampled fields."""
    pairs = [(e, 0) for e in exprs]
    return lambda vectors, forms: pairs


def _reeb_parallel(case):
    reeb = case.contact.reeb
    return _vanishes(con.covariant_derivative(case.connection, reeb, reeb).comps)


def _reeb_covector_parallel(case):
    contact = case.contact
    derived = con.covariant_derivative(case.connection, contact.reeb, contact.form)
    return _vanishes(derived.comps.values())


def _reeb_connection_form(case):
    contact = case.contact
    form = sf.connection_form(case.connection, contact.form, contact.reeb)
    return _vanishes(form.comps.values())


def _reeb_curvature_form(case):
    contact = case.contact
    form = sf.curvature_form(case.connection, contact.form, contact.reeb)
    return _vanishes(form.comps.values())


def _reeb_contracted_second_bianchi(case):
    # contraction of the curvature-form Bianchi identity with the Reeb field:
    # the differential's Reeb contraction balances the two wedge pairings
    conn, alpha, reeb = case.connection, case.contact.form, case.contact.reeb
    d_curvature = geo.exterior_derivative(sf.curvature_form(conn, alpha, reeb))

    def build(vectors, forms):
        args = [reeb, *vectors]
        rhs = se.add(
            sf.wedge_covector_curvature_apply(conn, alpha, reeb, args),
            sf.wedge_curvature_three_nabla_apply(conn, alpha, reeb, args),
        )
        return [(d_curvature.apply(args), rhs)]

    return build


def _leaf(foliation: FoliationStructure, x: VectorField) -> VectorField:
    """Projection X - theta(X) T of a field onto the leaves."""
    return x - foliation.transverse.scale(foliation.form.apply([x]))


def _restricted_torsion_is_identity_wedge(case):
    # T_theta(U, U') = xi_theta(U, U') on leaf fields; it holds
    # exactly when the kernel of theta is integrable, for any connection
    conn, foliation = case.connection, case.foliation

    def build(vectors, forms):
        pair = [_leaf(foliation, x) for x in vectors]
        lhs = sf.torsion_form_apply(conn, foliation.form, pair)
        return [(lhs, sf.xi_form_apply(conn, foliation.form, pair))]

    return build


def _adapted_derivative_is_scaling(case):
    # nabla_X theta is a multiple of theta: its leaf components vanish
    conn, foliation = case.connection, case.foliation

    def build(vectors, forms):
        derived = con.covariant_derivative(conn, vectors[0], foliation.form)
        return [(derived.apply([u]), 0) for u in foliation.leaf_fields]

    return build


def _restricted_torsion_form(case):
    conn, foliation = case.connection, case.foliation

    def build(vectors, forms):
        pair = [_leaf(foliation, x) for x in vectors]
        return [(sf.torsion_form_apply(conn, foliation.form, pair), 0)]

    return build


def _restricted_curvature_form(case):
    conn, foliation = case.connection, case.foliation

    def build(vectors, forms):
        x, y, z = vectors
        leaf = _leaf(foliation, z)
        return [(sf.curvature_form_apply(conn, foliation.form, leaf, [x, y]), 0)]

    return build


def _restricted_torsion_differential(case):
    foliation = case.foliation
    d_torsion = geo.exterior_derivative(sf.torsion_form(case.connection, foliation.form))

    def build(vectors, forms):
        return [(d_torsion.apply([_leaf(foliation, x) for x in vectors]), 0)]

    return build


def _restricted_curvature_differential(case):
    conn, foliation = case.connection, case.foliation

    def build(vectors, forms):
        z, *args = [_leaf(foliation, x) for x in vectors]
        d_curvature = geo.exterior_derivative(sf.curvature_form(conn, foliation.form, z))
        return [(d_curvature.apply(args), 0)]

    return build


def _cartan_claims(claims):
    """Factory of the claims ``claims(conn, sode, omega)`` that vanish, where
    omega is the differential of the case's Lagrangian 1-form."""

    def factory(case):
        _, omega = case.cartan_form
        return _vanishes(claims(case.connection, case.sode, omega))

    return factory


def _closure(conn, sode, omega):
    # omega is closed, and so are its torsion and derivative-sum forms
    return [
        *geo.exterior_derivative(omega).comps.values(),
        *sf.torsion_form(conn, omega).comps.values(),
        *sf.xi_form(conn, omega).comps.values(),
    ]


def _helmholtz(form_apply: str, *slots: str):
    """Claims ``sf.<form_apply>(conn, omega, [A, B, C]) = 0`` with each
    argument running over the semispray (S), horizontal (H) or vertical (V)
    frame fields its slot names."""

    def claims(conn, sode, omega):
        frame = {"S": (sode.semispray,), "H": sode.horizontal_fields, "V": sode.vertical_fields}
        # looked up at call time, like every other structure_forms call here,
        # so a wrapper installed on the module (perfbench's tracer) sees it
        apply = getattr(sf, form_apply)
        fields = itertools.product(*(frame[slot] for slot in slots))
        return [apply(conn, omega, list(args)) for args in fields]

    return _cartan_claims(claims)


def _table(*groups) -> dict[str, IdentityCheck]:
    """Entries from (anchor, predicate, rows) groups; a row is (id, name,
    number of sampled vectors, factory)."""
    return {
        identifier: IdentityCheck(identifier, name, anchor, _spec_fixed(count), factory, applies)
        for anchor, applies, rows in groups
        for identifier, name, count, factory in rows
    }


CASE_CHECKS: dict[str, IdentityCheck] = _table(
    ("contact structure", lambda case: case.contact is not None, (
        ("reeb-parallel", "the Reeb field is parallel along itself", 0, _reeb_parallel),
        ("reeb-covector-parallel", "the contact form is parallel along the Reeb field", 0,
         _reeb_covector_parallel),
        ("reeb-connection-form-vanishes", "connection form of the Reeb field vanishes", 0,
         _reeb_connection_form),
        ("reeb-curvature-form-vanishes", "curvature form of the Reeb field vanishes", 0,
         _reeb_curvature_form),
        ("reeb-contracted-second-bianchi", "second Bianchi identity contracted with the Reeb "
         "field", 2, _reeb_contracted_second_bianchi),
    )),
    ("codimension-one foliation", lambda case: case.foliation is not None, (
        ("restricted-torsion-is-identity-wedge", "on leaves the torsion form is the identity "
         "wedge", 2, _restricted_torsion_is_identity_wedge),
        ("adapted-derivative-is-scaling", "covariant derivatives of the form scale it", 1,
         _adapted_derivative_is_scaling),
        ("restricted-torsion-form-vanishes", "torsion form vanishes on leaves", 2,
         _restricted_torsion_form),
        ("restricted-curvature-form-vanishes", "curvature form of a leaf field vanishes", 3,
         _restricted_curvature_form),
    )),
    (
        "codimension-one foliation with leaves of dimension 3 or more",
        lambda case: case.foliation is not None and len(case.foliation.leaf_fields) >= 3,
        (
            ("restricted-torsion-differential-vanishes", "differential of the torsion form "
             "vanishes on leaves", 3, _restricted_torsion_differential),
            ("restricted-curvature-differential-vanishes", "differential of a leaf field's "
             "curvature form vanishes on leaves", 4, _restricted_curvature_differential),
        ),
    ),
    ("Cartan form of a regular Lagrangian", lambda case: case.cartan_form is not None, (
        ("closure-structure-equivalence", "closed 2-form has closed torsion and derivative-sum "
         "forms", 0, _cartan_claims(_closure)),
        ("helmholtz-torsion-vertical", "torsion form on (S, V, V) vanishes", 0,
         _helmholtz("torsion_form_apply", "S", "V", "V")),
        ("helmholtz-torsion-horizontal", "torsion form on (S, H, H) vanishes", 0,
         _helmholtz("torsion_form_apply", "S", "H", "H")),
        ("helmholtz-derivative-mixed", "derivative-sum form on (S, V, H) vanishes", 0,
         _helmholtz("xi_form_apply", "S", "V", "H")),
        ("helmholtz-derivative-vertical", "derivative-sum form on (V, V, H) vanishes", 0,
         _helmholtz("xi_form_apply", "V", "V", "H")),
    )),
)


def case_specific_checks(case: GeometryCase, config: CheckConfig | None = None) -> list[Report]:
    """The :data:`CASE_CHECKS` that apply to the case, in table order.

    Baseline cases have none and get an empty list.  Failures are reported,
    not raised.
    """
    config = config or CheckConfig()
    with sampling():
        return [run_check(c, case, config) for c in CASE_CHECKS.values() if c.applicable(case)]
