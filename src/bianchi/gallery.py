"""Concrete geometries for exercising the identity catalog.

Besides flat, torsioned, curved and randomized baseline cases, the gallery
carries three structured applications:

* a contact 3-space with its associated metric, Reeb field and
  compatible endomorphism, under the Levi-Civita connection;
* codimension-one foliations with connections adapted to the leaves,
  where restricting the torsion and curvature forms to leaf arguments
  collapses them;
* a second-order ODE phase space (time, position, velocity) carrying a
  semispray, its eigenform frame, a frame-derived connection, and the
  Cartan 1-form of a regular Lagrangian.

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

from . import symexpr as se
from . import geometry as geo
from . import connection as con
from . import structure_forms as sf
from .geometry import Chart, GeometryError, LinearMap, PForm, VectorField
from .connection import Connection, Metric
from .identity_suite import CheckConfig, IdentityCheck, Report, _spec_fixed, run_check
from .symexpr import Expr


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


# -- structures ------------------------------------------------------------------


@dataclass(frozen=True)
class ContactStructure:
    """A maximally non-integrable 1-form with its associated structure.

    ``form`` is the contact 1-form, ``reeb`` the unique field annihilating
    its differential with unit pairing, ``metric`` the associated Riemannian
    metric and ``endomorphism`` the compatible almost-complex-style map.
    """

    form: PForm
    reeb: VectorField
    metric: Metric
    endomorphism: LinearMap


@dataclass(frozen=True)
class FoliationStructure:
    """A codimension-one integrable 1-form with a leaf frame.

    ``leaf_fields`` span the kernel distribution of ``form`` and
    ``transverse`` completes them to a frame with unit pairing.
    """

    form: PForm
    leaf_fields: tuple[VectorField, ...]
    transverse: VectorField


@dataclass(frozen=True)
class SodeStructure:
    """Second-order ODE system on a (time, positions, velocities) chart.

    The adapted frame is (semispray, horizontal fields, vertical fields)
    with eigenform basis (time form, contact forms, force forms); the
    vertical endomorphism pairs contact forms with vertical fields.
    """

    chart: Chart
    forces: tuple[Expr, ...]
    semispray: VectorField
    vertical_endomorphism: LinearMap
    horizontal_fields: tuple[VectorField, ...]
    vertical_fields: tuple[VectorField, ...]
    time_form: PForm
    contact_forms: tuple[PForm, ...]
    force_forms: tuple[PForm, ...]

    def adapted_coframe(self) -> sf.CoFrame:
        frame = (self.semispray, *self.horizontal_fields, *self.vertical_fields)
        coframe = (self.time_form, *self.contact_forms, *self.force_forms)
        return sf.CoFrame(self.chart, frame, coframe)


@dataclass(frozen=True)
class GeometryCase:
    """A chart plus connection with optional structure and verified flags.

    ``cartan_form`` is the (theta, omega) of :func:`build_cartan_form` for
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
        _validate_foliation(case.connection, case.foliation, points)


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


def _validate_foliation(conn: Connection, foliation: FoliationStructure, points):
    theta = foliation.form
    chart = theta.chart
    leaf = foliation.leaf_fields
    if len(leaf) != chart.dim - 1:
        raise CaseValidationError("leaf fields must span a codimension-one distribution")

    _require_vanishing(
        [theta.apply([u]) for u in leaf], points,
        "foliation: leaf fields do not annihilate the form ({worst:.3e})",
    )
    _require_vanishing(
        [se.sub(theta.apply([foliation.transverse]), se.ONE)], points,
        "foliation: transverse pairing is not 1 ({worst:.3e})",
    )
    _require_vanishing(
        geo.wedge(geo.exterior_derivative(theta), theta).comps.values(), points,
        "foliation: the form is not integrable ({worst:.3e})",
    )

    basis = [chart.basis_field(i) for i in range(chart.dim)]
    _require_vanishing(
        [theta.apply([con.covariant_derivative(conn, x, u)]) for x in basis for u in leaf],
        points,
        "foliation: connection is not adapted to the leaves (residual {worst:.3e})",
    )

    # blockwise: the transverse line is preserved too
    exprs = []
    for x in basis:
        image = con.covariant_derivative(conn, x, foliation.transverse)
        scaled = foliation.transverse.scale(theta.apply([image]))
        exprs.extend((image - scaled).comps)
    _require_vanishing(
        exprs, points, "foliation: connection does not preserve the transverse line ({worst:.3e})"
    )


# -- contact structure ----------------------------------------------------------------


def derive_contact_structure(alpha: PForm) -> ContactStructure:
    """Build the associated (Reeb, metric, endomorphism) for a contact form.

    The construction implements the standard associated structure of the
    normal-form contact 1-form on a 3-dimensional chart; every invariant is
    verified numerically before the structure is returned, so an input
    outside that family fails loudly with the violated property named.
    """
    chart = alpha.chart
    if chart.dim != 3:
        raise ContactConditionError(
            "only the 3-dimensional standard associated structure is constructed"
        )
    if alpha.degree != 1:
        raise ContactConditionError("the contact form must be a 1-form")

    points = geo.sample_points(chart, "contact/0", 10)
    d_alpha = geo.exterior_derivative(alpha)
    volume = geo.wedge(alpha, d_alpha)
    for pt in points:
        value = se.evaluate(volume.component((0, 1, 2)), pt)
        if not abs(value) >= 1e-6:
            raise ContactConditionError(
                f"form fails the contact condition at a sampled point ({value:.3e})"
            )

    y = se.Var(chart.coords[1])
    reeb = chart.basis_field(2)
    halfc = se.Const(0.5)
    metric = Metric.from_nonzero(
        chart,
        {
            (0, 0): se.add(halfc, se.mul(y, y)),
            (0, 2): se.neg(y),
            (1, 1): halfc,
            (2, 2): se.ONE,
        },
    )
    endo = LinearMap(
        chart,
        [
            [se.ZERO, se.ONE, se.ZERO],
            [se.neg(se.ONE), se.ZERO, se.ZERO],
            [se.ZERO, y, se.ZERO],
        ],
    )

    rng = random.Random("contact-fields/0")
    fields = [geo.random_vector_field(chart, rng) for _ in range(4)]

    def require(name, exprs):
        _require_vanishing(exprs, points, f"contact invariant '{name}' violated ({{worst:.3e}})")

    require("reeb-interior-product", geo.interior_product(reeb, d_alpha).comps.values())
    require("reeb-normalization", [se.sub(alpha.apply([reeb]), se.ONE)])
    require(
        "metric-reproduces-form",
        [se.sub(metric.value(reeb, x), alpha.apply([x])) for x in fields],
    )
    exprs = []
    for x, z in itertools.combinations(fields, 2):
        paired = se.mul(se.Const(2.0), metric.value(x, endo(z)))
        exprs.append(se.sub(paired, d_alpha.apply([x, z])))
    require("metric-endomorphism-pairing", exprs)
    exprs = []
    for x in fields:
        twice = endo(endo(x))
        target = x.scale(se.neg(se.ONE)) + reeb.scale(alpha.apply([x]))
        exprs.extend((twice - target).comps)
    require("endomorphism-square", exprs)

    return ContactStructure(form=alpha, reeb=reeb, metric=metric, endomorphism=endo)


# -- second-order ODE structure ----------------------------------------------------------


def build_sode_structure(chart: Chart, forces) -> SodeStructure:
    """Assemble the semispray, adapted frame and eigenforms for given forces.

    The chart must carry coordinates (time, positions..., velocities...) with
    one velocity per position.  The frame/eigenform duality is checked by
    the :class:`~bianchi.structure_forms.CoFrame` that
    :meth:`SodeStructure.adapted_coframe` builds.
    """
    forces = tuple(se.as_expr(f) for f in forces)
    n = len(forces)
    if chart.dim != 2 * n + 1:
        raise GalleryError(
            f"chart dimension {chart.dim} does not match {n} force functions"
        )
    time_index = 0
    position = list(range(1, n + 1))
    velocity = list(range(n + 1, 2 * n + 1))
    velocity_names = [chart.coords[i] for i in velocity]

    gamma_matrix = [
        [
            se.mul(se.Const(-0.5), se.differentiate(forces[a], velocity_names[b]))
            for b in range(n)
        ]
        for a in range(n)
    ]

    semispray_comps = [se.ZERO] * chart.dim
    semispray_comps[time_index] = se.ONE
    for a in range(n):
        semispray_comps[position[a]] = se.Var(velocity_names[a])
        semispray_comps[velocity[a]] = forces[a]
    semispray = VectorField(chart, semispray_comps)

    horizontal = []
    for a in range(n):
        comps = [se.ZERO] * chart.dim
        comps[position[a]] = se.ONE
        for b in range(n):
            comps[velocity[b]] = se.neg(gamma_matrix[b][a])
        horizontal.append(VectorField(chart, comps))
    vertical = [chart.basis_field(velocity[a]) for a in range(n)]

    time_form = chart.basis_covector(time_index)
    contact_forms = []
    for a in range(n):
        contact_forms.append(
            PForm(
                chart,
                1,
                {
                    (position[a],): se.ONE,
                    (time_index,): se.neg(se.Var(velocity_names[a])),
                },
            )
        )
    force_forms = []
    for a in range(n):
        comps = {
            (velocity[a],): se.ONE,
            (time_index,): se.neg(forces[a]),
        }
        base = PForm(chart, 1, comps)
        for b in range(n):
            base = base + contact_forms[b].scale(gamma_matrix[a][b])
        force_forms.append(base)

    entries = [[se.ZERO] * chart.dim for _ in range(chart.dim)]
    for a in range(n):
        # vertical field tensor contact form: column j gets theta^a_j in row u^a
        for key, value in contact_forms[a].comps.items():
            entries[velocity[a]][key[0]] = se.add(entries[velocity[a]][key[0]], value)
    vertical_endomorphism = LinearMap(chart, entries)

    structure = SodeStructure(
        chart=chart,
        forces=forces,
        semispray=semispray,
        vertical_endomorphism=vertical_endomorphism,
        horizontal_fields=tuple(horizontal),
        vertical_fields=tuple(vertical),
        time_form=time_form,
        contact_forms=tuple(contact_forms),
        force_forms=tuple(force_forms),
    )

    points = geo.sample_points(chart, "sode-duality", 6)

    # the vertical endomorphism must send horizontals to verticals and
    # kill the semispray and the verticals
    exprs = []
    for a in range(n):
        exprs.extend((vertical_endomorphism(horizontal[a]) - vertical[a]).comps)
        exprs.extend(vertical_endomorphism(vertical[a]).comps)
    exprs.extend(vertical_endomorphism(semispray).comps)
    _require_vanishing(
        exprs, points, "vertical endomorphism does not reproduce its frame action ({worst:.3e})",
        tol=1e-10,
    )

    # Lie transport of the endomorphism along the semispray has eigenvalues
    # 0 / -1 / +1 on the semispray / horizontal / vertical frame fields
    def lie_of_endomorphism(x: VectorField) -> VectorField:
        return geo.lie_bracket(semispray, vertical_endomorphism(x)) - vertical_endomorphism(
            geo.lie_bracket(semispray, x)
        )

    exprs = list(lie_of_endomorphism(semispray).comps)
    for a in range(n):
        exprs.extend((lie_of_endomorphism(horizontal[a]) + horizontal[a]).comps)
        exprs.extend((lie_of_endomorphism(vertical[a]) - vertical[a]).comps)
    _require_vanishing(
        exprs, points,
        "semispray Lie transport of the endomorphism breaks the 0/-1/+1 eigenstructure "
        "({worst:.3e})",
        tol=1e-9,
    )
    return structure


def derive_massa_pagani(sode: SodeStructure) -> Connection:
    """The connection whose adapted frame (semispray, horizontal and vertical
    fields) is parallel.

    Four defining properties follow when the vertical endomorphism has
    constant frame components: the semispray is parallel, the time form is
    parallel, the vertical endomorphism is parallel, and the canonical
    vertical frame is parallel (the flat vertical bundle).  The returned
    connection is re-checked against all four at random points, never
    trusted from the algebra alone; a failure raises
    :class:`FrameSolveError`.
    """
    chart = sode.chart
    m = chart.dim
    frame = [sode.semispray, *sode.horizontal_fields, *sode.vertical_fields]

    # nabla_{E_i} E_j = 0 in coordinates, with P the frame matrix, Q = P^-1:
    # Gamma^l_{vu} = - sum_ij Q^i_v Q^j_u E_i(P^l_j)
    p_matrix = [[frame[j].comps[mu] for j in range(m)] for mu in range(m)]
    q_matrix = geo.symbolic_inverse(p_matrix)
    gamma = [[[se.ZERO] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            for lam in range(m):
                inner = se.neg(geo.apply_vector_field(frame[i], p_matrix[lam][j]))
                if se._is_zero(inner):
                    continue
                for nu in range(m):
                    for mu in range(m):
                        gamma[lam][nu][mu] = se.add(
                            gamma[lam][nu][mu],
                            se.mul(se.mul(q_matrix[i][nu], q_matrix[j][mu]), inner),
                        )
    conn = Connection(chart, gamma)

    # oracle: the four defining properties, re-checked numerically
    points = geo.sample_points(chart, "massa-pagani-oracle", 20)
    residuals = massa_pagani_property_residuals(conn, sode, points)
    for name, worst in residuals.items():
        if not worst <= _TOL:
            raise FrameSolveError(f"derived connection fails '{name}' ({worst:.3e})")
    return conn


def massa_pagani_property_residuals(conn: Connection, sode: SodeStructure, points) -> dict:
    """Residuals of the four defining properties, for external verification."""
    basis = sode.chart.coordinate_frame()
    nabla = con.covariant_derivative
    return {
        "semispray parallel": se.max_abs(
            (c for x in basis for c in nabla(conn, x, sode.semispray).comps), points
        ),
        "time form parallel": se.max_abs(
            (c for x in basis for c in nabla(conn, x, sode.time_form).comps.values()), points
        ),
        "vertical endomorphism parallel": se.max_abs(
            (
                e
                for x in basis
                for row in nabla(conn, x, sode.vertical_endomorphism).entries
                for e in row
            ),
            points,
        ),
        "vertical frame parallel": se.max_abs(
            (c for x in basis for v in sode.vertical_fields for c in nabla(conn, x, v).comps),
            points,
        ),
    }


def build_cartan_form(sode: SodeStructure, lagrangian) -> tuple[PForm, PForm]:
    """The 1-form of a regular Lagrangian and its differential.

    Returns (theta, omega) with theta = L dt + (dL restricted through the
    vertical endomorphism) and omega its exterior derivative.  Verifies the
    Lagrangian is regular (invertible velocity Hessian), that omega matches
    the Hessian pairing of force and contact forms, and that the
    Euler-Lagrange semispray annihilates omega.
    """
    lagrangian = se.as_expr(lagrangian)
    chart = sode.chart
    n = len(sode.forces)
    velocity_names = [chart.coords[n + 1 + a] for a in range(n)]
    position_names = [chart.coords[1 + a] for a in range(n)]
    time_name = chart.coords[0]
    points = geo.sample_points(chart, "cartan-form", 10)

    momenta = [se.differentiate(lagrangian, name) for name in velocity_names]
    hessian = [
        [se.differentiate(momenta[a], velocity_names[b]) for b in range(n)]
        for a in range(n)
    ]
    det = geo._symbolic_det([list(row) for row in hessian])
    for pt in points:
        if not abs(se.evaluate(det, pt)) >= 1e-8:
            raise SingularLagrangianError(
                "velocity Hessian is singular at a sampled point; "
                "the Lagrangian is not regular"
            )

    theta = PForm(chart, 1, {(0,): lagrangian})
    for a in range(n):
        theta = theta + sode.contact_forms[a].scale(momenta[a])
    omega = geo.exterior_derivative(theta)

    paired = PForm.zero(chart, 2)
    for a in range(n):
        for b in range(n):
            paired = paired + geo.wedge(sode.force_forms[a], sode.contact_forms[b]).scale(
                hessian[a][b]
            )
    _require_vanishing(
        (omega - paired).comps.values(), points,
        "differential of the Lagrangian 1-form does not match the Hessian pairing of force "
        "and contact forms ({worst:.3e})",
    )

    # Euler-Lagrange semispray: Hessian * F = dL/dx - d(momenta)/dt - d(momenta)/dx * u
    inverse = geo.symbolic_inverse(hessian)
    el_rhs = []
    for a in range(n):
        value = se.differentiate(lagrangian, position_names[a])
        value = se.sub(value, se.differentiate(momenta[a], time_name))
        for b in range(n):
            value = se.sub(
                value,
                se.mul(
                    se.differentiate(momenta[a], position_names[b]),
                    se.Var(velocity_names[b]),
                ),
            )
        el_rhs.append(value)
    el_forces = [
        se.add_all(se.mul(inverse[a][b], el_rhs[b]) for b in range(n)) for a in range(n)
    ]
    el_comps = [se.ZERO] * chart.dim
    el_comps[0] = se.ONE
    for a in range(n):
        el_comps[1 + a] = se.Var(velocity_names[a])
        el_comps[n + 1 + a] = el_forces[a]
    el_field = VectorField(chart, el_comps)
    _require_vanishing(
        geo.interior_product(el_field, omega).comps.values(), points,
        "Euler-Lagrange semispray does not annihilate the 2-form ({worst:.3e})",
    )

    return theta, omega


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


def _case_random_poly(seed: int) -> GeometryCase:
    return GeometryCase(
        id=f"random_poly:{seed}" if seed else "random_poly",
        chart=R3,
        connection=_random_connection(R3, seed),
        description="Random degree-1 polynomial connection on 3-space.",
        coframe=sf.CoFrame.coordinate(R3),
    )


def _case_random_poly4(seed: int) -> GeometryCase:
    return GeometryCase(
        id=f"random_poly4:{seed}" if seed else "random_poly4",
        chart=R4,
        connection=_random_connection(R4, seed),
        description="Random degree-1 polynomial connection on 4-space.",
        coframe=sf.CoFrame.coordinate(R4),
    )


def standard_contact_form(chart: Chart) -> PForm:
    y = se.Var(chart.coords[1])
    return PForm(chart, 1, {(0,): se.neg(y), (2,): se.ONE})


def _case_contact_r3() -> GeometryCase:
    alpha = standard_contact_form(R3)
    structure = derive_contact_structure(alpha)
    return GeometryCase(
        id="contact_r3",
        chart=R3,
        connection=con.levi_civita(structure.metric),
        description=(
            "Contact 3-space: normal-form contact 1-form, its associated metric "
            "and endomorphism, Levi-Civita connection."
        ),
        metric=structure.metric,
        coframe=sf.CoFrame.coordinate(R3),
        torsion_free=True,
        contact=structure,
    )


def _case_foliation_adapted() -> GeometryCase:
    x, y, z = (se.Var(name) for name in R3.coords)
    conn = Connection.from_nonzero(
        R3,
        {
            (0, 0, 0): y,
            (0, 0, 1): se.ONE,
            (0, 1, 0): se.neg(se.ONE),
            (1, 0, 1): z,
            (2, 0, 2): se.ONE,
            (2, 1, 2): x,
            (0, 2, 1): se.ONE,
        },
    )
    foliation = FoliationStructure(
        form=R3.basis_covector(2),
        leaf_fields=(R3.basis_field(0), R3.basis_field(1)),
        transverse=R3.basis_field(2),
    )
    return GeometryCase(
        id="foliation_adapted",
        chart=R3,
        connection=conn,
        description=(
            "Horizontal foliation of 3-space with a leaf-adapted connection "
            "carrying deliberate in-leaf torsion."
        ),
        coframe=sf.CoFrame.coordinate(R3),
        foliation=foliation,
    )


def _case_foliation_adapted_n4() -> GeometryCase:
    x, y, z, w = (se.Var(name) for name in R4.coords)
    conn = Connection.from_nonzero(
        R4,
        {
            (0, 0, 0): y,
            (0, 0, 1): se.ONE,
            (0, 1, 0): se.neg(se.ONE),
            (1, 0, 1): z,
            (2, 0, 1): x,
            (1, 2, 2): w,
            (2, 2, 0): y,
            (3, 0, 3): se.ONE,
            (3, 1, 3): x,
            (0, 3, 1): se.ONE,
        },
    )
    foliation = FoliationStructure(
        form=R4.basis_covector(3),
        leaf_fields=(R4.basis_field(0), R4.basis_field(1), R4.basis_field(2)),
        transverse=R4.basis_field(3),
    )
    return GeometryCase(
        id="foliation_adapted_n4",
        chart=R4,
        connection=conn,
        description=(
            "Codimension-one foliation of 4-space with a leaf-adapted connection; "
            "three-dimensional leaves make the restricted differential checks "
            "non-vacuous."
        ),
        coframe=sf.CoFrame.coordinate(R4),
        foliation=foliation,
    )


def oscillator_lagrangian() -> Expr:
    u, x = se.Var("u"), se.Var("x")
    return se.mul(se.Const(0.5), se.sub(se.mul(u, u), se.mul(x, x)))


def _case_sode_oscillator() -> GeometryCase:
    sode = build_sode_structure(OSCILLATOR, (se.neg(se.Var("x")),))
    conn = derive_massa_pagani(sode)
    lagrangian = oscillator_lagrangian()
    return GeometryCase(
        id="sode_oscillator",
        chart=OSCILLATOR,
        connection=conn,
        description=(
            "Harmonic oscillator phase space: semispray, adapted frame and the "
            "frame-derived connection; the Lagrangian feeds the closed 2-form checks."
        ),
        coframe=sode.adapted_coframe(),
        flat=True,
        sode=sode,
        lagrangian=lagrangian,
        cartan_form=build_cartan_form(sode, lagrangian),
    )


_BUILDERS = {
    "flat_euclidean": lambda seed: _case_flat_euclidean(),
    "flat_with_torsion": lambda seed: _case_flat_with_torsion(),
    "sphere_lc": lambda seed: _case_sphere_lc(),
    "random_poly": _case_random_poly,
    "random_poly4": _case_random_poly4,
    "contact_r3": lambda seed: _case_contact_r3(),
    "foliation_adapted": lambda seed: _case_foliation_adapted(),
    "foliation_adapted_n4": lambda seed: _case_foliation_adapted_n4(),
    "sode_oscillator": lambda seed: _case_sode_oscillator(),
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
    # T_theta(U, U') = -(nabla theta wedge I)(U, U') on leaf fields; it holds
    # exactly when the kernel of theta is integrable, for any connection
    conn, foliation = case.connection, case.foliation

    def build(vectors, forms):
        pair = [_leaf(foliation, x) for x in vectors]
        lhs = sf.torsion_form_apply(conn, foliation.form, pair)
        return [(lhs, se.neg(sf.wedge_covector_identity_apply(conn, foliation.form, pair)))]

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
    return [run_check(c, case, config) for c in CASE_CHECKS.values() if c.applicable(case)]
