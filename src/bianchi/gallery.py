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
the broken property.  Case-specific checks return the same Report objects
the generic identity suite produces.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from . import symexpr as se
from . import geometry as geo
from . import connection as con
from . import structure_forms as sf
from .geometry import Chart, GeometryError, LinearMap, PForm, VectorField
from .connection import Connection, Metric
from .identity_suite import CheckConfig, Report, SampleSpec, sample_fields
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

    @property
    def degrees_of_freedom(self) -> int:
        return len(self.forces)

    def adapted_coframe(self) -> sf.CoFrame:
        frame = (self.semispray, *self.horizontal_fields, *self.vertical_fields)
        coframe = (self.time_form, *self.contact_forms, *self.force_forms)
        return sf.CoFrame(self.chart, frame, coframe)


@dataclass(frozen=True)
class GeometryCase:
    """A chart plus connection with optional structure and verified flags.

    ``rhs_connection`` lets a probe drive the two sides of an identity with
    different connections; ``reference_connection`` is what right-hand sides
    should use and defaults to the primary connection.
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
    rhs_connection: Connection | None = None

    @property
    def reference_connection(self) -> Connection:
        return self.rhs_connection if self.rhs_connection is not None else self.connection


# -- numeric validation helpers ----------------------------------------------------


def _sample_points(chart: Chart, seed, count: int) -> list[dict]:
    rng = random.Random(str(seed))
    return [geo.random_point(chart, rng) for _ in range(count)]


# tolerance of every structural claim checked while a case is built
_TOL = 1e-9


def _require(condition: bool, message: str):
    if not condition:
        raise CaseValidationError(message)


def _validate_case(case: GeometryCase):
    """Numerically verify every structural flag the case declares, at 8
    seeded points."""
    chart = case.chart
    points = _sample_points(chart, f"case-validation/{case.id}/0", 8)

    if case.connection.chart is not chart:
        raise CaseValidationError(f"case {case.id}: connection lives on the wrong chart")

    if case.torsion_free:
        worst = torsion_residual(case.connection, points)
        _require(
            worst <= _TOL,
            f"case {case.id}: declared torsion-free but torsion residual is {worst:.3e}",
        )

    if case.flat:
        worst = curvature_residual(case.connection, points)
        _require(
            worst <= _TOL,
            f"case {case.id}: declared flat but curvature residual is {worst:.3e}",
        )

    if case.metric is not None:
        worst = _metric_compatibility_residual(case.connection, case.metric, points)
        _require(
            worst <= _TOL,
            f"case {case.id}: connection is not compatible with the metric "
            f"(residual {worst:.3e})",
        )

    if case.coframe is not None:
        try:
            case.coframe.validate(points)
        except sf.CoFrameError as exc:
            raise CaseValidationError(f"case {case.id}: {exc}") from exc

    if case.foliation is not None:
        _validate_foliation(case.connection, case.foliation, points)


def torsion_residual(conn: Connection, points) -> float:
    """Worst torsion component on coordinate pairs; zero iff torsion-free."""
    basis = conn.chart.coordinate_frame()
    tor = con.torsion(conn)
    return se.max_abs(
        (c for x, y in itertools.combinations(basis, 2) for c in tor(x, y).comps), points
    )


def curvature_residual(conn: Connection, points) -> float:
    """Worst curvature component on coordinate triples; zero iff flat."""
    basis = conn.chart.coordinate_frame()
    curv = con.curvature(conn)
    return se.max_abs(
        (
            c
            for x, y in itertools.combinations(basis, 2)
            for z in basis
            for c in curv.apply_to(x, y, z).comps
        ),
        points,
    )


def _metric_compatibility_residual(conn: Connection, metric: Metric, points) -> float:
    """(nabla_X g)(Y, Z) over coordinate fields; zero iff metric-compatible."""
    chart = conn.chart
    basis = [chart.basis_field(i) for i in range(chart.dim)]
    exprs = []
    for x in basis:
        for j, y in enumerate(basis):
            for k, z in enumerate(basis[j:], start=j):
                value = geo.apply_vector_field(x, metric.value(y, z))
                value = se.sub(value, metric.value(con.covariant_derivative(conn, x, y), z))
                value = se.sub(value, metric.value(y, con.covariant_derivative(conn, x, z)))
                exprs.append(value)
    return se.max_abs(exprs, points)


def _validate_foliation(conn: Connection, foliation: FoliationStructure, points):
    theta = foliation.form
    chart = theta.chart
    leaf = foliation.leaf_fields
    if len(leaf) != chart.dim - 1:
        raise CaseValidationError("leaf fields must span a codimension-one distribution")

    worst = se.max_abs([theta.apply([u]) for u in leaf], points)
    _require(worst <= _TOL, f"foliation: leaf fields do not annihilate the form ({worst:.3e})")

    normalization = se.sub(theta.apply([foliation.transverse]), se.ONE)
    worst = se.max_abs([normalization], points)
    _require(worst <= _TOL, f"foliation: transverse pairing is not 1 ({worst:.3e})")

    d_theta = geo.exterior_derivative(theta)
    integrability = geo.wedge(d_theta, theta)
    worst = se.max_abs(integrability.comps.values(), points)
    _require(worst <= _TOL, f"foliation: the form is not integrable ({worst:.3e})")

    basis = [chart.basis_field(i) for i in range(chart.dim)]
    exprs = []
    for x in basis:
        for u in leaf:
            exprs.append(theta.apply([con.covariant_derivative(conn, x, u)]))
    worst = se.max_abs(exprs, points)
    _require(
        worst <= _TOL,
        f"foliation: connection is not adapted to the leaves (residual {worst:.3e})",
    )

    # blockwise: the transverse line is preserved too
    exprs = []
    for x in basis:
        image = con.covariant_derivative(conn, x, foliation.transverse)
        scaled = foliation.transverse.scale(theta.apply([image]))
        exprs.extend((image - scaled).comps)
    worst = se.max_abs(exprs, points)
    _require(
        worst <= _TOL,
        f"foliation: connection does not preserve the transverse line ({worst:.3e})",
    )


# -- contact structure ----------------------------------------------------------------


def derive_contact_structure(alpha: PForm, chart: Chart) -> ContactStructure:
    """Build the associated (Reeb, metric, endomorphism) for a contact form.

    The construction implements the standard associated structure of the
    normal-form contact 1-form on a 3-dimensional chart; every invariant is
    verified numerically before the structure is returned, so an input
    outside that family fails loudly with the violated property named.
    """
    if chart.dim % 2 == 0:
        raise ContactConditionError("contact forms need an odd-dimensional chart")
    if alpha.degree != 1:
        raise ContactConditionError("the contact form must be a 1-form")
    half = (chart.dim - 1) // 2

    points = _sample_points(chart, "contact/0", 10)
    volume = alpha
    for _ in range(half):
        volume = geo.wedge(volume, geo.exterior_derivative(alpha))
    top_key = tuple(range(chart.dim))
    for pt in points:
        value = se.evaluate(volume.component(top_key), pt)
        if not abs(value) >= 1e-6:
            raise ContactConditionError(
                f"form fails the contact condition at a sampled point ({value:.3e})"
            )

    if chart.dim != 3:
        raise ContactConditionError(
            "only the 3-dimensional standard associated structure is constructed"
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
    d_alpha = geo.exterior_derivative(alpha)

    hooked = geo.interior_product(reeb, d_alpha)
    worst = se.max_abs(hooked.comps.values(), points)
    _require(worst <= _TOL, f"contact invariant 'reeb-interior-product' violated ({worst:.3e})")

    worst = se.max_abs([se.sub(alpha.apply([reeb]), se.ONE)], points)
    _require(worst <= _TOL, f"contact invariant 'reeb-normalization' violated ({worst:.3e})")

    exprs = [se.sub(metric.value(reeb, x), alpha.apply([x])) for x in fields]
    worst = se.max_abs(exprs, points)
    _require(worst <= _TOL, f"contact invariant 'metric-reproduces-form' violated ({worst:.3e})")

    exprs = []
    for x, z in itertools.combinations(fields, 2):
        paired = se.mul(se.Const(2.0), metric.value(x, endo(z)))
        exprs.append(se.sub(paired, d_alpha.apply([x, z])))
    worst = se.max_abs(exprs, points)
    _require(
        worst <= _TOL, f"contact invariant 'metric-endomorphism-pairing' violated ({worst:.3e})"
    )

    exprs = []
    for x in fields:
        twice = endo(endo(x))
        target = x.scale(se.neg(se.ONE)) + reeb.scale(alpha.apply([x]))
        exprs.extend((twice - target).comps)
    worst = se.max_abs(exprs, points)
    _require(worst <= _TOL, f"contact invariant 'endomorphism-square' violated ({worst:.3e})")

    return ContactStructure(form=alpha, reeb=reeb, metric=metric, endomorphism=endo)


# -- second-order ODE structure ----------------------------------------------------------


def build_sode_structure(chart: Chart, forces) -> SodeStructure:
    """Assemble the semispray, adapted frame and eigenforms for given forces.

    The chart must carry coordinates (time, positions..., velocities...) with
    one velocity per position.  Frame/eigenform duality is validated
    numerically.
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

    points = _sample_points(chart, "sode-duality", 6)
    structure.adapted_coframe().validate(points)

    # the vertical endomorphism must send horizontals to verticals and
    # kill the semispray and the verticals
    exprs = []
    for a in range(n):
        exprs.extend((vertical_endomorphism(horizontal[a]) - vertical[a]).comps)
        exprs.extend(vertical_endomorphism(vertical[a]).comps)
    exprs.extend(vertical_endomorphism(semispray).comps)
    worst = se.max_abs(exprs, points)
    if not worst <= 1e-10:
        raise CaseValidationError(
            f"vertical endomorphism does not reproduce its frame action ({worst:.3e})"
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
    worst = se.max_abs(exprs, points)
    if not worst <= 1e-9:
        raise CaseValidationError(
            f"semispray Lie transport of the endomorphism breaks the 0/-1/+1 "
            f"eigenstructure ({worst:.3e})"
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
                if se._is_const(inner, 0):
                    continue
                for nu in range(m):
                    for mu in range(m):
                        gamma[lam][nu][mu] = se.add(
                            gamma[lam][nu][mu],
                            se.mul(se.mul(q_matrix[i][nu], q_matrix[j][mu]), inner),
                        )
    conn = Connection(chart, gamma)

    # oracle: the four defining properties, re-checked numerically
    points = _sample_points(chart, "massa-pagani-oracle", 20)
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
    n = sode.degrees_of_freedom
    velocity_names = [chart.coords[n + 1 + a] for a in range(n)]
    position_names = [chart.coords[1 + a] for a in range(n)]
    time_name = chart.coords[0]
    points = _sample_points(chart, "cartan-form", 10)

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
    worst = se.max_abs((omega - paired).comps.values(), points)
    if not worst <= _TOL:
        raise CaseValidationError(
            f"differential of the Lagrangian 1-form does not match the Hessian "
            f"pairing of force and contact forms ({worst:.3e})"
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
    hooked = geo.interior_product(el_field, omega)
    worst = se.max_abs(hooked.comps.values(), points)
    if not worst <= _TOL:
        raise CaseValidationError(
            f"Euler-Lagrange semispray does not annihilate the 2-form ({worst:.3e})"
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
    structure = derive_contact_structure(alpha, R3)
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
        lagrangian=oscillator_lagrangian(),
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


def _report(case, check_id, worst, worst_point, config) -> Report:
    return Report(
        case_id=case.id,
        check_id=check_id,
        points=config.points,
        tuples=config.tuples,
        max_residual=worst,
        tolerance=config.tolerance,
        passed=worst <= config.tolerance,
        seed=config.seed,
        worst_point=worst_point,
    )


def _scan(case, check_id, exprs, points, config) -> Report:
    """Report of the worst |e| over the (lazily built) expressions."""
    worst, worst_point, _ = se.worst_residual(((None, e, 0) for e in exprs), points)
    return _report(case, check_id, worst, worst_point, config)


def _random_leaf_fields(leaf_fields, chart: Chart, rng: random.Random, count: int):
    """``count`` random polynomial combinations of the leaf fields."""
    fields = []
    for _ in range(count):
        total = VectorField(chart, [se.ZERO] * chart.dim)
        for leaf in leaf_fields:
            total = total + leaf.scale(geo.random_polynomial(chart, rng))
        fields.append(total)
    return fields


def restricted_torsion_wedge_residual(
    conn: Connection,
    theta: PForm,
    leaf_fields,
    points,
    *,
    seed=0,
    tuples: int = 5,
) -> float:
    """Worst |T_theta(U, U') + (nabla theta wedge I)(U, U')| over leaf pairs.

    Zero exactly when the kernel distribution of theta is integrable; feeding
    a contact form produces an order-one residual (the negative control).
    """
    rng = random.Random(f"restricted-wedge/{seed}")

    def residuals():
        for _ in range(tuples):
            pair = _random_leaf_fields(leaf_fields, theta.chart, rng, 2)
            lhs = sf.torsion_form_apply(conn, theta, pair)
            rhs = se.neg(sf.wedge_covector_identity_apply(conn, theta, pair))
            yield se.sub(lhs, rhs)

    return se.max_abs(residuals(), points)


def _contact_checks(case: GeometryCase, config: CheckConfig) -> list[Report]:
    conn = case.connection
    contact = case.contact
    alpha, reeb = contact.form, contact.reeb
    chart = case.chart
    points = _sample_points(chart, f"{config.seed}/{case.id}/points", config.points)
    reports = []

    reports.append(
        _scan(
            case,
            "reeb-parallel",
            con.covariant_derivative(conn, reeb, reeb).comps,
            points,
            config,
        )
    )
    reports.append(
        _scan(
            case,
            "reeb-covector-parallel",
            con.covariant_derivative(conn, reeb, alpha).comps.values(),
            points,
            config,
        )
    )
    reports.append(
        _scan(
            case,
            "reeb-connection-form-vanishes",
            sf.connection_form(conn, alpha, reeb).comps.values(),
            points,
            config,
        )
    )
    curvature_form = sf.curvature_form(conn, alpha, reeb)
    reports.append(
        _scan(
            case,
            "reeb-curvature-form-vanishes",
            curvature_form.comps.values(),
            points,
            config,
        )
    )

    # contraction of the curvature-form Bianchi identity with the Reeb field:
    # the differential's Reeb contraction balances the two wedge pairings
    d_curvature = geo.exterior_derivative(curvature_form)

    def residuals():
        for t in range(config.tuples):
            batch = sample_fields(
                chart, f"{config.seed}/{case.id}/reeb-bianchi/{t}", SampleSpec(vectors=2)
            )
            args = [reeb, *batch.vectors]
            lhs = d_curvature.apply(args)
            rhs = se.add(
                sf.wedge_covector_curvature_apply(conn, alpha, reeb, args),
                sf.wedge_curvature_three_nabla_apply(conn, alpha, reeb, args),
            )
            yield se.sub(lhs, rhs)

    reports.append(_scan(case, "reeb-contracted-second-bianchi", residuals(), points, config))
    return reports


def _foliation_checks(case: GeometryCase, config: CheckConfig) -> list[Report]:
    conn = case.connection
    foliation = case.foliation
    theta = foliation.form
    chart = case.chart
    points = _sample_points(chart, f"{config.seed}/{case.id}/points", config.points)
    reports = []

    worst = restricted_torsion_wedge_residual(
        conn,
        theta,
        foliation.leaf_fields,
        points,
        seed=f"{config.seed}/{case.id}",
        tuples=config.tuples,
    )
    reports.append(_report(case, "restricted-torsion-is-identity-wedge", worst, None, config))

    # nabla_X theta is a multiple of theta: its leaf components vanish
    exprs = []
    for t in range(config.tuples):
        batch = sample_fields(
            chart, f"{config.seed}/{case.id}/scaling/{t}", SampleSpec(vectors=1)
        )
        derived = con.covariant_derivative(conn, batch.vectors[0], theta)
        exprs.extend(derived.apply([u]) for u in foliation.leaf_fields)
    reports.append(_scan(case, "adapted-derivative-is-scaling", exprs, points, config))

    leaves = foliation.leaf_fields

    def leaf_fields(label, t, count):
        rng = random.Random(f"{config.seed}/{case.id}/{label}/{t}")
        return _random_leaf_fields(leaves, chart, rng, count)

    leaf_pairs = [leaf_fields("torsion", t, 2) for t in range(config.tuples)]
    exprs = [sf.torsion_form_apply(conn, theta, pair) for pair in leaf_pairs]
    reports.append(_scan(case, "restricted-torsion-form-vanishes", exprs, points, config))

    exprs = []
    for t in range(config.tuples):
        batch = sample_fields(
            chart, f"{config.seed}/{case.id}/curvature/{t}", SampleSpec(vectors=2)
        )
        (leaf_field,) = leaf_fields("curvature-leaf", t, 1)
        exprs.append(
            sf.curvature_form_apply(conn, theta, leaf_field, list(batch.vectors))
        )
    reports.append(_scan(case, "restricted-curvature-form-vanishes", exprs, points, config))

    if len(foliation.leaf_fields) >= 3:
        torsion_form = sf.torsion_form(conn, theta)
        d_torsion = geo.exterior_derivative(torsion_form)
        exprs = []
        for t in range(config.tuples):
            triple = leaf_fields("d-torsion", t, 3)
            exprs.append(d_torsion.apply(triple))
        reports.append(
            _scan(case, "restricted-torsion-differential-vanishes", exprs, points, config)
        )

        exprs = []
        for t in range(config.tuples):
            fields = leaf_fields("d-curvature", t, 4)
            d_curv = geo.exterior_derivative(sf.curvature_form(conn, theta, fields[0]))
            exprs.append(d_curv.apply(fields[1:]))
        reports.append(
            _scan(case, "restricted-curvature-differential-vanishes", exprs, points, config)
        )
    return reports


def omega_rank_profile(omega: PForm, points):
    """Numeric rank of the 2-form's component matrix at each point."""
    chart = omega.chart
    ranks = []
    for pt in points:
        matrix = np.zeros((chart.dim, chart.dim))
        for (i, j), expr in omega.comps.items():
            value = se.evaluate(expr, pt)
            matrix[i][j] = value
            matrix[j][i] = -value
        singular = np.linalg.svd(matrix, compute_uv=False)
        top = singular[0] if len(singular) else 0.0
        ranks.append(int(np.sum(singular > 1e-8 * max(top, 1e-300))))
    return ranks


def _sode_checks(case: GeometryCase, config: CheckConfig) -> list[Report]:
    conn = case.connection
    sode = case.sode
    chart = case.chart
    points = _sample_points(chart, f"{config.seed}/{case.id}/points", config.points)
    _, omega = build_cartan_form(sode, case.lagrangian)
    reports = []

    d_omega = geo.exterior_derivative(omega)
    torsion_of_omega = sf.torsion_form(conn, omega)
    xi_of_omega = sf.xi_form(conn, omega)
    exprs = list(d_omega.comps.values())
    exprs.extend(torsion_of_omega.comps.values())
    exprs.extend(xi_of_omega.comps.values())
    reports.append(_scan(case, "closure-structure-equivalence", exprs, points, config))

    semispray = sode.semispray
    horizontal = sode.horizontal_fields
    vertical = sode.vertical_fields
    n = sode.degrees_of_freedom

    exprs = [
        sf.torsion_form_apply(conn, omega, [semispray, vertical[a], vertical[b]])
        for a in range(n)
        for b in range(n)
    ]
    reports.append(_scan(case, "helmholtz-torsion-vertical", exprs, points, config))

    exprs = [
        sf.torsion_form_apply(conn, omega, [semispray, horizontal[a], horizontal[b]])
        for a in range(n)
        for b in range(n)
    ]
    reports.append(_scan(case, "helmholtz-torsion-horizontal", exprs, points, config))

    exprs = [
        sf.xi_form_apply(conn, omega, [semispray, vertical[a], horizontal[b]])
        for a in range(n)
        for b in range(n)
    ]
    reports.append(_scan(case, "helmholtz-derivative-mixed", exprs, points, config))

    exprs = [
        sf.xi_form_apply(conn, omega, [vertical[a], vertical[b], horizontal[c]])
        for a in range(n)
        for b in range(n)
        for c in range(n)
    ]
    reports.append(_scan(case, "helmholtz-derivative-vertical", exprs, points, config))

    ranks = omega_rank_profile(omega, points)
    worst = float(max(abs(rank - 2 * n) for rank in ranks))
    reports.append(_report(case, "maximal-rank", worst, None, config))
    return reports


CONTACT_CHECK_IDS = (
    "reeb-parallel",
    "reeb-covector-parallel",
    "reeb-connection-form-vanishes",
    "reeb-curvature-form-vanishes",
    "reeb-contracted-second-bianchi",
)
FOLIATION_CHECK_IDS = (
    "restricted-torsion-is-identity-wedge",
    "adapted-derivative-is-scaling",
    "restricted-torsion-form-vanishes",
    "restricted-curvature-form-vanishes",
)
FOLIATION_DIFFERENTIAL_CHECK_IDS = (
    "restricted-torsion-differential-vanishes",
    "restricted-curvature-differential-vanishes",
)
SODE_CHECK_IDS = (
    "closure-structure-equivalence",
    "helmholtz-torsion-vertical",
    "helmholtz-torsion-horizontal",
    "helmholtz-derivative-mixed",
    "helmholtz-derivative-vertical",
    "maximal-rank",
)


def case_check_ids(case: GeometryCase) -> list[str]:
    """Ids of the structure-dependent checks :func:`case_specific_checks` runs."""
    ids: list[str] = []
    if case.contact is not None:
        ids.extend(CONTACT_CHECK_IDS)
    if case.foliation is not None:
        ids.extend(FOLIATION_CHECK_IDS)
        if case.chart.dim >= 4:
            ids.extend(FOLIATION_DIFFERENTIAL_CHECK_IDS)
    if case.sode is not None:
        ids.extend(SODE_CHECK_IDS)
    return ids


def case_specific_checks(case: GeometryCase, config: CheckConfig | None = None) -> list[Report]:
    """Structure-dependent checks for the application cases.

    Baseline cases have none and get an empty list.  Failures are reported,
    not raised.
    """
    config = config or CheckConfig(points=10, tuples=5, tolerance=1e-9)
    reports = []
    if case.contact is not None:
        reports.extend(_contact_checks(case, config))
    if case.foliation is not None:
        reports.extend(_foliation_checks(case, config))
    if case.sode is not None:
        reports.extend(_sode_checks(case, config))
    return reports
