"""The paper's three applications, as gallery cases.

* a contact 3-space with its associated metric, Reeb field and
  compatible endomorphism, under the Levi-Civita connection;
* codimension-one foliations with connections adapted to the leaves,
  where restricting the torsion and curvature forms to leaf arguments
  collapses them;
* a second-order ODE phase space (time, position, velocity) carrying a
  semispray, its eigenform frame, a frame-derived connection, and the
  Cartan 1-form of a regular Lagrangian.

Each derivation verifies its structure numerically before it returns it
and raises the :mod:`bianchi.gallery` error that names a broken property.
:func:`bianchi.gallery.build_case` imports this module when it first
builds one of these cases, and ``gallery._validate_case`` when it first
validates a case with a foliation, so a run of the generic cases never
compiles it.  The claims these cases carry are the ``IdentityCheck``
entries of :data:`bianchi.case_checks.CASE_CHECKS`, a module of its own
that only runs of those claims compile.

Calls into the other modules go through module attributes (``con.*``,
``geo.*``, ``se.*``, ``sf.*``), so a wrapper installed on those modules
before this one is imported still sees every call.
"""

from __future__ import annotations

import itertools
import random

from . import symexpr as se
from . import geometry as geo
from . import connection as con
from . import structure_forms as sf
from .geometry import Chart, LinearMap, PForm, VectorField
from .connection import Connection, Metric
from .gallery import (
    OSCILLATOR, R3, R4, _TOL, CaseValidationError, ContactConditionError, FrameSolveError,
    GalleryError, GeometryCase, SingularLagrangianError, _require_vanishing,
)
from .symexpr import Expr


# -- structures ------------------------------------------------------------------


# The structures are immutable by contract.


class ContactStructure:
    """A maximally non-integrable 1-form with its associated structure.

    ``form`` is the contact 1-form, ``reeb`` the unique field annihilating
    its differential with unit pairing, ``metric`` the associated Riemannian
    metric and ``endomorphism`` the compatible almost-complex-style map.
    """

    __slots__ = ("form", "reeb", "metric", "endomorphism")

    def __init__(self, form: PForm, reeb: VectorField, metric: Metric, endomorphism: LinearMap):
        self.form = form
        self.reeb = reeb
        self.metric = metric
        self.endomorphism = endomorphism


class FoliationStructure:
    """A codimension-one integrable 1-form with a leaf frame.

    ``leaf_fields`` span the kernel distribution of ``form`` and
    ``transverse`` completes them to a frame with unit pairing.
    """

    __slots__ = ("form", "leaf_fields", "transverse")

    def __init__(
        self, form: PForm, leaf_fields: tuple[VectorField, ...], transverse: VectorField
    ):
        self.form = form
        self.leaf_fields = leaf_fields
        self.transverse = transverse


class SodeStructure:
    """Second-order ODE system on a (time, positions, velocities) chart.

    The adapted frame is (semispray, horizontal fields, vertical fields)
    with eigenform basis (time form, contact forms, force forms); the
    vertical endomorphism pairs contact forms with vertical fields.
    """

    __slots__ = (
        "chart", "forces", "semispray", "vertical_endomorphism", "horizontal_fields",
        "vertical_fields", "time_form", "contact_forms", "force_forms",
    )

    def __init__(
        self,
        chart: Chart,
        forces: tuple[Expr, ...],
        semispray: VectorField,
        vertical_endomorphism: LinearMap,
        horizontal_fields: tuple[VectorField, ...],
        vertical_fields: tuple[VectorField, ...],
        time_form: PForm,
        contact_forms: tuple[PForm, ...],
        force_forms: tuple[PForm, ...],
    ):
        self.chart = chart
        self.forces = forces
        self.semispray = semispray
        self.vertical_endomorphism = vertical_endomorphism
        self.horizontal_fields = horizontal_fields
        self.vertical_fields = vertical_fields
        self.time_form = time_form
        self.contact_forms = contact_forms
        self.force_forms = force_forms

    def adapted_coframe(self) -> sf.CoFrame:
        frame = (self.semispray, *self.horizontal_fields, *self.vertical_fields)
        coframe = (self.time_form, *self.contact_forms, *self.force_forms)
        return sf.CoFrame(self.chart, frame, coframe)

# -- foliation ---------------------------------------------------------------------


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

# -- cases -------------------------------------------------------------------------


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


# gallery.build_case's builders of these cases, by case id
CASES = {
    "contact_r3": _case_contact_r3,
    "foliation_adapted": _case_foliation_adapted,
    "foliation_adapted_n4": _case_foliation_adapted_n4,
    "sode_oscillator": _case_sode_oscillator,
}
