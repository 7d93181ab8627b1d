"""Operator-family tests: defining sums against hand-derived values,
dual-path cross-checks, tensoriality of the componentwise builders."""

import itertools
import math
import random

import pytest

from bianchi import connection as con
from bianchi import gallery
from bianchi import geometry as geo
from bianchi import structure_forms as sf
from bianchi import symexpr as se
from oracles import (
    R3,
    R4,
    SPHERE,
    assert_close,
    connection_form_via_definition,
    curvature_three_form_via_iterated_derivatives,
    curvature_via_definition,
    exterior_derivative_intrinsic_expr,
    field_max_abs,
    field_values,
    random_linear_connection,
    sample_fields,
    same_tree,
    sample_points,
    sphere_metric,
)


def flat_with_torsion():
    """Flat connection with constant torsion T(dx, dy) = 2 d/dz."""
    return con.Connection.from_nonzero(R3, {(2, 0, 1): se.ONE, (2, 1, 0): se.neg(se.ONE)})


def sphere_connection():
    return con.levi_civita(sphere_metric())


def psi_form(conn, theta, z):
    return sf._componentwise(
        conn.chart, theta.degree + 1, lambda fs: sf.psi_form_apply(conn, theta, z, fs)
    )


def torsion_mixed_form(conn, theta, z):
    return sf._componentwise(
        conn.chart, theta.degree + 1, lambda fs: sf.torsion_mixed_form_apply(conn, theta, z, fs)
    )


def curvature_three_form(conn, theta):
    return sf._componentwise(
        conn.chart, 3, lambda fs: sf.curvature_three_form_apply(conn, theta, fs)
    )


# -- torsion form --------------------------------------------------------------


def test_torsion_form_one_form_inserts_torsion_value():
    conn = random_linear_connection(R3, 11)
    rng = random.Random(12)
    theta = geo.random_pform(R3, 1, rng)
    X, Y = sample_fields(R3, rng, 2)
    tor = con.torsion(conn)
    lhs = sf.torsion_form_apply(conn, theta, [X, Y])
    rhs = theta.apply([tor(X, Y)])
    assert_close(lhs, rhs, sample_points(R3, rng), tol=1e-12)


def test_torsion_form_frozen_values_on_torsion_case():
    conn = flat_with_torsion()
    dz = R3.basis_covector(2)
    built = sf.torsion_form(conn, dz)
    pt = {"x": 0.3, "y": -0.4, "z": 0.9}
    assert se.evaluate(built.component((0, 1)), pt) == pytest.approx(2.0)
    assert se.evaluate(built.component((0, 2)), pt) == pytest.approx(0.0)
    # degree-2 input: every slot of dz^dx kills the inserted 2*d/dz value
    two_form = geo.wedge(dz, R3.basis_covector(0))
    built2 = sf.torsion_form(conn, two_form)
    assert built2.comps == {}


def test_torsion_form_equals_d_plus_xi_on_random_fields():
    """Dual path: the defining sums against the exterior derivative."""
    for degree in (1, 2, 3):
        conn = random_linear_connection(R4, 20 + degree)
        rng = random.Random(30 + degree)
        theta = geo.random_pform(R4, degree, rng)
        fields = sample_fields(R4, rng, degree + 1)
        lhs = sf.torsion_form_apply(conn, theta, fields)
        rhs = se.add(
            exterior_derivative_intrinsic_expr(theta, fields),
            sf.xi_form_apply(conn, theta, fields),
        )
        assert_close(lhs, rhs, sample_points(R4, rng), tol=1e-9)


def test_degree_zero_inputs_rejected():
    conn = random_linear_connection(R3, 40)
    zero_form = geo.PForm(R3, 0, {(): se.Var("x")})
    Z = R3.basis_field(0)
    with pytest.raises(geo.DegreeError):
        sf.torsion_form(conn, zero_form)
    with pytest.raises(geo.DegreeError):
        sf.xi_form(conn, zero_form)
    with pytest.raises(geo.DegreeError):
        sf.connection_form(conn, zero_form, Z)
    with pytest.raises(geo.DegreeError):
        sf.curvature_form(conn, zero_form, Z)
    with pytest.raises(geo.DegreeError):
        psi_form(conn, zero_form, Z)
    with pytest.raises(geo.DegreeError):
        torsion_mixed_form(conn, zero_form, Z)


# -- xi form -------------------------------------------------------------------


def test_xi_form_frozen_flat_example():
    conn = con.Connection.zero(R3)
    theta = R3.basis_covector(1).scale(se.Var("x"))  # x dy
    built = sf.xi_form(conn, theta)
    pt = {"x": 0.7, "y": 0.1, "z": -0.2}
    assert se.evaluate(built.component((0, 1)), pt) == pytest.approx(-1.0)
    # first structure equation closes: T_theta = d theta + Xi_theta = 0
    total = geo.exterior_derivative(theta) + built
    assert all(se.evaluate(v, pt) == pytest.approx(0.0) for v in total.comps.values())


def test_xi_form_frozen_torsion_example():
    conn = flat_with_torsion()
    dz = R3.basis_covector(2)
    built = sf.xi_form(conn, dz)
    pt = {"x": 0.0, "y": 0.5, "z": -0.5}
    assert se.evaluate(built.component((0, 1)), pt) == pytest.approx(2.0)


def test_xi_one_form_reduction_matches_general_sum():
    """Degree 1 instance of the general sum against the two-term formula."""
    conn = random_linear_connection(R3, 60)
    rng = random.Random(61)
    theta = geo.random_pform(R3, 1, rng)
    X, Y = sample_fields(R3, rng, 2)
    general = sf.xi_form_apply(conn, theta, [X, Y])
    reduced = se.sub(
        con.covariant_derivative(conn, Y, theta).apply([X]),
        con.covariant_derivative(conn, X, theta).apply([Y]),
    )
    assert_close(general, reduced, sample_points(R3, rng), tol=1e-12)


# -- connection form -----------------------------------------------------------


def test_connection_form_frozen_flat_example():
    conn = con.Connection.zero(R3)
    dx = R3.basis_covector(0)
    Z = R3.basis_field(0).scale(se.Var("y"))  # y d/dx
    built = sf.connection_form(conn, dx, Z)
    pt = {"x": 0.2, "y": 0.4, "z": 0.6}
    assert se.evaluate(built.component((1,)), pt) == pytest.approx(1.0)
    assert se.evaluate(built.component((0,)), pt) == pytest.approx(0.0)


def test_connection_form_vanishes_for_parallel_field():
    conn = con.Connection.zero(R3)
    rng = random.Random(70)
    theta = geo.random_pform(R3, 2, rng)
    Z = geo.VectorField(R3, (se.Const(2), se.Const(-1), se.Const(3)))
    built = sf.connection_form(conn, theta, Z)
    assert built.comps == {}


def test_connection_one_form_reduction():
    conn = random_linear_connection(R3, 80)
    rng = random.Random(81)
    theta = geo.random_pform(R3, 1, rng)
    Z, X = sample_fields(R3, rng, 2)
    lhs = connection_form_via_definition(conn, theta, Z, [X])
    rhs = theta.apply([con.covariant_derivative(conn, X, Z)])
    assert_close(lhs, rhs, sample_points(R3, rng), tol=1e-12)


# -- curvature form ------------------------------------------------------------


def test_curvature_form_sphere_frozen_value():
    conn = sphere_connection()
    dphi = SPHERE.basis_covector(0)
    Z = SPHERE.basis_field(1)
    built = sf.curvature_form(conn, dphi, Z)
    rng = random.Random(90)
    for pt in sample_points(SPHERE, rng):
        expected = math.sin(pt["phi"]) ** 2
        assert se.evaluate(built.component((0, 1)), pt) == pytest.approx(expected, abs=1e-10)


def test_curvature_form_function_linear_in_theta_and_z():
    conn = random_linear_connection(R3, 100)
    rng = random.Random(101)
    theta = geo.random_pform(R3, 1, rng)
    Z = geo.random_vector_field(R3, rng)
    f = geo.random_polynomial(R3, rng)
    fields = sample_fields(R3, rng, 2)
    points = sample_points(R3, rng)

    scaled_z = sf.curvature_form_apply(conn, theta, Z.scale(f), fields)
    scaled_theta = sf.curvature_form_apply(conn, theta.scale(f), Z, fields)
    base = sf.curvature_form_apply(conn, theta, Z, fields)
    assert_close(scaled_z, se.mul(f, base), points)
    assert_close(scaled_theta, se.mul(f, base), points)

    t_scaled = sf.torsion_form_apply(conn, theta.scale(f), fields)
    t_base = sf.torsion_form_apply(conn, theta, fields)
    assert_close(t_scaled, se.mul(f, t_base), points)


def test_curvature_form_flat_connection_vanishes():
    conn = con.Connection.zero(R3)
    rng = random.Random(110)
    theta = geo.random_pform(R3, 2, rng)
    Z = geo.random_vector_field(R3, rng)
    built = sf.curvature_form(conn, theta, Z)
    assert built.comps == {}


# -- psi form ------------------------------------------------------------------


def test_psi_form_frozen_flat_example():
    conn = con.Connection.zero(R3)
    theta = R3.basis_covector(1).scale(se.Var("x"))  # x dy
    Z = R3.basis_field(0).scale(se.Var("x"))  # x d/dx
    built = psi_form(conn, theta, Z)
    pt = {"x": 0.5, "y": 0.5, "z": 0.5}
    assert se.evaluate(built.component((0, 1)), pt) == pytest.approx(0.0)


def test_psi_form_vanishes_for_parallel_field():
    conn = con.Connection.zero(R3)
    rng = random.Random(120)
    theta = geo.random_pform(R3, 2, rng)
    Z = geo.VectorField(R3, (se.ONE, se.Const(4), se.ZERO))
    built = psi_form(conn, theta, Z)
    assert built.comps == {}


def test_psi_form_is_negated_nabla_wedge():
    rng = random.Random(130)
    for trial in range(20):
        conn = random_linear_connection(R3, 600 + trial)
        theta = geo.random_pform(R3, 1, rng)
        Z = geo.random_vector_field(R3, rng)
        fields = sample_fields(R3, rng, 2)
        X, Y = fields
        lhs = sf.psi_form_apply(conn, theta, Z, fields)
        # -(nabla theta ^ nabla Z)(X, Y), the pairing written out
        rhs = se.sub(
            con.covariant_derivative(conn, Y, theta).apply([con.covariant_derivative(conn, X, Z)]),
            con.covariant_derivative(conn, X, theta).apply([con.covariant_derivative(conn, Y, Z)]),
        )
        assert_close(lhs, rhs, [geo.random_point(R3, rng)], tol=1e-9)


def test_psi_one_form_reduction():
    conn = random_linear_connection(R3, 140)
    rng = random.Random(141)
    theta = geo.random_pform(R3, 1, rng)
    Z, X, Y = sample_fields(R3, rng, 3)
    general = sf.psi_form_apply(conn, theta, Z, [X, Y])
    reduced = se.sub(
        con.covariant_derivative(conn, Y, theta).apply([con.covariant_derivative(conn, X, Z)]),
        con.covariant_derivative(conn, X, theta).apply([con.covariant_derivative(conn, Y, Z)]),
    )
    assert_close(general, reduced, sample_points(R3, rng), tol=1e-12)


# -- mixed torsion form ---------------------------------------------------------


def test_torsion_mixed_form_zero_for_one_forms():
    conn = flat_with_torsion()
    rng = random.Random(150)
    theta = geo.random_pform(R3, 1, rng)
    Z = geo.random_vector_field(R3, rng)
    built = torsion_mixed_form(conn, theta, Z)
    assert built.comps == {}
    fields = sample_fields(R3, rng, 2)
    assert sf.torsion_mixed_form_apply(conn, theta, Z, fields) is se.ZERO


def test_torsion_mixed_form_zero_without_torsion():
    conn = sphere_connection()
    dphi = SPHERE.basis_covector(0)
    dpsi = SPHERE.basis_covector(1)
    Z = SPHERE.basis_field(0)
    built = torsion_mixed_form(conn, geo.wedge(dphi, dpsi), Z)
    rng = random.Random(160)
    for pt in sample_points(SPHERE, rng):
        for value in built.comps.values():
            assert se.evaluate(value, pt) == pytest.approx(0.0, abs=1e-12)


def test_torsion_mixed_form_dual_path_via_connection_form():
    """The mixed form is pinned implicitly by the general second structure
    equation: T_{Theta,Z} = d omega - R + Psi."""
    conn = random_linear_connection(R4, 170)
    rng = random.Random(171)
    theta = geo.random_pform(R4, 2, rng)
    Z = geo.random_vector_field(R4, rng)
    fields = sample_fields(R4, rng, 3)

    omega = sf.connection_form(conn, theta, Z)
    d_omega = geo.exterior_derivative(omega)
    implied = se.add_all(
        [
            d_omega.apply(fields),
            se.neg(sf.curvature_form_apply(conn, theta, Z, fields)),
            sf.psi_form_apply(conn, theta, Z, fields),
        ]
    )
    direct = sf.torsion_mixed_form_apply(conn, theta, Z, fields)
    assert_close(direct, implied, sample_points(R4, rng), tol=1e-9)


# -- curvature 3-form -----------------------------------------------------------


def test_curvature_three_form_matches_iterated_derivative_route():
    conn = random_linear_connection(R3, 180)
    rng = random.Random(181)
    theta = geo.random_pform(R3, 1, rng)
    fields = sample_fields(R3, rng, 3)
    lhs = sf.curvature_three_form_apply(conn, theta, fields)
    rhs = curvature_three_form_via_iterated_derivatives(conn, theta, fields)
    assert_close(lhs, rhs, sample_points(R3, rng, n=20), tol=1e-9)


def test_curvature_three_form_vanishes_for_levi_civita():
    rng = random.Random(190)
    g = con.Metric.from_nonzero(
        R3,
        {
            (0, 0): se.add(se.ONE, se.power(se.Var("y"), 2)),
            (1, 1): se.Const(2),
            (2, 2): se.ONE,
        },
    )
    conn3 = con.levi_civita(g)
    theta3 = geo.random_pform(R3, 1, rng)
    built = curvature_three_form(conn3, theta3)
    for pt in sample_points(R3, rng):
        for value in built.comps.values():
            assert se.evaluate(value, pt) == pytest.approx(0.0, abs=1e-10)


def test_curvature_three_form_vanishes_when_curvature_does():
    conn = flat_with_torsion()
    rng = random.Random(200)
    theta = geo.random_pform(R3, 1, rng)
    built = curvature_three_form(conn, theta)
    assert built.comps == {}


# -- curvature 3-form against its wedge decomposition ---------------------------


def test_curvature_candidate_reduces_to_three_form_at_degree_one():
    """d T_theta - (nabla theta ^ T) is the curvature 3-form of a 1-form."""
    conn = random_linear_connection(R3, 210)
    rng = random.Random(211)
    theta = geo.random_pform(R3, 1, rng)
    fields = list(R3.coordinate_frame())  # the one component of a 3-form on R3
    candidate = se.sub(
        geo.exterior_derivative(sf.torsion_form(conn, theta)).apply(fields),
        sf.wedge_covector_torsion_apply(conn, theta, fields),
    )
    direct = sf.curvature_three_form_apply(conn, theta, fields)
    assert_close(candidate, direct, sample_points(R3, rng), tol=1e-10)


def test_tensor_wedge_curvature_identity_against_brute_force():
    for chart, seed in ((SPHERE, 260), (R3, 261)):
        conn = sphere_connection() if chart is SPHERE else random_linear_connection(chart, seed)
        rng = random.Random(seed)
        fields = sample_fields(chart, rng, 3) if chart.dim >= 3 else None
        if chart.dim < 3:
            continue
        lhs = sf.wedge_curvature_identity_apply(conn, fields)
        total = None
        for i in range(3):
            x, y, z = fields[i % 3], fields[(i + 1) % 3], fields[(i + 2) % 3]
            value = curvature_via_definition(conn, x, y, z)
            total = value if total is None else total + value
        residual = lhs - total
        for pt in sample_points(chart, rng):
            assert field_max_abs(residual, [pt]) < 1e-9


def test_tensor_wedge_sphere_curvature_identity_brute_force_frozen():
    """Coordinate triple on the sphere: the cyclic curvature sum telescopes
    to zero by antisymmetry, matching the brute-force value."""
    conn = sphere_connection()
    fields = [SPHERE.basis_field(0), SPHERE.basis_field(1), SPHERE.basis_field(1)]
    value = sf.wedge_curvature_identity_apply(conn, fields)
    pt = {"phi": 1.0, "psi": 1.0}
    assert field_max_abs(value, [pt]) == pytest.approx(0.0, abs=1e-12)


# -- exterior covariant derivative -----------------------------------------------


def test_exterior_covariant_derivative_of_soldering_is_torsion():
    conn = flat_with_torsion()
    derived = sf.exterior_covariant_derivative(conn, sf.soldering_form(R3))
    value = derived(R3.basis_field(0), R3.basis_field(1))
    pt = {"x": 0.1, "y": 0.2, "z": 0.3}
    assert field_values(value, pt) == pytest.approx([0.0, 0.0, 2.0])

    conn2 = random_linear_connection(R3, 270)
    rng = random.Random(271)
    X, Y = sample_fields(R3, rng, 2)
    derived2 = sf.exterior_covariant_derivative(conn2, sf.soldering_form(R3))
    tor = con.torsion(conn2)
    residual = derived2(X, Y) - tor(X, Y)
    for pt in sample_points(R3, rng):
        assert field_max_abs(residual, [pt]) < 1e-10


def test_exterior_covariant_derivative_of_differential_is_curvature():
    conn = random_linear_connection(R3, 280)
    rng = random.Random(281)
    Z = geo.random_vector_field(R3, rng)
    X, Y = sample_fields(R3, rng, 2)
    derived = sf.exterior_covariant_derivative(conn, sf.covariant_differential(conn, Z))
    residual = derived(X, Y) - con.curvature(conn)(X, Y)(Z)
    for pt in sample_points(R3, rng):
        assert field_max_abs(residual, [pt]) < 1e-9

    flat = con.Connection.zero(R3)
    derived_flat = sf.exterior_covariant_derivative(flat, sf.covariant_differential(flat, Z))
    value = derived_flat(X, Y)
    for pt in sample_points(R3, rng):
        assert field_max_abs(value, [pt]) < 1e-12


def test_exterior_covariant_derivative_of_torsion_is_curvature_wedge():
    for conn in (sphere_connection(), random_linear_connection(R3, 290)):
        chart = conn.chart
        if chart.dim < 3:
            continue
        rng = random.Random(291)
        fields = sample_fields(chart, rng, 3)
        lhs = sf.exterior_covariant_derivative(conn, con.torsion(conn))(*fields)
        rhs = sf.wedge_curvature_identity_apply(conn, fields)
        residual = lhs - rhs
        for pt in sample_points(chart, rng):
            assert field_max_abs(residual, [pt]) < 1e-9


def test_exterior_covariant_derivative_of_curvature_vanishes():
    conn = random_linear_connection(R3, 300)
    rng = random.Random(301)
    fields = sample_fields(R3, rng, 3)
    W = geo.random_vector_field(R3, rng)
    derived = sf.exterior_covariant_derivative(conn, con.curvature(conn))
    endo = derived(*fields)
    value = endo(W)
    for pt in sample_points(R3, rng):
        assert field_max_abs(value, [pt]) < 1e-9


def test_exterior_covariant_derivative_of_a_covector_differential_is_curvature():
    """d^nabla of the covector-valued 1-form X -> nabla_X theta, applied to
    Z, is -theta(R(X, Y)Z)."""
    conn = gallery.build_case("random_poly").connection
    rng = random.Random(310)
    theta = geo.random_pform(R3, 1, rng)
    X, Y, Z = sample_fields(R3, rng, 3)
    nabla_theta = geo.TensorValuedForm(R3, 1, lambda x: con.covariant_derivative(conn, x, theta))
    lhs = sf.exterior_covariant_derivative(conn, nabla_theta)(X, Y).apply([Z])
    rhs = se.neg(theta.apply([con.curvature(conn).apply_to(X, Y, Z)]))
    assert se.holds_exactly(lhs, rhs)
    assert_close(lhs, rhs, sample_points(R3, rng), tol=1e-9)


def test_exterior_covariant_derivative_rejects_non_forms():
    conn = random_linear_connection(R3, 311)
    with pytest.raises(sf.UnsupportedValueKindError):
        sf.exterior_covariant_derivative(conn, "not a form")
    # bare fields are not forms: covariant_differential builds the 1-form of a field
    with pytest.raises(sf.UnsupportedValueKindError):
        sf.exterior_covariant_derivative(conn, R3.basis_field(0))
    with pytest.raises(sf.UnsupportedValueKindError):
        sf.exterior_covariant_derivative(conn, geo.LinearMap(R3, [[se.ONE] * 3] * 3))


# -- componentwise builders against direct evaluators ----------------------------


def test_componentwise_builders_agree_with_direct_apply():
    """Tensoriality: the coordinate-frame components reproduce the defining
    sums on arbitrary non-coordinate fields."""
    conn = random_linear_connection(R3, 320)
    rng = random.Random(321)
    theta1 = geo.random_pform(R3, 1, rng)
    theta2 = geo.random_pform(R3, 2, rng)
    Z = geo.random_vector_field(R3, rng)
    points = sample_points(R3, rng)

    pairs = []
    fields2 = sample_fields(R3, rng, 2)
    fields3 = sample_fields(R3, rng, 3)
    pairs.append((sf.torsion_form(conn, theta1).apply(fields2),
                  sf.torsion_form_apply(conn, theta1, fields2)))
    pairs.append((sf.torsion_form(conn, theta2).apply(fields3),
                  sf.torsion_form_apply(conn, theta2, fields3)))
    pairs.append((sf.xi_form(conn, theta2).apply(fields3),
                  sf.xi_form_apply(conn, theta2, fields3)))
    pairs.append((sf.connection_form(conn, theta2, Z).apply(fields2),
                  connection_form_via_definition(conn, theta2, Z, fields2)))
    pairs.append((sf.curvature_form(conn, theta2, Z).apply(fields3),
                  sf.curvature_form_apply(conn, theta2, Z, fields3)))
    pairs.append((psi_form(conn, theta2, Z).apply(fields3),
                  sf.psi_form_apply(conn, theta2, Z, fields3)))
    pairs.append((torsion_mixed_form(conn, theta2, Z).apply(fields3),
                  sf.torsion_mixed_form_apply(conn, theta2, Z, fields3)))
    pairs.append((curvature_three_form(conn, theta1).apply(fields3),
                  sf.curvature_three_form_apply(conn, theta1, fields3)))
    for lhs, rhs in pairs:
        assert_close(lhs, rhs, points, tol=1e-9)


class BuiltValues:
    """Delegates calls and ``apply_to`` to ``inner`` and keeps the distinct
    objects they return, by id."""

    def __init__(self, inner):
        self.inner, self.values = inner, {}

    def _kept(self, value):
        self.values[id(value)] = value
        return value

    def __call__(self, *args):
        return self._kept(self.inner(*args))

    def apply_to(self, *args):
        return self._kept(self.inner.apply_to(*args))


def test_componentwise_builders_insert_each_axis_value_once(monkeypatch):
    """In a sharing table each builder on R4 builds its inserted value once
    per axis (4) or axis pair (6), not once per component and position
    (12).  The builders keep no cache of their own: the table does the
    reuse, so the test counts distinct built values, not calls."""
    conn = random_linear_connection(R4, 340)
    rng = random.Random(341)
    theta = geo.random_pform(R4, 2, rng)
    z = geo.random_vector_field(R4, rng)
    nabla = BuiltValues(con.covariant_derivative)
    tor, curv = BuiltValues(con.torsion(conn)), BuiltValues(con.curvature(conn))
    monkeypatch.setattr(sf, "covariant_derivative", nabla)
    monkeypatch.setattr(sf, "torsion", lambda _: tor)
    monkeypatch.setattr(sf, "curvature", lambda _: curv)
    with geo.sharing({}):
        sf.connection_form(conn, theta, z)
        assert len(nabla.values) == 4
        sf.xi_form(conn, theta)
        assert len(nabla.values) == 8
        sf.torsion_form(conn, theta)
        assert len(tor.values) == 6
        sf.curvature_form(conn, theta, z)
        assert len(curv.values) == 6


def test_direct_evaluators_are_antisymmetric():
    conn = random_linear_connection(R3, 330)
    rng = random.Random(331)
    theta = geo.random_pform(R3, 2, rng)
    Z = geo.random_vector_field(R3, rng)
    a, b, c = sample_fields(R3, rng, 3)
    points = sample_points(R3, rng)
    for fn in (
        lambda fs: sf.torsion_form_apply(conn, theta, fs),
        lambda fs: sf.xi_form_apply(conn, theta, fs),
        lambda fs: sf.curvature_form_apply(conn, theta, Z, fs),
        lambda fs: sf.psi_form_apply(conn, theta, Z, fs),
        lambda fs: sf.torsion_mixed_form_apply(conn, theta, Z, fs),
    ):
        swapped = se.add(fn([a, b, c]), fn([b, a, c]))
        rotated = se.add(fn([a, b, c]), fn([a, c, b]))
        assert_close(swapped, se.ZERO, points, tol=1e-11)
        assert_close(rotated, se.ZERO, points, tol=1e-11)


# -- coframes ---------------------------------------------------------------------


def test_cartan_coframe_forms_sphere_frozen_values():
    conn = sphere_connection()
    frame = sf.CoFrame.coordinate(SPHERE)
    forms = sf.cartan_coframe_forms(conn, frame)
    rng = random.Random(340)
    for pt in sample_points(SPHERE, rng):
        cot = math.cos(pt["phi"]) / math.sin(pt["phi"])
        # omega^psi_phi(d/dpsi) = cot(phi)
        assert se.evaluate(
            forms.connection_one_forms[1][0].component((1,)), pt
        ) == pytest.approx(cot, abs=1e-10)
        # torsion-free: all torsion two-forms vanish
        for two_form in forms.torsion_two_forms:
            for value in two_form.comps.values():
                assert se.evaluate(value, pt) == pytest.approx(0.0, abs=1e-12)
        # Omega^phi_psi(d/dphi, d/dpsi) = sin^2(phi)
        assert se.evaluate(
            forms.curvature_two_forms[0][1].component((0, 1)), pt
        ) == pytest.approx(math.sin(pt["phi"]) ** 2, abs=1e-10)


def test_cartan_coframe_forms_flat_coordinate_frame_trivial():
    conn = con.Connection.zero(R3)
    forms = sf.cartan_coframe_forms(conn, sf.CoFrame.coordinate(R3))
    for row in forms.connection_one_forms:
        for one_form in row:
            assert one_form.comps == {}
    for two_form in forms.torsion_two_forms:
        assert two_form.comps == {}
    for row in forms.curvature_two_forms:
        for two_form in row:
            assert two_form.comps == {}


def test_cartan_torsion_forms_match_torsion_form_builder():
    conn = random_linear_connection(R3, 350)
    frame = sf.CoFrame.coordinate(R3)
    forms = sf.cartan_coframe_forms(conn, frame)
    rng = random.Random(351)
    points = sample_points(R3, rng)
    for a in range(3):
        direct = sf.torsion_form(conn, frame.coframe[a])
        residual = forms.torsion_two_forms[a] - direct
        for pt in points:
            for value in residual.comps.values():
                assert se.evaluate(value, pt) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("case_id", ["random_linear", "sode_oscillator"])
def test_cartan_forms_equal_the_single_form_builders(case_id):
    """The shared build gives the values of connection_form and
    curvature_form bit for bit, on a non-coordinate coframe too."""
    if case_id == "sode_oscillator":
        case = gallery.build_case(case_id)
        conn, coframe = case.connection, case.coframe
    else:
        conn, coframe = random_linear_connection(R3, 352), sf.CoFrame.coordinate(R3)
    forms = sf.cartan_coframe_forms(conn, coframe)
    points = sample_points(conn.chart, random.Random(353), n=3)
    n = conn.chart.dim
    for a, theta in enumerate(coframe.coframe):
        for b, u in enumerate(coframe.frame):
            pairs = (
                (forms.connection_one_forms[a][b], sf.connection_form(conn, theta, u)),
                (forms.curvature_two_forms[a][b], sf.curvature_form(conn, theta, u)),
            )
            for built, direct in pairs:
                for key in itertools.combinations(range(n), direct.degree):
                    for pt in points:
                        assert se.evaluate(built.component(key), pt) == se.evaluate(
                            direct.component(key), pt
                        )


def test_cartan_forms_are_built_once_per_connection_and_coframe():
    conn = random_linear_connection(R3, 354)
    frame = sf.CoFrame.coordinate(R3)
    forms = sf.cartan_coframe_forms(conn, frame)
    assert sf.cartan_coframe_forms(conn, frame) is forms
    mutant_forms = sf.cartan_coframe_forms(conn.perturbed(2, 0, 1, 1), frame)
    assert mutant_forms is not forms
    shifted, original = mutant_forms.torsion_two_forms[2], forms.torsion_two_forms[2]
    assert not same_tree(shifted.component((0, 1)), original.component((0, 1)))
    other = sf.CoFrame.coordinate(R3)
    assert sf.cartan_coframe_forms(conn, other).coframe is other


def bad_coframe():
    return sf.CoFrame(
        R3,
        (R3.basis_field(0), R3.basis_field(0) + R3.basis_field(1), R3.basis_field(2)),
        tuple(R3.basis_covector(i) for i in range(3)),
    )


def test_coframe_duality_violation_raises():
    with pytest.raises(sf.CoFrameError, match="duality"):
        bad_coframe()


def test_coframe_duality_is_checked_once_when_the_coframe_is_built(monkeypatch):
    conn = random_linear_connection(R3, 355)
    coframe = sf.CoFrame.coordinate(R3)
    scans = []
    scan = se.worst_residual
    monkeypatch.setattr(se, "worst_residual", lambda *args: scans.append(args) or scan(*args))
    sf.cartan_coframe_forms(conn.perturbed(2, 0, 1, 1), coframe)
    assert scans == []
    sf.CoFrame.coordinate(R3)
    assert len(scans) == 1


def test_coframe_duality_violation_raises_after_a_valid_coframe_was_kept():
    conn = con.Connection.zero(R3)
    good = sf.CoFrame.coordinate(R3)
    forms = sf.cartan_coframe_forms(conn, good)
    for _ in range(2):
        with pytest.raises(sf.CoFrameError):
            sf.cartan_coframe_forms(conn, bad_coframe())
    assert sf.cartan_coframe_forms(conn, good) is forms


def test_coframe_shape_validation():
    with pytest.raises(sf.CoFrameError):
        sf.CoFrame(R3, (R3.basis_field(0),), tuple(R3.basis_covector(i) for i in range(3)))
    with pytest.raises(sf.CoFrameError):
        sf.CoFrame(
            R3,
            R3.coordinate_frame(),
            (R3.basis_covector(0), R3.basis_covector(1), geo.wedge(R3.basis_covector(0), R3.basis_covector(1))),
        )


def test_coframe_duality_rejects_non_finite_values():
    big = se.Const(10**300)
    overflow = se.Mul(se.Mul(big, se.Var("x")), big)
    nan = se.Add(overflow, se.Neg(overflow))
    frame = (R3.basis_field(0).scale(se.add(se.ONE, nan)), R3.basis_field(1), R3.basis_field(2))
    with pytest.raises(sf.CoFrameError, match="residual nan"):
        sf.CoFrame(R3, frame, tuple(R3.basis_covector(i) for i in range(3)))
