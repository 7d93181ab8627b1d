"""Connection-layer tests: dual-path torsion/curvature, Leibniz rules,
Levi-Civita against frozen sphere values."""

import random

import pytest

from bianchi import connection as con
from bianchi import geometry as geo
from bianchi import symexpr as se


R3 = geo.Chart("r3", ("x", "y", "z"), ((-1.0, 1.0),) * 3)
SPHERE = geo.Chart(
    "sphere", ("phi", "psi"), ((0.3, 2.8), (0.1, 6.18)), trig_sampling=True
)


def random_linear_connection(chart, seed):
    """Christoffels: degree <= 1 polynomials with small integer coefficients."""
    rng = random.Random(seed)
    n = chart.dim
    gamma = [
        [[geo.random_polynomial(chart, rng, degree=1) for _ in range(n)] for _ in range(n)]
        for _ in range(n)
    ]
    return con.Connection(chart, gamma)


def sphere_metric():
    phi = se.Var("phi")
    return con.Metric.from_nonzero(SPHERE, {(0, 0): se.ONE, (1, 1): se.power(se.sin(phi), 2)})


def max_abs(field, points):
    return max(abs(v) for pt in points for v in field.evaluate(pt))


def sample_points(chart, rng, n=5):
    return [geo.random_point(chart, rng) for _ in range(n)]


def test_covariant_derivative_of_scalar_is_directional():
    conn = random_linear_connection(R3, 1)
    rng = random.Random(2)
    X = geo.random_vector_field(R3, rng)
    f = geo.random_polynomial(R3, rng)
    lhs = con.covariant_derivative(conn, X, f)
    rhs = geo.apply_vector_field(X, f)
    pt = geo.random_point(R3, rng)
    assert se.evaluate(lhs, pt) == pytest.approx(se.evaluate(rhs, pt))


def test_covariant_derivative_leibniz_over_pairing():
    """X(theta(Y)) = (nabla_X theta)(Y) + theta(nabla_X Y)."""
    conn = random_linear_connection(R3, 3)
    rng = random.Random(4)
    X = geo.random_vector_field(R3, rng)
    Y = geo.random_vector_field(R3, rng)
    theta = geo.random_pform(R3, 1, rng)
    lhs = geo.apply_vector_field(X, theta.apply([Y]))
    rhs = se.add(
        con.covariant_derivative(conn, X, theta).apply([Y]),
        theta.apply([con.covariant_derivative(conn, X, Y)]),
    )
    for pt in sample_points(R3, rng):
        assert se.evaluate(lhs, pt) == pytest.approx(se.evaluate(rhs, pt), abs=1e-9)


def test_covariant_derivative_leibniz_on_two_forms():
    """X(w(Y,Z)) = (nabla_X w)(Y,Z) + w(nabla_X Y, Z) + w(Y, nabla_X Z)."""
    conn = random_linear_connection(R3, 5)
    rng = random.Random(6)
    X, Y, Z = (geo.random_vector_field(R3, rng) for _ in range(3))
    w = geo.random_pform(R3, 2, rng)
    lhs = geo.apply_vector_field(X, w.apply([Y, Z]))
    rhs = se.add_all(
        [
            con.covariant_derivative(conn, X, w).apply([Y, Z]),
            w.apply([con.covariant_derivative(conn, X, Y), Z]),
            w.apply([Y, con.covariant_derivative(conn, X, Z)]),
        ]
    )
    for pt in sample_points(R3, rng):
        assert se.evaluate(lhs, pt) == pytest.approx(se.evaluate(rhs, pt), abs=1e-9)


def test_covariant_derivative_is_tensorial_in_direction():
    conn = random_linear_connection(R3, 7)
    rng = random.Random(8)
    X, Y = (geo.random_vector_field(R3, rng) for _ in range(2))
    f = geo.random_polynomial(R3, rng)
    lhs = con.covariant_derivative(conn, X.scale(f), Y)
    rhs = con.covariant_derivative(conn, X, Y).scale(f)
    diff = lhs - rhs
    for pt in sample_points(R3, rng):
        assert max(abs(v) for v in diff.evaluate(pt)) <= 1e-9


def test_torsion_components_match_definition_with_brackets():
    conn = random_linear_connection(R3, 9)
    T = con.torsion(conn)
    rng = random.Random(10)
    for _ in range(5):
        X = geo.random_vector_field(R3, rng)
        Y = geo.random_vector_field(R3, rng)
        diff = T(X, Y) - con.torsion_via_definition(conn, X, Y)
        assert max_abs(diff, sample_points(R3, rng)) <= 1e-9


def test_curvature_components_match_definition_with_brackets():
    conn = random_linear_connection(R3, 11)
    R = con.curvature(conn)
    rng = random.Random(12)
    for _ in range(5):
        X, Y, Z = (geo.random_vector_field(R3, rng) for _ in range(3))
        diff = R(X, Y)(Z) - con.curvature_via_definition(conn, X, Y, Z)
        assert max_abs(diff, sample_points(R3, rng)) <= 1e-9


def test_curvature_antisymmetry_and_curried_view():
    conn = random_linear_connection(R3, 13)
    R = con.curvature(conn)
    rng = random.Random(14)
    X, Y, Z = (geo.random_vector_field(R3, rng) for _ in range(3))
    diff = R(X, Y)(Z) + R(Y, X)(Z)
    assert max_abs(diff, sample_points(R3, rng)) <= 1e-9
    diff = R.apply_to(X, Y, Z) - R(X, Y)(Z)
    assert max_abs(diff, sample_points(R3, rng)) <= 1e-12


def test_endomorphism_covariant_derivative_leibniz():
    conn = random_linear_connection(R3, 15)
    rng = random.Random(16)
    R = con.curvature(conn)
    X, Y, Z, W = (geo.random_vector_field(R3, rng) for _ in range(4))
    E = R(Y, Z)
    lhs = con.covariant_derivative(conn, X, E)(W)
    rhs = con.covariant_derivative(conn, X, E(W)) - E(con.covariant_derivative(conn, X, W))
    diff = lhs - rhs
    assert max_abs(diff, sample_points(R3, rng)) <= 1e-9


def test_tensor_valued_form_covariant_derivative_leibniz():
    conn = random_linear_connection(R3, 17)
    rng = random.Random(18)
    T = con.torsion(conn)
    X, Y, Z = (geo.random_vector_field(R3, rng) for _ in range(3))
    nabla_T = con.covariant_derivative(conn, X, T)
    lhs = nabla_T(Y, Z)
    rhs = (
        con.covariant_derivative(conn, X, T(Y, Z))
        - T(con.covariant_derivative(conn, X, Y), Z)
        - T(Y, con.covariant_derivative(conn, X, Z))
    )
    diff = lhs - rhs
    assert max_abs(diff, sample_points(R3, rng)) <= 1e-9


def test_levi_civita_sphere_frozen_christoffels():
    """Round metric on the sphere chart: the three classical symbols."""
    conn = con.levi_civita(sphere_metric())
    rng = random.Random(19)
    phi_axis, psi_axis = 0, 1
    for _ in range(5):
        pt = geo.random_point(SPHERE, rng)
        phi = pt["phi"]
        import math

        expected = {
            (phi_axis, psi_axis, psi_axis): -math.sin(phi) * math.cos(phi),
            (psi_axis, phi_axis, psi_axis): math.cos(phi) / math.sin(phi),
            (psi_axis, psi_axis, phi_axis): math.cos(phi) / math.sin(phi),
        }
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    want = expected.get((k, i, j), 0.0)
                    got = se.evaluate(conn.christoffel(k, i, j), pt)
                    assert got == pytest.approx(want, abs=1e-10), (k, i, j)


def test_levi_civita_is_torsion_free_and_metric_compatible():
    metric = sphere_metric()
    conn = con.levi_civita(metric)
    T = con.torsion(conn)
    rng = random.Random(20)
    X, Y, Z = (geo.random_vector_field(SPHERE, rng) for _ in range(3))
    assert max_abs(T(X, Y), sample_points(SPHERE, rng)) <= 1e-9
    # nabla g = 0: X(g(Y,Z)) = g(nabla_X Y, Z) + g(Y, nabla_X Z)
    lhs = geo.apply_vector_field(X, metric.value(Y, Z))
    rhs = se.add(
        metric.value(con.covariant_derivative(conn, X, Y), Z),
        metric.value(Y, con.covariant_derivative(conn, X, Z)),
    )
    for pt in sample_points(SPHERE, rng):
        assert se.evaluate(lhs, pt) == pytest.approx(se.evaluate(rhs, pt), abs=1e-9)


def test_sphere_curvature_frozen_value():
    """R(d_phi, d_psi) d_psi = sin(phi)^2 d_phi on the round sphere."""
    conn = con.levi_civita(sphere_metric())
    R = con.curvature(conn)
    d_phi = SPHERE.basis_field(0)
    d_psi = SPHERE.basis_field(1)
    value = R(d_phi, d_psi)(d_psi)
    rng = random.Random(21)
    import math

    for _ in range(5):
        pt = geo.random_point(SPHERE, rng)
        comps = value.evaluate(pt)
        assert comps[0] == pytest.approx(math.sin(pt["phi"]) ** 2, abs=1e-10)
        assert comps[1] == pytest.approx(0.0, abs=1e-10)


def test_levi_civita_rejects_singular_metric():
    degenerate = con.Metric.from_nonzero(R3, {(0, 0): se.ONE, (1, 1): se.ONE, (2, 2): se.ZERO})
    with pytest.raises(con.SingularMetricError):
        con.levi_civita(degenerate)


def test_levi_civita_rejects_nan_metric():
    big = se.Const(10**300)
    overflow = se.Mul(se.Mul(big, se.Var("x")), big)
    nan = se.Add(overflow, se.Neg(overflow))
    plane = geo.Chart("plane", ("x", "y"), ((-1.0, 1.0),) * 2)
    metric = con.Metric.from_nonzero(plane, {(0, 0): nan, (1, 1): se.ONE})
    with pytest.raises(con.SingularMetricError, match="determinant is nan"):
        con.levi_civita(metric)


def test_torsion_and_curvature_are_built_once_per_connection():
    conn = random_linear_connection(R3, 40)
    assert con.torsion(conn) is con.torsion(conn)
    assert con.curvature(conn) is con.curvature(conn)


def test_perturbed_connection_builds_its_own_torsion_and_curvature():
    conn = random_linear_connection(R3, 41)
    tor, curv = con.torsion(conn), con.curvature(conn)
    mutant = conn.perturbed(2, 0, 1, 1)
    mutant_tor, mutant_curv = con.torsion(mutant), con.curvature(mutant)
    assert mutant_tor is not tor
    assert mutant_curv is not curv
    assert mutant_tor.components != tor.components
    assert mutant_curv.components != curv.components
    shift = se.sub(mutant_tor.components[2][0][1], tor.components[2][0][1])
    for pt in sample_points(R3, random.Random(42)):
        assert se.evaluate(shift, pt) == pytest.approx(1.0, abs=1e-12)


def test_metric_inverse_is_symbolic_inverse():
    metric = sphere_metric()
    inv = metric.inverse()
    rng = random.Random(22)
    for pt in sample_points(SPHERE, rng):
        for i in range(2):
            for j in range(2):
                total = sum(
                    se.evaluate(metric.g[i][k], pt) * se.evaluate(inv[k][j], pt)
                    for k in range(2)
                )
                assert total == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_zero_connection_has_flat_curvature():
    conn = con.Connection.zero(R3)
    R = con.curvature(conn)
    rng = random.Random(23)
    X, Y, Z = (geo.random_vector_field(R3, rng) for _ in range(3))
    assert max_abs(R(X, Y)(Z), sample_points(R3, rng)) == 0.0


def test_perturbed_copy_changes_one_symbol_only():
    conn = con.Connection.zero(R3)
    bumped = conn.perturbed(2, 0, 1, 1)
    assert bumped.christoffel(2, 0, 1) == se.ONE
    assert bumped.christoffel(2, 1, 0) == se.ZERO
    assert conn.christoffel(2, 0, 1) == se.ZERO
