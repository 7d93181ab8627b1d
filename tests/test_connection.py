"""Connection-layer tests: dual-path torsion/curvature, Leibniz rules,
Levi-Civita against frozen sphere values."""

import itertools
import math
import random

import pytest

from bianchi import connection as con
from bianchi import geometry as geo
from bianchi import symexpr as se
from oracles import (
    R3,
    R4,
    SPHERE,
    covariant_endomorphism_via_leibniz,
    covariant_vector_via_christoffels,
    curvature_via_definition,
    dense_metric_entry,
    field_max_abs,
    field_values,
    random_linear_connection,
    reachable,
    same_tree,
    sample_points,
    sphere_metric,
    torsion_via_definition,
)


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
        assert field_max_abs(diff, [pt]) <= 1e-9


def test_torsion_components_match_definition_with_brackets():
    conn = random_linear_connection(R3, 9)
    T = con.torsion(conn)
    rng = random.Random(10)
    for _ in range(5):
        X = geo.random_vector_field(R3, rng)
        Y = geo.random_vector_field(R3, rng)
        diff = T(X, Y) - torsion_via_definition(conn, X, Y)
        assert field_max_abs(diff, sample_points(R3, rng)) <= 1e-9


def test_curvature_components_match_definition_with_brackets():
    conn = random_linear_connection(R3, 11)
    R = con.curvature(conn)
    rng = random.Random(12)
    for _ in range(5):
        X, Y, Z = (geo.random_vector_field(R3, rng) for _ in range(3))
        diff = R(X, Y)(Z) - curvature_via_definition(conn, X, Y, Z)
        assert field_max_abs(diff, sample_points(R3, rng)) <= 1e-9


def test_curvature_antisymmetry_and_curried_view():
    conn = random_linear_connection(R3, 13)
    R = con.curvature(conn)
    rng = random.Random(14)
    X, Y, Z = (geo.random_vector_field(R3, rng) for _ in range(3))
    diff = R(X, Y)(Z) + R(Y, X)(Z)
    assert field_max_abs(diff, sample_points(R3, rng)) <= 1e-9
    diff = R.apply_to(X, Y, Z) - R(X, Y)(Z)
    assert field_max_abs(diff, sample_points(R3, rng)) <= 1e-12


def test_endomorphism_covariant_derivative_leibniz():
    conn = random_linear_connection(R3, 15)
    rng = random.Random(16)
    R = con.curvature(conn)
    X, Y, Z, W = (geo.random_vector_field(R3, rng) for _ in range(4))
    E = R(Y, Z)
    lhs = con.covariant_derivative(conn, X, E)(W)
    rhs = con.covariant_derivative(conn, X, E(W)) - E(con.covariant_derivative(conn, X, W))
    diff = lhs - rhs
    assert field_max_abs(diff, sample_points(R3, rng)) <= 1e-9


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
    assert field_max_abs(diff, sample_points(R3, rng)) <= 1e-9


def _oracle_connections():
    return [
        (R3, random_linear_connection(R3, 50)),
        (R4, random_linear_connection(R4, 51)),
        (SPHERE, con.levi_civita(sphere_metric())),
    ]


def _random_endomorphism(chart, rng):
    n = chart.dim
    return geo.LinearMap(
        chart, [[geo.random_polynomial(chart, rng) for _ in range(n)] for _ in range(n)]
    )


@pytest.mark.parametrize("index", range(3), ids=["R3", "R4", "sphere_lc"])
def test_covariant_derivative_matches_the_christoffel_oracle(index):
    """nabla_X Y and (nabla_X E)(W) through omega(X) agree with the triple
    sum over the symbols and its Leibniz extension to endomorphisms."""
    chart, conn = _oracle_connections()[index]
    rng = random.Random(52 + index)
    points = sample_points(chart, rng)
    X, Y, W = (geo.random_vector_field(chart, rng) for _ in range(3))
    E = _random_endomorphism(chart, rng)
    diff = con.covariant_derivative(conn, X, Y) - covariant_vector_via_christoffels(conn, X, Y)
    assert field_max_abs(diff, points) <= 1e-9
    diff = con.covariant_derivative(conn, X, E)(W) - covariant_endomorphism_via_leibniz(
        conn, X, E, W
    )
    assert field_max_abs(diff, points) <= 1e-9


@pytest.mark.parametrize("index", range(3), ids=["R3", "R4", "sphere_lc"])
def test_covariant_derivative_of_curvature_matches_the_christoffel_oracle(index):
    """(nabla_X R)(Y, Z)W, whose rule shares one omega(X) between the value
    and both arguments, against the Leibniz expansion by the oracle."""
    chart, conn = _oracle_connections()[index]
    rng = random.Random(55 + index)
    R = con.curvature(conn)
    X, Y, Z, W = (geo.random_vector_field(chart, rng) for _ in range(4))
    nabla = covariant_vector_via_christoffels
    expected = (
        covariant_endomorphism_via_leibniz(conn, X, R(Y, Z), W)
        - R(nabla(conn, X, Y), Z)(W)
        - R(Y, nabla(conn, X, Z))(W)
    )
    diff = con.covariant_derivative(conn, X, R)(Y, Z)(W) - expected
    assert field_max_abs(diff, sample_points(chart, rng)) <= 1e-9


def _assert_antisymmetric(blocks, chart, points):
    """Each n x n block has Const 0 on its diagonal and [j][i] = -[i][j]."""
    n = chart.dim
    for block in blocks:
        for i in range(n):
            assert type(block[i][i]) is se.Const and block[i][i].value == 0
            for j in range(i + 1, n):
                for pt in points:
                    assert se.evaluate(block[j][i], pt) == -se.evaluate(block[i][j], pt)


@pytest.mark.parametrize("index", range(3), ids=["R3", "R4", "sphere_lc"])
def test_torsion_and_curvature_components_are_antisymmetric(index):
    chart, conn = _oracle_connections()[index]
    points = sample_points(chart, random.Random(58))
    _assert_antisymmetric(con.torsion(conn).components, chart, points)
    curvature = con.curvature(conn).components
    _assert_antisymmetric([block for row in curvature for block in row], chart, points)


def _summands(expr):
    """The terms of the top-level sum of ``expr``."""
    if type(expr) is se.Add:
        return _summands(expr.a) + _summands(expr.b)
    return [expr]


def test_curvature_value_pairs_each_component_with_a_wedge_term_once():
    """On dim 3, R(X, Y)^l_k sums one product per pair i < j: at most 3
    terms, where the n^2 sum over (i, j) has 9."""
    conn = random_linear_connection(R3, 59)
    rng = random.Random(60)
    X, Y = (geo.random_vector_field(R3, rng) for _ in range(2))
    entries = con.curvature(conn)(X, Y).entries
    assert max(len(_summands(e)) for row in entries for e in row) == 3


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
    assert field_max_abs(T(X, Y), sample_points(SPHERE, rng)) <= 1e-9
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
        comps = field_values(value, pt)
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


def flatten(nested) -> list:
    """The expressions of nested lists, in order."""
    if isinstance(nested, se.Expr):
        return [nested]
    return [e for item in nested for e in flatten(item)]


def test_perturbed_connection_builds_its_own_torsion_and_curvature():
    conn = random_linear_connection(R3, 41)
    tor, curv = con.torsion(conn), con.curvature(conn)
    mutant = conn.perturbed(2, 0, 1, 1)
    mutant_tor, mutant_curv = con.torsion(mutant), con.curvature(mutant)
    assert mutant_tor is not tor
    assert mutant_curv is not curv
    assert not all(map(same_tree, flatten(mutant_tor.components), flatten(tor.components)))
    assert not all(map(same_tree, flatten(mutant_curv.components), flatten(curv.components)))
    shift = se.sub(mutant_tor.components[2][0][1], tor.components[2][0][1])
    for pt in sample_points(R3, random.Random(42)):
        assert se.evaluate(shift, pt) == pytest.approx(1.0, abs=1e-12)


def test_mutant_component_reuses_the_original_derivative():
    conn = con.levi_civita(sphere_metric())
    k, i, j = 1, 0, 1  # Gamma^psi_{phi psi} = cos(phi)/sin(phi)
    original = se.differentiate(conn.christoffel(k, i, j), "phi")
    mutant = conn.perturbed(k, i, j, se.Var("phi"))
    shifted = se.differentiate(mutant.christoffel(k, i, j), "phi")
    assert type(shifted) is se.Add and shifted.a is original and shifted.b is se.ONE


def heisenberg_metric():
    """The contact metric of the README's Heisenberg case file on R3."""
    entries = {(0, 0): "1/2 + y^2", (0, 2): "-y", (1, 1): "1/2", (2, 2): "1"}
    return con.Metric.from_nonzero(R3, {ij: R3.parse(text) for ij, text in entries.items()})


def _matrix(chart, rows):
    return [[chart.parse(text) for text in row] for row in rows]


R7 = geo.Chart("r7", tuple(f"x{i}" for i in range(1, 8)), ((-1.0, 1.0),) * 7)


def _dense_matrix(chart, seed):
    rng = random.Random(seed)
    return [[geo.random_polynomial(chart, rng) for _ in chart.coords] for _ in chart.coords]


def test_metric_inverse_is_symbolic_inverse():
    """M times symbolic_inverse(M) is the identity at seeded points, for
    metrics, a 1 x 1 matrix, one whose determinant folds to the constant 2
    and a dense 7 x 7 one."""
    matrices = [
        ("sphere", SPHERE, sphere_metric().g),
        ("heisenberg", R3, heisenberg_metric().g),
        ("1x1", R3, _matrix(R3, [["1 + x^2"]])),
        ("constant det", R3, _matrix(R3, [["2", "x^2"], ["0", "1"]])),
        ("dense 7x7", R7, _dense_matrix(R7, 7)),
    ]
    rng = random.Random(22)
    for name, chart, matrix in matrices:
        inv = geo.symbolic_inverse(matrix)
        n = len(matrix)
        for pt in sample_points(chart, rng):
            for i in range(n):
                for j in range(n):
                    total = sum(
                        se.evaluate(matrix[i][k], pt) * se.evaluate(inv[k][j], pt)
                        for k in range(n)
                    )
                    assert total == pytest.approx(1.0 if i == j else 0.0, abs=1e-12), name


def test_symbolic_inverse_shares_one_reciprocal_of_the_determinant():
    for matrix in (sphere_metric().g, heisenberg_metric().g, _matrix(R3, [["1 + x^2"]])):
        inv = [e for row in geo.symbolic_inverse(matrix) for e in row]
        divs = {node for node in reachable(*inv) if type(node) is se.Div}
        assert len(divs) == 1
        (recip,) = divs
        assert recip.a is se.ONE
        for e in inv:
            assert type(e) is se.Const or recip in reachable(e)
    # a constant determinant folds into the entries
    inv = geo.symbolic_inverse(_matrix(R3, [["2", "x^2"], ["0", "1"]]))
    assert not any(type(node) is se.Div for node in reachable(*inv[0], *inv[1]))
    with pytest.raises(ZeroDivisionError):
        geo.symbolic_inverse(_matrix(R3, [["1", "2"], ["2", "4"]]))
    assert geo.symbolic_inverse([]) == []


def test_dense_seven_by_seven_inverse_differentiates_and_levi_civita_builds():
    """The determinant and cofactors of a dense 7 x 7 matrix are Laplace
    minors: a Leibniz sum of 5040 terms is too deep for the differentiation
    and evaluation walks.  Every entry of the inverse has first partials,
    and a dense 7 x 7 metric has a Levi-Civita connection."""
    for row in geo.symbolic_inverse(_dense_matrix(R7, 7)):
        for e in row:
            for coord in R7.coords:
                se.differentiate(e, coord)
    g = [[R7.parse(dense_metric_entry(i, j)) for j in range(1, 8)] for i in range(1, 8)]
    gamma = con.levi_civita(con.Metric(R7, g)).gamma
    (pt,) = geo.sample_points(R7, "dense-metric", 1)
    values = [se.evaluate(e, pt) for block in gamma for row in block for e in row]
    assert len(values) == 7**3 and all(map(math.isfinite, values))


def test_levi_civita_partials_share_the_reciprocal_determinant():
    """Heisenberg's Christoffel symbols reach one Div node, and with all
    their first and second partials at most half of the 2084 distinct nodes
    they reached with one quotient per inverse entry."""
    conn = con.levi_civita(heisenberg_metric())
    coords = R3.coords
    gammas = [conn.christoffel(k, i, j) for k, i, j in itertools.product(range(3), repeat=3)]
    firsts = [se.differentiate(g, x) for g in gammas for x in coords]
    seconds = [se.differentiate(d, x) for d in firsts for x in coords]
    assert sum(type(node) is se.Div for node in reachable(*gammas)) == 1
    assert len(reachable(*gammas, *firsts, *seconds)) <= 2084 // 2


def test_zero_connection_has_flat_curvature():
    conn = con.Connection.zero(R3)
    R = con.curvature(conn)
    rng = random.Random(23)
    X, Y, Z = (geo.random_vector_field(R3, rng) for _ in range(3))
    assert field_max_abs(R(X, Y)(Z), sample_points(R3, rng)) == 0.0


def test_perturbed_copy_changes_one_symbol_only():
    conn = con.Connection.zero(R3)
    bumped = conn.perturbed(2, 0, 1, 1)
    assert same_tree(bumped.christoffel(2, 0, 1), se.ONE)
    assert conn.christoffel(2, 0, 1) is se.ZERO
    others = itertools.product(range(3), repeat=3)
    assert all(bumped.christoffel(*kij) is conn.christoffel(*kij) for kij in others if kij != (2, 0, 1))


def test_field_max_abs_fails_on_a_nan_component():
    big = se.Const(10**300)
    overflow = se.Mul(se.Mul(big, se.Var("x")), big)
    nan = se.Add(overflow, se.Neg(overflow))
    field = geo.VectorField(R3, [se.ZERO, nan, se.ZERO])
    point = {"x": 0.5, "y": 0.0, "z": 0.0}
    assert not field_max_abs(field, [point]) <= 1e-9
