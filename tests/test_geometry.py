"""Exterior calculus invariants, with the intrinsic formula as oracle."""

import contextlib
import itertools
import math
import random
import types

import pytest

from bianchi import geometry as geo
from bianchi import symexpr as se
from oracles import (
    R3,
    R4,
    exterior_derivative_intrinsic_expr,
    field_max_abs,
    leibniz_determinant,
    same_tree,
)


def test_wedge_anchor_no_factorial():
    dx = R3.basis_covector(0)
    dy = R3.basis_covector(1)
    two_form = geo.wedge(dx, dy)
    dx_field = R3.basis_field(0)
    dy_field = R3.basis_field(1)
    value = se.evaluate(two_form.apply([dx_field, dy_field]), {"x": 0.1, "y": 0.2, "z": 0.3})
    assert value == pytest.approx(1.0)
    # antisymmetry of the arguments
    value = se.evaluate(two_form.apply([dy_field, dx_field]), {"x": 0.1, "y": 0.2, "z": 0.3})
    assert value == pytest.approx(-1.0)


def test_wedge_graded_commutativity():
    rng = random.Random(3)
    a = geo.random_pform(R3, 1, rng)
    b = geo.random_pform(R3, 2, rng)
    ab = geo.wedge(a, b)
    ba = geo.wedge(b, a)
    # 1-form ^ 2-form commutes: sign (-1)^{1*2} = +1
    for _ in range(5):
        pt = geo.random_point(R3, rng)
        fields = [geo.random_vector_field(R3, rng) for _ in range(3)]
        lhs = se.evaluate(ab.apply(fields), pt)
        rhs = se.evaluate(ba.apply(fields), pt)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    c = geo.random_pform(R3, 1, rng)
    anti = geo.wedge(a, c) + geo.wedge(c, a)
    for _ in range(5):
        pt = geo.random_point(R3, rng)
        fields = [geo.random_vector_field(R3, rng) for _ in range(2)]
        assert se.evaluate(anti.apply(fields), pt) == pytest.approx(0.0, abs=1e-9)


def test_wedge_degree_overflow_raises():
    """One degree past the top the wedge is the empty form, like d of a
    top-degree form; beyond that PForm rejects the degree."""
    rng = random.Random(5)
    a = geo.random_pform(R3, 2, rng)
    b = geo.random_pform(R3, 2, rng)
    past_top = geo.wedge(a, b)
    assert past_top.degree == 4 and past_top.comps == {}
    with pytest.raises(geo.DegreeError):
        geo.wedge(a, geo.random_pform(R3, 3, rng))


def test_exterior_derivative_squares_to_zero():
    rng = random.Random(11)
    for chart in (R3, R4):
        for degree in range(0, chart.dim - 1):
            theta = geo.random_pform(chart, degree, rng)
            dd = geo.exterior_derivative(geo.exterior_derivative(theta))
            for key, comp in dd.comps.items():
                for _ in range(5):
                    pt = geo.random_point(chart, rng)
                    assert abs(se.evaluate(comp, pt)) <= 1e-9, f"dd != 0 at component {key}"


def test_exterior_derivative_of_top_degree_is_canonical_zero():
    rng = random.Random(13)
    top = geo.random_pform(R3, 3, rng)
    d_top = geo.exterior_derivative(top)
    assert d_top.degree == 4
    assert d_top.comps == {}


def test_coordinate_d_matches_intrinsic_d():
    """Production path vs alternating-sum path with non-commuting fields."""
    rng = random.Random(17)
    for chart in (R3, R4):
        for degree in (1, 2):
            for _ in range(10):
                theta = geo.random_pform(chart, degree, rng)
                fields = [geo.random_vector_field(chart, rng) for _ in range(degree + 1)]
                d_theta = geo.exterior_derivative(theta)
                coord = d_theta.apply(fields)
                intrinsic = exterior_derivative_intrinsic_expr(theta, fields)
                for _ in range(3):
                    pt = geo.random_point(chart, rng)
                    assert abs(se.evaluate(coord, pt) - se.evaluate(intrinsic, pt)) <= 1e-9


def test_intrinsic_d_on_scalar_is_directional_derivative():
    rng = random.Random(19)
    f = geo.random_pform(R3, 0, rng)
    X = geo.random_vector_field(R3, rng)
    lhs = geo.exterior_derivative(f).apply([X])
    rhs = geo.apply_vector_field(X, f.comps[()])
    for _ in range(5):
        pt = geo.random_point(R3, rng)
        assert se.evaluate(lhs, pt) == pytest.approx(se.evaluate(rhs, pt), abs=1e-12)


def test_leibniz_rule_for_d_over_wedge():
    rng = random.Random(23)
    a = geo.random_pform(R3, 1, rng)
    b = geo.random_pform(R3, 1, rng)
    lhs = geo.exterior_derivative(geo.wedge(a, b))
    rhs = geo.wedge(geo.exterior_derivative(a), b) - geo.wedge(a, geo.exterior_derivative(b))
    fields = [geo.random_vector_field(R3, rng) for _ in range(3)]
    diff = (lhs - rhs).apply(fields)
    for _ in range(8):
        pt = geo.random_point(R3, rng)
        assert abs(se.evaluate(diff, pt)) <= 1e-9


def test_interior_product_is_antiderivation():
    rng = random.Random(29)
    X = geo.random_vector_field(R3, rng)
    a = geo.random_pform(R3, 1, rng)
    b = geo.random_pform(R3, 1, rng)
    lhs = geo.interior_product(X, geo.wedge(a, b))
    rhs = b.scale(a.apply([X])) - a.scale(b.apply([X]))
    Y = geo.random_vector_field(R3, rng)
    diff = (lhs - rhs).apply([Y])
    for _ in range(8):
        pt = geo.random_point(R3, rng)
        assert abs(se.evaluate(diff, pt)) <= 1e-9


def test_interior_product_contracts_first_slot():
    rng = random.Random(31)
    theta = geo.random_pform(R3, 2, rng)
    X = geo.random_vector_field(R3, rng)
    Y = geo.random_vector_field(R3, rng)
    lhs = geo.interior_product(X, theta).apply([Y])
    rhs = theta.apply([X, Y])
    for _ in range(5):
        pt = geo.random_point(R3, rng)
        assert se.evaluate(lhs, pt) == pytest.approx(se.evaluate(rhs, pt), abs=1e-10)


def test_lie_bracket_jacobi_identity():
    rng = random.Random(37)
    X, Y, Z = (geo.random_vector_field(R3, rng) for _ in range(3))
    total = (
        geo.lie_bracket(X, geo.lie_bracket(Y, Z))
        + geo.lie_bracket(Y, geo.lie_bracket(Z, X))
        + geo.lie_bracket(Z, geo.lie_bracket(X, Y))
    )
    for _ in range(5):
        pt = geo.random_point(R3, rng)
        assert field_max_abs(total, [pt]) <= 1e-9


def test_forms_are_function_linear_in_arguments():
    rng = random.Random(41)
    theta = geo.random_pform(R3, 2, rng)
    X, Y = (geo.random_vector_field(R3, rng) for _ in range(2))
    f = geo.random_polynomial(R3, rng)
    lhs = theta.apply([X.scale(f), Y])
    rhs = se.mul(f, theta.apply([X, Y]))
    for _ in range(5):
        pt = geo.random_point(R3, rng)
        assert se.evaluate(lhs, pt) == pytest.approx(se.evaluate(rhs, pt), abs=1e-9)


def test_component_lookup_signs():
    theta = geo.PForm(R3, 2, {(0, 1): se.Var("x")})
    assert same_tree(theta.component((1, 0)), se.neg(se.Var("x")))
    assert theta.component((1, 1)) is se.ZERO
    assert same_tree(theta.component((0, 1)), se.Var("x"))


def test_chart_mismatch_detected():
    rng = random.Random(43)
    a = geo.random_pform(R3, 1, rng)
    X4 = geo.random_vector_field(R4, rng)
    with pytest.raises(geo.ChartMismatchError):
        a.apply([X4])


def test_charts_with_equal_fields_are_equal():
    a = geo.Chart("r3", ("x", "y", "z"), ((-1.0, 1.0),) * 3)
    b = geo.Chart("r3", ("x", "y", "z"), ((-1.0, 1.0),) * 3)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert {(a, 0): "tuple 0"}[(b, 0)] == "tuple 0"
    assert geo._same_chart(a.basis_field(0), b.basis_field(1)) is a
    for other in (
        geo.Chart("r3", ("x", "y", "z"), ((-1.0, 1.0),) * 3, trig_sampling=True),
        geo.Chart("r3", ("x", "y", "w"), ((-1.0, 1.0),) * 3),
        geo.Chart("r3", ("x", "y", "z"), ((-1.0, 2.0),) * 3),
        geo.Chart("s3", ("x", "y", "z"), ((-1.0, 1.0),) * 3),
    ):
        assert a != other
        with pytest.raises(geo.ChartMismatchError):
            geo._same_chart(a.basis_field(0), other.basis_field(0))


@pytest.mark.parametrize("coords, intervals, message", [
    (("x", "x"), ((-1.0, 1.0),) * 2, "duplicate coordinate names in chart 'bad'"),
    (("x", "y"), ((-1.0, 1.0),), "one sampling interval is required per coordinate"),
    (("x", "y"), ((-1.0, 1.0), (1.0, 1.0)), "empty or infinite sampling interval for coordinate 'y'"),
    (("x",), ((-math.inf, 1.0),), "empty or infinite sampling interval for coordinate 'x'"),
])
def test_chart_rejects_bad_arguments(coords, intervals, message):
    with pytest.raises(geo.GeometryError) as exc:
        geo.Chart("bad", coords, intervals)
    assert str(exc.value) == message


@pytest.mark.parametrize("key, error, message", [
    ((0,), geo.DegreeError, "component key (0,) does not have 2 indices"),
    ((0, 1, 2), geo.DegreeError, "component key (0, 1, 2) does not have 2 indices"),
    ((0, 3), geo.GeometryError, "index out of range in component key (0, 3)"),
    ((-1, 1), geo.GeometryError, "index out of range in component key (-1, 1)"),
    ((1, 0), geo.GeometryError, "component keys must be strictly increasing, got (1, 0)"),
    ((1, 1), geo.GeometryError, "component keys must be strictly increasing, got (1, 1)"),
])
def test_pform_rejects_bad_component_keys(key, error, message):
    with pytest.raises(geo.GeometryError) as exc:
        geo.PForm(R3, 2, {key: se.Var("x")})
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_pform_takes_a_list_key_as_a_tuple():
    # a dict cannot hold a list key, but a mapping's items() may yield one
    x = se.Var("x")
    form = geo.PForm(R3, 2, types.SimpleNamespace(items=lambda: [([0, 1], x)]))
    assert form.comps == {(0, 1): x}
    assert type(next(iter(form.comps))) is tuple


def test_sampler_is_deterministic():
    a = geo.random_vector_field(R3, random.Random(123))
    b = geo.random_vector_field(R3, random.Random(123))
    assert [str(c) for c in a.comps] == [str(c) for c in b.comps]
    pa = geo.random_point(R3, random.Random(5))
    pb = geo.random_point(R3, random.Random(5))
    assert pa == pb


def test_sample_points_draw_from_the_string_seeded_stream():
    rng = random.Random("7")
    expected = [geo.random_point(R3, rng) for _ in range(4)]
    assert geo.sample_points(R3, 7, 4) == expected
    assert geo.sample_points(R3, "7", 4) == expected


def test_sampler_rejects_degree_above_dimension():
    with pytest.raises(geo.DegreeError):
        geo.random_pform(R3, 4, random.Random(1))


def test_tensor_valued_form_arity_checks():
    identity = geo.TensorValuedForm(R3, 1, lambda X: X)
    X = geo.random_vector_field(R3, random.Random(2))
    assert identity(X) is X
    with pytest.raises(geo.GeometryError):
        identity(X, X)
    with pytest.raises(geo.GeometryError):
        geo.TensorValuedForm(R3, -1, lambda: X)


def test_signed_sum_signs_order_and_start():
    calls = []

    def term(*args):
        *positions, rest = args
        calls.append((tuple(positions), rest))
        # the one-based positions as digits: (0, 2) gives 13
        return int("".join(str(p + 1) for p in positions))

    # (-1)^(sum(P) + odd), worked by hand: 1 - 2 + 3 - 4; -12 + 13 - 14 - 23
    # + 24 - 34; -123 + 124 - 134 + 234
    for size, even in ((1, -2), (2, -46), (3, 101)):
        assert geo._signed_sum("abcd", size, term) == even
        assert geo._signed_sum("abcd", size, term, 1) == -even
    calls.clear()
    assert geo._signed_sum("abcd", 2, term, start=100) == 54
    assert calls == [
        ((0, 1), ("c", "d")),
        ((0, 2), ("b", "d")),
        ((0, 3), ("b", "c")),
        ((1, 2), ("a", "d")),
        ((1, 3), ("a", "c")),
        ((2, 3), ("a", "b")),
    ]
    assert geo._signed_sum("", 1, term, start=7) == 7
    assert geo._signed_sum("ab", 3, term, start=7) == 7
    # left to right from the first term, which no zero precedes
    a, b, c = (se.Var(name) for name in "abc")
    folded = geo._signed_sum((a, b, c), 1, lambda pos, rest: (a, b, c)[pos])
    assert same_tree(folded, se.add(se.add(a, se.neg(b)), c))


R5 = geo.Chart("r5", ("a", "b", "c", "d", "e"), ((-1.0, 1.0),) * 5)


@pytest.mark.parametrize("scoped", [True, False])
def test_laplace_minors_equal_the_leibniz_determinant(scoped):
    """Every minor of p = 1..5 fields on a 5-chart, each expanded along its
    last field, is the Leibniz determinant of its rows, exactly."""
    rng = random.Random(29)
    fields = [geo.random_vector_field(R5, rng) for _ in range(5)]
    with geo.sharing({}) if scoped else contextlib.nullcontext():
        for p in range(1, 6):
            minors = geo.shared(geo._Minors, *(f.comps for f in fields[:p]))
            for key in itertools.combinations(range(5), p):
                leibniz = leibniz_determinant([[f.comps[k] for f in fields[:p]] for k in key])
                assert se.holds_exactly(minors[key], leibniz), (p, key)


def test_two_minors_stay_the_wedge_entries_bit_for_bit():
    rng = random.Random(31)
    x, y = (geo.random_vector_field(R5, rng) for _ in range(2))
    minors = geo._Minors(x.comps, y.comps)
    points = [geo.random_point(R5, rng) for _ in range(5)]
    for i, j in itertools.combinations(range(5), 2):
        wedge = se.sub(se.mul(x.comps[i], y.comps[j]), se.mul(x.comps[j], y.comps[i]))
        assert [se.evaluate(minors[i, j], p) for p in points] == [
            se.evaluate(wedge, p) for p in points
        ]
