"""Tests for the symbolic expression core.

The differentiation oracle is central differences: exact derivatives must
agree with numeric ones on randomly generated expression trees.  Parsing is
checked by evaluation-equivalent round trips.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchi import symexpr as se


VARS = ("x", "y", "z")


def random_expr(rng: random.Random, depth: int) -> se.Expr:
    """Random tree of bounded depth whose evaluation stays tame on [0.2, 1.5]."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return se.Const(rng.randint(-3, 3))
        return se.Var(rng.choice(VARS))
    kind = rng.choice(("add", "sub", "mul", "div", "pow", "neg", "sin", "cos", "exp", "ln"))
    a = random_expr(rng, depth - 1)
    if kind == "add":
        return se.Add(a, random_expr(rng, depth - 1))
    if kind == "sub":
        return se.Add(a, se.Neg(random_expr(rng, depth - 1)))
    if kind == "mul":
        return se.Mul(a, random_expr(rng, depth - 1))
    if kind == "div":
        # keep denominators away from zero: 2 + sin(b)^2 >= 2
        b = random_expr(rng, depth - 1)
        return se.Div(a, se.Add(se.Const(2), se.Pow(se.Sin(b), 2)))
    if kind == "pow":
        return se.Pow(a, rng.choice((2, 3)))
    if kind == "neg":
        return se.Neg(a)
    if kind == "sin":
        return se.Sin(a)
    if kind == "cos":
        return se.Cos(a)
    if kind == "exp":
        # bounded argument keeps exp from overflowing under differentiation
        return se.Exp(se.Div(a, se.Add(se.Const(4), se.Pow(a, 2))))
    return se.Ln(se.Add(se.Const(3), se.Pow(a, 2)))


def random_point(rng: random.Random) -> dict:
    return {v: rng.uniform(0.2, 1.5) for v in VARS}


def test_derivative_matches_central_differences():
    rng = random.Random(20240817)
    h = 1e-6
    checked = 0
    for _ in range(100):
        expr = random_expr(rng, rng.randint(1, 6))
        var = rng.choice(VARS)
        deriv = se.differentiate(expr, var)
        point = random_point(rng)
        value = se.evaluate(deriv, point)
        hi = dict(point)
        lo = dict(point)
        hi[var] += h
        lo[var] -= h
        numeric = (se.evaluate(expr, hi) - se.evaluate(expr, lo)) / (2 * h)
        assert abs(value - numeric) <= 1e-5 * (1 + abs(value)), (
            f"derivative mismatch for {expr} wrt {var}: exact={value}, fd={numeric}"
        )
        checked += 1
    assert checked == 100


def test_mixed_partials_commute():
    rng = random.Random(7)
    for _ in range(40):
        expr = random_expr(rng, 4)
        xy = se.differentiate(se.differentiate(expr, "x"), "y")
        yx = se.differentiate(se.differentiate(expr, "y"), "x")
        for _ in range(3):
            point = random_point(rng)
            assert abs(se.evaluate(xy, point) - se.evaluate(yx, point)) <= 1e-9


def test_print_parse_round_trip_on_random_trees():
    rng = random.Random(99)
    for _ in range(200):
        expr = random_expr(rng, 5)
        text = se.to_text(expr)
        reparsed = se.parse(text, VARS)
        for _ in range(3):
            point = random_point(rng)
            assert abs(se.evaluate(expr, point) - se.evaluate(reparsed, point)) <= 1e-12 * (
                1 + abs(se.evaluate(expr, point))
            )


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 9))
@settings(max_examples=60)
def test_round_trip_rational_constants(p, q, r):
    expr = se.add(se.mul(se.Const(p), se.Var("x")), se.div(se.Const(q), se.Const(r)))
    text = se.to_text(expr)
    again = se.parse(text, ("x",))
    pt = {"x": 0.37}
    assert se.evaluate(expr, pt) == pytest.approx(se.evaluate(again, pt), abs=1e-14)


def test_parse_precedence_and_associativity():
    e = se.parse("2*x + 3*y^2 - z/2", VARS)
    assert se.evaluate(e, {"x": 1, "y": 2, "z": 4}) == pytest.approx(2 + 12 - 2)
    # ^ binds tighter than unary minus
    assert se.evaluate(se.parse("-x^2", VARS), {"x": 3}) == pytest.approx(-9)
    # right associativity folds integer towers
    assert se.evaluate(se.parse("x^2^3", VARS), {"x": 2}) == pytest.approx(256)
    # unary minus binds tighter than *
    assert se.evaluate(se.parse("-x*y", VARS), {"x": 2, "y": 5}) == pytest.approx(-10)
    assert se.evaluate(se.parse("sin(x)^2 + cos(x)^2", VARS), {"x": 0.73}) == pytest.approx(1.0)


def test_parse_decimal_literals_are_exact():
    e = se.parse("0.5*x", VARS)
    assert se.evaluate(e, {"x": 3.0}) == 1.5


def test_parse_reports_position_on_syntax_error():
    with pytest.raises(se.ParseError) as err:
        se.parse("x +* y", VARS)
    assert err.value.position == 3


def test_parse_rejects_unknown_identifier_by_name():
    with pytest.raises(se.UnknownIdentifierError) as err:
        se.parse("x + q", VARS)
    assert err.value.name == "q"
    with pytest.raises(se.UnknownIdentifierError):
        se.parse("tan(x)", VARS)


def test_parse_rejects_non_integer_exponent():
    with pytest.raises(se.ParseError):
        se.parse("x^y", VARS)
    with pytest.raises(se.ParseError):
        se.parse("x^(1/2)", VARS)


def test_parse_rejects_trailing_input():
    with pytest.raises(se.ParseError):
        se.parse("x + 1) * 2", VARS)


def test_evaluate_domain_errors_name_the_subexpression():
    e = se.parse("1/(x - 1)", VARS)
    with pytest.raises(se.EvaluationError) as err:
        se.evaluate(e, {"x": 1.0, "y": 0.0, "z": 0.0})
    assert "division by zero" in str(err.value)

    e = se.parse("ln(x)", VARS)
    with pytest.raises(se.EvaluationError) as err:
        se.evaluate(e, {"x": -2.0, "y": 0.0, "z": 0.0})
    assert "ln" in str(err.value)

    with pytest.raises(se.EvaluationError):
        se.evaluate(se.Var("missing"), {"x": 0.0})


def test_structural_equality_and_hash():
    a = se.parse("x*y + sin(z)", VARS)
    b = se.parse("x*y + sin(z)", VARS)
    assert a == b
    assert hash(a) == hash(b)
    assert a != se.parse("x*y + cos(z)", VARS)


def test_negative_powers_differentiate():
    e = se.Pow(se.Var("x"), -2)
    d = se.differentiate(e, "x")
    assert se.evaluate(d, {"x": 2.0}) == pytest.approx(-2 / 8)


def test_derivative_of_constants_is_zero():
    assert se.differentiate(se.parse("3/4", VARS), "x") == se.ZERO


def test_folding_preserves_value_not_structure():
    # the constructors may rewrite, but only to evaluation-equivalent trees
    e = se.add(se.Var("x"), se.ZERO)
    assert e == se.Var("x")
    e = se.mul(se.Const(1), se.Var("y"))
    assert e == se.Var("y")


def test_evaluate_overflow_raises_evaluation_error():
    with pytest.raises(se.EvaluationError, match=r"exp\(x\)"):
        se.evaluate(se.parse("exp(x)", VARS), {"x": 800.0})
    with pytest.raises(se.EvaluationError):
        se.evaluate(se.Const(10**400), {})
    with pytest.raises(se.EvaluationError):
        se.evaluate(se.parse("x^3", VARS), {"x": 1e200})
    with pytest.raises(se.EvaluationError, match="sin"):
        se.evaluate(se.parse("sin(x*x)", VARS), {"x": 1e200})


def test_worst_residual_never_passes_non_finite_values():
    x = se.Var("x")
    big = se.Const(10**300)
    overflow = se.Mul(se.Mul(big, x), big)  # inf wherever x != 0
    nan = se.Add(overflow, se.Neg(overflow))
    points = [{"x": 0.5}, {"x": 0.25}]
    assert math.isnan(se.max_abs([se.ZERO, nan, se.ONE], points))
    worst, point, tag = se.worst_residual(
        [("a", x, 0), ("b", overflow, 0), ("c", x, 100)], points
    )
    assert (worst, point, tag) == (math.inf, points[0], "b")


def test_worst_residual_keeps_the_first_strictly_greater():
    x = se.Var("x")
    points = [{"x": 1.0}, {"x": -1.0}, {"x": 0.5}]
    worst, point, tag = se.worst_residual([(0, x, 0), (1, se.neg(x), se.ZERO)], points)
    assert (worst, point, tag) == (1.0, points[0], 0)
    # relative residuals divide by 1 + the larger member: |-1 - 1| / (1 + 1)
    worst, point, _ = se.worst_residual([(0, x, se.ONE)], points, relative=True)
    assert (worst, point) == (1.0, points[1])
