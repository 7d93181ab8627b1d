"""Tests for the symbolic expression core.

The differentiation oracle is central differences: exact derivatives must
agree with numeric ones on randomly generated expression trees.  Parsing is
checked by evaluation-equivalent round trips.
"""

import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchi import exact
from bianchi import symexpr as se
from oracles import collector, evaluate_recursively, same_tree


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


def test_power_rejects_non_integral_exponents():
    x = se.Var("x")
    # an integral exponent is stored as the int
    for squared in (se.power(x, 2.0), se.power(x, Fraction(4, 2)), se.Pow(x, 2.0)):
        assert type(squared) is se.Pow and squared.base is x
        assert type(squared.exponent) is int and squared.exponent == 2
    with pytest.raises(ValueError):
        se.power(x, 2.5)
    with pytest.raises(ValueError):
        se.power(x, Fraction(3, 2))
    for exponent in (2.5, Fraction(3, 2), math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            se.Pow(x, exponent)
        with pytest.raises(ValueError):
            se.power(x, exponent)


@pytest.mark.parametrize("text", ["1/0", "x/0", "x/(2-2)", "y + x/(2-2)"])
def test_parse_rejects_division_by_the_constant_zero(text):
    with pytest.raises(se.ParseError, match="division by the constant zero") as err:
        se.parse(text, VARS)
    assert err.value.position == text.index("/")


@pytest.mark.parametrize(
    "text, position",
    [("2^100000", 1), ("2^-100000", 1), ("9^9^9", 1), ("2^1024", 1), ("(1/2)^1074", 5),
     ("10^300*10^300", 6), ("x + 10^308*10", 10), pytest.param("1" * 5000, 0, id="5000-digits")],
)
def test_parse_rejects_constants_outside_the_float_range(text, position):
    """A folded constant whose numerator or denominator no float holds is
    refused at its operator, and a power is refused before it is computed."""
    with pytest.raises(se.ParseError, match="outside the float range") as err:
        se.parse(text, VARS)
    assert err.value.position == position


def test_parse_keeps_constants_inside_the_float_range():
    assert se.parse("2^1023", VARS).value == 2**1023
    assert se.parse("1^(10^300)", VARS).value == 1
    assert se.parse("(1/2)^1023", VARS).value == Fraction(1, 2**1023)


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

    e = se.parse("(x - 1)^(-2)", VARS)
    with pytest.raises(se.EvaluationError) as err:
        se.evaluate(e, {"x": 1.0, "y": 0.0, "z": 0.0})
    assert str(err.value) == "zero raised to a negative power in '(x - 1)^(-2)'"

    # of two failing subexpressions, the left one is named
    e = se.div(se.ln(se.Var("x")), se.sub(se.Var("y"), se.Var("y")))
    with pytest.raises(se.EvaluationError) as err:
        se.evaluate(e, {"x": -1.0, "y": 0.0, "z": 0.0})
    assert str(err.value) == "ln of non-positive value -1.0 in 'ln(x)'"

    with pytest.raises(se.EvaluationError) as err:
        se.evaluate(se.Var("missing"), {"x": 0.0})
    assert str(err.value) == "no value supplied for variable 'missing'"


def test_nodes_compare_by_identity_and_same_tree_by_structure():
    a = se.parse("x*y + sin(z)", VARS)
    b = se.parse("x*y + sin(z)", VARS)
    assert a != b and len({a, b}) == 2
    assert same_tree(a, b)
    assert not same_tree(a, se.parse("x*y + cos(z)", VARS))
    assert not same_tree(se.power(se.Var("x"), 2), se.power(se.Var("x"), 3))
    assert not same_tree(se.Const(2), se.Const(Fraction(1, 2)))

    def chain():
        return se.add_all(se.mul(se.Const(k), se.Var("x")) for k in range(1, 5001))

    # a deep chain is compared without recursion
    assert same_tree(chain(), chain())
    assert not same_tree(chain(), chain().a)


def test_integral_constants_are_exact_ints():
    twos = [se.Const(2), se.Const(Fraction(4, 2)), se.Const(2.0)]
    for two in twos:
        assert type(two.value) is int and two.value == 2
    assert type(se.Const(Fraction(1, 2)).value) is Fraction
    third = se.div(se.Const(1), se.Const(3))
    assert type(third.value) is Fraction and third.value == Fraction(1, 3)
    quarter = se.power(se.Const(2), -2)
    assert type(quarter.value) is Fraction and quarter.value == Fraction(1, 4)
    assert se.add(third, se.Const(Fraction(2, 3))).value == 1
    assert type(se.add(third, se.Const(Fraction(2, 3))).value) is int


# Each folding constructor on the operands 0, 1, -1, 2, 1/2 and x: the type
# and text of every result.  A changed fold changes tree shapes, and with
# them float residuals, so every row is pinned.
FOLD_OPERANDS = ("0", "1", "-1", "2", "1/2", "x")
FOLDS = {
    ("add", "0"): ("Const 0", "Const 1", "Const -1", "Const 2", "Const 1/2", "Var x"),
    ("add", "1"): ("Const 1", "Const 2", "Const 0", "Const 3", "Const 3/2", "Add 1 + x"),
    ("add", "-1"): ("Const -1", "Const 0", "Const -2", "Const 1", "Const -1/2", "Add -1 + x"),
    ("add", "2"): ("Const 2", "Const 3", "Const 1", "Const 4", "Const 5/2", "Add 2 + x"),
    ("add", "1/2"): ("Const 1/2", "Const 3/2", "Const -1/2", "Const 5/2", "Const 1", "Add 1/2 + x"),
    ("add", "x"): ("Var x", "Add x + 1", "Add x - 1", "Add x + 2", "Add x + 1/2", "Add x + x"),
    ("mul", "0"): ("Const 0",) * 6,
    ("mul", "1"): ("Const 0", "Const 1", "Const -1", "Const 2", "Const 1/2", "Var x"),
    ("mul", "-1"): ("Const 0", "Const -1", "Const 1", "Const -2", "Const -1/2", "Neg -x"),
    ("mul", "2"): ("Const 0", "Const 2", "Const -2", "Const 4", "Const 1", "Mul 2*x"),
    ("mul", "1/2"): ("Const 0", "Const 1/2", "Const -1/2", "Const 1", "Const 1/4", "Mul 1/2*x"),
    ("mul", "x"): ("Const 0", "Var x", "Neg -x", "Mul x*2", "Mul x*(1/2)", "Mul x*x"),
    ("div", "0"): ("ZeroDivisionError", "Const 0", "Const 0", "Const 0", "Const 0", "Div 0/x"),
    ("div", "1"): ("ZeroDivisionError", "Const 1", "Const -1", "Const 1/2", "Const 2", "Div 1/x"),
    ("div", "-1"): ("ZeroDivisionError", "Const -1", "Const 1", "Const -1/2", "Const -2", "Div -1/x"),
    ("div", "2"): ("ZeroDivisionError", "Const 2", "Const -2", "Const 1", "Const 4", "Div 2/x"),
    ("div", "1/2"): ("ZeroDivisionError", "Const 1/2", "Const -1/2", "Const 1/4", "Const 1", "Div 1/2/x"),
    ("div", "x"): ("ZeroDivisionError", "Var x", "Div x/(-1)", "Div x/2", "Div x/(1/2)", "Div x/x"),
}
# power(operand, n) for n = -2, -1, 0, 1, 2, and neg(operand)
POWER_EXPONENTS = (-2, -1, 0, 1, 2)
POWERS = {
    "0": ("Pow 0^(-2)", "Pow 0^(-1)", "Const 1", "Const 0", "Const 0"),
    "1": ("Const 1",) * 5,
    "-1": ("Const 1", "Const -1", "Const 1", "Const -1", "Const 1"),
    "2": ("Const 1/4", "Const 1/2", "Const 1", "Const 2", "Const 4"),
    "1/2": ("Const 4", "Const 2", "Const 1", "Const 1/2", "Const 1/4"),
    "x": ("Pow x^(-2)", "Pow x^(-1)", "Const 1", "Var x", "Pow x^2"),
}
NEGATIONS = ("Const 0", "Const -1", "Const 1", "Const -2", "Const -1/2", "Neg -x")


def fold_operand(text: str) -> se.Expr:
    return se.Var("x") if text == "x" else se.Const(Fraction(text))


def folded(build) -> str:
    try:
        result = build()
    except ZeroDivisionError:
        return "ZeroDivisionError"
    return f"{type(result).__name__} {se.to_text(result)}"


@pytest.mark.parametrize("op, left", sorted(FOLDS))
def test_binary_folds_are_pinned(op, left):
    fn = getattr(se, op)
    got = tuple(
        folded(lambda: fn(fold_operand(left), fold_operand(right))) for right in FOLD_OPERANDS
    )
    assert got == FOLDS[op, left]


@pytest.mark.parametrize("base", FOLD_OPERANDS)
def test_power_folds_are_pinned(base):
    got = tuple(folded(lambda: se.power(fold_operand(base), n)) for n in POWER_EXPONENTS)
    assert got == POWERS[base]


def test_negation_folds_are_pinned():
    assert tuple(folded(lambda: se.neg(fold_operand(a))) for a in FOLD_OPERANDS) == NEGATIONS
    x = se.Var("x")
    assert se.neg(se.neg(x)) is x


@pytest.mark.parametrize("value", [2, Fraction(1, 2)], ids=["2", "1/2"])
def test_folds_return_an_operand_equal_to_the_result(value):
    """A fold whose result equals an operand returns that operand, so a
    fold with 0 or 1 builds no constant."""
    c, z = se.Const(value), se.Const(0)
    assert se.add(se.ZERO, c) is c
    assert se.add(c, se.ZERO) is c
    assert se.mul(se.ONE, c) is c
    assert se.mul(c, se.ONE) is c
    assert se.mul(z, c) is z
    assert se.mul(c, z) is z
    assert se.neg(z) is z
    assert se.add(se.ZERO, se.ZERO) is se.ZERO


def test_negative_powers_differentiate():
    e = se.Pow(se.Var("x"), -2)
    d = se.differentiate(e, "x")
    assert se.evaluate(d, {"x": 2.0}) == pytest.approx(-2 / 8)


def test_derivative_of_constants_is_zero():
    assert se.differentiate(se.parse("3/4", VARS), "x") is se.ZERO


MEMO_TEXT = "sin(x*y)^3/(1+x^2) + exp(y)*ln(2+x)"


def test_derivatives_are_memoised_per_node_and_variable():
    e = se.parse(MEMO_TEXT, VARS)
    dx = se.differentiate(e, "x")
    assert se.differentiate(e, "x") is dx
    dy = se.differentiate(e, "y")
    assert se.differentiate(e, "y") is dy
    assert not same_tree(dy, dx)
    fresh = se.parse(MEMO_TEXT, VARS)
    assert se.differentiate(fresh, "x") is not dx
    assert same_tree(se.differentiate(fresh, "x"), dx)
    assert same_tree(se.differentiate(fresh, "y"), dy)
    # a subtree differentiated inside e's call serves later calls on it
    assert se.differentiate(e.b, "y") is dy.b


def test_differentiate_leaves_no_reference_cycles():
    gc.collect()
    with collector(False):
        for var in ("x", "y") * 50:
            se.differentiate(se.parse(MEMO_TEXT, VARS), var)
        assert gc.collect() == 0


def test_evaluation_leaves_no_reference_cycles():
    e = se.parse(MEMO_TEXT, VARS)
    points = [{"x": 0.5, "y": 1.5}, {"x": 1.0, "y": 2.0}, {"x": 2.0, "y": 0.5}]
    faulty = se.parse("ln(x)/(x - x)", ["x"])
    gc.collect()
    with collector(False):
        for _ in range(100):
            se.evaluate(e, points[0])
            se.worst_residual([(0, e, se.parse(MEMO_TEXT, VARS))], points)
            se.holds_exactly(e, se.parse(MEMO_TEXT, VARS))
            # a failing evaluation renders its message through to_text
            with pytest.raises(se.EvaluationError) as failure:
                se.evaluate(faulty, {"x": 1.0})
            assert "ln(x)" in str(failure.value)
        assert gc.collect() == 0


def test_zero_over_an_expression_still_fails_where_it_vanishes():
    x = se.Var("x")
    e = se.div(se.ZERO, x)
    assert isinstance(e, se.Div)
    with pytest.raises(se.EvaluationError, match="division by zero"):
        se.evaluate(e, {"x": 0.0})


def test_folding_preserves_value_not_structure():
    # the constructors may rewrite, but only to evaluation-equivalent trees
    x, y = se.Var("x"), se.Var("y")
    assert se.add(x, se.ZERO) is x
    assert se.mul(se.Const(1), y) is y


def test_evaluate_overflow_raises_evaluation_error():
    with pytest.raises(se.EvaluationError, match=r"exp\(x\)"):
        se.evaluate(se.parse("exp(x)", VARS), {"x": 800.0})
    with pytest.raises(se.EvaluationError):
        se.evaluate(se.Const(10**400), {})
    with pytest.raises(se.EvaluationError):
        se.evaluate(se.parse("x^3", VARS), {"x": 1e200})
    with pytest.raises(se.EvaluationError, match="sin"):
        se.evaluate(se.parse("sin(x*x)", VARS), {"x": 1e200})


@pytest.mark.parametrize(
    "expr, point, message",
    [
        (se.parse("1/(x - 1)", VARS), {"x": 1.0}, "division by zero in '1/(x - 1)'"),
        (se.parse("exp(x)", VARS), {"x": 800.0}, "cannot evaluate 'exp(x)': math range error"),
        (se.parse("sin(x)", VARS), {"x": math.inf}, "cannot evaluate 'sin(x)': math domain error"),
        (se.parse("x^3", VARS), {"x": 1e200}, "cannot evaluate 'x^3': math range error"),
        (se.Const(10**400), {},
         f"cannot evaluate '{'1' + '0' * 76}...': int too large to convert to float"),
    ],
    ids=["division", "exp", "sin-inf", "power", "constant"],
)
def test_evaluation_error_messages_are_pinned(expr, point, message):
    with pytest.raises(se.EvaluationError) as err:
        se.evaluate(expr, point)
    assert str(err.value) == message


def test_worst_residual_never_passes_non_finite_values():
    x = se.Var("x")
    big = se.Const(10**300)
    overflow = se.Mul(se.Mul(big, x), big)  # inf wherever x != 0
    nan = se.Add(overflow, se.Neg(overflow))
    points = [{"x": 0.5}, {"x": 0.25}]
    assert math.isnan(se.max_abs([se.ZERO, nan, se.ONE], points))
    worst, point, tag, cleared = se.worst_residual(
        [("a", x, 0), ("b", overflow, 0), ("c", x, 100)], points
    )
    assert (worst, point, tag, cleared) == (math.inf, points[0], "b", False)


def test_worst_residual_keeps_the_first_strictly_greater():
    x = se.Var("x")
    points = [{"x": 1.0}, {"x": -1.0}, {"x": 0.5}]
    worst, point, tag, _ = se.worst_residual([(0, x, 0), (1, se.neg(x), se.ZERO)], points)
    assert (worst, point, tag) == (1.0, points[0], 0)


@pytest.mark.parametrize("points", [[{"x": 2.0, "y": 3.0}], [{"x": 2.0, "y": 3.0}, {"x": 1.0, "y": 1.0}]])
def test_a_run_starts_from_known_values_and_writes_back_its_roots(points):
    x, y = se.Var("x"), se.Var("y")
    root = se.mul(x, y)
    side = se.add(root, x)
    unreached = se.sin(x)
    values = {}
    known = {"t": (values, [root, unreached])}
    se.worst_residual([("t", side, 0)], points, known=known)
    expected = [p["x"] * p["y"] for p in points]
    # the root's value only, a float over one point and a list over several
    assert values == {root: expected[0] if len(points) == 1 else expected}
    # a root whose value is written back leaves the list; the other stays
    assert known["t"][1] == [unreached]
    # a run of tag t starts from the known value; a run of another tag does not
    values[root] = 100.0 if len(points) == 1 else [100.0] * len(points)
    worst, point, tag, _ = se.worst_residual([("u", side, 0), ("t", side, 0)], points, known=known)
    assert (worst, point, tag) == (102.0, points[0], "t")


# -- what an evaluation walk stores ---------------------------------------------------

# Each walk with a leaf over the values of x, y, a and b: a float at one
# point, lists at two points, residues modulo the prime.
VALUES = {"x": 0.5, "y": 2.0, "a": 0.5, "b": 0.25}
WALKS = {
    "floats": (se._walk_floats, VALUES),
    "lists": (se._walk_lists, {name: [value, value + 1.0] for name, value in VALUES.items()}),
    "residues": (exact._walk_residues, {name: 3 + len(name) for name in VALUES}),
}


def shared_root():
    """sin(x)*y + cos(sin(x)), built so that only the two parents of sin(x),
    and only the root, hold each of them: no local of the caller does."""
    def build(twice):
        return se.add(se.mul(twice, se.Var("y")), se.cos(twice))

    return build(se.sin(se.Var("x")))


@pytest.mark.parametrize("walk", WALKS)
def test_a_walk_stores_only_the_values_of_nodes_held_more_than_once(walk):
    walk, values = WALKS[walk]
    root = shared_root()
    memo = {}
    value = walk(root, memo, lambda node: values[node.name])
    # read after the walk: a local holding them during it would be a holder
    twice, once = root.a.a, root.a
    assert root.b.arg is twice
    assert memo[root] == value
    assert twice in memo
    assert once not in memo and root.b not in memo


@pytest.mark.parametrize("walk", WALKS)
def test_a_walk_stores_every_node_of_two_parents(walk):
    """x_{k+1} = x_k*a + x_k*b, 20 levels: 2^20 paths from the root to x.
    Each x_k is held by its two products alone, so a gate that took two
    parents for one would walk every path and leave x_k out of the memo."""
    walk, values = WALKS[walk]
    x, a, b = se.Var("x"), se.Var("a"), se.Var("b")
    for _ in range(20):
        x = se.add(se.mul(x, a), se.mul(x, b))
    memo = {}
    walk(x, memo, lambda node: values[node.name])
    level = x
    for _ in range(20):
        assert level in memo
        level = level.a.a
    assert level.name == "x" and level in memo


def test_one_holder_is_the_count_of_a_node_held_by_one_parent():
    # each count is read outside an assert, whose rewrite would hold the probe
    probe = [object()]
    once = se._held_once(probe[0])
    held_twice = [probe, [probe[0]]]
    twice = se._held_once(held_twice[0][0])
    root = se.add(se.sin(se.Var("x")), se.cos(se.Var("x")))
    child = se._held_once(root.a)
    assert once == child == se._ONE_HOLDER < twice


# -- scans over several points ------------------------------------------------------


def random_dag(rng: random.Random, size: int) -> list:
    """Nodes of a random DAG: every node kind, children drawn from the
    nodes before, so subtrees are shared."""
    pool = [se.Var(v) for v in VARS] + [se.Const(rng.randint(1, 5)), se.Const(Fraction(-2, 7))]
    kinds = ("add", "mul", "div", "pow", "neg", "sin", "cos", "exp", "ln")
    for step in range(size):
        kind = kinds[step % len(kinds)]
        a, b = rng.choice(pool), rng.choice(pool)
        if kind == "add":
            node = se.Add(a, b)
        elif kind == "mul":
            node = se.Mul(a, b)
        elif kind == "div":
            node = se.Div(a, se.Add(se.Const(2), se.Pow(se.Sin(b), 2)))
        elif kind == "pow":
            node = se.Pow(se.Add(se.Const(3), se.Cos(a)), rng.choice((-2, -1, 2, 3)))
        elif kind == "neg":
            node = se.Neg(a)
        elif kind == "sin":
            node = se.Sin(a)
        elif kind == "cos":
            node = se.Cos(a)
        elif kind == "exp":
            node = se.Exp(se.Div(a, se.Add(se.Const(4), se.Pow(a, 2))))
        else:
            node = se.Ln(se.Add(se.Const(3), se.Pow(a, 2)))
        pool.append(node)
    return pool


def check_scan_values(monkeypatch, count, group):
    """Every value a scan serves is bit-identical to evaluating its side
    alone at a plain copy of the point; pairs ``group`` at a time share a tag."""
    rng = random.Random(f"scan/{count}")
    evaluate = se.evaluate
    served = []

    def recording(expr, point):
        value = evaluate(expr, point)
        served.append((expr, dict(point), value))
        return value

    monkeypatch.setattr(se, "evaluate", recording)
    compared = 0
    for _ in range(10):
        pool = random_dag(rng, 40)
        points = [random_point(rng) for _ in range(count)]
        if not all(math.isfinite(evaluate(e, p)) for e in pool for p in points):
            continue
        compared += 1
        pairs = [(i // group, rng.choice(pool[20:]), rng.choice(pool[20:])) for i in range(6)]
        served.clear()
        se.worst_residual(pairs + [(6 // group, pool[-1], 0.5)], points)
        assert len(served) == (2 * len(pairs) + 1) * count
        for expr, point, value in served:
            assert repr(value) == repr(evaluate(expr, point))
    assert compared >= 5


@pytest.mark.parametrize("count", [1, 2, 20])
def test_scan_values_equal_the_per_point_walk(monkeypatch, count):
    check_scan_values(monkeypatch, count, group=1)


@pytest.mark.parametrize("count", [1, 2, 20])
def test_scan_values_equal_the_per_point_walk_with_shared_tags(monkeypatch, count):
    """Pairs that share a tag share the scan's memo; the values stay exact."""
    check_scan_values(monkeypatch, count, group=2)


@pytest.mark.parametrize("seed", range(5))
def test_evaluate_equals_a_memo_free_recursion(seed):
    """Every node kind, with shared subtrees: the one-point walk of
    ``evaluate`` gives the oracle's value bit for bit."""
    rng = random.Random(f"oracle/{seed}")
    pool = random_dag(rng, 45)
    assert {type(e) for e in pool} == {
        se.Const, se.Var, se.Add, se.Mul, se.Div, se.Pow, se.Neg, se.Sin, se.Cos, se.Exp, se.Ln
    }
    for point in (random_point(rng) for _ in range(3)):
        for e in pool:
            assert repr(se.evaluate(e, point)) == repr(evaluate_recursively(e, point))


def test_scan_returns_an_earlier_nan_before_a_later_domain_error():
    ratio = se.Div(se.Var("y"), se.Var("x"))
    points = [{"x": 1.0, "y": 1.0}, {"x": 1.0, "y": math.nan}, {"x": 1.0, "y": 1.0},
              {"x": 0.0, "y": 1.0}]
    worst, point, tag, _ = se.worst_residual([("r", ratio, 0)], points)
    assert math.isnan(worst)
    assert point is points[1] and tag == "r"
    points[1] = {"x": 1.0, "y": 2.0}
    with pytest.raises(se.EvaluationError) as raised:
        se.worst_residual([("r", ratio, 0)], points)
    assert str(raised.value) == "division by zero in 'y/x'"


def test_one_point_scan_returns_a_nan_and_raises_a_domain_error():
    ratio = se.Div(se.Var("y"), se.Var("x"))
    points = [{"x": 1.0, "y": math.nan}]
    worst, point, tag, _ = se.worst_residual([("r", ratio, 0)], points)
    assert math.isnan(worst)
    assert point is points[0] and tag == "r"
    with pytest.raises(se.EvaluationError) as raised:
        se.worst_residual([("r", ratio, 0)], [{"x": 0.0, "y": 1.0}])
    assert str(raised.value) == "division by zero in 'y/x'"


@pytest.mark.parametrize("count", [1, 3])
def test_pairs_of_one_tag_compute_a_shared_subtree_once(monkeypatch, count):
    """A node that two pairs share is computed once while their tag is the
    same, and once per tag when it changes: the scan's walk (over one
    float, or over a list of ``count`` floats) applies sin once per point
    for each computation of the shared Sin node."""
    calls = []

    def counting(value, op=math.sin):
        calls.append(value)
        return op(value)

    monkeypatch.setitem(se._UNARY, se.Sin, counting)
    x, y = se.Var("x"), se.Var("y")
    shared = se.Sin(x)
    points = [{"x": 0.5 + i, "y": 2.0} for i in range(count)]
    for tags, computed in (((0, 0), 1), ((0, 1), 2)):
        calls.clear()
        pairs = [(tags[0], se.Add(shared, y), 0), (tags[1], se.Mul(shared, y), 1)]
        se.worst_residual(pairs, points)
        assert calls == [p["x"] for p in points] * computed


def test_replaced_evaluator_receives_the_sampled_values(monkeypatch):
    points = [{"x": 0.5}, {"x": 2.0}, {"x": 1.0}]
    seen = []

    def fake(expr, point):
        seen.append(point)
        return point["x"]

    monkeypatch.setattr(se, "evaluate", fake)
    worst, point, _, _ = se.worst_residual([(0, se.Var("x"), 0)], points)
    assert all(isinstance(p, dict) for p in seen)
    assert [dict(p) for p in seen] == points
    assert worst == 2.0
    assert type(point) is dict and point is points[1]


# -- exact identity test -------------------------------------------------------------


def test_holds_exactly_on_formal_identities():
    x, y = se.Var("x"), se.Var("y")
    assert se.holds_exactly(se.parse("(x + y)^2", VARS), se.parse("x^2 + 2*x*y + y^2", VARS))
    assert se.holds_exactly(se.differentiate(se.div(se.sin(se.mul(x, y)), x), "x"),
                            se.parse("y*cos(x*y)/x - sin(x*y)/x^2", VARS))
    assert se.holds_exactly(se.parse("x^(-2)*x^3", VARS), x)
    assert not se.holds_exactly(se.parse("x*y", VARS), se.parse("x*y + 1/1000000000000", VARS))
    # a denominator, or zero to a negative power, that vanishes at every
    # draw gives False
    assert not se.holds_exactly(se.div(x, se.sub(x, x)), 0)
    assert not se.holds_exactly(se.Pow(x - x, -2), 0)


def test_holds_exactly_does_not_know_trigonometric_relations():
    assert not se.holds_exactly(se.parse("sin(x)^2 + cos(x)^2", VARS), 1)


def fake_residuals(monkeypatch, residuals: dict):
    """Replace evaluate: each lhs gives its residual at the second point,
    every other value is 0."""
    def fake(expr, point):
        return residuals.get(expr, 0.0) if point["x"] == 2.0 else 0.0

    monkeypatch.setattr(se, "evaluate", fake)
    return [{"x": 1.0}, {"x": 2.0}, {"x": 3.0}]


def test_rounding_residuals_stay_the_worst_but_are_cleared(monkeypatch):
    x, y = se.Var("x"), se.Var("y")
    exact = se.Mul(x, y)  # against y*x: holds exactly
    points = fake_residuals(monkeypatch, {exact: 1.2e-7})
    pairs = [(0, se.Add(x, y), se.Add(y, x)), (1, exact, se.Mul(y, x))]
    assert se.worst_residual(pairs, points, tol=1e-8) == (1.2e-7, points[1], 1, True)
    assert se.worst_residual(pairs, points, tol=1e-6) == (1.2e-7, points[1], 1, False)
    assert se.worst_residual(pairs, points) == (1.2e-7, points[1], 1, False)


def test_a_failing_pair_is_reported_before_a_larger_rounding_residual(monkeypatch):
    """The point and tag name the pair that fails exactly, although a
    pair that holds exactly has the larger float residual."""
    x, y = se.Var("x"), se.Var("y")
    wrong, exact = se.Add(x, y), se.Mul(x, y)  # x + y against y: fails exactly
    points = fake_residuals(monkeypatch, {wrong: 2e-8, exact: 1.2e-7})
    for pairs in ([(0, wrong, y), (1, exact, se.Mul(y, x))],
                  [(1, exact, se.Mul(y, x)), (0, wrong, y)]):
        assert se.worst_residual(pairs, points, tol=1e-8) == (2e-8, points[1], 0, False)
