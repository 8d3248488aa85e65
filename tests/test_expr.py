"""Parser and evaluator for coefficient expressions."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ma_singular.errors import ParseError
from ma_singular.expr import (
    MAX_DEPTH,
    evaluate,
    parse_expr,
    substitute,
    to_string,
    variables_of,
)

ENV1 = {"x": 0.3, "y": -0.7, "z": 0.1, "p": 1.5, "q": -2.0}


@pytest.mark.parametrize("text,expected", [
    ("1 + 2 * 3", 7.0),
    ("(1 + 2) * 3", 9.0),
    ("2 ^ 3 ^ 2", 512.0),            # right associative
    ("-2 ^ 2", -4.0),                # unary minus binds looser than ^
    ("2 * -3", -6.0),
    ("10 / 4 / 5", 0.5),             # left associative
    ("1 - 2 - 3", -4.0),
    ("1.5e2 + .5", 150.5),
])
def test_arithmetic(text, expected):
    assert evaluate(parse_expr(text), {}) == expected


@pytest.mark.parametrize("text,ref", [
    ("p^2", ENV1["p"] ** 2),
    ("1 + p^4", 1 + ENV1["p"] ** 4),
    ("sin(x) * cos(y)", math.sin(0.3) * math.cos(-0.7)),
    ("exp(-z^2)", math.exp(-0.01)),
    ("sqrt(1 + p^2 + q^2)", math.sqrt(1 + 1.5**2 + 4.0)),
    ("atan(q / p)", math.atan(-2.0 / 1.5)),
])
def test_variables_and_functions(text, ref):
    assert evaluate(parse_expr(text), ENV1) == pytest.approx(ref, rel=1e-15)


def test_evaluate_broadcasts_over_arrays():
    p = np.linspace(-2, 2, 17)
    out = evaluate(parse_expr("1 + p^4"), {"p": p})
    np.testing.assert_allclose(out, 1 + p**4)


def test_division_by_zero_yields_non_finite_not_exception():
    with np.errstate(divide="ignore", invalid="ignore"):
        out = evaluate(parse_expr("1 / x"), {"x": np.array([0.0, 2.0])})
    assert np.isinf(out[0]) and out[1] == 0.5


@pytest.mark.parametrize("bad", [
    "", "1 +", "(1", "1)", "2 **", "sin", "sin()", "foo(1)", "w + 1",
    "1 2", "..5",
])
def test_rejects_malformed_input(bad):
    with pytest.raises(ParseError):
        parse_expr(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_expr("1 + @")
    assert info.value.position == 4


#: An expression n levels deep, by the way it nests.
_DEPTH_N = {
    "parentheses": lambda n: "(" * (n - 1) + "x" + ")" * (n - 1),
    "calls": lambda n: "sin(" * (n - 1) + "x" + ")" * (n - 1),
    "unary-minus": lambda n: "-" * (n - 1) + "x",
    "sum": lambda n: "+".join(["x"] * n),
    "power": lambda n: "^".join(["x"] * n),
}


@pytest.mark.parametrize("kind", sorted(_DEPTH_N))
def test_max_depth_parses_and_one_level_more_does_not(kind):
    tree = parse_expr(_DEPTH_N[kind](MAX_DEPTH))
    assert parse_expr(to_string(tree)) == tree
    assert variables_of(tree) == {"x"}
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels"):
        parse_expr(_DEPTH_N[kind](MAX_DEPTH + 1))


@pytest.mark.parametrize("text, position", [
    ("(" * 493 + "1" + ")" * 493, 256),   # the 257th "("
    ("-" * 493 + "p", 256),               # the 257th "-"
    ("+".join(["1"] * 993), 511),         # the 256th "+"
    ("(" * 100_000, 256),
], ids=["parentheses", "unary-minus", "sum", "unclosed"])
def test_too_deep_expression_fails_where_it_crosses_the_bound(text, position):
    # Past the bound the parser or a tree walker would run out of stack.
    with pytest.raises(ParseError) as info:
        parse_expr(text)
    assert info.value.position == position


def test_variables_of():
    assert variables_of(parse_expr("1 + p^4")) == {"p"}
    assert variables_of(parse_expr("x*y - sin(z)*q")) == {"x", "y", "z", "q"}
    assert variables_of(parse_expr("3.5")) == set()


def test_substitute_then_evaluate():
    e = parse_expr("x^2 + y")
    flipped = substitute(e, {"x": parse_expr("-x"), "y": parse_expr("-y")})
    assert evaluate(flipped, {"x": 3.0, "y": 5.0}) == 9.0 - 5.0


def test_to_string_round_trips_exactly():
    for text in ("1 + 2*p - q^2", "-(x + y)/(1 - z)", "sin(cos(x))^2",
                 "2^p^q", "-x^2"):
        tree = parse_expr(text)
        assert parse_expr(to_string(tree)) == tree


@st.composite
def expr_trees(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["x", "y", "z", "p", "q", "0.5", "2",
                                     "1.25"]))
        return leaf
    op = draw(st.sampled_from(["+", "-", "*", "/", "^"]))
    a = draw(expr_trees(depth=depth + 1))
    b = draw(expr_trees(depth=depth + 1))
    if op == "^":
        b = draw(st.sampled_from(["2", "3", "0.5"]))
    return f"({a} {op} {b})"


@given(expr_trees())
def test_print_parse_is_identity_on_trees(text):
    tree = parse_expr(text)
    assert parse_expr(to_string(tree)) == tree


@given(expr_trees(),
       st.floats(min_value=0.1, max_value=2.0),
       st.floats(min_value=0.1, max_value=2.0))
def test_printed_form_evaluates_identically(text, xv, pv):
    env = {"x": xv, "y": 0.5, "z": 0.25, "p": pv, "q": 1.0}
    tree = parse_expr(text)
    with np.errstate(all="ignore"):
        a = evaluate(tree, env)
        b = evaluate(parse_expr(to_string(tree)), env)
    assert a == b or (np.isnan(a) and np.isnan(b))
