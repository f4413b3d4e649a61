import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from masterop import w_family
from masterop.funcdsl import (
    Bin,
    Num,
    ParseError,
    Unary,
    Var,
    parse,
    to_handle,
    to_string,
)


def test_parse_eval_basic():
    h = to_handle(parse("cos(x1)*exp(-t)"), 1)
    assert h.at(np.zeros(1), 0.0) == pytest.approx(1.0)
    assert h.at(np.array([math.pi]), 1.0) == pytest.approx(-math.exp(-1.0))


def test_eta_expression():
    h = to_handle(parse("pos(t)^2 + 1"), 1)
    assert h.at(np.zeros(1), 2.0) == 5.0
    assert h.at(np.zeros(1), -3.0) == 1.0
    assert h.smoothness == "c1t"
    assert h.time_kinks == (0.0,)


def test_operator_precedence():
    h = to_handle(parse("2+3*x1^2"), 1)
    assert h.at(np.array([2.0]), 0.0) == 14.0


def test_unary_minus_and_division():
    h = to_handle(parse("-x1/2 + 1"), 1)
    assert h.at(np.array([4.0]), 0.0) == -1.0


def test_negative_literal_exponent():
    h = to_handle(parse("(1+x1)^-2"), 1)
    assert h.at(np.array([1.0]), 0.0) == pytest.approx(0.25)


def test_syntax_error_column():
    with pytest.raises(ParseError) as exc:
        parse("cos(")
    assert exc.value.column == 5
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError) as exc:
        parse("squiggle(x1)")
    assert exc.value.column == 1


@pytest.mark.parametrize("text, column, message", [
    ("1.2.3", 1, "bad number '1.2.3'"),
    ("(1", 3, "expected ')'"),
    ("1 2", 3, "unexpected '2'"),
    ("x1^t", 4, "power exponent must be a numeric literal"),
    ("phi(2,1)", 1, "phi() takes 3 arguments"),
    ("w(x1,1)", 3, "family arguments must be numeric literals"),
    ("cos(", 5, "expected an expression"),
    ("1 + @", 5, "unexpected character '@'"),
    ("sin x1", 5, "expected '('"),
    ("neg(x1)", 1, "unknown identifier 'neg'"),
])
def test_parse_error_column_and_message(text, column, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.column == column
    assert str(exc.value) == f"{message} (column {column})"


def test_nonliteral_exponent_rejected():
    with pytest.raises(ParseError, match="literal"):
        parse("x1^t")


def test_family_arity_and_literal_args():
    with pytest.raises(ParseError, match="argument"):
        parse("phi(2,1)")
    with pytest.raises(ParseError, match="literal"):
        parse("w(x1,1)")


def test_dimension_validation():
    with pytest.raises(ParseError, match="x3"):
        to_handle(parse("x3+1"), 1)
    h = to_handle(parse("x2*t"), 2)
    assert h.at(np.array([1.0, 3.0]), 2.0) == 6.0


def test_unknown_character_column():
    with pytest.raises(ParseError) as exc:
        parse("1 + @")
    assert exc.value.column == 5


def test_constant_expression_detected():
    h = to_handle(parse("2*3 - bump(1)"), 1)
    assert h.constant_value == 6.0


def test_family_support_inference():
    h = to_handle(parse("phi(4,1,1)"), 1)
    assert h.support is not None and h.support.radius == 12.0
    hw = to_handle(parse("w(8,1)"), 1, s=0.5)
    assert hw.support.radius == 24.0
    # non-pure family terms carry no inferred support
    h2 = to_handle(parse("2*phi(4,1,1)"), 1)
    assert h2.support is None


def test_w_expression_matches_family():
    hw = to_handle(parse("w(8,1)"), 1, s=0.5)
    w8 = w_family(8, 1.0, 0.5)
    pts = np.array([[17.0], [20.5], [-18.0], [0.0]])
    tt = np.array([0.5, -1.0, 2.0, 3.0])
    assert np.allclose(hw(pts, tt), w8(pts, tt), rtol=1e-13)


def test_w_needs_order():
    with pytest.raises(ParseError, match="fractional order"):
        to_handle(parse("w(8,1)"), 1)


def test_family_inside_compound_expression():
    h = to_handle(parse("2*w(8,1) + 1"), 1, s=0.5)
    w8 = w_family(8, 1.0, 0.5)
    pts = np.array([[18.0], [0.0]])
    tt = np.array([0.5, 2.0])
    assert np.allclose(h(pts, tt), 2.0 * w8(pts, tt) + 1.0, rtol=1e-13)


def test_bump_expression():
    h = to_handle(parse("bump(abs(x1))"), 1)
    assert h.at(np.array([2.5]), 0.0) == pytest.approx(math.exp(-4.0), rel=1e-12)


def test_evaluation_is_pure():
    h = to_handle(parse("sin(x1)*exp(t)+sqrt(abs(x1))"), 1)
    pts = np.array([[0.3], [1.7]])
    tt = np.array([0.1, -0.4])
    a = h(pts, tt)
    b = h(pts, tt)
    assert np.array_equal(a, b)   # bit-identical


# structurally random expressions round-trip through print/parse
_leaf = st.sampled_from([Num(1.5), Num(0.0), Num(2.0), Var("x1"), Var("t")])


def _exprs(children):
    unaries = st.sampled_from(["neg", "exp", "cos", "sin", "abs", "pos"])
    bins = st.sampled_from(["+", "-", "*", "/"])
    return st.one_of(
        st.builds(Unary, unaries, children),
        st.builds(Bin, bins, children, children),
        st.builds(lambda e: Unary("bump", e), children),
        st.builds(lambda e: Bin("^", e, Num(2.0)), children),
    )


@given(st.recursive(_leaf, _exprs, max_leaves=12))
def test_roundtrip_print_parse(e):
    assert parse(to_string(e)) == e


def test_roundtrip_with_families():
    for text in ("phi(4,1,1)", "psi(2,0.5,1)", "w(8,1)",
                 "2+3*x1^2", "pos(t)^2 + 1", "cos(x1)*exp(-t)"):
        e = parse(text)
        assert parse(to_string(e)) == e
