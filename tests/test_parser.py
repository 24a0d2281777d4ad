"""Parser: grammar, precedence, error positions."""

from fractions import Fraction

import pytest

from symflow.expr import Binary, Const, Unary, Var
from symflow.parser import MAX_DEPTH, ParseError, parse


def test_simple_sum_shape():
    e = parse("y + x^2", 2)
    assert e == Binary("add", Var(2), Binary("pow", Var(1), Const(2)))


def test_three_binary_nodes():
    e = parse("x*(1 - 2*y)", 2)
    count = 0
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Binary):
            count += 1
            stack += [node.left, node.right]
        elif isinstance(node, Unary):
            stack.append(node.arg)
    assert count == 3


def test_truncated_input_position():
    with pytest.raises(ParseError) as err:
        parse("x +", 2)
    assert err.value.position == 3


def test_unknown_identifier():
    with pytest.raises(ParseError) as err:
        parse("w + 1", 2)
    assert "w" in str(err.value)
    assert err.value.position == 0


def test_dimension_mismatch():
    with pytest.raises(ParseError) as err:
        parse("z3 + 1", 2)
    assert "dimension" in str(err.value)
    with pytest.raises(ParseError):
        parse("y", 1)


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse("(x + y", 2)
    with pytest.raises(ParseError):
        parse("x + y)", 2)


def test_precedence_pow_over_unary_minus():
    # -x^2 is -(x^2)
    e = parse("-x^2", 2)
    assert e == Unary("neg", Binary("pow", Var(1), Const(2)))


def test_precedence_unary_minus_over_mul():
    e = parse("-2*x", 2)
    assert e == Binary("mul", Const(-2), Var(1))


def test_pow_right_associative():
    assert parse("2^3^2", 1) == Const(512)


def test_decimal_literals_are_exact():
    assert parse("0.5", 1) == Const(Fraction(1, 2))
    assert parse("1.25*x", 1) == Binary("mul", Const(Fraction(5, 4)), Var(1))


def test_rational_literal_folding():
    assert parse("2/3", 1) == Const(Fraction(2, 3))
    # division by a literal zero is left for evaluation to reject
    e = parse("1/0", 1)
    assert e == Binary("div", Const(1), Const(0))


def test_exponent_must_be_constant():
    with pytest.raises(ParseError):
        parse("x^y", 2)
    assert parse("x^(1/2)", 1) == Binary("pow", Var(1), Const(Fraction(1, 2)))
    assert parse("x^-2", 1) == Binary("pow", Var(1), Const(-2))


def test_function_calls():
    assert parse("sin(x)", 1) == Unary("sin", Var(1))
    with pytest.raises(ParseError):
        parse("sin x", 1)
    with pytest.raises(ParseError):
        parse("sin(x, y)", 2)


def test_indexed_variables():
    e = parse("z1 + z2 + z3 + z4", 4)
    assert parse("z", 3) == Var(3)
    assert parse("z2", 4) == Var(2)


def test_whitespace_tolerated():
    assert parse("  x  +   y ", 2) == parse("x+y", 2)


def test_bad_character_position():
    with pytest.raises(ParseError) as err:
        parse("x + $", 2)
    assert err.value.position == 4


def nested(form, depth):
    """x under `depth` levels of one kind of nesting."""
    return {
        "paren": "(" * depth + "x" + ")" * depth,
        "call": "sin(" * depth + "x" + ")" * depth,
        "neg": "-" * depth + "x",
        "power": "x" + "^1" * depth,
    }[form]


@pytest.mark.parametrize("form", ["paren", "call", "neg", "power"])
def test_nesting_depth_is_bounded(form):
    # each level recurses through the parser, so past the bound the input
    # would meet the recursion limit instead of a ParseError
    parse(nested(form, MAX_DEPTH), 1)
    with pytest.raises(ParseError, match=f"nesting deeper than {MAX_DEPTH} at offset"):
        parse(nested(form, MAX_DEPTH + 1), 1)


def test_nesting_depth_counts_every_kind_together():
    parse("-(" * (MAX_DEPTH // 2) + "x" + ")" * (MAX_DEPTH // 2), 1)
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse("-(" * (MAX_DEPTH // 2) + "-x" + ")" * (MAX_DEPTH // 2), 1)
