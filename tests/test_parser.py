import gc
import random
from fractions import Fraction

import pytest

from qtower.errors import (
    DivisionByZero,
    LevelMismatch,
    NotASquareInTower,
    ParseError,
)
from qtower.parser import (
    MAX_DEPTH,
    BinOp,
    GeneratorRef,
    Neg,
    Pow,
    RationalLiteral,
    Sqrt,
    eval_expr,
    parse_expr,
    parse_poly,
    tokenize,
)
from qtower.tower import Tower, TowerElement

Q = Tower()
Q_SQRT2 = Tower(((Fraction(2),),))


# -- tokenizer -----------------------------------------------------------------


def test_tokenize_rational_and_generator():
    kinds = [(t.kind, t.value) for t in tokenize("1/2 + g1")]
    assert kinds == [
        ("RAT", Fraction(1, 2)),
        ("PLUS", None),
        ("GEN", 1),
        ("EOF", None),
    ]


def test_tokenize_sqrt():
    assert [t.kind for t in tokenize("sqrt(2)")] == ["SQRT", "LPAREN", "RAT", "RPAREN", "EOF"]


def test_tokenize_positions():
    toks = tokenize("12 + g3")
    assert [(t.text, t.pos) for t in toks] == [("12", 0), ("+", 3), ("g3", 5), ("", 7)]


def test_tokenize_lex_error_position():
    with pytest.raises(ParseError) as info:
        tokenize("3@4")
    assert info.value.position == 1
    with pytest.raises(ParseError) as info:
        tokenize("1 + ²")  # a digit to str.isdigit, not a rational
    assert info.value.position == 4
    # literals past Python's 4300-digit int-string limit
    long = "7" * 5000
    for text, position in ((long, 0), (f"1 + 2/{long}", 4), (f"g{long}", 0)):
        with pytest.raises(ParseError, match="4300-digit limit") as info:
            parse_expr(text)
        assert info.value.position == position


def test_tokenize_zero_denominator():
    with pytest.raises(ParseError):
        tokenize("1/0")


def test_tokenize_names():
    toks = tokenize("x last g0")
    assert [(t.kind, t.value) for t in toks[:3]] == [
        ("NAME", "x"),
        ("NAME", "last"),
        ("GEN", 0),
    ]


# -- parser --------------------------------------------------------------------


def test_parse_intro_expression_shape():
    tree = parse_expr("(3 - sqrt(2)) * sqrt(2) / (sqrt(2) + 5)")
    assert tree == BinOp(
        "/",
        BinOp(
            "*",
            BinOp("-", RationalLiteral(Fraction(3)), Sqrt(RationalLiteral(Fraction(2)))),
            Sqrt(RationalLiteral(Fraction(2))),
        ),
        BinOp("+", Sqrt(RationalLiteral(Fraction(2))), RationalLiteral(Fraction(5))),
    )


def test_parse_pow():
    assert parse_expr("g1^2") == Pow(GeneratorRef(1), 2)
    assert parse_expr("g1^-2") == Pow(GeneratorRef(1), -2)
    assert parse_expr("2^0") == Pow(RationalLiteral(Fraction(2)), 0)


def test_parse_unary_minus_precedence():
    # -2^2 is -(2^2); -a*b is (-a)*b
    assert parse_expr("-2^2") == Neg(Pow(RationalLiteral(Fraction(2)), 2))
    assert parse_expr("-2 * 3") == BinOp(
        "*", Neg(RationalLiteral(Fraction(2))), RationalLiteral(Fraction(3))
    )
    assert parse_expr("--2") == Neg(Neg(RationalLiteral(Fraction(2))))
    # parentheses lift a lower-precedence operand back into a factor
    assert parse_expr("(-g1)^2") == Pow(Neg(GeneratorRef(1)), 2)
    assert parse_expr("-(1 + 2)") == Neg(
        BinOp("+", RationalLiteral(Fraction(1)), RationalLiteral(Fraction(2)))
    )
    assert parse_expr("sqrt(2)^-3") == Pow(Sqrt(RationalLiteral(Fraction(2))), -3)


def test_parse_left_associativity():
    assert parse_expr("1 - 2 - 3") == BinOp(
        "-",
        BinOp("-", RationalLiteral(Fraction(1)), RationalLiteral(Fraction(2))),
        RationalLiteral(Fraction(3)),
    )
    # a parenthesized right operand nests to the right
    assert parse_expr("1 - (2 - 3)") == BinOp(
        "-",
        RationalLiteral(Fraction(1)),
        BinOp("-", RationalLiteral(Fraction(2)), RationalLiteral(Fraction(3))),
    )
    assert parse_expr("2 / (3 * g1)") == BinOp(
        "/",
        RationalLiteral(Fraction(2)),
        BinOp("*", RationalLiteral(Fraction(3)), GeneratorRef(1)),
    )


def test_parse_errors():
    with pytest.raises(ParseError) as info:
        parse_expr("1 + ")
    assert info.value.position == 4
    assert "atom" in str(info.value)
    with pytest.raises(ParseError):
        parse_expr("")
    with pytest.raises(ParseError):
        parse_expr("(1")
    with pytest.raises(ParseError):
        parse_expr("1 2")
    with pytest.raises(ParseError):
        parse_expr("sqrt 2")
    with pytest.raises(ParseError):
        parse_expr("2^(3)")
    with pytest.raises(ParseError):
        parse_expr("2^1/2")


def test_parse_exponent_bound():
    assert parse_expr("2^64") == Pow(RationalLiteral(Fraction(2)), 64)
    with pytest.raises(ParseError):
        parse_expr("2^65")
    with pytest.raises(ParseError):
        parse_expr("2^-65")


def test_parse_depth_bound():
    # MAX_DEPTH levels parse; one more is refused at the token that adds it
    for text in (
        "-" * (MAX_DEPTH - 1) + "1",
        "(" * (MAX_DEPTH - 1) + "1" + ")" * (MAX_DEPTH - 1),
        "+".join(["1"] * MAX_DEPTH),
        "sqrt(" * (MAX_DEPTH - 2) + "2^2" + ")" * (MAX_DEPTH - 2),
    ):
        parse_expr(text)
    too_deep = {
        "-" * MAX_DEPTH + "1": MAX_DEPTH,
        "(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH: MAX_DEPTH,
        "+".join(["1"] * (MAX_DEPTH + 1)): 2 * MAX_DEPTH - 1,
        "sqrt(" * (MAX_DEPTH - 1) + "2^2" + ")" * (MAX_DEPTH - 1): 5 * (MAX_DEPTH - 1) + 1,
    }
    for text, offset in too_deep.items():
        with pytest.raises(ParseError) as info:
            parse_expr(text)
        assert info.value.position == offset, text
        assert str(info.value).startswith(f"expression deeper than {MAX_DEPTH} levels")


# -- evaluation ----------------------------------------------------------------


def test_eval_intro_expression():
    tree = parse_expr("(3 - sqrt(2)) * sqrt(2) / (sqrt(2) + 5)")
    got = eval_expr(tree, Q_SQRT2)
    assert got == TowerElement(1, (Fraction(-16, 23), Fraction(17, 23)))


def test_eval_sqrt_rational():
    assert eval_expr(parse_expr("sqrt(9/4)"), Q) == Q.embed(Fraction(3, 2))
    # witness sign is normalized to nonnegative
    assert eval_expr(parse_expr("sqrt(2)"), Q_SQRT2) == Q_SQRT2.generator(1)


def test_eval_sqrt_not_a_square():
    with pytest.raises(NotASquareInTower):
        eval_expr(parse_expr("sqrt(3)"), Q_SQRT2)


def test_eval_generator_out_of_range():
    with pytest.raises(LevelMismatch):
        eval_expr(parse_expr("g1"), Q)
    with pytest.raises(LevelMismatch):
        eval_expr(parse_expr("g0"), Q_SQRT2)
    with pytest.raises(LevelMismatch):
        eval_expr(parse_expr("g2"), Q_SQRT2)


def test_eval_division_by_zero():
    with pytest.raises(DivisionByZero):
        eval_expr(parse_expr("1 / 0"), Q)
    with pytest.raises(DivisionByZero):
        eval_expr(parse_expr("1 / (2 - 2)"), Q)
    with pytest.raises(DivisionByZero):
        eval_expr(parse_expr("0^-1"), Q)


def test_eval_pow():
    assert eval_expr(parse_expr("g1^2"), Q_SQRT2) == Q_SQRT2.embed(2)
    assert eval_expr(parse_expr("g1^-2"), Q_SQRT2) == Q_SQRT2.embed(Fraction(1, 2))
    assert eval_expr(parse_expr("7^0"), Q) == Q.embed(1)


def test_eval_bindings():
    x = Q_SQRT2.generator(1)
    assert eval_expr(parse_expr("last + 1"), Q_SQRT2, {"last": x}) == x + Q_SQRT2.embed(1)
    low = Q_SQRT2.embed(3, level=0)
    assert eval_expr(parse_expr("v"), Q_SQRT2, {"v": low}) == Q_SQRT2.embed(3)
    with pytest.raises(ValueError):
        eval_expr(parse_expr("missing"), Q_SQRT2, {})
    with pytest.raises(ValueError):
        eval_expr(parse_expr("missing"), Q_SQRT2)


def test_eval_matches_tower_ops():
    rng = random.Random(71)
    t = Q_SQRT2
    for _ in range(30):
        a = TowerElement(1, (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))))
        b = TowerElement(1, (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))))
        env = {"a": a, "b": b}
        assert eval_expr(parse_expr("a + b"), t, env) == a + b
        assert eval_expr(parse_expr("a - b"), t, env) == a - b
        assert eval_expr(parse_expr("a * b"), t, env) == t.mul(a, b)
        assert eval_expr(parse_expr("-a"), t, env) == -a
        if not b.is_zero:
            assert eval_expr(parse_expr("a / b"), t, env) == t.div(a, b)


def test_eval_leaves_no_reference_cycle():
    # a cycle would keep the tower and the bindings alive until the next
    # full collection
    node = parse_expr("sqrt(2)*(g1 - 1)^3 / (1 + a)")
    gc.collect()
    gc.disable()
    try:
        eval_expr(node, Q_SQRT2, {"a": TowerElement(1, (Fraction(3), Fraction(0)))})
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_eval_refuses_what_is_not_a_node():
    with pytest.raises(TypeError, match="^not an expression node: <object object at "):
        eval_expr(object(), Tower())


# -- polynomial literals ----------------------------------------------------------


def test_parse_poly_examples():
    assert parse_poly("[-2, 0, 0, 1]").coeffs == (-2, 0, 0, 1)
    assert parse_poly("[-1, -6, 0, 8]").coeffs == (-1, -6, 0, 8)
    assert parse_poly("[1/2, -3/4]").coeffs == (Fraction(1, 2), Fraction(-3, 4))


def test_parse_poly_errors():
    for bad in ("[]", "[1,]", "[,1]", "1, 2", "[1 2]", "[1, x]", "[1, 2] extra", "[1, -]"):
        with pytest.raises(ParseError):
            parse_poly(bad)
