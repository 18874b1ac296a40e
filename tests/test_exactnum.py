from fractions import Fraction

import pytest

from qtower.exactnum import divisors, format_rational, parse_integer, parse_rational


def brute_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_divisors_examples():
    assert divisors(2) == [1, 2]
    assert divisors(8) == [1, 2, 4, 8]
    assert divisors(1) == [1]


def test_divisors_rejects_nonpositive():
    with pytest.raises(ValueError):
        divisors(0)
    with pytest.raises(ValueError):
        divisors(-6)


def test_divisors_against_brute_force():
    for n in range(1, 1201):
        assert divisors(n) == brute_divisors(n)
    # spot-check larger arguments against full trial division
    for n in (360360, 999983):
        assert divisors(n) == brute_divisors(n)


def test_parse_rational():
    assert parse_rational("5") == 5
    assert parse_rational("-16/23") == Fraction(-16, 23)
    assert parse_rational("4/6") == Fraction(2, 3)
    assert parse_rational(" 7/2 ") == Fraction(7, 2)


@pytest.mark.parametrize("bad", ["", "a", "1/0", "1.5", "1/-2", "+3", "1 / 2", "2/"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_integer():
    assert parse_integer("128") == 128
    assert parse_integer("-7") == -7
    assert parse_integer(" 12 ") == 12
    assert parse_integer("-0") == 0


@pytest.mark.parametrize("bad", ["", "-", "a", "1.0", "1/2", "+5", "1_0", "١٢٨", "٣", "1 2"])
def test_parse_integer_rejects(bad):
    with pytest.raises(ValueError) as info:
        parse_integer(bad)
    assert str(info.value) == f"not an integer: {bad!r}"


def test_format_rational():
    assert format_rational(Fraction(-16, 23)) == "-16/23"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(0)) == "0"
    # round trip
    for text in ("0", "-7", "3/8", "-16/23"):
        assert format_rational(parse_rational(text)) == text
