import random
from fractions import Fraction

import pytest

from qtower.exactnum import (
    divisors,
    format_rational,
    parse_rational,
    rational_square_root,
)


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


def test_rational_square_root_examples():
    assert rational_square_root(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_square_root(Fraction(2)) is None
    assert rational_square_root(Fraction(0)) == 0


def test_rational_square_root_negative():
    assert rational_square_root(Fraction(-9, 4)) is None


def test_rational_square_root_roundtrip():
    rng = random.Random(7)
    for _ in range(300):
        w = Fraction(rng.randint(-100, 100), rng.randint(1, 100))
        r = rational_square_root(w * w)
        assert r is not None
        assert r == abs(w)
        assert r * r == w * w


def test_rational_square_root_absent_means_absent():
    # brute-force oracle: p'/q' with p', q' small enough that w*w could
    # equal q for |num|, den <= 10**4; every square over that space is
    # tabulated once, keeping the first root in scan order
    roots = {}
    for qq in range(1, 101):
        for pp in range(0, 101):
            w = Fraction(pp, qq)
            roots.setdefault(w * w, w)

    def brute(q):
        return roots.get(q)

    rng = random.Random(11)
    cases = [Fraction(n, d) for n in range(1, 30) for d in range(1, 30)]
    cases += [
        Fraction(rng.randint(1, 10**4), rng.randint(1, 10**4)) for _ in range(200)
    ]
    for q in cases:
        got = rational_square_root(q)
        want = brute(q)
        assert got == want


def test_parse_rational():
    assert parse_rational("5") == 5
    assert parse_rational("-16/23") == Fraction(-16, 23)
    assert parse_rational("4/6") == Fraction(2, 3)
    assert parse_rational(" 7/2 ") == Fraction(7, 2)


@pytest.mark.parametrize("bad", ["", "a", "1/0", "1.5", "1/-2", "+3", "1 / 2", "2/"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational():
    assert format_rational(Fraction(-16, 23)) == "-16/23"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(0)) == "0"
    # round trip
    for text in ("0", "-7", "3/8", "-16/23"):
        assert format_rational(parse_rational(text)) == text
