import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory.primetest import is_strong_lucas_prp

from helpers import trial_divisors
from qtower.exactnum import (
    _is_strong_lucas_probable_prime,
    divisors,
    parse_integer,
    parse_rational,
)


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
    rng = random.Random(9)
    larger = [rng.randrange(1, 10**9) for _ in range(100)]
    for n in list(range(1, 1201)) + [360360, 999983, 735134400, 10**9 - 1] + larger:
        assert divisors(n) == trial_divisors(n), n


def test_divisors_against_sympy_up_to_10_24():
    rng = random.Random(24)
    for _ in range(200):
        n = rng.randrange(1, 10 ** rng.randint(1, 24))
        assert divisors(n) == sympy.divisors(n), n


PSI_13 = 3317044064679887385961981  # least composite that is a strong probable prime to 2..41


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael numbers
        41041,
        3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to the bases 2 to 23
        999983**2,
        999983**3,
        999983 * 999979,
        2**80,
        999999999989,  # the largest prime below 10^12
        10**24,
        PSI_13,  # = 1287836182261 * 2575672364521, only the Lucas test sees it
        2**89 - 1,  # primes above PSI_13
        2**127 - 1,
        (2**61 - 1) * (2**31 - 1),
    ],
)
def test_divisors_hard_cases(n):
    assert divisors(n) == sympy.divisors(n)


def test_strong_lucas_test_against_sympy():
    # includes the strong Lucas pseudoprimes 5459, 5777, 10877, 16109, 18971
    for n in range(101, 30001, 2):
        assert _is_strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n


PLANTED_PRIMES = (2, 3, 5, 7, 97, 101, 65537, 999979, 999983)


@settings(database=None, derandomize=True, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=len(PLANTED_PRIMES), max_size=len(PLANTED_PRIMES)),
    # 2^61 - 1 is CPython's modulus for hashing ints: a set of divisors would go quadratic
    st.sampled_from((1, 999999999989, 2**61 - 1)),
)
def test_divisors_of_planted_factorizations(exponents, big):
    n = big * math.prod(p**e for p, e in zip(PLANTED_PRIMES, exponents))
    divs = divisors(n)
    assert all(a < b for a, b in zip(divs, divs[1:]))
    assert all(n % d == 0 for d in divs)
    assert len(divs) == (2 if big > 1 else 1) * math.prod(e + 1 for e in exponents)


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
    # str(Fraction) writes the rational text form that parse_rational reads
    assert str(Fraction(-16, 23)) == "-16/23"
    assert str(Fraction(4, 2)) == "2"
    assert str(Fraction(0)) == "0"
    # round trip
    for text in ("0", "-7", "3/8", "-16/23"):
        assert str(parse_rational(text)) == text
