import random
import time
from fractions import Fraction

import pytest

from helpers import random_element, random_rational, random_tower
from qtower.errors import LevelMismatch
from qtower.poly import (
    Outcome,
    Polynomial,
    constructible_root_verdict,
    descend_cubic_root,
    poly_eval,
    rational_roots_cubic,
    rrt_candidates,
)
from qtower.tower import Tower, TowerElement

DOUBLE_CUBE = Polynomial((-2, 0, 0, 1))
TRISECT = Polynomial((-1, -6, 0, 8))

Q = Tower()
Q_SQRT2 = Tower(((Fraction(2),),))


def elt(level, *coords):
    return TowerElement(level, tuple(Fraction(c) for c in coords))


def test_polynomial_construction():
    p = Polynomial((1, Fraction(1, 2)))
    assert p.coeffs == (Fraction(1), Fraction(1, 2))
    with pytest.raises(ValueError):
        Polynomial(())
    # coefficients are rationals only
    for coeffs in ((Fraction(1), elt(0, 1)), (Q.embed(1),), (elt(1, 1, 0), elt(1, 0, 1))):
        with pytest.raises(TypeError):
            Polynomial(coeffs)


def test_degree_ignores_leading_zeros():
    assert Polynomial((-2, 0, 0, 1)).degree == 3
    assert Polynomial((-2, 0, 0, 1, 0, 0)).degree == 3
    assert Polynomial((0,)).degree == -1
    assert Polynomial((5,)).degree == 0


def test_poly_eval_rational():
    assert poly_eval(DOUBLE_CUBE, 2) == 6
    assert poly_eval(DOUBLE_CUBE, 1) == -1
    for r in (2, 1, -1, -2):
        assert poly_eval(DOUBLE_CUBE, r) != 0
    assert poly_eval(Polynomial((Fraction(1, 2), 1)), Fraction(1, 2)) == 1


def test_poly_eval_tower_point():
    # x^2 - 2 at sqrt2 is exactly zero
    p = Polynomial((-2, 0, 1))
    g = Q_SQRT2.generator(1)
    assert poly_eval(p, g, Q_SQRT2).is_zero


def test_poly_eval_errors():
    with pytest.raises(ValueError):
        poly_eval(DOUBLE_CUBE, Q.embed(1))
    with pytest.raises(LevelMismatch):
        poly_eval(DOUBLE_CUBE, elt(2, 0, 0, 0, 1), Q_SQRT2)


def test_conjugate_eval_homomorphism():
    # P(conj x) = conj(P(x)) for rational coefficients; acceptance
    # criterion 5 covers coefficients in the subfield
    rng = random.Random(47)
    t = random_tower(rng, 2)
    for _ in range(25):
        coeffs = tuple(random_rational(rng, 10) for _ in range(rng.randint(1, 6)))
        p = Polynomial(coeffs)
        x = random_element(rng, 2, bound=10)
        assert poly_eval(p, x.conjugate(), t) == poly_eval(p, x, t).conjugate()


def test_descend_cubic_root_from_sqrt2():
    p = Polynomial((2, -2, -1, 1))  # factoring: (x^2 - 2)(x - 1), C = 1
    g = Q_SQRT2.generator(1)
    assert descend_cubic_root(p, Q_SQRT2, g) == 1


def test_descend_cubic_root_projection_branch():
    p = Polynomial((2, -2, -1, 1))
    assert descend_cubic_root(p, Q_SQRT2, Q_SQRT2.embed(1)) == 1


def test_descend_cubic_root_random_constructions():
    # a3*(x - r)*(x^2 - s) with rational non-square s kept non-square in a
    # random tower; the root sqrt(s) of the extension descends to r.
    rng = random.Random(53)
    done = 0
    while done < 25:
        base = random_tower(rng, rng.randint(0, 2))
        s = Fraction(rng.randint(1, 40), rng.randint(1, 10))
        if base.is_square(base.embed(s)) is not None:
            continue
        ext = base.adjoin_sqrt(s)
        root = ext.generator(ext.depth)
        r = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        a3 = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        # a3*(x - r)*(x^2 - s), expanded with constant term first
        p = Polynomial((a3 * r * s, -a3 * s, -a3 * r, a3))
        assert descend_cubic_root(p, ext, root) == r
        done += 1


def test_descend_cubic_root_errors():
    p = Polynomial((2, -2, -1, 1))
    with pytest.raises(ValueError):
        descend_cubic_root(p, Q_SQRT2, Q_SQRT2.embed(2))
    with pytest.raises(ValueError):
        descend_cubic_root(Polynomial((-2, 0, 1)), Q_SQRT2, Q_SQRT2.generator(1))


def test_rrt_candidates_paper_polys():
    assert rrt_candidates(DOUBLE_CUBE) == [-2, -1, 1, 2]
    assert rrt_candidates(TRISECT) == [
        Fraction(-1),
        Fraction(-1, 2),
        Fraction(-1, 4),
        Fraction(-1, 8),
        Fraction(1, 8),
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1),
    ]


def test_rrt_candidates_zero_constant():
    # x^3 = x^3 * 1: the candidates of the constant 1, and 0
    assert rrt_candidates(Polynomial((0, 0, 0, 1))) == [-1, 0, 1]
    # x^3 - 2x^2 = x^2 * (x - 2)
    assert rrt_candidates(Polynomial((0, 0, -2, 1))) == [-2, -1, 0, 1, 2]


def test_rrt_candidates_clears_denominators():
    # (x^3 - 2)/4 has the same candidates as x^3 - 2
    p = Polynomial((Fraction(-1, 2), 0, 0, Fraction(1, 4)))
    assert rrt_candidates(p) == [-2, -1, 1, 2]


def test_rrt_candidates_with_hash_colliding_numerators():
    # CPython hashes every multiple of the prime 2^61 - 1 alike, which made
    # a set of candidates quadratic in their number (0.9 s here)
    a0, a3 = 5040 * (2**61 - 1), 5040
    start = time.perf_counter()
    candidates = rrt_candidates(Polynomial((a0, 0, 1, a3)))
    assert time.perf_counter() - start < 0.5
    assert len(candidates) == 1620
    assert all(x < y for x, y in zip(candidates, candidates[1:]))
    assert candidates[810:] == [-x for x in reversed(candidates[:810])]
    for x in candidates:
        assert a0 % x.numerator == 0 and a3 % x.denominator == 0


def test_rrt_candidates_degree_errors():
    with pytest.raises(ValueError):
        rrt_candidates(Polynomial((1, 1)))
    with pytest.raises(ValueError):
        rrt_candidates(Polynomial((-2, 0, 0, 1, 5)))


def test_rational_roots_cubic():
    assert rational_roots_cubic(DOUBLE_CUBE) == []
    assert rational_roots_cubic(TRISECT) == []
    assert rational_roots_cubic(Polynomial((2, -2, -1, 1))) == [1]
    # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    assert rational_roots_cubic(Polynomial((-6, 11, -6, 1))) == [1, 2, 3]
    # a zero constant term: x^3 - x and x^3 - 2x^2
    assert rational_roots_cubic(Polynomial((0, -1, 0, 1))) == [-1, 0, 1]
    assert rational_roots_cubic(Polynomial((0, 0, -2, 1))) == [0, 2]


def test_rrt_completeness_planted_roots():
    rng = random.Random(59)
    planted = []
    for _ in range(60):
        num = rng.choice([n for n in range(-30, 31) if n != 0])
        den = rng.randint(1, 12)
        e = rng.choice([-5, -3, -2, -1, 1, 2, 3, 5])
        b = rng.randint(-10, 10)
        c = rng.choice([n for n in range(-10, 11) if n != 0])
        planted.append((Fraction(num, den), e, b, c))
    planted.append((Fraction(0), 2, 3, -5))  # a root 0: the constant term is 0
    for r, e, b, c in planted:
        # e*(den*x - num)*(x^2 + b*x + c): integer cubic with root r
        p = Polynomial(
            (
                -e * r.numerator * c,
                e * (r.denominator * c - r.numerator * b),
                e * (r.denominator * b - r.numerator),
                e * r.denominator,
            )
        )
        assert poly_eval(p, r) == 0
        assert r in rrt_candidates(p)
        assert r in rational_roots_cubic(p)


def test_verdict_no_root_cases():
    for p in (DOUBLE_CUBE, TRISECT):
        v = constructible_root_verdict(p)
        assert v.outcome is Outcome.NO_ROOT_IN_ANY_TOWER
        assert v.root is None
        assert all(poly_eval(p, r) != 0 for r in v.candidates_checked)
    assert constructible_root_verdict(DOUBLE_CUBE).candidates_checked == (-2, -1, 1, 2)


def test_verdict_rational_root_found():
    v = constructible_root_verdict(Polynomial((2, -2, -1, 1)))
    assert v.outcome is Outcome.RATIONAL_ROOT_FOUND
    assert v.root == 1
    # smallest of several roots
    v = constructible_root_verdict(Polynomial((-6, 11, -6, 1)))
    assert v.root == 1
    v = constructible_root_verdict(Polynomial((0, 0, 0, 1)))
    assert v.outcome is Outcome.RATIONAL_ROOT_FOUND
    assert v.root == 0


def test_horner_matches_power_sum():
    rng = random.Random(61)
    for _ in range(40):
        coeffs = tuple(
            Fraction(rng.randint(-20, 20), rng.randint(1, 20))
            for _ in range(rng.randint(1, 7))
        )
        p = Polynomial(coeffs)
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        naive = sum((c * x**i for i, c in enumerate(coeffs)), Fraction(0))
        assert poly_eval(p, x) == naive


def test_no_tower_element_is_double_cube_root():
    rng = random.Random(67)
    for depth in (1, 2, 3):
        t = random_tower(rng, depth)
        for _ in range(10):
            x = random_element(rng, depth, bound=20)
            assert not poly_eval(DOUBLE_CUBE, x, t).is_zero
