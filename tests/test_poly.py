import itertools
import math
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
    with pytest.raises(TypeError):
        Polynomial((0.1, 0, 0, 1))
    with pytest.raises(TypeError):
        poly_eval(DOUBLE_CUBE, 0.1)
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


def rational_square_tower(rng, depth):
    """A tower of `depth` levels whose squares are rationals, and the squares."""
    t, squares = Tower(), []
    while t.depth < depth:
        s = Fraction(rng.randint(2, 60), rng.randint(1, 6))
        if t.is_square(t.embed(s)) is None:
            t, squares = t.adjoin_sqrt(s), squares + [s]
    return t, squares


def test_descend_from_quadratic_irrationals_in_rational_square_towers():
    # x0 = a + b*M with M a product of generators, so M^2 is rational and x0,
    # its conjugate a - b*M and r are the roots of a3*(x - r)*(x^2 - 2a*x +
    # a^2 - b^2*M^2); the descent must reach r from each, and from r itself
    rng = random.Random(79)
    for depth in (1, 2, 3):
        for _ in range(8):
            t, squares = rational_square_tower(rng, depth)
            gens = [i for i in range(1, depth + 1) if rng.random() < 0.5] or [depth]
            m = t.embed(1)
            for i in gens:
                m = t.mul(m, t.lift_to(t.generator(i), depth))
            m_squared = math.prod(squares[i - 1] for i in gens)
            a = random_rational(rng, 20)
            b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 20), rng.randint(1, 20))
            r = random_rational(rng, 20)
            a3 = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
            p = expand(a3, [r], (a * a - b * b * m_squared, -2 * a))
            for x0 in (t.embed(a) + m.scale(b), t.embed(a) - m.scale(b), t.embed(r)):
                assert descend_cubic_root(p, t, x0) == r


def test_descend_from_sqrt_d_under_a_nested_top_generator():
    # top square g^2 = d*w^2 with w irrational one level down and d a
    # rational non-square there: sqrt(d) = g/w, and x0 = a +- b*sqrt(d)
    # are the roots of a3*(x - r)*(x^2 - 2a*x + a^2 - b^2*d) besides r.
    # The first case is fixed: g2^2 = 9 + 6*sqrt(2) = 3*(1 + sqrt(2))^2, so
    # sqrt(3) = g1*g2 - g2, x0 = 5 +- sqrt(3) = [5, 0, -+1, +-1], and
    # 2x^3 - 21x^2 + 54x - 22 = (2x - 1)(x^2 - 10x + 22)
    rng = random.Random(83)
    cases = [
        (
            Tower([[2], [9, 6]]),
            3,
            TowerElement(2, (0, 0, -1, 1)),
            Polynomial((-22, 54, -21, 2)),
            5,
            1,
            Fraction(1, 2),
        )
    ]
    while len(cases) < 21:
        base = random_tower(rng, rng.randint(1, 2))
        d = Fraction(rng.randint(2, 40), rng.randint(1, 10))
        w = random_element(rng, base.depth, bound=10, nonzero=True)
        square = base.mul(base.embed(d), base.mul(w, w))
        if square.is_rational or base.is_square(base.embed(d)) is not None:
            continue
        t = base.adjoin_sqrt(square)
        sqrt_d = t.mul(t.generator(t.depth), t.lift_to(base.inv(w), t.depth))
        a, r = random_rational(rng, 20), random_rational(rng, 20)
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 20), rng.randint(1, 20))
        a3 = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        cases.append((t, d, sqrt_d, expand(a3, [r], (a * a - b * b * d, -2 * a)), a, b, r))
    for t, d, sqrt_d, p, a, b, r in cases:
        assert t.mul(sqrt_d, sqrt_d) == t.embed(d)
        for x0 in (t.embed(a) + sqrt_d.scale(b), t.embed(a) - sqrt_d.scale(b)):
            assert descend_cubic_root(p, t, x0) == r


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
    with pytest.raises(ValueError):
        rational_roots_cubic(Polynomial((-2, 0, 1)))


def candidate_roots(p):
    """The rational roots by the rational root theorem: every candidate,
    tested exactly. A reference that lifts nothing."""
    return [r for r in rrt_candidates(p) if poly_eval(p, r) == 0]


def expand(lead, roots, quadratic=()):
    """lead * prod(x - r), times x^2 + b*x + c when quadratic = (c, b),
    as a Polynomial."""
    coeffs = [lead]
    for factor in [(-r, 1) for r in roots] + ([quadratic + (1,)] if quadratic else []):
        prod = [Fraction(0)] * (len(coeffs) + len(factor) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(factor):
                prod[i + j] += a * b
        coeffs = prod
    return Polynomial(tuple(coeffs))


def seeded_cubics(rng, count):
    """Cubics with three rational roots (a double, a triple or zeros among
    them), with one rational root times a quadratic, and with random
    rational coefficients; leading coefficients of either sign."""
    for i in range(count):
        lead = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 6))
        r = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(3)]
        kind = i % 6
        if kind == 0:  # a double root
            r[1] = r[0]
        elif kind == 1:  # a triple root
            r[1] = r[2] = r[0]
        elif kind == 2:  # x^m * q for m = 1..3
            r[: 1 + i // 6 % 3] = [Fraction(0)] * (1 + i // 6 % 3)
        if kind == 3:
            yield expand(lead, r[:1], (Fraction(rng.randint(-20, 20)), Fraction(rng.randint(-20, 20))))
        elif kind == 4:
            coeffs = [Fraction(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(3)]
            yield Polynomial((*coeffs, lead))
        else:
            yield expand(lead, r)


def test_rational_roots_match_the_candidate_filter():
    cubics = list(seeded_cubics(random.Random(67), 300))
    # every shape is present: repeated roots, m = 1..3, no rational root
    assert {len(set(candidate_roots(p))) for p in cubics} == {0, 1, 2, 3}
    assert {next(i for i, c in enumerate(p.coeffs) if c) for p in cubics} == {0, 1, 2, 3}
    for p in cubics:
        assert rational_roots_cubic(p) == candidate_roots(p), p


def test_rational_roots_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for p in seeded_cubics(random.Random(71), 60):
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x)
        want = sorted(Fraction(int(r.p), int(r.q)) for r in sympy.roots(poly, filter="Q"))
        assert rational_roots_cubic(p) == want, p


def test_rational_roots_of_large_cubics_without_factoring():
    # (x - P1)(x^2 + P2): factoring P1*P2 by rho took 14.9 s
    p1, p2 = 10**15 + 37, 10**15 + 91
    cubics = [(Polynomial((-p1 * p2, p2, -p1, 1)), [Fraction(p1)])]
    rng = random.Random(73)
    for digits in (30, 35, 40):
        def big():
            return rng.choice([-1, 1]) * rng.randrange(10 ** (digits - 1), 10**digits)

        r, s, t = [Fraction(big(), abs(big())) for _ in range(3)]
        b = Fraction(big())
        # x^2 + b*x + b^2 has no real root
        cubics.append((expand(Fraction(big()), [r], (b * b, b)), [r]))
        cubics.append((expand(Fraction(big()), [r, s, t]), sorted({r, s, t})))
        cubics.append((expand(Fraction(big(), abs(big())), [r, r, s]), sorted({r, s})))
    for p, want in cubics:
        start = time.perf_counter()
        assert rational_roots_cubic(p) == want
        assert time.perf_counter() - start < 0.05


def least_prime_not_dividing(n):
    return next(q for q in itertools.count(2) if n % q and all(q % f for f in range(2, q)))


PRIMORIAL_13 = 2 * 3 * 5 * 7 * 11 * 13
PRIMORIAL_97 = math.prod(q for q in range(2, 98) if all(q % f for f in range(2, q)))


@pytest.mark.parametrize(
    "primorial, ks",
    [(PRIMORIAL_13, (4, 5, -190)), (PRIMORIAL_97, (20, 35, -187))],
    ids=["p17", "p101"],
)
def test_lifting_when_the_least_prime_is_large(primorial, ks):
    # the roots of g (the monic integer form of the cubic) differ by
    # multiples of the primorial, so every prime up to it divides disc(g)
    # and the lifting runs modulo the next prime, 17 or 101
    least = least_prime_not_dividing(primorial)
    a = 7
    # each 1 + k*primorial is prime up to sign, so the candidate filter factors
    # the constant terms below at once
    n, n2, n3 = (1 + k * primorial for k in ks)
    kp = n - 1
    cubics = [
        # (cubic, disc(g), its rational roots)
        # (x - 1)(x^2 - 2x + n): disc(x^2 - 2x + n) * (1 - 2 + n)^2
        (expand(Fraction(1), [Fraction(1)], (Fraction(n), Fraction(-2))), -4 * kp**3, [1]),
        # the same in a*x: g's roots are a^2 times those above
        (
            expand(Fraction(a**3), [Fraction(1, a)], (Fraction(n, a * a), Fraction(-2, a))),
            a**12 * -4 * kp**3,
            [Fraction(1, a)],
        ),
        # x * (x - 1)(x - n) and x * (a*x - 1)(a*x - n): g is the quadratic
        (expand(Fraction(1), [Fraction(0), Fraction(1), Fraction(n)]), kp**2, [0, 1, n]),
        (
            expand(Fraction(a * a), [Fraction(0), Fraction(1, a), Fraction(n, a)]),
            a * a * kp**2,
            [0, Fraction(1, a), Fraction(n, a)],
        ),
    ]
    for p, disc, want in cubics:
        assert least_prime_not_dividing(disc) == least
        assert candidate_roots(p) == want
        start = time.perf_counter()
        assert rational_roots_cubic(p) == want
        assert time.perf_counter() - start < 0.05
    # three integer roots: too many large primes in A0 for the candidate
    # filter at the larger primorial, so the planted roots are the reference
    p = expand(Fraction(1), [Fraction(r) for r in (n, n2, n3)])
    disc = math.prod((x - y) ** 2 for x, y in itertools.combinations((n, n2, n3), 2))
    assert least_prime_not_dividing(disc) == least
    start = time.perf_counter()
    assert rational_roots_cubic(p) == sorted([n, n2, n3])
    assert time.perf_counter() - start < 0.05


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
