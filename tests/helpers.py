"""Seeded random generators shared by the unit and acceptance tests."""

import math
from fractions import Fraction

from qtower.tower import Tower, TowerElement


def trial_divisors(n):
    """Every positive divisor of n >= 1 by trial division up to sqrt(n):
    a reference for exactnum.divisors that shares none of its number theory."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def random_rational(rng, bound=100):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_element(rng, level, bound=100, nonzero=False):
    while True:
        coords = tuple(random_rational(rng, bound) for _ in range(1 << level))
        elt = TowerElement(level, coords)
        if not nonzero or not elt.is_zero:
            return elt


def random_tower(rng, depth, bound=10, base=None):
    """A valid tower of exactly the requested depth: each square above
    `base` (default Q) is a random positive non-square of the level below."""
    t = Tower() if base is None else base
    while t.depth < depth:
        cand = random_element(rng, t.depth, bound)
        if cand.is_zero:
            continue
        if t.exact_sign(cand) < 0:
            cand = -cand
        if t.is_square(cand) is not None:
            continue
        t = t.adjoin_sqrt(cand)
    return t


# -- schoolbook reference arithmetic (test-only) ------------------------------
#
# Plain recursion over Fraction tuples in the tower's own basis, with the four
# half-size products a1*a2, b1*b2, a1*b2, b1*a2 per level plus the product by
# s. Slow, but it shares nothing with the integer kernel of qtower.tower.


def ref_mul(levels, a, b):
    """The product of coordinate tuples a and b in the tower `levels`."""
    if len(a) == 1:
        return (a[0] * b[0],)
    h = len(a) // 2
    a1, b1, a2, b2 = a[:h], a[h:], b[:h], b[h:]
    s = levels[h.bit_length() - 1]
    s_b1b2 = ref_mul(levels, s, ref_mul(levels, b1, b2))
    low = tuple(x + y for x, y in zip(ref_mul(levels, a1, a2), s_b1b2))
    high = tuple(x + y for x, y in zip(ref_mul(levels, a1, b2), ref_mul(levels, b1, a2)))
    return low + high


def ref_sign(levels, a):
    """The sign of the real number the coordinate tuple a denotes: with
    a = c + d*g, g > 0, compare c^2 with s*d^2 when c and d disagree."""
    if len(a) == 1:
        return (a[0] > 0) - (a[0] < 0)
    h = len(a) // 2
    c, d = a[:h], a[h:]
    sign_d = ref_sign(levels, d)
    sign_c = ref_sign(levels, c)
    if sign_d == 0 or sign_c in (0, sign_d):
        return sign_d or sign_c
    s_d2 = ref_mul(levels, levels[h.bit_length() - 1], ref_mul(levels, d, d))
    norm = tuple(x - y for x, y in zip(ref_mul(levels, c, c), s_d2))
    return sign_c if ref_sign(levels, norm) > 0 else sign_d
