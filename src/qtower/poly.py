"""Dense polynomials (constant term first) with rational coefficients,
with the cubic machinery behind constructibility verdicts.

A cubic with no rational root has no root in any tower of real
quadratic extensions, because a root at level k forces (via the
conjugate-root factorization) a root at level k-1, and so on down to Q.
`descend_cubic_root` is that argument run forward as an algorithm.
Every cubic procedure starts from `_integer_coeffs`, the one integer
form of the cubic and the one check of its degree.

Two procedures find the rational roots. `rational_roots_cubic` lifts
the roots of a monic integer cubic modulo one small prime (p-adic
Newton iteration), in time polynomial in the size of the coefficients.
`rrt_candidates` and `constructible_root_verdict` list every candidate
of the rational root theorem, from the divisors of the cleared lowest
nonzero and leading coefficients, and test each exactly; they factor
those coefficients, because they print the whole list as evidence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .exactnum import as_rational, divisors
from .tower import Tower, TowerElement


@dataclass(frozen=True)
class Polynomial:
    """Rational coefficients, each an int or a Fraction; coefficient i
    multiplies x^i. Stored length may include leading zeros; `degree`
    ignores them."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple([as_rational(c) for c in self.coeffs])
        if not coeffs:
            raise ValueError("empty polynomial")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return max((i for i, c in enumerate(self.coeffs) if c), default=-1)


class Outcome(Enum):
    RATIONAL_ROOT_FOUND = "rational root found"
    NO_ROOT_IN_ANY_TOWER = "no root in any quadratic extension tower"


@dataclass(frozen=True)
class Verdict:
    """Result of a constructibility query on a rational cubic.

    When no candidate rational root evaluates to zero, `root` is None and
    no root of the cubic lies in any tower of real quadratic extensions;
    the checked candidates are retained as the evidence."""

    root: Fraction | None
    candidates_checked: tuple[Fraction, ...]

    @property
    def outcome(self) -> Outcome:
        if self.root is None:
            return Outcome.NO_ROOT_IN_ANY_TOWER
        return Outcome.RATIONAL_ROOT_FOUND


def poly_eval(p: Polynomial, x, tower: Tower | None = None):
    """Exact Horner evaluation c0 + x*(c1 + x*(c2 + ...)) at a rational
    or at a tower element. At a tower element each coefficient embeds at
    the point's level, which requires the tower context."""
    if isinstance(x, TowerElement):
        if tower is None:
            raise ValueError("evaluation at a tower element needs the tower")
        acc = tower.embed(p.coeffs[-1], x.level)
        for c in reversed(p.coeffs[:-1]):
            acc = tower.mul(acc, x) + tower.embed(c, x.level)
        return acc
    return _horner(p.coeffs, as_rational(x))


def descend_cubic_root(p: Polynomial, tower: Tower, x0: TowerElement) -> Fraction:
    """From an exact root x0 of a rational cubic at some tower level,
    walk down to a rational root.

    At each level: if the extension part of the current root is zero,
    project into the subfield; otherwise replace it by the remaining
    root of the factorization a3*(x - x0)*(x - conj(x0))*(x - C), namely
    C = -a2/a3 - (x0 + conj(x0)), which lives one level down. Only x0 is
    tested: being of degree 1 or 2 over Q, it is a + b*sqrt(d) with a, b
    rational, so the first such step lands on the rational -a2/a3 - 2a
    and later levels only project it; testing each level would evaluate
    the cubic at that one rational again and again."""
    a, _ = _integer_coeffs(p)
    if not poly_eval(p, x0, tower).is_zero:
        raise ValueError("x0 is not a root of the cubic")
    x = x0
    while x.level > 0:
        if x.extension_part().is_zero:
            x = x.subfield_part()
        else:
            x = tower.embed(Fraction(-a[2], a[3]), x.level - 1) - x.subfield_part().scale(2)
    return x.rational_value


def _integer_coeffs(p: Polynomial) -> tuple[list[int], int]:
    """(A, m): A0..A3, the cubic's coefficients times the lcm of their
    denominators, and the index m of the lowest nonzero one."""
    if p.degree != 3:
        raise ValueError(f"degree must be exactly 3, got {p.degree}")
    cs = p.coeffs[:4]
    scale = math.lcm(*(c.denominator for c in cs))
    a = [c.numerator * (scale // c.denominator) for c in cs]
    return a, next(i for i, ai in enumerate(a) if ai)


def rrt_candidates(p: Polynomial) -> list[Fraction]:
    """Every rational that could be a root of the cubic, each once,
    ascending. After clearing denominators to integer coefficients
    A0..A3, let A_m be the lowest nonzero one, so that p = x^m * q with
    q(0) = A_m: the candidates are all +-n/d in lowest terms with
    n | |A_m| and d | |A3|, and 0 when m > 0."""
    a, m = _integer_coeffs(p)
    # each candidate once, as its coprime (n, d); no set, since CPython
    # hashes all multiples of 2^61 - 1 alike
    dens = divisors(abs(a[3]))
    positive = sorted(
        [Fraction(n, d) for n in divisors(abs(a[m])) for d in dens if math.gcd(n, d) == 1]
    )
    zero = [Fraction(0)] if m else []
    return [-x for x in reversed(positive)] + zero + positive


def rational_roots_cubic(p: Polynomial) -> list[Fraction]:
    """The rational roots of the cubic, ascending, without factoring.

    Clear denominators and write p = x^m * q with q(0) != 0. For q of
    degree d with leading coefficient a, the monic integer polynomial
    g(y) = a^(d-1) * q(y/a) has the integer root y exactly when q has
    the rational root y/a. If disc(g) = 0, a closed form gives g's
    repeated root, which is rational. Otherwise g is square-free modulo
    the least prime p not dividing disc(g), so each root of g mod p
    lifts to one root mod p^k by Newton's iteration (Hensel's lemma).
    Every integer root y of g has |y| <= B = 1 + max |g_i| (Cauchy's
    bound), so once p^k > 2B it is the symmetric residue of one lifted
    root; each residue is tested exactly. Loos, SIAM J. Comput. 1983;
    von zur Gathen and Gerhard, Modern Computer Algebra, ch. 15."""
    a, m = _integer_coeffs(p)
    q = a[m:]
    d, lead = len(q) - 1, q[-1]
    g = [c * lead ** (d - 1 - i) for i, c in enumerate(q[:d])] + [1]
    # q(0) != 0, so 0 is a root of p only through x^m
    zero = [Fraction(0)] if m else []
    return sorted([Fraction(y, lead) for y in _integer_roots(g)] + zero)


def _integer_roots(g: list[int]) -> list[int]:
    """The distinct integer roots of the monic integer polynomial g of
    degree at most 3, coefficients constant first."""
    d = len(g) - 1
    if d < 2:
        return [-g[0]] if d else []
    if d == 2:
        e, c = g[:2]
        disc = c * c - 4 * e
        if disc == 0:
            return [-c // 2]
    else:
        e, c, b = g[:3]
        disc = b * b * c * c - 4 * c**3 - 4 * b**3 * e - 27 * e * e + 18 * b * c * e
        if disc == 0:
            # roots r, r, t: b^2 - 3c = (r - t)^2 and 9e - bc = 2r(r - t)^2
            h = b * b - 3 * c
            if h == 0:
                return [-b // 3]
            r = (9 * e - b * c) // (2 * h)
            return [r, -b - 2 * r]
    # the least n prime to disc is prime: smaller n's factors divide disc
    p = next(n for n in itertools.count(2) if math.gcd(disc, n) == 1)
    bound = 1 + max(map(abs, g))
    dg = [i * gi for i, gi in enumerate(g)][1:]
    roots = []
    for r in range(p):
        if _horner(g, r) % p:
            continue
        modulus = p
        while modulus <= 2 * bound:
            # g'(r) is a unit mod p, since p does not divide disc(g)
            step = _horner(g, r) * pow(_horner(dg, r), -1, modulus)
            modulus *= modulus
            r = (r - step) % modulus
        y = r - modulus if 2 * r > modulus else r
        if _horner(g, y) == 0:
            roots.append(y)
    return roots


def _horner(g, x):
    """g(x) for coefficients g, constant first; ints or Fractions."""
    acc = 0
    for c in reversed(g):
        acc = acc * x + c
    return acc


def constructible_root_verdict(p: Polynomial) -> Verdict:
    """Decide whether the rational cubic has a root in any tower of real
    quadratic extensions: a rational root settles it affirmatively
    (smallest returned), and no rational root settles it negatively for
    every tower at once."""
    candidates = rrt_candidates(p)
    roots = [r for r in candidates if poly_eval(p, r) == 0]
    return Verdict(roots[0] if roots else None, tuple(candidates))
