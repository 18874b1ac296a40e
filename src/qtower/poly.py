"""Dense polynomials (constant term first) with rational coefficients,
with the cubic machinery behind constructibility verdicts.

The pipeline for a rational cubic: enumerate the finitely many possible
rational roots from the divisors of the cleared lowest nonzero and
leading coefficients, test each exactly, and conclude. A cubic with no rational
root has no root in any tower of real quadratic extensions, because a
root at level k forces (via the conjugate-root factorization) a root at
level k-1, and so on down to Q. `descend_cubic_root` is that argument
run forward as an algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import InvalidTower
from .exactnum import divisors
from .tower import Tower, TowerElement


@dataclass(frozen=True)
class Polynomial:
    """Rational coefficients, converted with `Fraction`; coefficient i
    multiplies x^i. Stored length may include leading zeros; `degree`
    ignores them."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coeffs)
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

    When no candidate rational root evaluates to zero, no root of the
    cubic lies in any tower of real quadratic extensions; the checked
    candidates are retained as the evidence."""

    outcome: Outcome
    root: Fraction | None
    candidates_checked: tuple[Fraction, ...]


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
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def _require_rational_cubic(p: Polynomial):
    if p.degree != 3:
        raise ValueError(f"degree must be exactly 3, got {p.degree}")


def descend_cubic_root(p: Polynomial, tower: Tower, x0: TowerElement) -> Fraction:
    """From an exact root x0 of a rational cubic at some tower level,
    walk down to a rational root.

    At each level: if the extension part of the current root is zero,
    project into the subfield; otherwise replace it by the remaining
    root of the factorization a3*(x - x0)*(x - conj(x0))*(x - C), namely
    C = -a2/a3 - (x0 + conj(x0)), which lives one level down. The root
    property is re-verified exactly after every step."""
    _require_rational_cubic(p)
    a2, a3 = p.coeffs[2], p.coeffs[3]
    if not poly_eval(p, x0, tower).is_zero:
        raise ValueError("x0 is not a root of the cubic")
    x = x0
    while x.level > 0:
        if x.extension_part().is_zero:
            x = x.subfield_part()
        else:
            x = tower.embed(-a2 / a3, x.level - 1) - x.subfield_part().scale(2)
        if not poly_eval(p, x, tower).is_zero:
            raise InvalidTower("descent lost the root; tower invariant violated")
    return x.rational_value


def rrt_candidates(p: Polynomial) -> list[Fraction]:
    """Every rational that could be a root of the cubic, each once,
    ascending. After clearing denominators to integer coefficients
    A0..A3, let A_m be the lowest nonzero one, so that p = x^m * q with
    q(0) = A_m: the candidates are all +-n/d in lowest terms with
    n | |A_m| and d | |A3|, and 0 when m > 0."""
    _require_rational_cubic(p)
    cs = p.coeffs[:4]
    scale = math.lcm(*(c.denominator for c in cs))
    a = [int(c * scale) for c in cs]
    m = next(i for i, ai in enumerate(a) if ai)
    # each candidate once, as its coprime (n, d); no set, since CPython
    # hashes all multiples of 2^61 - 1 alike
    dens = divisors(abs(a[3]))
    positive = sorted(
        [Fraction(n, d) for n in divisors(abs(a[m])) for d in dens if math.gcd(n, d) == 1]
    )
    zero = [Fraction(0)] if m else []
    return [-x for x in reversed(positive)] + zero + positive


def rational_roots_cubic(p: Polynomial) -> list[Fraction]:
    """The rational roots of the cubic, ascending. Complete: any rational
    root is among the candidates."""
    return [r for r in rrt_candidates(p) if poly_eval(p, r) == 0]


def constructible_root_verdict(p: Polynomial) -> Verdict:
    """Decide whether the rational cubic has a root in any tower of real
    quadratic extensions: a rational root settles it affirmatively
    (smallest returned), and no rational root settles it negatively for
    every tower at once."""
    candidates = rrt_candidates(p)
    roots = [r for r in candidates if poly_eval(p, r) == 0]
    if roots:
        return Verdict(Outcome.RATIONAL_ROOT_FOUND, roots[0], tuple(candidates))
    return Verdict(Outcome.NO_ROOT_IN_ANY_TOWER, None, tuple(candidates))
