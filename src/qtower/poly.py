"""Dense polynomials (constant term first) over Q or over a tower level,
with the cubic machinery behind constructibility verdicts.

The pipeline for a rational cubic: enumerate the finitely many possible
rational roots from the divisors of the cleared constant and leading
coefficients, test each exactly, and conclude. A cubic with no rational
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

from .errors import InvalidTower, LevelMismatch
from .exactnum import divisors
from .tower import Tower, TowerElement


@dataclass(frozen=True)
class Polynomial:
    """Coefficient i multiplies x^i. All coefficients are rationals, or
    all are tower elements of one level; mixing is rejected. Stored
    length may include leading zeros; `degree` ignores them."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if not coeffs:
            raise ValueError("empty polynomial")
        if any(isinstance(c, TowerElement) for c in coeffs):
            if not all(isinstance(c, TowerElement) for c in coeffs):
                raise ValueError("mixed scalar kinds in one polynomial")
            levels = {c.level for c in coeffs}
            if len(levels) > 1:
                raise LevelMismatch(f"coefficients at mixed levels {sorted(levels)}")
        else:
            coeffs = tuple(Fraction(c) for c in coeffs)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def is_rational(self) -> bool:
        return not isinstance(self.coeffs[0], TowerElement)

    @property
    def degree(self) -> int:
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not (c.is_zero if isinstance(c, TowerElement) else c == 0):
                return i
        return -1


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
    """Exact Horner evaluation c0 + x*(c1 + x*(c2 + ...)).

    Rational polynomials accept rational points directly. With a tower
    element point, coefficients are lifted to the point's level (rational
    coefficients embed), which requires the tower context.
    """
    if isinstance(x, TowerElement):
        if tower is None:
            raise ValueError("evaluation at a tower element needs the tower")
        if x.level > tower.depth:
            raise LevelMismatch(
                f"point at level {x.level} exceeds tower depth {tower.depth}"
            )
        lifted = []
        for c in p.coeffs:
            if isinstance(c, TowerElement):
                if c.level > x.level:
                    raise LevelMismatch(
                        f"coefficient level {c.level} above point level {x.level}"
                    )
                lifted.append(tower.lift_to(c, x.level))
            else:
                lifted.append(tower.embed(c, x.level))
        acc = TowerElement.zero(x.level)
        for c in reversed(lifted):
            acc = tower.mul(acc, x) + c
        return acc
    if not p.is_rational:
        raise LevelMismatch("tower-coefficient polynomial needs a tower-element point")
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def _require_rational_cubic(p: Polynomial):
    if not p.is_rational:
        raise ValueError("cubic operations need rational coefficients")
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
    """Every rational that could be a root of the cubic: after clearing
    denominators to integer coefficients A0..A3, all +-n/d in lowest
    terms with n | |A0| and d | |A3|, deduplicated ascending.

    A zero constant term short-circuits to the single candidate 0 (which
    is then a root); the divisor rule degenerates there and no deeper
    enumeration is attempted."""
    _require_rational_cubic(p)
    cs = p.coeffs[:4]
    scale = math.lcm(*(c.denominator for c in cs))
    a0, _, _, a3 = (int(c * scale) for c in cs)
    if a0 == 0:
        return [Fraction(0)]
    candidates = set()
    dens = divisors(abs(a3))
    for num in divisors(abs(a0)):
        for den in dens:
            candidates.add(Fraction(num, den))
            candidates.add(Fraction(-num, den))
    return sorted(candidates)


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
