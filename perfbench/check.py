"""Output checker: decides whether each command's output is right.

Verdicts, rational roots and candidate lists are checked against the
planted construction (factorizations of the end coefficients, planted
roots, and a prime modulo which the cubic has no root). Elements printed by
`eval`, `let`, `is-square` and `member` are checked against the benchmark's
own high-precision evaluation (numeric.py), never against Tower.approx.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import mpmath

from numeric import basis_values, dot, evaluate, gen_values, lin_coords

MARGIN_BITS = 256
NOT_SQUARE = "not a square in the current tower"
NO_ROOT_TAIL = " (all nonzero)\nby: no rational root => no root in any quadratic extension tower"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def parse_element(text: str):
    """`[c0, c1, ...] ≈ decimal` -> (coords, decimal text)."""
    coords_text, sep, decimal = text.partition(" ≈ ")
    if not sep or not coords_text.startswith("[") or not coords_text.endswith("]"):
        raise ValueError(f"not an element: {text[:80]!r}")
    coords = [Fraction(c) for c in coords_text[1:-1].split(", ")]
    if len(coords) & (len(coords) - 1):
        raise ValueError(f"{len(coords)} coordinates is not a power of two")
    return coords, decimal


def _bits(coords) -> int:
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coords)


def divisors_from(factors: dict) -> list[int]:
    divs = [1]
    for p, e in factors.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def candidates(coeffs, f0, f3) -> list[Fraction]:
    """The rational-root candidates of an integer cubic, from the planted
    factorizations of |A0| and |A3|."""
    if coeffs[0] == 0:
        return [Fraction(0)]
    out = set()
    for n in divisors_from(f0):
        for d in divisors_from(f3):
            out.add(Fraction(n, d))
            out.add(Fraction(-n, d))
    return sorted(out)


def _cubic_value(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _plant_error(coeffs, roots, f0, f3, proof):
    if math.prod(p**e for p, e in f0.items()) != abs(coeffs[0]):
        return "planted factorization of A0 is wrong"
    if math.prod(p**e for p, e in f3.items()) != abs(coeffs[3]):
        return "planted factorization of A3 is wrong"
    if any(_cubic_value(coeffs, r) != 0 for r in roots):
        return "a planted root is not a root"
    if proof is not None:
        if roots or coeffs[3] % proof == 0:
            return "no-root proof does not apply"
        if any(sum(c * pow(x, i, proof) for i, c in enumerate(coeffs)) % proof == 0 for x in range(proof)):
            return f"cubic has a root mod {proof}"
    return None


def _join(values) -> str:
    return ", ".join(str(v) for v in values)


class Checker:
    """Checks outputs against specs made by gen.py. `check` returns None
    when the output is right and a reason otherwise."""

    def __init__(self):
        self._gens = {}

    def gens(self, levels, prec, flips=frozenset()):
        prec = -(-prec // 256) * 256
        key = (levels, prec, flips)
        if key not in self._gens:
            with mpmath.workprec(prec):
                self._gens[key] = gen_values(levels, flips)
        return prec, self._gens[key]

    def check(self, spec, output: str):
        try:
            return getattr(self, "_" + spec[0])(output, *spec[1:])
        except (ValueError, ZeroDivisionError) as exc:
            return f"unreadable output: {exc}"

    def _exact(self, output, expected):
        return None if output == expected else f"expected {expected[:120]!r}"

    def _element(self, text, levels, tree, level=None, absolute=False):
        """Check printed coordinates and decimal against tree's value."""
        coords, decimal = parse_element(text)
        level = len(levels) if level is None else level
        if len(coords) != 1 << level:
            return f"expected {1 << level} coordinates, got {len(coords)}"
        prec, gens = self.gens(levels, _bits(coords) + MARGIN_BITS)
        with mpmath.workprec(prec):
            got = dot(coords, basis_values(gens, level))
            want = evaluate(tree, gens)
            if absolute:
                want = abs(want)
            scale = max(1, abs(want))
            if abs(got - want) > scale * mpmath.mpf(2) ** (-MARGIN_BITS // 2):
                return f"coordinates evaluate to {mpmath.nstr(got, 20)}, expected {mpmath.nstr(want, 20)}"
            return self._decimal(decimal, want)

    @staticmethod
    def _decimal(decimal, want):
        shown = mpmath.mpf(decimal)
        if want == 0:
            return None if shown == 0 else f"decimal {decimal} for zero"
        if abs(shown - want) > abs(want) * mpmath.mpf("1e-13"):
            return f"decimal {decimal} differs from {mpmath.nstr(want, 20)}"
        return None

    def _let(self, output, levels, name, tree):
        prefix = f"{name} = "
        if not output.startswith(prefix):
            return f"expected {prefix!r}"
        return self._element(output[len(prefix):], levels, tree)

    def _eval(self, output, levels, tree):
        return self._element(output, levels, tree)

    def _sign(self, output, levels, tree):
        prec, gens = self.gens(levels, 2 * MARGIN_BITS)
        with mpmath.workprec(prec):
            value = evaluate(tree, gens)
            if abs(value) < mpmath.mpf(2) ** -MARGIN_BITS:
                return "value too close to zero to check numerically"
        expected = "1" if value > 0 else "-1"
        return None if output == expected else f"expected {expected}"

    def _square(self, output, levels, tree, root):
        prefix = "square; witness "
        if not output.startswith(prefix):
            return "expected a witness"
        text = output[len(prefix):]
        if root[0] == "lin":
            coords, _ = parse_element(text)
            exact = lin_coords(root, len(levels))
            if coords != exact and coords != [-c for c in exact]:
                return "witness is not the planted root up to sign"
        return self._element(text, levels, root, absolute=True)

    def _nonsquare(self, output, levels, tree, flip):
        prec, gens = self.gens(levels, 2 * MARGIN_BITS, frozenset((flip,)))
        with mpmath.workprec(prec):
            if not evaluate(tree, gens) < -(mpmath.mpf(2) ** -MARGIN_BITS):
                return "planted non-square is not negative in the flipped embedding"
        return self._exact(output, NOT_SQUARE)

    def _member(self, output, levels, tree, level, inside):
        if not inside:
            return self._exact(output, f"not a member of level {level}")
        prefix = f"member of level {level}: "
        if not output.startswith(prefix):
            return f"expected {prefix!r}"
        return self._element(output[len(prefix):], levels, tree, level)

    def _cubic(self, coeffs, roots, f0, f3, proof):
        reason = _plant_error(coeffs, roots, f0, f3, proof)
        return reason, _join(candidates(coeffs, f0, f3))

    def _rrt(self, output, coeffs, roots, f0, f3, proof):
        reason, shown = self._cubic(coeffs, roots, f0, f3, proof)
        return reason or self._exact(output, "candidates: " + shown)

    def _roots(self, output, coeffs, roots, f0, f3, proof):
        reason, _ = self._cubic(coeffs, roots, f0, f3, proof)
        return reason or self._exact(output, "rational roots: " + (_join(roots) if roots else "none"))

    def _verdict(self, output, coeffs, roots, f0, f3, proof):
        reason, shown = self._cubic(coeffs, roots, f0, f3, proof)
        if reason:
            return reason
        if roots:
            return self._exact(output, f"rational root found: {roots[0]}; candidates checked: {shown}")
        return self._exact(
            output, "no root in any quadratic extension tower; candidates checked: " + shown + NO_ROOT_TAIL
        )
