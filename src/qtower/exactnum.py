"""Exact rational scalars and the number-theoretic helpers built on them.

Rationals are `fractions.Fraction` values: arbitrary precision, always in
lowest terms with a positive denominator, zero canonically 0/1. Text form
is `p` or `p/q` with an optional leading minus and a positive denominator.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^(-?[0-9]+)(?:/([0-9]+))?$")


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending.

    Trial division up to sqrt(n), one loop step per candidate: near
    n = 10^12 that is 10^6 steps, 0.09-0.2 s per call on CPython 3.11,
    which dominates verdicts on cubics with large coefficients.
    """
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def parse_rational(text: str) -> Fraction:
    """Parse the rational text form `p` or `p/q` (leading `-` allowed).

    Input need not be in lowest terms; the result always is. The
    denominator must be a positive integer literal.
    """
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def format_rational(q: Fraction) -> str:
    """Canonical text form: lowest terms, positive denominator, `p` or `p/q`."""
    return str(q)
