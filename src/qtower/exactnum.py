"""Exact rational scalars and the number-theoretic helpers built on them.

Rationals are `fractions.Fraction` values: arbitrary precision, always in
lowest terms with a positive denominator, zero canonically 0/1. Their
text form is `p` or `p/q` in ASCII digits, with an optional leading minus:
`rationals_text` writes it, and `parse_rational` reads it (the tokenizer,
which has matched the literal, reads it by `rational_of_digits`). Both name
Python's int-string limit in the same words when a number passes it.
"""

from __future__ import annotations

import collections
import itertools
import math
import re
import sys
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^(-?[0-9]+)(?:/([0-9]+))?$")
_INTEGER_RE = re.compile(r"-?[0-9]+")
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
    43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)
_MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending, from the prime factors of n.

    Trial division by the primes below 100 comes first. Each cofactor left
    is then tested with Miller-Rabin to the first 13 primes as bases, which
    is exact below 3317044064679887385961981 (about 3.3*10^24), the least
    composite that passes them all (Sorenson and Webster, Math. Comp.
    2017). From that bound up, a cofactor must also pass a strong Lucas
    test (Baillie-PSW): no composite is known to pass both, but none is
    proven not to. A composite cofactor is split by Pollard's rho with
    Brent's cycle search (BIT 1980). Rho takes about sqrt(p) steps to find
    the least prime factor p, so it is still exponential on semiprimes of two large
    primes: one of two 13-digit primes takes about a second. The prime
    factors then expand to every divisor.
    """
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    primes = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            primes.append(p)
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        # m has no prime factor below 100, so below 101^2 it is prime
        if m < 101 * 101 or _is_prime(m):
            primes.append(m)
        else:
            f = _rho_factor(m)
            pending += [f, m // f]
    divs = [1]
    for p, e in collections.Counter(primes).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _is_prime(n: int) -> bool:
    """Primality of an odd n > 41 with no prime factor below 100, as
    `divisors` describes it."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _SMALL_PRIMES[:13]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MILLER_RABIN_EXACT_BELOW or _is_strong_lucas_probable_prime(n)


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test for odd n > 100, with Selfridge's parameters:
    D the first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1,
    P = 1, Q = (1 - D)/4."""
    if math.isqrt(n) ** 2 == n:
        return False  # no such D exists
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # 1 < gcd(|D|, n) < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d * 2^s, d odd
    d = (n + 1) >> s
    # U_k, V_k and Q^k mod n, for k the leading bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            # k -> k + 1 with P = 1: halve U + V and D*U + V mod n
            U, V = (U + V) % n, (D * U + V) % n
            U, V = (U + n * (U & 1)) // 2, (V + n * (V & 1)) // 2
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite n: Pollard's rho on
    x -> x^2 + c with Brent's cycle search, one gcd per 128 steps, and
    the next c after a run that finds only n."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch passed the factor: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def as_rational(q) -> Fraction:
    """q as a Fraction, for q an int or a Fraction. Anything else is a
    TypeError: a binary float would pass its binary value off as exact,
    and text has its own reader, `parse_rational`."""
    if not isinstance(q, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, got {type(q).__name__}")
    return Fraction(q)


def parse_rational(text: str) -> Fraction:
    """Parse the rational text form `p` or `p/q` (leading `-` allowed).

    Input need not be in lowest terms; the result always is. The
    denominator must be a positive integer literal.
    """
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational: {text!r}")
    return rational_of_digits(*m.groups(), text)


def rational_of_digits(num: str, den: str | None, text: str) -> Fraction:
    """num/den from the digits of an already matched literal `text`: num
    `-?[0-9]+`, den `[0-9]+`, or None for an integer, which takes no gcd.
    A zero den, or a number past the digit limit, is a ValueError as in
    `parse_rational`."""
    n = ascii_int(num)
    if den is None:
        return Fraction(n)
    d = ascii_int(den)
    if d == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(n, d)


def parse_integer(text: str) -> int:
    """Parse an ASCII integer, `-?[0-9]+`; int() would also take `+`, `_` and `١`."""
    if _INTEGER_RE.fullmatch(text.strip()) is None:
        raise ValueError(f"not an integer: {text!r}")
    return ascii_int(text)


def ascii_int(text: str) -> int:
    """int() of text matched as `-?[0-9]+`, naming Python's int-string limit past it."""
    try:
        return int(text)
    except ValueError:
        raise _digit_limit() from None


def rationals_text(values, sep: str = ", ") -> str:
    """The text forms of the rationals, joined by sep. A value past
    Python's int-string limit raises the ValueError `ascii_int` raises;
    one check covers the whole join, so each value costs only its `str`."""
    try:
        return sep.join([str(q) for q in values])
    except ValueError:
        raise _digit_limit() from None


def _digit_limit() -> ValueError:
    return ValueError(f"number exceeds the {sys.get_int_max_str_digits()}-digit limit")
