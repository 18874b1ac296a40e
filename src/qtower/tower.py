"""Towers of real quadratic field extensions and exact arithmetic on them.

A tower is a chain Q = K0 < K1 < ... < Kn where each level adjoins the
positive square root g_i of some positive non-square element s_i of the
level below. The tower stores, for each level i, the 2^(i-1) coordinates
of s_i = g_i^2 in the level-(i-1) basis, and constructing a tower checks
that its levels form such a chain.

Elements of level k are vectors of 2^k rationals over the all-products
basis: coordinate j multiplies the product of the generators g_i selected
by the set bits of j (bit i-1 selects g_i). The top generator owns the
highest bit, so the first half of a coordinate vector is the subfield
part a and the second half the extension part b in the unique
decomposition x = a + b*g_k.

Arithmetic runs on integer vectors. Each tower rescales its generators,
g_i' = D_i*g_i with D_i > 0 the least common denominator of s_i's
coordinates in the rescaled basis below, so that every square s_i' =
D_i^2*s_i is an integer vector and integer vectors form a ring; D_i is
found once, when level i is adjoined. Coordinate j of an element
converts between the two bases by the product of the D_i over the set
bits of j; an element enters the kernel once per public
operation as an integer vector over one positive denominator, and leaves
it once as Fractions. In that ring a product takes three half-size
products plus one product by s (Karatsuba on a + b*g):

    (a1 + b1*g)(a2 + b2*g) = (a1*a2 + s*b1*b2)
                             + ((a1 + b1)(a2 + b2) - a1*a2 - b1*b2)*g

so a dense level-k product costs 4^k integer products on nested towers and
3^k on towers whose squares are rational, where the product by s is a
scalar multiple; products by zero halves are skipped. The recursion stops
at level 2, whose product is written out in full. Inversion and square
roots recurse through the norm a^2 - s*b^2 on the same kernel.

Each tower also holds an integer enclosure of its rescaled basis times
2^64, built one level at a time by the step that `approx` uses at higher
precision. A sign is read from the enclosure of x, rebuilt at twice the
bits until it excludes zero; in a valid tower only x = 0 never does, and
x = 0 is read from its coordinates, so every sign is exact.

Towers and elements are immutable; every operation is a pure function, so
values are safe to share across threads.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from .errors import (
    CoordinateTooLarge,
    DivisionByZero,
    InvalidTower,
    LevelMismatch,
    NonRealExtension,
    NotAProperExtension,
    TowerFormatError,
    TowerTooDeep,
)
from .exactnum import as_rational, parse_integer, parse_rational, rationals_text
from .record import Record, set_field

_ZERO = Fraction(0)

# The most bits `mul`, `inv`, `div` and `power` let a coordinate of a result have:
# about 315,000 decimal digits, 73 times the 4,300 that Python prints, so signs
# and decimals of such results still come out. A power's costliest step, its
# last squaring, multiplies coordinates of 2^19 bits: about 25 ms per product on
# one Xeon core with Python 3.11, and each doubling of the size triples that
# (Karatsuba). A level-k product takes up to 4^k such coordinate products.
MAX_COORDINATE_BITS = 1 << 20

# The most levels a tower has. Each level doubles the time and memory of every
# command: on towers of the first n prime square roots (Xeon, Python 3.11),
# `adjoin`, `sign` and `is-square` take about 30 ms at depth 14 (20 MB resident),
# 120 ms at depth 16 (36 MB) and 2-3 s at depth 20 (308 MB): about 10 GB at depth
# 25. A 65537-gon needs depth 15, 32,768 coordinates per element, and is refused
# by name rather than by running out of memory.
MAX_LEVELS = 14

# Coordinate tuples are built from lists, never from generators: CPython sizes
# tuple(<generator>) by resizing, so its freed small tuples pile up (up to 2000
# per length) on free lists that exact-size allocations never drain.


# -- the integer kernel -------------------------------------------------------
#
# A level-k vector is a list of 2^k ints in the rescaled basis; `squares`
# holds each rescaled square s_i', as an int when it is rational and as a
# level-(i-1) vector otherwise. The type of s_i' is the rational-level flag.


def _times_square(v, k, squares):
    """v*s' for the level-k vector v, where s' is the square of generator
    k+1 (which lives at level k)."""
    s = squares[k]
    if type(s) is int:
        return [s * x for x in v]
    return _mul(s, v, k, squares)


def _mul(a, b, k, squares):
    """The product of the level-k vectors a and b: three half-size
    products and one product by s per level, fewer when a half is zero.
    Level 2 is inlined: its three level-1 products and the product by
    s_2', which is an int or a level-1 vector."""
    if k == 2:
        s, t = squares[0], squares[1]
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        u, v = a0 * b0, a1 * b1
        p0, p1 = u + s * v, (a0 + a1) * (b0 + b1) - u - v
        u, v = a2 * b2, a3 * b3
        q0, q1 = u + s * v, (a2 + a3) * (b2 + b3) - u - v
        c0, c1, d0, d1 = a0 + a2, a1 + a3, b0 + b2, b1 + b3
        u, v = c0 * d0, c1 * d1
        r0, r1 = u + s * v - p0 - q0, (c0 + c1) * (d0 + d1) - u - v - p1 - q1
        if type(t) is int:
            return [p0 + t * q0, p1 + t * q1, r0, r1]
        t0, t1 = t
        u, v = t0 * q0, t1 * q1
        return [p0 + u + s * v, p1 + (t0 + t1) * (q0 + q1) - u - v, r0, r1]
    if k == 1:
        a1, b1 = a
        a2, b2 = b
        p, q = a1 * a2, b1 * b2
        return [p + squares[0] * q, (a1 + b1) * (a2 + b2) - p - q]
    if k == 0:
        return [a[0] * b[0]]
    if not (any(a) and any(b)):
        return [0] * len(a)
    h = len(a) >> 1
    a1, b1, a2, b2 = a[:h], a[h:], b[:h], b[h:]
    k -= 1
    p = _mul(a1, a2, k, squares)
    q = _mul(b1, b2, k, squares)
    if any(a1) and any(b1) and any(a2) and any(b2):
        r = _mul([x + y for x, y in zip(a1, b1)], [x + y for x, y in zip(a2, b2)], k, squares)
        high = [z - x - y for x, y, z in zip(p, q, r)]
    else:
        # a zero half: at most one cross product is nonzero
        high = [x + y for x, y in zip(_mul(a1, b2, k, squares), _mul(b1, a2, k, squares))]
    return [x + y for x, y in zip(p, _times_square(q, k, squares))] + high


def _norm(a, b, k, squares):
    """a^2 - s*b^2 for the halves a, b (level k) of a level-(k+1) vector."""
    sb2 = _times_square(_mul(b, b, k, squares), k, squares)
    return [x - y for x, y in zip(_mul(a, a, k, squares), sb2)]


def _reduced(v, den):
    """(v, den) over the smallest positive denominator."""
    g = math.gcd(den, *v)
    if g == 1:
        return v, den
    return [x // g for x in v], den // g


def _inv(a, k, squares):
    """(v, m) with a*v = m, m a positive integer, for the nonzero level-k
    vector a = c + d*g: 1/a = (c - d*g)/N with N = c^2 - s*d^2, and a
    subfield element inverts one level down."""
    if k == 0:
        n = a[0]
        return [1 if n > 0 else -1], abs(n)
    h = len(a) >> 1
    sub, ext = a[:h], a[h:]
    k -= 1
    if not any(ext):
        v, m = _inv(sub, k, squares)
        return v + [0] * h, m
    v, m = _inv(_norm(sub, ext, k, squares), k, squares)
    high = [-x for x in _mul(ext, v, k, squares)]
    return _reduced(_mul(sub, v, k, squares) + high, m)


def _sqrt(a, k, squares):
    """(w, e) with (w/e)^2 = a and e > 0 for the level-k vector a, or None
    when a is not a square at level k.

    For a = c + d*g with d != 0, any root u + t*g forces u^2 = (c +- r)/2
    with r^2 = c^2 - s*d^2 and t = d/(2u); the + branch is tried first.
    Then (u + t*g)^2 = u^2 + s*d^2/(4u^2) + d*g = c + d*g exactly, since
    s*d^2 = (c + r)(c - r). Every step scales by positive integers only,
    so the root found is the one the rational recursion finds.
    """
    if k == 0:
        n = a[0]
        if n < 0:
            return None
        r = math.isqrt(n)
        return ([r], 1) if r * r == n else None
    h = len(a) >> 1
    sub, ext = a[:h], a[h:]
    k -= 1
    zeros = [0] * h
    if not any(ext):
        # a = c: either u^2 = c, or a = (t*g)^2 with t^2 = c/s
        root = _sqrt(sub, k, squares)
        if root is not None:
            return root[0] + zeros, root[1]
        s = squares[k]
        if type(s) is int:
            csq, m = [x * s for x in sub], abs(s)
        else:
            v, m = _inv(s, k, squares)
            csq = [x * m for x in _mul(sub, v, k, squares)]
        # c/s = csq/m^2
        root = _sqrt(csq, k, squares)
        if root is None:
            return None
        return _reduced(zeros + root[0], root[1] * m)
    root = _sqrt(_norm(sub, ext, k, squares), k, squares)
    if root is None:
        return None
    r, er = root
    for sign in (1, -1):
        # u^2 = (c + sign*r/er)/2, so (2*er*u)^2 = 2*er*(er*c + sign*r)
        root = _sqrt([2 * er * (er * x + sign * y) for x, y in zip(sub, r)], k, squares)
        if root is None or not any(root[0]):
            continue
        u, eu = root
        # u = U/(2*er*eu) and t = d/(2u) = d*er*eu/U = d*er*eu*v/m
        v, m = _inv(u, k, squares)
        t = [x * (2 * er * eu) * er * eu for x in _mul(ext, v, k, squares)]
        return _reduced([x * m for x in u] + t, 2 * er * eu * m)
    return None


def _bits(v, d: int) -> int:
    """The bits of the largest integer of the vector v over denominator d."""
    return max(d, *map(abs, v)).bit_length()


def _refuse_past_limit(result: str, bits: int) -> None:
    """A product of factors of b1, b2, ... bits has about b1 + b2 + ... bits,
    and a level-k inverse 2^k times its input's; refuse such a result with
    CoordinateTooLarge before it is taken."""
    if bits > MAX_COORDINATE_BITS:
        raise CoordinateTooLarge(
            f"{result} with coordinates of about {bits} bits passes the "
            f"{MAX_COORDINATE_BITS}-bit limit"
        )


class TowerElement(Record):
    """An element of tower level `level`: 2^level rational coordinates,
    each an int or a Fraction."""

    __slots__ = __match_args__ = ("level", "coords")

    def __init__(self, level: int, coords: tuple[Fraction, ...]):
        if level < 0:
            raise ValueError(f"negative level {level}")
        coords = tuple([c if type(c) is Fraction else as_rational(c) for c in coords])
        if len(coords) != 1 << level:
            raise ValueError(
                f"level {level} needs {1 << level} coordinates, "
                f"got {len(coords)}"
            )
        set_field(self, "level", level)
        set_field(self, "coords", coords)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    @property
    def is_rational(self) -> bool:
        """True when all coordinates beyond the constant one vanish."""
        return not any(self.coords[1:])

    def conjugate(self) -> TowerElement:
        """a + b*g -> a - b*g: negate the extension-half coordinates."""
        if self.level == 0:
            raise LevelMismatch("conjugation needs a top generator (level >= 1)")
        h = 1 << (self.level - 1)
        return TowerElement(self.level, self.coords[:h] + tuple([-x for x in self.coords[h:]]))

    def scale(self, q) -> TowerElement:
        """q*x for q an int or a Fraction."""
        q = as_rational(q)
        return TowerElement(self.level, tuple([q * x for x in self.coords]))

    def _check_level(self, other):
        if self.level != other.level:
            raise LevelMismatch(
                f"levels {self.level} and {other.level} differ; lift explicitly"
            )

    def __add__(self, other: TowerElement) -> TowerElement:
        self._check_level(other)
        return TowerElement(self.level, tuple([x + y for x, y in zip(self.coords, other.coords)]))

    def __sub__(self, other: TowerElement) -> TowerElement:
        self._check_level(other)
        return TowerElement(self.level, tuple([x - y for x, y in zip(self.coords, other.coords)]))

    def __neg__(self) -> TowerElement:
        return TowerElement(self.level, tuple([-x for x in self.coords]))

    def __repr__(self):
        return f"TowerElement({self.level}, {format_coords(self.coords)})"


def format_coords(coords) -> str:
    """Coordinates as `[c0, c1, ...]`, each in its `p` or `p/q` form."""
    return "[" + rationals_text(coords) + "]"


def _brief(x: TowerElement) -> str:
    """Compact display for messages: plain rational when possible."""
    return rationals_text(x.coords[:1]) if x.is_rational else format_coords(x.coords)


class Tower(Record):
    """An ordered chain of quadratic extension levels over Q.

    `levels[i-1]` holds the coordinates, in the level-(i-1) basis, of the
    square of generator g_i. An empty tuple of levels is Q itself.

    Construction validates every level in order, so no invalid tower
    exists: square i needs 2^(i-1) coordinates (InvalidTower), must be
    positive (NonRealExtension) and must not be a square in level i-1
    (NotAProperExtension, carrying the witness), and i is at most
    MAX_LEVELS (TowerTooDeep): `adjoin_sqrt`'s error, its message prefixed
    by the first failing level, `level i: <ErrorClass>: `.

    Each tower holds its rescaled basis: `_scales[j]`, the product of the
    D_i over the set bits of j, and `_squares[i-1]` = D_i^2*s_i, an int
    when s_i is rational and an integer vector otherwise.
    """

    __match_args__ = ("levels",)  # the one field; the rest of the instance dict derives from it

    def __init__(self, levels: tuple[tuple[Fraction, ...], ...] = ()):
        # start as Q, adjoin every level in turn, then adopt the last
        # prefix's levels and rescaled basis
        prefix = self
        vars(self).update(levels=(), _scales=(1,), _squares=(), _enclosure=_UNIT)
        for i, sq in enumerate(map(tuple, levels), start=1):
            try:
                if len(sq) != 1 << (i - 1):
                    raise InvalidTower(
                        f"expected {1 << (i - 1)} square coordinates, got {len(sq)}"
                    )
                prefix = prefix.adjoin_sqrt(TowerElement(i - 1, sq))
            except (InvalidTower, NonRealExtension, NotAProperExtension, TowerTooDeep) as exc:
                exc.args = (f"level {i}: {type(exc).__name__}: {exc}",)
                raise exc from None
        vars(self).update(vars(prefix))

    def _extended(self, s: TowerElement) -> Tower:
        """This tower extended by g = sqrt(s), s a top-level element proven
        positive and not a square. Only the new level is rescaled, by D, the
        least common denominator of s's coordinates in the rescaled basis,
        which `_enter` writes as for any other element."""
        v, d = _reduced(*self._enter(s))
        ints = [d * x for x in v]
        square = ints if any(ints[1:]) else ints[0]
        tower = object.__new__(Tower)
        vars(tower).update(
            levels=self.levels + (s.coords,),
            _scales=self._scales + tuple([p * d for p in self._scales]),
            _squares=self._squares + (square,),
            _enclosure=_extend_basis(self._enclosure, square, _ENCLOSURE_BITS),
        )
        return tower

    @property
    def depth(self) -> int:
        return len(self.levels)

    def __repr__(self):
        return f"Tower([{', '.join([format_coords(sq) for sq in self.levels])}])"

    # -- construction -----------------------------------------------------

    def generator(self, i: int) -> TowerElement:
        """g_i as an element of level i (a single basis coordinate)."""
        if not 1 <= i <= self.depth:
            raise LevelMismatch(f"g{i} does not exist (tower depth {self.depth})")
        coords = [_ZERO] * (1 << i)
        coords[1 << (i - 1)] = Fraction(1)
        return TowerElement(i, tuple(coords))

    def embed(self, q, level: int | None = None) -> TowerElement:
        """The rational q (an int or a Fraction) as an element of the given
        level (default: top)."""
        level = self.depth if level is None else level
        if not 0 <= level <= self.depth:
            raise LevelMismatch(f"level {level} out of range 0..{self.depth}")
        coords = [_ZERO] * (1 << level)
        coords[0] = as_rational(q)
        return TowerElement(level, tuple(coords))

    def one(self, level: int | None = None) -> TowerElement:
        return self.embed(1, level)

    def lift_to(self, x: TowerElement, level: int) -> TowerElement:
        """Zero-pad x up to `level`; the value it denotes is unchanged."""
        if not x.level <= level <= self.depth:
            raise LevelMismatch(
                f"cannot lift level {x.level} to level {level} (depth {self.depth})"
            )
        return TowerElement(level, x.coords + (_ZERO,) * ((1 << level) - len(x.coords)))

    def _as_top(self, s) -> TowerElement:
        if isinstance(s, TowerElement):
            if s.level != self.depth:
                raise LevelMismatch(
                    f"expected an element of the top level {self.depth}, "
                    f"got level {s.level}"
                )
            return s
        return self.embed(s)

    def adjoin_sqrt(self, s) -> Tower:
        """Extend by the positive square root of s (an element of the top
        level, or a rational).

        s must be positive (NonRealExtension otherwise) and must not be a
        square in the current top field (NotAProperExtension, carrying the
        in-field witness, otherwise). Every new level is proven here:
        `Tower(levels)` and `adjoin_quadratic_root` extend through it. A
        level past MAX_LEVELS is refused first (TowerTooDeep).
        """
        if self.depth >= MAX_LEVELS:
            raise TowerTooDeep(f"a tower has at most {MAX_LEVELS} levels")
        s = self._as_top(s)
        if self.exact_sign(s) <= 0:
            raise NonRealExtension(
                f"cannot adjoin sqrt({_brief(s)}): value is not positive"
            )
        w = self.sqrt(s)
        if w is not None:
            raise NotAProperExtension(
                f"{_brief(s)} is a square (witness {_brief(w)})", witness=w
            )
        return self._extended(s)

    def adjoin_quadratic_root(self, coeffs, branch: str) -> tuple[Tower, TowerElement]:
        """Extend by a root of c0 + c1*x + c2*x^2 with coefficients in the
        top level. Completing the square makes the roots shift +- sqrt(e),
        shift = -c1/(2*c2) and e = (c1^2 - 4*c0*c2) / (2*c2)^2, so
        `adjoin_sqrt(e)` proves and performs the step; `branch` picks +-.

        Returns the extended tower and the exact root. If the quadratic
        already splits in the field, raises NotAProperExtension carrying
        the in-field root for the requested branch.
        """
        if branch not in ("+", "-"):
            raise ValueError(f"branch must be '+' or '-', got {branch!r}")
        c0, c1, c2 = (self._as_top(c) for c in coeffs)
        if c2.is_zero:
            raise ValueError("leading coefficient is zero; not a quadratic")
        disc = self.mul(c1, c1) - self.mul(c0, c2).scale(4)
        shift = -self.div(c1, c2.scale(2))
        try:
            ext = self.adjoin_sqrt(self.div(disc, self.mul(c2, c2).scale(4)))
        except NonRealExtension:
            raise NonRealExtension(
                f"discriminant {_brief(disc)} is not positive; no real proper root"
            ) from None
        except NotAProperExtension as exc:
            root = shift + exc.witness if branch == "+" else shift - exc.witness
            raise NotAProperExtension(
                f"quadratic splits in the current field (root {_brief(root)})",
                witness=root,
            ) from None
        g = ext.generator(ext.depth)
        shift = ext.lift_to(shift, ext.depth)
        return ext, shift + g if branch == "+" else shift - g

    # -- arithmetic --------------------------------------------------------

    def _check_member(self, x: TowerElement):
        if x.level > self.depth:
            raise LevelMismatch(
                f"element at level {x.level} exceeds tower depth {self.depth}"
            )

    def _enter(self, x: TowerElement):
        """x as (v, d): an integer vector in the rescaled basis over one
        positive denominator."""
        self._check_member(x)
        dens = [c.denominator * p for c, p in zip(x.coords, self._scales)]
        d = math.lcm(*dens)
        return [c.numerator * (d // e) for c, e in zip(x.coords, dens)], d

    def _leave(self, level: int, v, d: int) -> TowerElement:
        return TowerElement(level, tuple([Fraction(n * p, d) for n, p in zip(v, self._scales)]))

    def _inverse(self, v, d, level):
        """1/(v/d) as (vector, denominator). `_inv` inverts an element
        with a zero top half one level down, so the 2^k estimate takes k
        as the element's own level, not the declared one."""
        if not any(v):
            raise DivisionByZero("inverse of zero")
        own = level
        while own and not any(v[1 << (own - 1):]):
            own -= 1
        _refuse_past_limit("an inverse", _bits(v, d) << own)
        w, m = _inv(v, level, self._squares)
        return [x * d for x in w], m

    def mul(self, x: TowerElement, y: TowerElement) -> TowerElement:
        """Exact product. Recursively: with x = a1 + b1*g, y = a2 + b2*g
        and s = g^2 one level down, the product is
        (a1*a2 + s*b1*b2) + ((a1 + b1)(a2 + b2) - a1*a2 - b1*b2)*g."""
        a, da = self._enter(x)
        x._check_level(y)
        b, db = self._enter(y)
        _refuse_past_limit("a product", _bits(a, da) + _bits(b, db))
        return self._leave(x.level, _mul(a, b, x.level, self._squares), da * db)

    def inv(self, x: TowerElement) -> TowerElement:
        """Exact multiplicative inverse via the conjugate: 1/(a + b*g) =
        (a - b*g) / N with norm N = a^2 - s*b^2 inverted one level down.

        N = 0 with b != 0 would make s a square one level down, which
        `adjoin_sqrt` refuses for every level, so N is never zero.
        """
        return self._leave(x.level, *self._inverse(*self._enter(x), x.level))

    def div(self, x: TowerElement, y: TowerElement) -> TowerElement:
        """x/y as mul(x, inv(y)), with the same errors in the same order,
        but with the inverse kept in the kernel: one conversion out."""
        w, m = self._inverse(*self._enter(y), y.level)
        a, da = self._enter(x)
        x._check_level(y)
        _refuse_past_limit("a quotient", _bits(a, da) + _bits(w, m))
        return self._leave(x.level, _mul(a, w, x.level, self._squares), da * m)

    def power(self, x: TowerElement, n: int) -> TowerElement:
        """x^n by square-and-multiply; negative n inverts first.

        x^n has about n times the bits of x's integer coordinates and of
        their denominator, so a power past MAX_COORDINATE_BITS is refused
        with CoordinateTooLarge before any product is taken."""
        if n == 0:
            return self.one(x.level)
        a, d = self._enter(x)
        if n < 0:
            a, d = self._inverse(a, d, x.level)
            n = -n
        _refuse_past_limit("a power", n * _bits(a, d))
        acc = a
        for bit in bin(n)[3:]:
            acc = _mul(acc, acc, x.level, self._squares)
            if bit == "1":
                acc = _mul(acc, a, x.level, self._squares)
        return self._leave(x.level, acc, d**n)

    def exact_sign(self, x: TowerElement) -> int:
        """The sign (-1, 0, +1) of the real number x denotes, decided
        exactly. x = 0 exactly when its coordinates are: every Tower is
        valid by construction, and a valid tower's basis is linearly
        independent. Otherwise the bounds of x from the basis enclosure
        decide; while they straddle 0, the basis is enclosed again at
        twice the bits, and as the bounds close in on x != 0 the loop ends."""
        v = self._enter(x)[0]
        if not any(v):
            return 0
        lo, hi = _dot(v, self._enclosure)
        bits = _ENCLOSURE_BITS
        while lo <= 0 <= hi:
            bits *= 2
            lo, hi = _dot(v, self._basis(x.level, bits))
        return 1 if lo > 0 else -1

    def is_square(self, x: TowerElement) -> TowerElement | None:
        """A witness w with w*w = x exactly, or None when x is not a
        square at its level.

        For x = a + b*g with b != 0, any root c + d*g forces
        c^2 = (a +- r)/2 with r^2 = a^2 - s*b^2 and d = b/(2c); the +
        branch is tried first, and the first branch with a nonzero c
        gives the witness, a square root by the norm identity.
        """
        a, d = self._enter(x)
        root = _sqrt([c * d for c in a], x.level, self._squares)
        return None if root is None else self._leave(x.level, root[0], root[1] * d)

    def sqrt(self, x: TowerElement) -> TowerElement | None:
        """The nonnegative square root of x at its level, or None when x is
        not a square there: the is_square witness, negated when negative,
        as each generator is the positive root of its square."""
        w = self.is_square(x)
        if w is not None and self.exact_sign(w) < 0:
            return -w
        return w

    def member_of_level(self, x: TowerElement, j: int) -> TowerElement | None:
        """Project x down to level j if every extension part above j is
        zero; the result lifts back to x. None otherwise."""
        self._check_member(x)
        if not 0 <= j <= x.level:
            raise LevelMismatch(f"target level {j} out of range 0..{x.level}")
        if any(x.coords[1 << j:]):
            return None
        return TowerElement(j, x.coords[: 1 << j])

    def approx(self, x: TowerElement, precision: int = 113) -> Fraction:
        """x rounded to `precision` significant bits, to nearest with ties
        to even, as a Fraction.

        Ziv's strategy on integer enclosures of the rescaled basis at
        `bits` fractional bits, built by `_basis` as the enclosures of
        `exact_sign` are, and x by a signed dot product. The guard bits
        double until both ends of x's enclosure round to the same value,
        which by monotone rounding is x rounded. An irrational x is no
        tie, and a rational tie is dyadic, so enough bits enclose it
        exactly: the loop ends for every x != 0.

        Diagnostic only: no exact decision in this package consults the
        value; `exact_sign` shares the enclosures, not the rounding.
        """
        if precision < 1:
            raise ValueError("precision must be a positive number of bits")
        v, d = self._enter(x)
        if not any(v):
            return _ZERO
        guard = 32
        while True:
            bits = precision + guard
            lo, hi = _dot(v, self._basis(x.level, bits))
            # rounding keeps signs and zero, so equal ends are nonzero
            n = _round(lo // d, precision)
            if n == _round(-(-hi // d), precision):
                return Fraction(n, 1 << bits)
            guard *= 2

    def _basis(self, level: int, bits: int):
        """The integer enclosure of the rescaled basis of `level` times
        2^bits, built from Q's 1 one level at a time by `_extend_basis`."""
        basis = ((1 << bits, 1 << bits),)
        for s in self._squares[:level]:
            basis = _extend_basis(basis, s, bits)
        return basis


_ENCLOSURE_BITS = 64  # fractional bits of each tower's basis enclosure
_UNIT = ((1 << _ENCLOSURE_BITS, 1 << _ENCLOSURE_BITS),)  # Q's basis, the 1


def _extend_basis(basis, s, bits):
    """The enclosure of the basis one level up: `basis` holds integer
    intervals of the rescaled basis vectors times 2^bits, and s is the
    rescaled square of the next generator g. g*2^bits lies between the
    roots of sl*2^bits and sh*2^bits; the square root is concave, so the
    upper one is at most gl + 1 + (sh - sl)*2^bits/(2*gl). Every basis
    vector is positive, so products of bounds bound the products."""
    sl, sh = (s << bits, s << bits) if type(s) is int else _dot(s, basis)
    gl = math.isqrt(sl << bits) if sl > 0 else 0
    if gl:
        gh = gl + 1 - (-((sh - sl) << bits) // (2 * gl))
    else:
        gh = math.isqrt(sh << bits) + 1
    return (*basis, (gl, gh), *[(l * gl >> bits, -(-h * gh >> bits)) for l, h in basis[1:]])


def _dot(v, basis):
    """Bounds of the dot product of the integer vector v with the
    nonnegative intervals in basis."""
    lo = sum([c * (l if c > 0 else h) for c, (l, h) in zip(v, basis)])
    hi = sum([c * (h if c > 0 else l) for c, (l, h) in zip(v, basis)])
    return lo, hi


def _round(n, precision):
    """n rounded to `precision` significant bits, to nearest with ties to
    even: adding half less one, and one more when the kept part is odd,
    carries exactly when the dropped part calls for rounding up."""
    a = abs(n)
    e = a.bit_length() - precision
    if e > 0:
        a = (a + (1 << (e - 1)) - 1 + (a >> e & 1)) >> e << e
    return a if n > 0 else -a


# -- text formats -----------------------------------------------------------

_MAGIC = "QTOWER 1"


def strip_comment(line: str) -> str:
    """The line without its `#` comment and surrounding whitespace, as tower
    files, scripts and session commands read it."""
    return line.split("#", 1)[0].strip()


def dumps_tower(tower: Tower) -> str:
    """Serialize to the line-based tower format (deterministic bytes)."""
    lines = [_MAGIC, f"levels {tower.depth}"]
    for i, sq in enumerate(tower.levels, start=1):
        lines.append(f"square {i}: " + rationals_text(sq, " "))
    return "\n".join(lines) + "\n"


def loads_tower(text: str) -> Tower:
    """Parse and validate a tower file. Structural problems raise
    TowerFormatError; a well-formed file describing an invalid tower
    raises the error Tower construction raises (e.g. NotAProperExtension)."""
    lines = [line for line in map(strip_comment, text.splitlines()) if line]
    if not lines or lines[0] != _MAGIC:
        raise TowerFormatError(f"missing '{_MAGIC}' header")
    if len(lines) < 2 or not lines[1].startswith("levels "):
        raise TowerFormatError("missing 'levels <n>' line")
    try:
        n = parse_integer(lines[1][len("levels "):])
    except ValueError:
        raise TowerFormatError(f"bad level count: {lines[1]!r}") from None
    if n < 0:
        raise TowerFormatError(f"negative level count {n}")
    body = lines[2:]
    if len(body) != n:
        raise TowerFormatError(f"expected {n} square lines, found {len(body)}")
    squares = []
    for i, line in enumerate(body, start=1):
        prefix = f"square {i}:"
        if not line.startswith(prefix):
            raise TowerFormatError(f"expected {prefix!r}, got {line!r}")
        try:
            squares.append([parse_rational(tok) for tok in line[len(prefix):].split()])
        except ValueError as exc:
            raise TowerFormatError(f"square {i}: {exc}") from None
    return Tower(squares)


def save_tower(tower: Tower, path) -> None:
    """Write the tower file. An existing file is overwritten in place and
    then cut to the new length, never truncated to zero first: on ext4 a
    truncate to zero makes close() start writing the file to disk, so each
    save would wait on the disk."""
    data = dumps_tower(tower).encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        # only a longer regular file has bytes left over; a device has none
        if os.fstat(fh.fileno()).st_size > len(data):
            fh.truncate()


def read_utf8(path) -> str:
    """A tower file's or script's text; bytes not UTF-8 raise TowerFormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TowerFormatError(f"not UTF-8: {exc.reason} at byte {exc.start}") from None


def load_tower(path) -> Tower:
    return loads_tower(read_utf8(path))
