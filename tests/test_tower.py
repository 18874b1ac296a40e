import math
import os
import random
import time
from fractions import Fraction

import mpmath
import pytest

from helpers import random_element, random_rational, random_tower, ref_mul, ref_sign
from qtower.errors import (
    CoordinateTooLarge,
    DivisionByZero,
    InvalidTower,
    LevelMismatch,
    NonRealExtension,
    NotAProperExtension,
    TowerFormatError,
    TowerTooDeep,
)
from qtower.parser import MAX_EXPONENT, eval_expr, parse_expr
from qtower.tower import (
    MAX_COORDINATE_BITS,
    MAX_LEVELS,
    Tower,
    TowerElement,
    dumps_tower,
    format_coords,
    load_tower,
    loads_tower,
    save_tower,
)

Q = Tower()
Q_SQRT2 = Tower(((Fraction(2),),))


def elt(level, *coords):
    return TowerElement(level, tuple(Fraction(c) for c in coords))


# -- elements ----------------------------------------------------------------


def test_element_construction():
    x = elt(1, 3, 1)
    assert x.coords == (Fraction(3), Fraction(1))
    with pytest.raises(ValueError):
        TowerElement(1, (Fraction(1),))
    with pytest.raises(ValueError):
        TowerElement(-1, ())
    assert elt(2, 0, 0, 0, 0).is_zero


def test_floats_and_text_are_refused():
    # 0.1 is the binary 3602879701896397/36028797018963968, not 1/10
    x = elt(1, 3, 1)
    for build in (
        lambda: TowerElement(0, (0.1,)),
        lambda: TowerElement(1, (Fraction(1), 0.1)),
        lambda: TowerElement(0, ("1/10",)),
        lambda: x.scale(0.1),
        lambda: Q_SQRT2.embed(0.1),
        lambda: Q_SQRT2.embed(0.1, 0),
        lambda: Q.adjoin_sqrt(0.1),
        lambda: Q.adjoin_quadratic_root((-2, 0, 0.1), "+"),
        lambda: Tower(((0.1,),)),
    ):
        with pytest.raises(TypeError):
            build()
    assert x.scale(True) == x.scale(1) == x
    assert Q_SQRT2.embed(Fraction(1, 10), 0) == elt(0, Fraction(1, 10))


def test_reprs():
    assert repr(Tower([[2], [3, 0]])) == "Tower([[2], [3, 0]])"
    # the README's quotient (3 - sqrt(2)) * sqrt(2) / (sqrt(2) + 5)
    g = Q_SQRT2.generator(1)
    quotient = Q_SQRT2.div(Q_SQRT2.mul(Q_SQRT2.embed(3) - g, g), g + Q_SQRT2.embed(5))
    assert repr(quotient) == "TowerElement(1, [-16/23, 17/23])"


def test_element_add_neg():
    assert elt(1, 1, 1) + elt(1, 3, 4) == elt(1, 4, 5)
    assert elt(0, Fraction(1, 2)) + elt(0, Fraction(1, 3)) == elt(0, Fraction(5, 6))
    assert -elt(1, 1, -2) == elt(1, -1, 2)
    assert -(-elt(1, 7, -3)) == elt(1, 7, -3)
    x = elt(1, 5, -2)
    assert (x + (-x)).is_zero


def test_element_level_mismatch():
    with pytest.raises(LevelMismatch):
        elt(0, 1) + elt(1, 1, 0)
    with pytest.raises(LevelMismatch):
        Q_SQRT2.mul(elt(0, 1), elt(1, 1, 0))


def test_conjugate():
    assert elt(1, 3, 4).conjugate() == elt(1, 3, -4)
    y = elt(0, 7)
    lifted = Q_SQRT2.lift_to(y, 1)
    assert lifted.conjugate() == lifted
    rng = random.Random(3)
    for _ in range(20):
        x = random_element(rng, 2)
        assert x.conjugate().conjugate() == x
    with pytest.raises(LevelMismatch):
        elt(0, 2).conjugate()


# -- basis -------------------------------------------------------------------


def test_all_products_layout_sqrt5_sqrt3_sqrt2():
    # adjoin sqrt5, then sqrt3, then sqrt2: the depth-3 basis must read
    # 1, sqrt5, sqrt3, sqrt15, sqrt2, sqrt10, sqrt6, sqrt30 in that order
    # (second half carries the top generator).
    t = Q.adjoin_sqrt(5).adjoin_sqrt(Tower(((Fraction(5),),)).embed(3))
    t = t.adjoin_sqrt(t.embed(2))
    expected = [1.0] + [math.sqrt(v) for v in (5, 3, 15, 2, 10, 6, 30)]
    for j, want in enumerate(expected):
        coords = [Fraction(0)] * 8
        coords[j] = Fraction(1)
        got = t.approx(TowerElement(3, tuple(coords)), 53)
        assert abs(float(got) - want) < 1e-12


# -- adjoining ---------------------------------------------------------------


def test_adjoin_sqrt_examples():
    t1 = Q.adjoin_sqrt(2)
    assert t1.depth == 1
    assert t1.levels == ((Fraction(2),),)

    # 3 is not a square in Q(sqrt2): (c + d*sqrt2)^2 = 3 forces 2cd = 0,
    # then c^2 = 3 or 2d^2 = 3, neither rationally solvable.
    t2 = t1.adjoin_sqrt(t1.embed(3))
    assert t2.depth == 2
    assert abs(float(t2.approx(t2.generator(2), 53)) - math.sqrt(3)) < 1e-12

    with pytest.raises(NotAProperExtension) as info:
        Q.adjoin_sqrt(Fraction(9, 4))
    assert info.value.witness == Q.embed(Fraction(3, 2))


def test_adjoin_sqrt_rejects_nonpositive():
    with pytest.raises(NonRealExtension):
        Q.adjoin_sqrt(-1)
    with pytest.raises(NonRealExtension):
        Q.adjoin_sqrt(0)


def test_adjoin_sqrt_detects_square_in_extension():
    # 2 is a square in Q(sqrt2) itself: witness g1
    with pytest.raises(NotAProperExtension) as info:
        Q_SQRT2.adjoin_sqrt(Q_SQRT2.embed(2))
    assert info.value.witness == Q_SQRT2.generator(1)


def test_adjoin_sqrt_level_mismatch():
    with pytest.raises(LevelMismatch):
        Q_SQRT2.adjoin_sqrt(elt(0, 3))


def test_adjoin_quadratic_root_over_q_sqrt2():
    # x^2 - sqrt2*x - 1 over Q(sqrt2), '+' branch:
    # root sqrt2/2 + sqrt(3/2) = (sqrt2 + sqrt6)/2
    c0 = Q_SQRT2.embed(-1)
    c1 = -Q_SQRT2.generator(1)
    c2 = Q_SQRT2.embed(1)
    ext, root = Q_SQRT2.adjoin_quadratic_root((c0, c1, c2), "+")
    assert ext.depth == 2
    assert ext.levels[1] == (Fraction(3, 2), Fraction(0))
    assert root == elt(2, 0, Fraction(1, 2), 1, 0)
    # exact root check: root^2 - sqrt2*root - 1 = 0
    val = ext.mul(root, root) + ext.mul(ext.lift_to(c1, 2), root) + ext.lift_to(c0, 2)
    assert val.is_zero
    want = (math.sqrt(2) + math.sqrt(6)) / 2
    assert abs(float(ext.approx(root, 53)) - want) < 1e-12

    # '-' branch gives the conjugate root
    _, other = Q_SQRT2.adjoin_quadratic_root((c0, c1, c2), "-")
    assert other == root.conjugate()


def test_adjoin_quadratic_root_over_q():
    ext, root = Q.adjoin_quadratic_root((Fraction(-2), Fraction(0), Fraction(1)), "+")
    assert ext.levels == ((Fraction(2),),)
    assert root == elt(1, 0, 1)


def test_adjoin_quadratic_root_in_field():
    with pytest.raises(NotAProperExtension) as info:
        Q.adjoin_quadratic_root((Fraction(-9, 4), Fraction(0), Fraction(1)), "+")
    assert info.value.witness == Q.embed(Fraction(3, 2))
    with pytest.raises(NotAProperExtension) as info:
        Q.adjoin_quadratic_root((Fraction(-9, 4), Fraction(0), Fraction(1)), "-")
    assert info.value.witness == Q.embed(Fraction(-3, 2))


def test_adjoin_quadratic_root_errors():
    with pytest.raises(ValueError):
        Q.adjoin_quadratic_root((Fraction(1), Fraction(1), Fraction(0)), "+")
    with pytest.raises(ValueError):
        Q.adjoin_quadratic_root((Fraction(-2), Fraction(0), Fraction(1)), "plus")
    with pytest.raises(NonRealExtension):
        Q.adjoin_quadratic_root((Fraction(1), Fraction(0), Fraction(1)), "+")


def horner(levels, coeffs, x):
    """c0 + x*(c1 + x*(...)) on coordinate tuples by the schoolbook product,
    which shares nothing with the kernel that built x."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = tuple([a + b for a, b in zip(ref_mul(levels, acc, x), c)])
    return acc


def brief(x):
    """An element as error messages show it."""
    return str(x.coords[0]) if x.is_rational else format_coords(x.coords)


@pytest.mark.parametrize("depth", range(4))
def test_quadratic_roots_solve_their_quadratic(depth):
    rng = random.Random(60 + depth)
    t = random_tower(rng, depth)
    solved = refused = 0
    while solved < 4:
        c0, c1 = random_element(rng, depth), random_element(rng, depth)
        c2 = random_element(rng, depth, nonzero=True)
        disc = t.mul(c1, c1) - t.mul(c0, c2).scale(4)
        if t.exact_sign(disc) <= 0:
            refused += 1
            with pytest.raises(NonRealExtension) as info:
                t.adjoin_quadratic_root((c0, c1, c2), "+")
            assert str(info.value) == (
                f"discriminant {brief(disc)} is not positive; no real proper root"
            )
            continue
        solved += 1
        ext, high = t.adjoin_quadratic_root((c0, c1, c2), "+")
        same, low = t.adjoin_quadratic_root((c0, c1, c2), "-")
        assert same == ext and ext.levels[:depth] == t.levels
        coeffs = [ext.lift_to(c, depth + 1).coords for c in (c0, c1, c2)]
        for root in (high, low):
            assert not any(horner(ext.levels, coeffs, root.coords))
        assert ext.exact_sign(high - low) > 0  # '+' is the larger root
    assert refused  # both outcomes were drawn


@pytest.mark.parametrize("depth", range(4))
def test_split_quadratics_name_the_root_of_their_branch(depth):
    rng = random.Random(70 + depth)
    t = random_tower(rng, depth)
    pairs = [(t.embed(random_rational(rng)), t.embed(random_rational(rng)))]
    pairs += [(random_element(rng, depth), random_element(rng, depth)) for _ in range(3)]
    for r1, r2 in pairs:
        # c2*(x - r1)*(x - r2)
        c2 = random_element(rng, depth, nonzero=True)
        coeffs = (t.mul(c2, t.mul(r1, r2)), -t.mul(c2, r1 + r2), c2)
        high, low = (r1, r2) if t.exact_sign(r1 - r2) > 0 else (r2, r1)
        for branch, root in (("+", high), ("-", low)):
            with pytest.raises(NotAProperExtension) as info:
                t.adjoin_quadratic_root(coeffs, branch)
            assert info.value.witness == root
            assert str(info.value) == (
                f"quadratic splits in the current field (root {brief(root)})"
            )


@pytest.mark.parametrize("depth", range(4))
def test_non_positive_discriminants_are_named(depth):
    rng = random.Random(80 + depth)
    t = random_tower(rng, depth)
    for q in (Fraction(0), Fraction(rng.randint(1, 100), rng.randint(1, 100))):
        # c2*((x + c1/(2*c2))^2 + q) has discriminant -4*q*c2^2
        c1, c2 = random_element(rng, depth), random_element(rng, depth, nonzero=True)
        u = t.div(c1, c2.scale(2))
        c0 = t.mul(c2, t.mul(u, u) + t.embed(q))
        disc = t.mul(c2, c2).scale(-4 * q)
        for branch in "+-":
            with pytest.raises(NonRealExtension) as info:
                t.adjoin_quadratic_root((c0, c1, c2), branch)
            assert str(info.value) == (
                f"discriminant {brief(disc)} is not positive; no real proper root"
            )


# -- validation ----------------------------------------------------------------


def test_validate_examples():
    good = Tower(((Fraction(2),), (Fraction(3), Fraction(1))))
    assert good.depth == 2

    with pytest.raises(NotAProperExtension) as info:
        Tower(((Fraction(4),),))
    assert str(info.value).startswith("level 1: NotAProperExtension: ")
    assert info.value.witness == Q.embed(2)

    assert Tower(()) == Q


def test_validate_negative_square():
    with pytest.raises(NonRealExtension) as info:
        Tower(((Fraction(-2),),))
    assert str(info.value).startswith("level 1: NonRealExtension: ")


def test_validate_bad_length():
    with pytest.raises(InvalidTower) as info:
        Tower(((Fraction(2),), (Fraction(3),)))
    assert str(info.value) == (
        "level 2: InvalidTower: expected 2 square coordinates, got 1"
    )


def test_invalid_tower_cannot_be_built():
    # sqrt(-1) is not real: no exact sign or square witness may be given over it
    with pytest.raises(NonRealExtension):
        Tower(((-1,),))
    # construction raises what loading the same levels from a file raises
    cases = [
        (((4,),), NotAProperExtension),
        (((-2,),), NonRealExtension),
        (((2,), (3,)), InvalidTower),
        (((2,), (8, 0)), NotAProperExtension),
        (((2,), (-3, 1)), NonRealExtension),
    ]
    for levels, error in cases:
        text = f"QTOWER 1\nlevels {len(levels)}\n" + "".join(
            f"square {i}: " + " ".join(map(str, sq)) + "\n"
            for i, sq in enumerate(levels, start=1)
        )
        with pytest.raises(error) as loaded:
            loads_tower(text)
        with pytest.raises(error) as built:
            Tower(levels)
        assert type(built.value) is type(loaded.value)
        assert str(built.value) == str(loaded.value)
        assert getattr(built.value, "witness", None) == getattr(loaded.value, "witness", None)


def test_a_level_past_the_depth_cap_is_refused_by_name_at_once():
    # the first 15 prime square roots: the 15th level is refused before any
    # work, whatever its square, in code and from a tower file alike
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    levels = [[p] + [0] * ((1 << i) - 1) for i, p in enumerate(primes)]
    assert MAX_LEVELS == 14
    deepest = Tower(levels[:MAX_LEVELS])
    assert deepest.depth == MAX_LEVELS
    for square in (47, 4, -1):
        start = time.perf_counter()
        with pytest.raises(TowerTooDeep, match="^a tower has at most 14 levels$"):
            deepest.adjoin_sqrt(square)
        assert time.perf_counter() - start < 0.01
    text = "QTOWER 1\nlevels 15\n" + "".join(
        f"square {i}: " + " ".join(map(str, sq)) + "\n" for i, sq in enumerate(levels, start=1)
    )
    message = "^level 15: TowerTooDeep: a tower has at most 14 levels$"
    for build in (lambda: loads_tower(text), lambda: Tower(levels)):
        start = time.perf_counter()
        with pytest.raises(TowerTooDeep, match=message):
            build()
        assert time.perf_counter() - start < 1


# -- embed / lift ----------------------------------------------------------------


def test_embed_and_lift():
    assert Q_SQRT2.embed(3, 1) == elt(1, 3, 0)
    assert Q.embed(Fraction(-7, 2)) == elt(0, Fraction(-7, 2))
    t2 = Tower(((Fraction(2),), (Fraction(3), Fraction(0))))
    assert t2.embed(1) == elt(2, 1, 0, 0, 0)

    x = elt(1, 3, 1)
    assert t2.lift_to(x, 2) == elt(2, 3, 1, 0, 0)
    assert t2.lift_to(x, 1) == x
    assert Q_SQRT2.lift_to(elt(0, 5), 1) == elt(1, 5, 0)
    with pytest.raises(LevelMismatch):
        Q_SQRT2.lift_to(elt(1, 1, 1), 2)
    with pytest.raises(LevelMismatch):
        t2.lift_to(x, 0)
    assert t2.lift_to(elt(0, 5), 2) == elt(2, 5, 0, 0, 0)
    for i in (3, 0):
        with pytest.raises(LevelMismatch) as info:
            Q_SQRT2.generator(i)
        assert str(info.value) == f"g{i} does not exist (tower depth 1)"

    rng = random.Random(5)
    for _ in range(20):
        y = random_element(rng, 1)
        lifted = t2.lift_to(y, 2)
        assert not any(lifted.coords[2:])
        assert lifted.coords[:2] == y.coords


# -- arithmetic ----------------------------------------------------------------


def test_mul_examples():
    # (1 + sqrt2)(3 + 4*sqrt2) = 3 + 4sqrt2 + 3sqrt2 + 8 = 11 + 7sqrt2
    assert Q_SQRT2.mul(elt(1, 1, 1), elt(1, 3, 4)) == elt(1, 11, 7)
    g = Q_SQRT2.generator(1)
    assert Q_SQRT2.mul(g, g) == elt(1, 2, 0)
    t2 = Tower(((Fraction(2),), (Fraction(3), Fraction(1))))
    g2 = t2.generator(2)
    assert t2.mul(g2, g2) == elt(2, 3, 1, 0, 0)


def test_mul_identity_annihilator():
    rng = random.Random(9)
    t = random_tower(rng, 3)
    one = t.one()
    zero = elt(3, *[0] * 8)
    for _ in range(10):
        x = random_element(rng, 3)
        assert t.mul(x, one) == x
        assert t.mul(x, zero).is_zero


def test_inv_examples():
    assert Q_SQRT2.inv(elt(1, 0, 1)) == elt(1, 0, Fraction(1, 2))
    assert Q_SQRT2.inv(elt(1, 1, 0)) == elt(1, 1, 0)
    with pytest.raises(DivisionByZero):
        Q_SQRT2.inv(elt(1, 0, 0))
    with pytest.raises(DivisionByZero):
        Q.inv(elt(0, 0))


def test_intro_expression():
    # (3 - sqrt2)*sqrt2 / (sqrt2 + 5) in Q(sqrt2).
    # Independent oracle by conjugate rationalization over plain pairs
    # (p, q) meaning p + q*sqrt2:
    def pair_mul(u, v):
        return (u[0] * v[0] + 2 * u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    num = pair_mul((Fraction(3), Fraction(-1)), (Fraction(0), Fraction(1)))
    assert num == (Fraction(-2), Fraction(3))
    den = (Fraction(5), Fraction(1))
    norm = den[0] * den[0] - 2 * den[1] * den[1]
    assert norm == 23
    scaled = pair_mul(num, (den[0], -den[1]))
    expected = (scaled[0] / norm, scaled[1] / norm)
    assert expected == (Fraction(-16, 23), Fraction(17, 23))

    g = Q_SQRT2.generator(1)
    three = Q_SQRT2.embed(3)
    five = Q_SQRT2.embed(5)
    got = Q_SQRT2.div(Q_SQRT2.mul(three - g, g), g + five)
    assert got == TowerElement(1, expected)

    approx = float(Q_SQRT2.approx(got, 113))
    direct = (3 - math.sqrt(2)) * math.sqrt(2) / (math.sqrt(2) + 5)
    assert abs(approx - direct) < 1e-9


def test_power():
    g = Q_SQRT2.generator(1)
    assert Q_SQRT2.power(g, 0) == Q_SQRT2.one()
    assert Q_SQRT2.power(g, 4) == elt(1, 4, 0)
    assert Q_SQRT2.power(g, -2) == elt(1, Fraction(1, 2), 0)
    with pytest.raises(DivisionByZero):
        Q_SQRT2.power(elt(1, 0, 0), -1)


def test_power_refuses_coordinates_past_the_cap():
    # 2^64, 1/2^64 and their inverses have 65-bit integer coordinates or
    # denominators, so their n-th power has about 65*n bits
    n = MAX_COORDINATE_BITS // 65
    two64 = Q.embed(2**64)
    assert Q.power(two64, n) == Q.embed(2 ** (64 * n))
    assert Q.power(two64, -n) == Q.embed(Fraction(1, 2 ** (64 * n)))
    message = (
        f"^a power with coordinates of about {65 * (n + 1)} bits "
        f"passes the {MAX_COORDINATE_BITS}-bit limit$"
    )
    for x, e in ((two64, n + 1), (two64, -n - 1), (Q.inv(two64), n + 1), (Q.inv(two64), -n - 1)):
        with pytest.raises(CoordinateTooLarge, match=message):
            Q.power(x, e)
    # at every level, before any product is taken
    x = Q_SQRT2.lift_to(two64, 1) + Q_SQRT2.generator(1)
    with pytest.raises(CoordinateTooLarge):
        Q_SQRT2.power(x, n + 1)


def test_products_and_quotients_refuse_coordinates_past_the_cap():
    # a result has about the bits of x plus those of y (of 1/y for a
    # quotient), as a power has n times the bits of its base
    half = MAX_COORDINATE_BITS // 2
    x, y = Q.embed(2 ** (half - 1)), Q.embed(2**half)  # half and half + 1 bits
    assert Q.mul(x, x) == Q.div(x, Q.inv(x)) == Q.embed(2 ** (2 * half - 2))
    for result, compute in (("a product", Q.mul), ("a quotient", Q.div)):
        with pytest.raises(CoordinateTooLarge) as info:
            compute(x, y if compute == Q.mul else Q.inv(y))
        assert str(info.value) == (
            f"{result} with coordinates of about {2 * half + 1} bits "
            f"passes the {MAX_COORDINATE_BITS}-bit limit"
        )
    # at every level, before the product is taken
    z = Q_SQRT2.lift_to(y, 1) + Q_SQRT2.generator(1)
    with pytest.raises(CoordinateTooLarge):
        Q_SQRT2.mul(z, z)


def test_inverses_refuse_coordinates_past_the_cap():
    # a level-k inverse has about 2^k times its input's bits: 32 * 32,769 here;
    # unrefused, it took 39 s on one Xeon core and had 1,048,619-bit coordinates
    t = Q
    for s in (2, 3, 5, 7, 11):
        t = t.adjoin_sqrt(s)
    x = TowerElement(5, tuple(2**32768 + i for i in range(32)))
    start = time.perf_counter()
    for compute in (t.inv, lambda x: t.div(t.one(), x), lambda x: t.power(x, -1)):
        with pytest.raises(CoordinateTooLarge) as info:
            compute(x)
        assert str(info.value) == (
            f"an inverse with coordinates of about {32 * 32769} bits "
            f"passes the {MAX_COORDINATE_BITS}-bit limit"
        )
    assert time.perf_counter() - start < 1


def test_inverse_estimates_count_the_element_s_own_level():
    # an element with a zero top half inverts one level down with small
    # results, so rationals and lifted elements of a deep tower pass the cap
    t = Q
    for s in (2, 3, 5, 7, 11):
        t = t.adjoin_sqrt(s)
    big = t.embed(2**32768)
    lifted = t.lift_to(TowerElement(1, (2**32768, 1)), 5)  # 2 * 32,769 bits
    start = time.perf_counter()
    for compute in (t.inv, lambda x: t.div(t.one(), x), lambda x: t.power(x, -1)):
        assert compute(big) == t.embed(Fraction(1, 2**32768))
        assert t.mul(compute(lifted), lifted) == t.one()
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
    deepest = Tower([[p] + [0] * ((1 << i) - 1) for i, p in enumerate(primes)])
    assert eval_expr(parse_expr("1/100000000000000000000"), deepest) == deepest.embed(
        Fraction(1, 10**20)
    )
    quotient = eval_expr(parse_expr("g1/10^20"), deepest)
    assert quotient == deepest.lift_to(TowerElement(1, (0, Fraction(1, 10**20))), 14)
    assert time.perf_counter() - start < 1


def test_exact_sign_examples():
    assert Q_SQRT2.exact_sign(elt(1, 1, -1)) == -1  # 1 - sqrt2 < 0
    assert Q_SQRT2.exact_sign(elt(1, 0, 0)) == 0
    assert Q_SQRT2.exact_sign(elt(1, -1, 1)) == 1  # sqrt2 - 1 > 0
    assert Q.exact_sign(elt(0, Fraction(-3, 7))) == -1
    rng = random.Random(13)
    t = random_tower(rng, 3)
    for _ in range(30):
        x = random_element(rng, 3, nonzero=True)
        assert t.exact_sign(x) == -t.exact_sign(-x)


def test_exact_sign_matches_approx():
    rng = random.Random(17)
    t = random_tower(rng, 3)
    for _ in range(50):
        x = random_element(rng, 3, bound=30)
        approx = t.approx(x, 113)
        if abs(approx) > 1e-20:
            assert t.exact_sign(x) == (1 if approx > 0 else -1)


def test_is_square_examples():
    w = Q_SQRT2.is_square(elt(1, 3, 2))
    assert w is not None
    assert Q_SQRT2.mul(w, w) == elt(1, 3, 2)
    assert w in (elt(1, 1, 1), elt(1, -1, -1))

    assert Q.is_square(Q.embed(2)) is None
    assert Q.is_square(Q.embed(Fraction(9, 4))) == Q.embed(Fraction(3, 2))
    assert Q_SQRT2.is_square(elt(1, 0, 0)) == elt(1, 0, 0)
    # the generator's square has the pure-extension witness
    assert Q_SQRT2.is_square(Q_SQRT2.embed(2)) == Q_SQRT2.generator(1)


def test_is_square_roundtrip():
    rng = random.Random(19)
    for depth in (1, 2, 3):
        t = random_tower(rng, depth)
        for _ in range(15):
            w = random_element(rng, depth, bound=20)
            sq = t.mul(w, w)
            v = t.is_square(sq)
            assert v is not None
            assert t.mul(v, v) == sq


def test_sqrt_is_the_nonnegative_root():
    g = Q_SQRT2.generator(1)
    x = Q_SQRT2.embed(3) - g.scale(2)  # (g1 - 1)^2, with g1 - 1 > 0
    assert Q_SQRT2.is_square(x) == elt(1, 1, -1)
    assert Q_SQRT2.sqrt(x) == elt(1, -1, 1)
    assert Q_SQRT2.sqrt(Q_SQRT2.embed(2)) == g
    assert Q_SQRT2.sqrt(elt(1, 0, 0)) == elt(1, 0, 0)
    assert Q.sqrt(Q.embed(Fraction(9, 4))) == Q.embed(Fraction(3, 2))


def test_sqrt_none_on_non_squares():
    assert Q.sqrt(Q.embed(2)) is None
    assert Q.sqrt(Q.embed(-4)) is None
    assert Q_SQRT2.sqrt(Q_SQRT2.embed(3)) is None
    assert Q_SQRT2.sqrt(-Q_SQRT2.generator(1)) is None


def test_sqrt_of_square_is_plus_or_minus_x():
    rng = random.Random(23)
    for depth in (1, 2, 3):
        t = random_tower(rng, depth)
        for _ in range(10):
            x = random_element(rng, depth, bound=20)
            root = t.sqrt(t.mul(x, x))
            assert root in (x, -x)
            assert t.exact_sign(root) >= 0


def test_member_of_level():
    t2 = Tower(((Fraction(2),), (Fraction(3), Fraction(0))))
    x = t2.lift_to(elt(0, 5), 2)
    assert t2.member_of_level(x, 0) == elt(0, 5)
    sqrt2_up = elt(2, 0, 1, 0, 0)
    assert t2.member_of_level(sqrt2_up, 0) is None
    assert t2.member_of_level(sqrt2_up, 1) == elt(1, 0, 1)
    assert t2.member_of_level(sqrt2_up, 2) == sqrt2_up
    with pytest.raises(LevelMismatch):
        t2.member_of_level(sqrt2_up, 3)


def test_approx_examples():
    g = Q_SQRT2.generator(1)
    assert Q_SQRT2.approx(g, 53) == Fraction(math.sqrt(2))
    assert Q.approx(Q.embed(Fraction(3, 4))) == Fraction(3, 4)
    assert Q.approx(Q.embed(Fraction(1, 3)), 10) == Fraction(683, 2048)
    assert Q_SQRT2.approx(elt(1, 0, 0)) == 0
    with pytest.raises(ValueError):
        Q.approx(Q.embed(1), 0)
    with pytest.raises(LevelMismatch):
        Q.approx(g)


def _mpmath_value(levels, coords):
    """The real number coords denote, evaluated in mpmath at its working
    precision: each generator the square root of its evaluated square."""
    def dot(cs, vs):
        return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * v for c, v in zip(cs, vs))

    basis = [mpmath.mpf(1)]
    for sq in levels[: len(coords).bit_length() - 1]:
        g = mpmath.sqrt(dot(sq, basis))
        basis += [b * g for b in basis]
    return dot(coords, basis)


def _rounded(value, bits):
    return Fraction(*mpmath.libmp.to_rational(mpmath.libmp.mpf_pos(value._mpf_, bits, "n")))


def test_approx_is_correctly_rounded():
    # the value at 3000 bits, rounded once to p bits, is x rounded to p bits
    # unless x lies within 2^-2900 of a tie, which no such input does
    rng = random.Random(53)
    for depth in (1, 2, 3, 4):
        t = random_tower(rng, depth)
        for _ in range(12):
            x = random_element(rng, depth, bound=50, nonzero=True)
            if rng.random() < 0.5:
                x = t.power(x - t.embed(t.approx(x, 20)), 3)  # a cancelling element
            with mpmath.workprec(3000):
                value = _mpmath_value(t.levels, x.coords)
            for bits in (10, 53, 113):
                assert t.approx(x, bits) == _rounded(value, bits), (depth, bits)


def test_approx_of_a_generator_with_a_tiny_square():
    # g2^2 = (665857/470832 - g1)^15 is about 1e-89, below the first
    # enclosure's resolution, so its lower bound starts at zero
    x = Q_SQRT2.embed(Fraction(665857, 470832)) - Q_SQRT2.generator(1)
    t = Q_SQRT2.adjoin_sqrt(Q_SQRT2.power(x, 15))
    with mpmath.workprec(3000):
        value = _mpmath_value(t.levels, t.generator(2).coords)
    for bits in (10, 53, 113):
        assert t.approx(t.generator(2), bits) == _rounded(value, bits)


def test_approx_of_rationals_rounds_ties_to_even():
    rng = random.Random(59)
    t = random_tower(rng, 2)
    for bits in (1, 2, 10, 53, 113):
        for _ in range(30):
            if rng.random() < 0.5:  # an odd numerator of bits + 1 bits is a tie
                tie = rng.randrange(1 << bits, 1 << (bits + 1)) | 1
                q = Fraction(tie, 1 << rng.randint(0, 300))
            else:
                q = Fraction(rng.randint(1, 10**40), rng.randint(1, 10**40))
            q = q if rng.random() < 0.5 else -q
            want = mpmath.libmp.from_rational(q.numerator, q.denominator, bits, "n")
            assert t.approx(t.embed(q), bits) == Fraction(*mpmath.libmp.to_rational(want))


# -- algebraic properties ------------------------------------------------------


def test_field_axioms_small():
    rng = random.Random(23)
    for depth in (1, 2, 3):
        t = random_tower(rng, depth)
        one = t.one()
        for _ in range(12):
            x = random_element(rng, depth, bound=20)
            y = random_element(rng, depth, bound=20)
            z = random_element(rng, depth, bound=20)
            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert t.mul(x, y) == t.mul(y, x)
            assert t.mul(t.mul(x, y), z) == t.mul(x, t.mul(y, z))
            assert t.mul(x, y + z) == t.mul(x, y) + t.mul(x, z)
            assert (x + (-x)).is_zero
            if not x.is_zero:
                assert t.mul(x, t.inv(x)) == one


def halves(x):
    """(a, b) with x = a + b*g over the top generator g, one level down."""
    h = 1 << (x.level - 1)
    return TowerElement(x.level - 1, x.coords[:h]), TowerElement(x.level - 1, x.coords[h:])


def test_unique_decomposition():
    rng = random.Random(29)
    t = random_tower(rng, 2)
    g = t.generator(2)
    for _ in range(20):
        a = random_element(rng, 1)
        b = random_element(rng, 1)
        x = t.lift_to(a, 2) + t.mul(t.lift_to(b, 2), g)
        assert halves(x) == (a, b)
    for _ in range(20):
        x = random_element(rng, 2)
        a, b = halves(x)
        rebuilt = t.lift_to(a, 2) + t.mul(t.lift_to(b, 2), g)
        assert rebuilt == x


def test_conjugation_laws():
    rng = random.Random(31)
    t = random_tower(rng, 2)
    for _ in range(20):
        x = random_element(rng, 2, bound=20)
        y = random_element(rng, 2, bound=20)
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert t.mul(x, y).conjugate() == t.mul(x.conjugate(), y.conjugate())
        assert t.member_of_level(t.mul(x, x.conjugate()), 1) is not None
        if not x.is_zero:
            assert t.inv(x).conjugate() == t.inv(x.conjugate())


def test_product_split_identity():
    # mul must equal the four-term combination assembled from parts:
    # low = a1*a2 + s*(b1*b2), high = a1*b2 + a2*b1
    rng = random.Random(37)
    t = random_tower(rng, 3)
    s = TowerElement(2, t.levels[2])
    for _ in range(15):
        x = random_element(rng, 3, bound=20)
        y = random_element(rng, 3, bound=20)
        a1, b1 = halves(x)
        a2, b2 = halves(y)
        low = t.mul(a1, a2) + t.mul(s, t.mul(b1, b2))
        high = t.mul(a1, b2) + t.mul(a2, b1)
        assert t.mul(x, y) == TowerElement(3, low.coords + high.coords)


def test_nonzero_implies_invertible():
    rng = random.Random(41)
    for depth in (1, 2, 3):
        t = random_tower(rng, depth)
        for _ in range(20):
            x = random_element(rng, depth, nonzero=True)
            assert t.mul(x, t.inv(x)) == t.one()


def test_numeric_consistency():
    rng = random.Random(43)
    t = random_tower(rng, 2)
    for _ in range(15):
        x = random_element(rng, 2, bound=20, nonzero=True)
        y = random_element(rng, 2, bound=20)
        ax, ay = t.approx(x, 113), t.approx(y, 113)
        assert abs(t.approx(x + y, 113) - (ax + ay)) < 1e-25 * (1 + abs(ax) + abs(ay))
        assert abs(t.approx(t.mul(x, y), 113) - ax * ay) < 1e-24 * (1 + abs(ax)) * (1 + abs(ay))
        assert abs(t.approx(t.inv(x), 113) - 1 / ax) < 1e-20 * (1 + 1 / abs(ax))


def outcome(f):
    """f()'s value, or its error's class and text."""
    try:
        return f()
    except Exception as exc:
        return type(exc), str(exc)


def test_div_is_mul_by_the_inverse():
    rng = random.Random(47)
    for depth in (1, 2, 3, 4):
        t = random_tower(rng, depth)
        for level in (0, depth - 1, depth):
            for _ in range(6):
                x = random_element(rng, level)
                y = random_element(rng, level, nonzero=True)
                assert t.div(x, y) == t.mul(x, t.inv(y))
    # the same errors in the same order: y outside the tower, y = 0, x
    # outside the tower, then differing levels
    t = random_tower(rng, 2)
    elements = [elt(0, 0), elt(0, 3), elt(1, 0, 0), elt(1, 1, 2), elt(3, *range(8))]
    for x in elements:
        for y in elements:
            assert outcome(lambda: t.div(x, y)) == outcome(lambda: t.mul(x, t.inv(y)))


# -- integer kernel against the schoolbook reference ---------------------------

# Non-integral rational squares exercise the generator rescaling. Their
# squarefree parts 2, 3, 5, 14, 66 are multiplicatively independent, so every
# prefix is a proper tower.
RATIONAL_SQUARES = tuple(Fraction(s) for s in ("2/9", "3/4", "5/49", "7/2", "11/6"))


def integral_tower(rng, depth):
    """A random nested tower whose squares have integer coordinates."""
    t = Tower()
    while t.depth < depth:
        cand = TowerElement(t.depth, tuple(rng.randint(-9, 9) for _ in range(1 << t.depth)))
        if cand.is_zero:
            continue
        if t.exact_sign(cand) < 0:
            cand = -cand
        if t.is_square(cand) is None:
            t = t.adjoin_sqrt(cand)
    return t


def kernel_tower(kind, rng, depth):
    if kind == "integral":
        return integral_tower(rng, depth)
    if kind == "nested":
        return random_tower(rng, depth)
    if kind == "built":
        # non-integral nested squares through Tower(levels), which adopts the
        # rescaled basis of its last validated prefix
        return Tower([list(sq) for sq in random_tower(rng, depth).levels])
    t = Tower()
    for s in RATIONAL_SQUARES[:depth]:
        t = t.adjoin_sqrt(s)
    return t


def kernel_operands(rng, depth):
    """Random pairs, pairs with an all-zero subfield or extension half, and
    a pair with 200-bit integer coordinates."""
    h = 1 << (depth - 1)
    zero = (Fraction(0),) * h
    for _ in range(3):
        yield random_element(rng, depth, bound=20), random_element(rng, depth, bound=20)
    x, y = random_element(rng, depth), random_element(rng, depth)
    yield TowerElement(depth, x.coords[:h] + zero), TowerElement(depth, zero + y.coords[h:])
    yield TowerElement(depth, zero + x.coords[h:]), TowerElement(depth, y.coords[:h] + zero)
    def big():
        return TowerElement(depth, tuple(rng.randint(-2**200, 2**200) for _ in range(2 * h)))

    yield big(), big()


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["integral", "nested", "built", "rational"])
def test_kernel_matches_schoolbook(kind, depth):
    rng = random.Random(f"{kind}-{depth}")
    t = kernel_tower(kind, rng, depth)
    levels = t.levels
    g = t.generator(depth)
    for x, y in kernel_operands(rng, depth):
        assert t.mul(x, y).coords == ref_mul(levels, x.coords, y.coords)
        assert t.exact_sign(x) == ref_sign(levels, x.coords)
        assert t.exact_sign(y) == ref_sign(levels, y.coords)
        if x.is_zero:
            continue
        assert ref_mul(levels, x.coords, t.inv(x).coords) == t.one().coords
        square = TowerElement(depth, ref_mul(levels, x.coords, x.coords))
        w = t.is_square(square)
        assert w is not None
        assert ref_mul(levels, w.coords, w.coords) == square.coords
        # g is no square (c^2 + s*d^2 = 0 has no real solution), so neither
        # is x^2*g; and -x^2 < 0
        assert t.is_square(TowerElement(depth, ref_mul(levels, square.coords, g.coords))) is None
        assert t.is_square(-square) is None


def test_is_square_with_fractional_inner_roots():
    # s1 = 18 is not squarefree, so roots of integer vectors can carry
    # denominators; here the level-2 root found on the way down does
    t = Tower(((Fraction(18),), (Fraction(-5), Fraction(8)), tuple(map(Fraction, (-4, 9, 6, 4)))))
    x = elt(3, 5, Fraction(5, 3), -2, Fraction(-4, 3), 1, 3, -1, 1)
    square = TowerElement(3, ref_mul(t.levels, x.coords, x.coords))
    w = t.is_square(square)
    assert w in (x, -x)


# -- the level-2 product and the enclosure sign filter -------------------------


@pytest.mark.parametrize(
    "s2, kind",
    [((3, 0), int), ((Fraction(3, 4), 0), int), ((3, 1), list), ((Fraction(-5, 2), 9), list)],
)
def test_level_two_product_matches_schoolbook(s2, kind):
    rng = random.Random(f"level-2-{s2}")
    base = Tower(((Fraction(2, 9),), s2))
    assert type(base._squares[1]) is kind
    t = random_tower(rng, 4, base=base)
    for level in (1, 2, 3, 4):
        for _ in range(4):
            x, y = random_element(rng, level), random_element(rng, level)
            assert t.mul(x, y).coords == ref_mul(t.levels, x.coords, y.coords)
    # every pattern of zero coordinates at level 2, on both sides
    x, y = random_element(rng, 2, nonzero=True), random_element(rng, 2, nonzero=True)
    for mask in range(16):
        zx = elt(2, *[c if mask >> j & 1 else 0 for j, c in enumerate(x.coords)])
        zy = elt(2, *[c if mask >> (3 - j) & 1 else 0 for j, c in enumerate(y.coords)])
        assert t.mul(zx, zy).coords == ref_mul(t.levels, zx.coords, zy.coords)
        assert t.mul(zx, y).coords == ref_mul(t.levels, zx.coords, y.coords)


def fraction_rescaled_basis(levels):
    """(_scales, _squares) by Fractions: s_i divided by the scales below,
    D_i the least common denominator of the quotients, s_i' = D_i^2*s_i."""
    scales, squares = (1,), ()
    for sq in levels:
        coords = [c / p for c, p in zip(sq, scales)]
        d = math.lcm(*[c.denominator for c in coords])
        ints = [int(c * d * d) for c in coords]
        squares += (ints if any(ints[1:]) else ints[0],)
        scales += tuple(p * d for p in scales)
    return scales, squares


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
def test_built_and_adjoined_towers_share_the_enclosure(depth):
    # Tower(levels) adopts the last prefix's basis, the enclosure included;
    # with Q's enclosure left behind, exact_sign(1 - g1) in Q(sqrt(2)) is 1
    rng = random.Random(f"enclosure-{depth}")
    chained = random_tower(rng, depth)
    built = Tower([list(sq) for sq in chained.levels])
    assert built == chained
    assert len(built._enclosure) == 1 << depth
    assert built._enclosure == chained._enclosure
    fractional = Tower(((2,), (Fraction(3, 2), 0)))
    for t in (chained, built, kernel_tower("rational", rng, depth), fractional):
        assert (t._scales, t._squares) == fraction_rescaled_basis(t.levels)
    for level in range(depth + 1):
        for _ in range(5):
            x = random_element(rng, level)
            for y in (x, x - built.embed(built.approx(x, 90), level)):
                sign = ref_sign(built.levels, y.coords)
                assert built.exact_sign(y) == chained.exact_sign(y) == sign
    assert Tower(((2,),)).exact_sign(elt(1, 1, -1)) == -1


def test_enclosure_contains_the_rescaled_basis():
    # lo <= 2^64 * (basis vector j) <= hi, decided by the schoolbook sign;
    # exact_sign agrees, though the stored enclosure of each difference has
    # an end exactly at 0
    for t in (random_tower(random.Random(3), 3), kernel_tower("rational", random.Random(3), 4)):
        for j, (lo, hi) in enumerate(t._enclosure):
            n = 1 << j.bit_length()
            for bound, side in ((lo, 1), (hi, -1)):
                coords = [Fraction(0)] * n
                coords[j] = Fraction(t._scales[j])
                coords[0] -= Fraction(bound, 1 << 64)
                sign = ref_sign(t.levels, tuple(coords))
                assert side * sign >= 0
                assert t.exact_sign(TowerElement(n.bit_length() - 1, tuple(coords))) == sign


@pytest.fixture
def widenings(monkeypatch):
    """Counts the basis enclosures that exact_sign builds beyond the
    tower's stored 64-bit one, by their bits."""
    calls = []
    build = Tower._basis

    def counted(self, level, bits):
        calls.append(bits)
        return build(self, level, bits)

    monkeypatch.setattr(Tower, "_basis", counted)
    return calls


def signs_agree(t, xs, widenings):
    """exact_sign agrees with the schoolbook sign on every x; returns how
    many of them the stored enclosure decided and how many were decided
    after widening it."""
    paths = {True: 0, False: 0}
    for x in xs:
        before = len(widenings)
        assert t.exact_sign(x) == ref_sign(t.levels, x.coords)
        paths[len(widenings) == before] += 1
    return paths[True], paths[False]


def sqrt_convergents(r, count):
    """The first continued-fraction convergents of sqrt(r), r a positive
    rational whose numerator times denominator n is no square: those of
    sqrt(n), divided by r's denominator."""
    n, a0 = r.numerator * r.denominator, math.isqrt(r.numerator * r.denominator)
    m, d, a = 0, 1, a0
    h, k, h1, k1 = a0, 1, 1, 0
    for _ in range(count):
        yield Fraction(h, k * r.denominator)
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        h, k, h1, k1 = a * h + h1, a * k + k1, h, k


def test_sign_filter_on_powers_of_a_pell_difference(widenings):
    t = Tower(((2,),))
    x = t.generator(1) - t.embed(Fraction(665857, 470832))
    powers = [t.power(x, k) for k in [*range(17), 32, 48, MAX_EXPONENT]]
    decided, widened = signs_agree(t, powers + [-p for p in powers], widenings)
    assert decided and widened


@pytest.mark.parametrize("squares", [(2, 3, 5, 7), RATIONAL_SQUARES[:4]])
def test_sign_filter_on_convergent_differences(squares, widenings):
    t = Tower()
    for s in squares:
        t = t.adjoin_sqrt(s)
    g = [t.lift_to(t.generator(i), 4) for i in range(1, 5)]
    roots = [(g[i], Fraction(squares[i])) for i in range(4)]
    for i, j in ((0, 1), (1, 3), (2, 3)):
        roots.append((t.mul(g[i], g[j]), Fraction(squares[i]) * squares[j]))
    diffs = [x - t.embed(c) for x, r in roots for c in sqrt_convergents(r, 40)]
    decided, widened = signs_agree(t, diffs, widenings)
    assert decided and widened
    rng = random.Random(f"convergents-{squares}")
    products = [t.mul(*rng.sample(diffs, 2)) for _ in range(30)]
    decided, widened = signs_agree(t, products, widenings)
    assert decided and widened


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_sign_filter_on_random_nested_towers(depth, widenings):
    rng = random.Random(f"filter-{depth}")
    t = random_tower(rng, depth)
    xs = []
    for _ in range(6):
        x = random_element(rng, depth, nonzero=True)
        # x minus a rational near it: the stored enclosure decides the
        # 20-bit remainder, a widened one the 100-bit one, and the
        # 2000-bit one only after several doublings
        xs += [x, x - x, x - t.embed(t.approx(x, 20)), x - t.embed(t.approx(x, 100))]
        xs.append(x - t.embed(t.approx(x, 2000)))
    widenings.clear()  # approx builds through _basis too
    decided, widened = signs_agree(t, xs, widenings)
    assert decided and widened
    assert max(widenings) > 2000


# -- text formats --------------------------------------------------------------


def test_tower_file_roundtrip(tmp_path):
    t = Tower(((Fraction(2),), (Fraction(3), Fraction(1))))
    text = dumps_tower(t)
    assert text == "QTOWER 1\nlevels 2\nsquare 1: 2\nsquare 2: 3 1\n"
    assert loads_tower(text) == t

    path = tmp_path / "tower.qt"
    save_tower(t, path)
    assert load_tower(path) == t
    save_tower(load_tower(path), path)
    assert path.read_bytes() == text.encode()


def test_save_tower_overwrites_in_place(tmp_path):
    # a shorter tower saved over a longer file leaves no bytes behind
    deep = Tower(((Fraction(2),), (Fraction(3), Fraction(1))))
    shallow = Tower(((Fraction(2),),))
    path = tmp_path / "tower.qt"
    save_tower(deep, path)
    save_tower(shallow, path)
    assert path.read_bytes() == dumps_tower(shallow).encode()
    save_tower(deep, path)
    assert load_tower(path) == deep
    save_tower(deep, os.devnull)


def test_save_refuses_a_coordinate_past_the_digit_limit(tmp_path):
    # 2^20000 + 1 has 6,021 digits; the error comes before the file is opened
    t = Tower().adjoin_sqrt(2**20000 + 1)
    kept, absent = tmp_path / "kept.qt", tmp_path / "absent.qt"
    save_tower(Q_SQRT2, kept)
    before = kept.read_bytes()
    for path in (kept, absent):
        with pytest.raises(ValueError) as info:
            save_tower(t, path)
        assert str(info.value) == "number exceeds the 4300-digit limit"
    assert kept.read_bytes() == before
    assert not absent.exists()


def test_loads_tower_comments_and_blanks():
    text = "# a tower\nQTOWER 1\n\nlevels 1\nsquare 1: 2  # sqrt2\n"
    assert loads_tower(text) == Tower(((Fraction(2),),))


def test_loads_tower_rejects_square():
    with pytest.raises(NotAProperExtension):
        loads_tower("QTOWER 1\nlevels 1\nsquare 1: 4\n")


def test_loads_tower_rejects_negative():
    with pytest.raises(NonRealExtension):
        loads_tower("QTOWER 1\nlevels 1\nsquare 1: -2\n")


def test_loads_tower_needs_its_levels_line():
    with pytest.raises(TowerFormatError) as info:
        loads_tower("QTOWER 1\nsquare 1: 2\n")
    assert str(info.value) == "missing 'levels <n>' line"


def test_loads_tower_rejects_bad_length():
    with pytest.raises(InvalidTower):
        loads_tower("QTOWER 1\nlevels 2\nsquare 1: 2\nsquare 2: 3\n")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "QTOWE 1\nlevels 0\n",
        "QTOWER 1\nlevels x\n",
        "QTOWER 1\nlevels 2\nsquare 1: 2\n",
        "QTOWER 1\nlevels 1\nsquare 2: 2\n",
        "QTOWER 1\nlevels 1\nsquare 1: 2/0\n",
        "QTOWER 1\nlevels 1\nsquare 1: 1.5\n",
    ],
)
def test_loads_tower_rejects_malformed(text):
    with pytest.raises(TowerFormatError):
        loads_tower(text)

