"""Acceptance suite: one test per criterion, exact tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from helpers import random_element, random_rational, random_tower
from qtower.cli import Session, execute
from qtower.errors import NotAProperExtension
from qtower.parser import eval_expr, parse_expr
from qtower.poly import (
    Outcome,
    Polynomial,
    constructible_root_verdict,
    descend_cubic_root,
    poly_eval,
    rational_roots_cubic,
    rrt_candidates,
)
from qtower.tower import Tower, TowerElement, dumps_tower, load_tower, loads_tower, save_tower

DOUBLE_CUBE = Polynomial((-2, 0, 0, 1))
TRISECT = Polynomial((-1, -6, 0, 8))


def ok(n, message):
    print(f"criterion {n}: PASS — {message}")


def horner_float(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def horner_tower(t, coeffs, x):
    """P(x) for tower-element coefficients at or below x's level."""
    acc = t.lift_to(coeffs[-1], x.level)
    for c in reversed(coeffs[:-1]):
        acc = t.mul(acc, x) + t.lift_to(c, x.level)
    return acc


def test_criterion_1_double_cube_verdict():
    start = time.perf_counter()
    candidates = rrt_candidates(DOUBLE_CUBE)
    assert candidates == [-2, -1, 1, 2]
    assert all(poly_eval(DOUBLE_CUBE, r) != 0 for r in candidates)
    verdict = constructible_root_verdict(DOUBLE_CUBE)
    assert verdict.outcome is Outcome.NO_ROOT_IN_ANY_TOWER
    assert verdict.candidates_checked == (-2, -1, 1, 2)
    _, out = execute(Session(), "rrt [-2,0,0,1]")
    assert out == "candidates: -2, -1, 1, 2"
    _, out = execute(Session(), "verdict [-2,0,0,1]")
    assert out.splitlines()[0] == (
        "no root in any quadratic extension tower; "
        "candidates checked: -2, -1, 1, 2 (all nonzero)"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(1, f"x^3 - 2: candidates -2,-1,1,2 all nonzero, no tower root ({elapsed:.3f}s)")


def test_criterion_2_trisection_verdict():
    start = time.perf_counter()
    candidates = rrt_candidates(TRISECT)
    expected = sorted(
        Fraction(s * n, d) for s in (1, -1) for n, d in ((1, 1), (1, 2), (1, 4), (1, 8))
    )
    assert candidates == expected
    assert len(candidates) == 8
    assert all(poly_eval(TRISECT, r) != 0 for r in candidates)
    verdict = constructible_root_verdict(TRISECT)
    assert verdict.outcome is Outcome.NO_ROOT_IN_ANY_TOWER
    _, out = execute(Session(), "rrt [-1,-6,0,8]")
    assert out == "candidates: -1, -1/2, -1/4, -1/8, 1/8, 1/4, 1/2, 1"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(2, f"8x^3 - 6x - 1: candidates ±1/8..±1 all nonzero, no tower root ({elapsed:.3f}s)")


def test_criterion_3_numeric_root_confirmations():
    cbrt2 = 2.0 ** (1.0 / 3.0)
    residue_cube = horner_float((-2, 0, 0, 1), cbrt2)
    assert abs(residue_cube) < 1e-12
    c = math.cos(math.pi / 9)
    residue_cos = horner_float((-1, -6, 0, 8), c)
    assert abs(residue_cos) < 1e-12
    ok(3, f"float residues {residue_cube:.2e} (cbrt 2) and {residue_cos:.2e} (cos pi/9)")


def test_criterion_4_field_axioms():
    start = time.perf_counter()
    rng = random.Random(2026)
    towers = 0
    triples = 0
    for depth in (1, 2, 3, 4) * 6:
        t = random_tower(rng, depth)
        towers += 1
        one = t.one()
        for _ in range(44):
            x = random_element(rng, depth, bound=100)
            y = random_element(rng, depth, bound=100)
            z = random_element(rng, depth, bound=100)
            triples += 1
            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert t.mul(x, y) == t.mul(y, x)
            assert t.mul(t.mul(x, y), z) == t.mul(x, t.mul(y, z))
            assert t.mul(x, y + z) == t.mul(x, y) + t.mul(x, z)
            assert (x + (-x)).is_zero
            if not x.is_zero:
                assert t.mul(x, t.inv(x)) == one
    elapsed = time.perf_counter() - start
    assert towers >= 20
    assert triples >= 1000
    assert elapsed < 60.0
    ok(4, f"{triples} triples over {towers} towers, all axioms exact ({elapsed:.1f}s)")


def test_criterion_5_conjugation_suite():
    rng = random.Random(2027)
    polys = 0
    while polys < 200:
        depth = rng.randint(1, 3)
        t = random_tower(rng, depth)
        for _ in range(10):
            x = random_element(rng, depth, bound=30)
            y = random_element(rng, depth, bound=30)
            assert (x + y).conjugate() == x.conjugate() + y.conjugate()
            assert t.mul(x, y).conjugate() == t.mul(x.conjugate(), y.conjugate())
            assert x.conjugate().conjugate() == x
            assert t.member_of_level(t.mul(x, x.conjugate()), depth - 1) is not None
            coeffs = tuple(
                random_element(rng, depth - 1, bound=30)
                for _ in range(rng.randint(1, 6))
            )
            conj_of_value = horner_tower(t, coeffs, x).conjugate()
            assert horner_tower(t, coeffs, x.conjugate()) == conj_of_value
            p = Polynomial(tuple(c.coords[0] for c in coeffs))
            assert poly_eval(p, x.conjugate(), t) == poly_eval(p, x, t).conjugate()
            polys += 1
    ok(5, f"{polys} polynomials: conjugation laws and P(conj x) = conj P(x) exact")


def test_criterion_6_descent_oracle():
    rng = random.Random(2028)
    done = 0
    while done < 50:
        base = random_tower(rng, rng.randint(0, 2))
        s = Fraction(rng.randint(1, 50), rng.randint(1, 12))
        if base.is_square(base.embed(s)) is not None:
            continue
        if base.exact_sign(base.embed(s)) <= 0:
            continue
        ext = base.adjoin_sqrt(s)
        sqrt_s = ext.generator(ext.depth)
        r = random_rational(rng, 20)
        a3 = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
        cubic = Polynomial((a3 * r * s, -a3 * s, -a3 * r, a3))
        assert poly_eval(cubic, sqrt_s, ext).is_zero
        assert descend_cubic_root(cubic, ext, sqrt_s) == r
        done += 1
    ok(6, f"{done} cubics a3(x - r)(x^2 - s): descent from sqrt(s) returned r exactly")


def test_criterion_7_rrt_completeness():
    rng = random.Random(2029)
    done = 0
    while done < 200:
        num = rng.randint(-40, 40)
        den = rng.randint(1, 15)
        if num == 0:
            continue
        root = Fraction(num, den)
        e = rng.choice([-5, -3, -2, -1, 1, 2, 3, 5])
        b = rng.randint(-12, 12)
        c = rng.randint(-12, 12)
        if c == 0:
            continue
        p = Polynomial(
            (
                -e * root.numerator * c,
                e * (root.denominator * c - root.numerator * b),
                e * (root.denominator * b - root.numerator),
                e * root.denominator,
            )
        )
        assert poly_eval(p, root) == 0
        assert root in rrt_candidates(p)
        assert root in rational_roots_cubic(p)
        done += 1
    ok(7, f"{done} planted cubics: p/q always among candidates and rational roots")


def test_criterion_8_is_square_and_sign_consistency():
    rng = random.Random(2030)
    squares = 0
    while squares < 500:
        depth = squares % 4
        t = random_tower(rng, depth)
        w = random_element(rng, depth, bound=20)
        sq = t.mul(w, w)
        v = t.is_square(sq)
        assert v is not None
        assert t.mul(v, v) == sq
        squares += 1

    signs = 0
    while signs < 1000:
        depth = signs % 5
        t = random_tower(rng, depth)
        x = random_element(rng, depth, bound=100)
        approx = t.approx(x, 113)
        if abs(approx) <= 1e-20:
            continue
        assert t.exact_sign(x) == (1 if approx > 0 else -1)
        signs += 1
    ok(8, f"{squares} is_square round trips exact; {signs} signs agree with 113-bit approx")


def test_criterion_9_nonzero_invertibility():
    rng = random.Random(2031)
    done = 0
    for depth in (1, 2, 3, 4) * 3:
        t = random_tower(rng, depth)
        one = t.one()
        for _ in range(84):
            x = random_element(rng, depth, bound=100, nonzero=True)
            assert t.mul(x, t.inv(x)) == one
            done += 1
    assert done >= 1000
    ok(9, f"{done} nonzero vectors over depth<=4 towers: inv succeeded, x*inv(x) = 1")


def test_criterion_10_intro_expression_regression():
    # independent re-derivation: rationalize (3*sqrt2 - 2)/(sqrt2 + 5) by the
    # conjugate, using plain pairs (p, q) for p + q*sqrt2
    def pair_mul(u, v):
        return (u[0] * v[0] + 2 * u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    numerator = pair_mul((Fraction(3), Fraction(-1)), (Fraction(0), Fraction(1)))
    denominator = (Fraction(5), Fraction(1))
    norm = denominator[0] ** 2 - 2 * denominator[1] ** 2
    rationalized = pair_mul(numerator, (denominator[0], -denominator[1]))
    expected = TowerElement(1, (rationalized[0] / norm, rationalized[1] / norm))
    assert expected.coords == (Fraction(-16, 23), Fraction(17, 23))

    tower = Tower(((Fraction(2),),))
    got = eval_expr(parse_expr("(3 - sqrt(2)) * sqrt(2) / (sqrt(2) + 5)"), tower)
    assert got == expected

    direct = (3 - math.sqrt(2)) * math.sqrt(2) / (math.sqrt(2) + 5)
    assert abs(float(tower.approx(got, 113)) - direct) < 1e-9
    ok(10, "intro expression equals [-16/23, 17/23] exactly; approx within 1e-9 of float")


def test_criterion_11_persistence_roundtrip(tmp_path):
    rng = random.Random(2032)
    for i in range(20):
        t = random_tower(rng, rng.randint(0, 3))
        first = tmp_path / f"tower_{i}_a.qt"
        second = tmp_path / f"tower_{i}_b.qt"
        save_tower(t, first)
        loaded = load_tower(first)
        save_tower(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert loads_tower(dumps_tower(loaded)) == t

    with pytest.raises(NotAProperExtension):
        loads_tower("QTOWER 1\nlevels 1\nsquare 1: 4\n")
    bad = tmp_path / "bad.qt"
    bad.write_text("QTOWER 1\nlevels 1\nsquare 1: 4\n")
    with pytest.raises(NotAProperExtension):
        load_tower(bad)
    ok(11, "20 towers byte-identical through save/load/save; square-4 file rejected")
