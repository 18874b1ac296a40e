"""Seeded generator of benchmark workloads.

A workload is a preload tower file, optional further tower files, and a
list of cycles. A cycle is a short `qtower run` script that depends on
nothing but the preload tower and what it sets itself, so each cycle also
replays on its own:

    cd .perfbench/<workload>/seed-<n>
    PYTHONPATH=<checkout>/src python3 -m qtower.cli run --tower preload.qt cycles/003.qts

A command that is expected to fail (a rejected `adjoin`) is always the last
line of its cycle, because `qtower run` stops at the first error.

Every command carries a check spec: what the checker needs to decide, from
the planted construction and its own numeric evaluation, whether the output
is right. The same workload name and seed give byte-identical files. The
generator never calls qtower.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import mpmath

from numeric import basis_values, dot, evaluate, gen_values, rat

WORKLOADS = ("deep-nested", "multiquad-files", "cubic-verdicts")

# Cycles in one pass of each workload. A run replays the pass from a fresh
# session until its time is up; at this commit one pass takes a little
# longer than a 40-second run.
PASS_CYCLES = {"deep-nested": 28, "multiquad-files": 40, "cubic-verdicts": 480}

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
GEN_PREC = 256


@dataclass
class Command:
    line: str
    spec: tuple


@dataclass
class Workload:
    name: str
    seed: int
    files: dict = field(default_factory=dict)  # relative path -> text
    cycles: list = field(default_factory=list)  # list of lists of Command

    def commands(self) -> list[Command]:
        return [cmd for cycle in self.cycles for cmd in cycle]

    def write(self, root: Path) -> None:
        """Write the tower files and one script per cycle under root."""
        for rel, text in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        cycles_dir = root / "cycles"
        cycles_dir.mkdir(parents=True, exist_ok=True)
        for c, cycle in enumerate(self.cycles):
            head = f"# {self.name} seed {self.seed} cycle {c}\n"
            body = "".join(cmd.line + "\n" for cmd in cycle)
            (cycles_dir / f"{c:03d}.qts").write_text(head + body, encoding="utf-8")


def generate(name: str, seed: int, cycles: int | None = None) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    count = PASS_CYCLES[name] if cycles is None else cycles
    build = {
        "deep-nested": _deep_nested,
        "multiquad-files": _multiquad_files,
        "cubic-verdicts": _cubic_verdicts,
    }[name]
    with mpmath.workprec(GEN_PREC):
        return build(Workload(name, seed), rng, count)


# -- expression text ---------------------------------------------------------


def _monomial_text(mask: int) -> str:
    return "*".join(f"g{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)


def render(node) -> str:
    """Expression text that qtower's parser reads as the tree `node`."""
    kind = node[0]
    if kind == "rat":
        return str(node[1])
    if kind == "gen":
        return f"g{node[1]}"
    if kind == "name":
        return node[1]
    if kind == "lin":
        parts = [str(node[1])] if node[1] or not node[2] else []
        for mask, c in node[2]:
            term = _monomial_text(mask) if abs(c) == 1 else f"{abs(c)}*{_monomial_text(mask)}"
            if parts:
                parts.append(("- " if c < 0 else "+ ") + term)
            else:
                parts.append(("-" if c < 0 else "") + term)
        return " ".join(parts)
    if kind == "pow":
        return f"{_wrap(node[1], atom=True)}^{node[2]}"
    op = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[kind]
    if kind in ("add", "sub"):
        return render(node[1]) + op + _wrap(node[2], additive=True)
    return _wrap(node[1], additive=True) + op + _wrap(node[2], additive=True, product=kind == "div")


def _wrap(node, atom=False, additive=False, product=False) -> str:
    """Parenthesize node where the parser would otherwise group it wrongly."""
    text = render(node)
    kind = node[0]
    if kind == "rat":
        needed = node[1] < 0 or (atom and node[1].denominator != 1)
    elif kind in ("gen", "name"):
        needed = False
    elif kind == "lin":
        single = node[1] == 0 and len(node[2]) == 1 and node[2][0][1] == 1
        needed = atom or not single or (product and node[2][0][0] & (node[2][0][0] - 1))
    else:
        needed = atom or (additive and kind in ("add", "sub")) or (product and kind in ("mul", "div"))
    return f"({text})" if needed else text


# -- random building blocks ----------------------------------------------------


def _small_rat(rng, top=9) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, top))


def _lin(rng, gens_pool, terms, unit=True):
    """c0 plus `terms` monomials over distinct masks from gens_pool."""
    masks = rng.sample(gens_pool, terms)
    coeff = (lambda: rng.choice((-1, 1))) if unit else (lambda: _small_rat(rng))
    return ("lin", _small_rat(rng), tuple((m, Fraction(coeff())) for m in masks))


def _top_form(rng, depth):
    """c0 +- g_i +- g_{depth-1} +- g_depth with i random below depth-1.

    Both top generators always appear: an element of a subfield takes a far
    cheaper path through the kernel, and would make the cost of a cycle
    depend on the seed."""
    masks = (1 << rng.randrange(depth - 2), 1 << (depth - 2), 1 << (depth - 1))
    return ("lin", _small_rat(rng), tuple((m, Fraction(rng.choice((-1, 1)))) for m in masks))


def _between_zero_and(rng, value) -> Fraction:
    """A rational strictly inside (0, value), away from both ends."""
    while True:
        q = Fraction(int(value * rng.uniform(0.25, 0.75) * 64), 64)
        if 0 < q and rat(q) < value:
            return q


def _is_rational_square(q: Fraction) -> bool:
    n, d = q.numerator, q.denominator
    return n >= 0 and math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def dumps_levels(levels) -> str:
    """The QTOWER 1 text of a tower, written independently of qtower."""
    lines = ["QTOWER 1", f"levels {len(levels)}"]
    for i, square in enumerate(levels, start=1):
        lines.append(f"square {i}: " + " ".join(str(c) for c in square))
    return "\n".join(lines) + "\n"


def _nested_tower(rng, depth):
    """Random nested squares that are valid by construction.

    s_1 is a positive integer non-square. For k >= 2, s_k = u + v*g_{k-1}
    with u, v sparse random integer elements of level k-2 and
    v*g_{k-1} > |u|: then s_k > 0, while the real embedding that negates
    g_{k-1} sends s_k to u - v*g_{k-1} < 0, so s_k is not a square in level
    k-1. Integer coordinates keep the cost of one tower close to another's."""
    while True:
        s1 = Fraction(rng.randint(2, 30))
        if not _is_rational_square(s1):
            break
    levels = [(s1,)]
    for k in range(2, depth + 1):
        gens = gen_values(levels)
        basis = basis_values(gens, k - 2)
        size = 1 << (k - 2)
        while True:
            u, v = (_sparse(rng, size, 4) for _ in range(2))
            uv, vv = dot(u, basis), dot(v, basis)
            if vv < 0:
                v, vv = [-c for c in v], -vv
            if vv * gens[k - 2] - abs(uv) > 0.1 * (abs(uv) + 1):
                break
        levels.append(tuple(u + v))
    return tuple(levels)


def _sparse(rng, size, nonzero):
    coords = [Fraction(0)] * size
    for j in rng.sample(range(size), min(size, nonzero)):
        coords[j] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))
    return coords


def _multiquad_levels(primes):
    return tuple((Fraction(p),) + (Fraction(0),) * ((1 << i) - 1) for i, p in enumerate(primes))


def _sqrt_convergent(rng, n):
    """A continued-fraction convergent h/k of sqrt(n) with k >= 10^6."""
    a0 = math.isqrt(n)
    m, d, a = 0, 1, a0
    h_prev, h, k_prev, k = 1, a0, 0, 1
    extra = rng.randint(0, 3)
    while True:
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        if k >= 10**6:
            if extra == 0:
                return Fraction(h, k)
            extra -= 1


# -- deep-nested ------------------------------------------------------------------


def _deep_nested(w: Workload, rng, count: int) -> Workload:
    depth = 6
    top = 1 << (depth - 1)
    for c in range(count):
        # A tower of its own per cycle, so a run averages over many towers.
        path, levels = f"towers/nested-{c:03d}.qt", _nested_tower(rng, depth)
        gens = gen_values(levels)
        w.files[path] = dumps_levels(levels)
        if c == 0:
            w.files["preload.qt"] = w.files[path]
        while True:
            forms = [_top_form(rng, depth) for _ in range(8)]
            a_tree, b_tree = ("mul", forms[0], forms[1]), ("mul", forms[2], forms[3])
            a, b = ("name", "a", a_tree), ("name", "b", b_tree)
            ab = ("mul", a, b)
            signed = ("sub", ab, forms[7])
            if all(abs(evaluate(t, gens)) > 1e-6 for t in (b, ("sub", a, b), signed)):
                break
        q = _between_zero_and(rng, gens[-1])
        a2 = ("pow", a, 2)
        product, scaled = ("mul", forms[4], forms[5]), ("mul", b, forms[6])
        nonsquare = ("mul", a2, ("lin", q, ((top, Fraction(1)),)))
        w.cycles.append([
            Command(f"load {path}", ("exact", f"loaded {path}: depth {depth}")),
            Command(f"let a = {render(a_tree)}", ("let", levels, "a", a_tree)),
            Command(f"let b = {render(b_tree)}", ("let", levels, "b", b_tree)),
            Command("eval a*b", ("eval", levels, ab)),
            Command("eval a^2", ("eval", levels, a2)),
            Command(f"eval {render(product)}", ("eval", levels, product)),
            Command(f"eval {render(scaled)}", ("eval", levels, scaled)),
            Command("sign a - b", ("sign", levels, ("sub", a, b))),
            Command("sign b", ("sign", levels, b)),
            Command(f"sign {render(signed)}", ("sign", levels, signed)),
            Command("eval a/b", ("eval", levels, ("div", a, b))),
            Command("eval a^3", ("eval", levels, ("pow", a, 3))),
            Command(f"is-square {render(a2)}", ("square", levels, a2, a)),
            Command("is-square b^2", ("square", levels, ("pow", b, 2), b)),
            Command(f"is-square {render(nonsquare)}", ("nonsquare", levels, nonsquare, depth)),
        ])
    return w


# -- multiquad-files ----------------------------------------------------------------


def _multiquad_files(w: Workload, rng, count: int) -> Workload:
    towers = []
    for j, depth in enumerate((6, 6, 5, 5)):
        primes = rng.sample(PRIMES[:6], depth)
        levels = _multiquad_levels(primes)
        towers.append((f"towers/mq-{j}.qt", primes, levels))
        w.files[f"towers/mq-{j}.qt"] = dumps_levels(levels)
    w.files["preload.qt"] = w.files["towers/mq-0.qt"]
    for c in range(count):
        path, primes, levels = towers[c % 2]
        depth = len(primes)
        gens = gen_values(levels)
        singles = [1 << i for i in range(depth)]
        cycle = [Command(f"load {path}", ("exact", f"loaded {path}: depth {depth}"))]

        def pell(i):
            return ("sub", ("rat", _sqrt_convergent(rng, primes[i - 1])), ("gen", i))

        def sign(tree):
            cycle.append(Command(f"sign {render(tree)}", ("sign", levels, tree)))

        sign(pell(rng.randint(1, depth)))
        i, j = sorted(rng.sample(range(1, depth + 1), 2))
        pair = ("lin", Fraction(0), ((1 << (i - 1) | 1 << (j - 1), Fraction(1)),))
        sign(("sub", pair, ("rat", _sqrt_convergent(rng, primes[i - 1] * primes[j - 1]))))
        for _ in range(2):
            sign(("mul", *(pell(i) for i in rng.sample(range(1, depth + 1), 2))))

        for inside in (True, True, False):
            m = rng.randint(2, depth - 1)
            inner = singles[:m]
            left = _lin(rng, inner, 2)
            right = _lin(rng, inner, 2) if inside else ("lin", _small_rat(rng), (
                (rng.choice(singles[m:]), Fraction(1)), (rng.choice(inner), Fraction(-1))))
            product = ("mul", left, right)
            cycle.append(Command(f"member {render(product)} {m}", ("member", levels, product, m, inside)))

        for _ in range(2):
            root = _top_form(rng, depth)
            square = ("pow", root, 2)
            cycle.append(Command(f"is-square {render(square)}", ("square", levels, square, root)))
        i = rng.randint(1, depth)
        factor = ("lin", _between_zero_and(rng, gens[i - 1]), ((1 << (i - 1), Fraction(1)),))
        nonsquare = ("mul", ("pow", _top_form(rng, depth), 2), factor)
        cycle.append(Command(f"is-square {render(nonsquare)}", ("nonsquare", levels, nonsquare, i)))

        cycle.append(Command("save saved.qt", ("exact", "saved saved.qt")))
        cycle.append(Command("load saved.qt", ("exact", f"loaded saved.qt: depth {depth}")))

        if c % 4 == 3:
            path, primes, levels = towers[2 + c // 4 % 2]
            depth = len(primes)
            cycle.append(Command(f"load {path}", ("exact", f"loaded {path}: depth {depth}")))
            p = rng.choice(primes) * rng.choice([p for p in PRIMES if p not in primes])
            coords = ", ".join([str(p)] + ["0"] * ((1 << depth) - 1))
            expected = f"adjoined g{depth + 1}: g{depth + 1}^2 = [{coords}]; depth {depth + 1}"
        else:
            i, j = rng.sample(range(1, depth + 1), 2)
            p = primes[i - 1] * primes[j - 1]
            mask = 1 << (i - 1) | 1 << (j - 1)
            coords = ", ".join("1" if k == mask else "0" for k in range(1 << depth))
            expected = f"NotAProperExtension: {p} is a square (witness [{coords}])"
        cycle.append(Command(f"adjoin {p}", ("exact", expected)))
        w.cycles.append(cycle)
    return w


# -- cubic-verdicts -------------------------------------------------------------------


def factorize(n: int) -> dict:
    """Prime factorization of |n| by trial division (small n only)."""
    n = abs(n)
    factors, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _merge(*parts) -> dict:
    out = {}
    for part in parts:
        for p, e in part.items():
            out[p] = out.get(p, 0) + e
    return out


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.4e14."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _big_prime(rng, lo, hi) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n):
            return n


def _expand(*factors):
    """Integer coefficients (constant first) of a product of polynomials."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def no_root_prime(coeffs) -> int | None:
    """A prime p not dividing the leading coefficient such that the cubic
    has no root mod p; this proves it has no rational root."""
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if coeffs[3] % p == 0:
            continue
        if all(sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p for x in range(p)):
            return p
    return None


def _cubic_spec(kind, coeffs, roots, f0, f3, proof=None):
    return (kind, tuple(coeffs), tuple(sorted(set(roots))), f0, f3, proof)


def _rooted(rng, n, d, prime=None):
    """(d*x - n)(a*x^2 + b*x + c) with the quadratic free of rational roots;
    c is `prime` if given, else small and random."""
    while True:
        a, b = rng.randint(1, 6), rng.randint(-9, 9)
        c = rng.choice((-1, 1)) * rng.randint(1, 12) if prime is None else prime
        disc = b * b - 4 * a * c
        if disc < 0 or math.isqrt(disc) ** 2 != disc:
            break
    coeffs = _expand((-n, d), (c, b, a))
    f0 = _merge(factorize(n), factorize(c) if prime is None else {prime: 1})
    return coeffs, [Fraction(n, d)], f0, factorize(d * a)


def _no_root(rng, a0, f0, a3):
    while True:
        coeffs = [a0, rng.randint(-12, 12), rng.randint(-12, 12), a3]
        p = no_root_prime(coeffs)
        if p is not None:
            return coeffs, f0, factorize(a3), p


def _poly_text(coeffs) -> str:
    return "[" + ", ".join(str(c) for c in coeffs) + "]"


def _cubic_verdicts(w: Workload, rng, count: int) -> Workload:
    p1, p2 = rng.sample(PRIMES, 2)
    levels = _multiquad_levels((p1, p2))
    w.files["preload.qt"] = dumps_levels(levels)
    masks = [1, 2, 3]
    squares = {1: p1, 2: p2, 3: p1 * p2}
    for c in range(count):
        precision = rng.choice((113, 128, 256, 512, 1024, 2048, 3072, 4096))
        cycle = [Command(f"set precision {precision}", ("exact", f"precision = {precision}"))]

        n = rng.choice((-1, 1)) * rng.randint(1, 12)
        coeffs, roots, f0, f3 = _rooted(rng, n, rng.randint(1, 6))
        cycle.append(Command(f"verdict {_poly_text(coeffs)}", _cubic_spec("verdict", coeffs, roots, f0, f3)))

        a0 = rng.choice((-1, 1)) * rng.randint(1, 30)
        coeffs, f0, f3, proof = _no_root(rng, a0, factorize(a0), rng.choice((-1, 1)) * rng.randint(1, 12))
        cycle.append(Command(f"verdict {_poly_text(coeffs)}", _cubic_spec("verdict", coeffs, [], f0, f3, proof)))

        f0 = {2: rng.randint(2, 4), 3: rng.randint(1, 2), 5: rng.randint(1, 2), 7: rng.randint(0, 1)}
        a0 = rng.choice((-1, 1)) * math.prod(p**e for p, e in f0.items())
        coeffs, f0, f3, proof = _no_root(rng, a0, {p: e for p, e in f0.items() if e}, rng.choice((12, 24, 30, 36, 60, 72, 84, 90)))
        cycle.append(Command(f"rrt {_poly_text(coeffs)}", _cubic_spec("rrt", coeffs, [], f0, f3, proof)))

        linear = [(-rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for _ in range(3)]
        coeffs = _expand(*linear)
        roots = [Fraction(-a, b) for a, b in linear]
        f0 = _merge(*(factorize(a) for a, _ in linear))
        f3 = _merge(*(factorize(b) for _, b in linear))
        cycle.append(Command(f"roots {_poly_text(coeffs)}", _cubic_spec("roots", coeffs, roots, f0, f3)))

        n = rng.choice((-1, 1)) * rng.randint(1, 9)
        if c % 2 == 0:
            big = _big_prime(rng, 5 * 10**11 // abs(n), 10**12 // abs(n))
            coeffs, roots, f0, f3 = _rooted(rng, n, rng.randint(1, 6), big)
            spec = _cubic_spec("verdict", coeffs, roots, f0, f3)
        else:
            big = _big_prime(rng, 5 * 10**11, 10**12)
            coeffs, f0, f3, proof = _no_root(rng, n // abs(n) * big, {big: 1}, rng.randint(1, 12))
            spec = _cubic_spec("verdict", coeffs, [], f0, f3, proof)
        cycle.append(Command(f"verdict {_poly_text(coeffs)}", spec))

        mask = rng.choice(masks)
        a, b = _small_rat(rng), _small_rat(rng)
        e = math.lcm(a.denominator, b.denominator)
        an, bn = int(a * e), int(b * e)
        n, d = rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)
        coeffs = _expand((-n, d), (an * an - bn * bn * squares[mask], -2 * an * e, e * e))
        x0 = ("lin", a, ((mask, b),))
        cycle.append(Command(
            f"descend {_poly_text(coeffs)} {render(x0)}",
            ("exact", f"rational root: {Fraction(n, d)}"),
        ))

        forms = [_lin(rng, masks, 2, unit=False) for _ in range(4)]
        expr = ("add", ("div", ("mul", forms[0], forms[1]), forms[2]), ("pow", forms[3], rng.randint(2, 5)))
        cycle.append(Command(f"eval {render(expr)}", ("eval", levels, expr)))
        w.cycles.append(cycle)
    return w
