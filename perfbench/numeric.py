"""High-precision numeric evaluation of tower elements and expression trees.

This is the benchmark's own evaluator: it never calls into qtower. A tower
is given by its levels (the coordinates of each generator's square, as
Fractions), an element by its coordinates in the all-products basis, and an
expression by a small tuple tree built by the generator:

    ("rat", q)                   a rational
    ("gen", i)                   the generator g_i
    ("lin", c0, ((mask, c), ..)) c0 + sum of c * (product of gens on mask bits)
    ("name", n, tree)            a session binding n whose value is tree
    ("add"|"sub"|"mul"|"div", a, b)
    ("pow", a, k)

An embedding is chosen by the set of generators sent to their negative
square root; the empty set is the embedding qtower computes in. Evaluation
runs at the caller's mpmath working precision.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath


def gen_values(levels, flips=frozenset()):
    """g_1..g_n under the embedding that negates the generators in flips.

    Raises ValueError if some square is not positive there, that is, if the
    embedding is not real."""
    gens = []
    basis = [mpmath.mpf(1)]
    for i, square in enumerate(levels, start=1):
        value = dot(square, basis)
        if value <= 0:
            raise ValueError(f"g{i}^2 is not positive in this embedding")
        root = mpmath.sqrt(value)
        g = -root if i in flips else root
        gens.append(g)
        basis = basis + [b * g for b in basis]
    return gens


def basis_values(gens, level):
    """Values of the 2^level all-products basis monomials."""
    basis = [mpmath.mpf(1)]
    for g in gens[:level]:
        basis = basis + [b * g for b in basis]
    return basis


def rat(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def dot(coords, basis):
    total = mpmath.mpf(0)
    for c, b in zip(coords, basis):
        if c:
            total += rat(c) * b
    return total


def monomial(gens, mask):
    value = mpmath.mpf(1)
    i = 0
    while mask:
        if mask & 1:
            value *= gens[i]
        mask >>= 1
        i += 1
    return value


def evaluate(node, gens):
    """The value of an expression tree with the given generator values."""
    kind = node[0]
    if kind == "rat":
        return rat(node[1])
    if kind == "gen":
        return gens[node[1] - 1]
    if kind == "lin":
        total = rat(node[1])
        for mask, c in node[2]:
            total += rat(c) * monomial(gens, mask)
        return total
    if kind == "name":
        return evaluate(node[2], gens)
    if kind == "pow":
        return evaluate(node[1], gens) ** node[2]
    left, right = evaluate(node[1], gens), evaluate(node[2], gens)
    if kind == "add":
        return left + right
    if kind == "sub":
        return left - right
    if kind == "mul":
        return left * right
    if kind == "div":
        return left / right
    raise ValueError(f"unknown expression node {kind!r}")


def lin_coords(node, level):
    """Exact coordinates of a ("lin", ...) node at the given level."""
    coords = [Fraction(0)] * (1 << level)
    coords[0] += node[1]
    for mask, c in node[2]:
        coords[mask] += c
    return coords
