"""Every function the session benchmark's tracer wraps still exists where
the tracer looks it up; a missing one would drop out of the per-layer
metrics without a word."""

import pytest

import qtower.cli as cli
import qtower.poly as poly
import qtower.tower as tower
from qtower.exactnum import divisors
from qtower.parser import parse_poly

HOOKS = [
    (cli, name)
    for name in (
        "execute",
        "parse_expr",
        "parse_poly",
        "eval_expr",
        "constructible_root_verdict",
        "rrt_candidates",
        "rational_roots_cubic",
        "descend_cubic_root",
        "format_element",
        "load_tower",
        "save_tower",
    )
]
HOOKS += [(poly, name) for name in ("rrt_candidates", "poly_eval", "divisors")]
HOOKS += [(tower, "loads_tower")]
HOOKS += [
    (tower.Tower, name)
    for name in (
        "mul",
        "inv",
        "exact_sign",
        "is_square",
        "power",
        "adjoin_sqrt",
        "adjoin_quadratic_root",
        "approx",
    )
]


@pytest.mark.parametrize(
    "owner, name", HOOKS, ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in HOOKS]
)
def test_traced_function_exists(owner, name):
    assert callable(getattr(owner, name, None))


@pytest.fixture
def divisors_calls(monkeypatch):
    # the tracer counts exactnum.divisors by patching poly.divisors
    calls = []

    def counted(n):
        calls.append(n)
        return divisors(n)

    monkeypatch.setattr(poly, "divisors", counted)
    return calls


def test_rrt_candidates_reads_divisors_from_the_poly_module(divisors_calls):
    candidates = poly.rrt_candidates(parse_poly("[-999962000357, 0, 0, 12]"))
    assert divisors_calls == [12, 999962000357]
    assert len(candidates) == 2 * 4 * 6


def test_rational_roots_cubic_factors_nothing(divisors_calls):
    for text in ("[-999962000357, 0, 0, 12]", "[-6, 11, -6, 1]", "[0, 0, -2, 1]"):
        poly.rational_roots_cubic(parse_poly(text))
    assert divisors_calls == []
