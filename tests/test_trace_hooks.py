"""Every function the session benchmark's tracer wraps still exists where
the tracer looks it up; a missing one would drop out of the per-layer
metrics without a word."""

import pytest

import qtower.cli as cli
import qtower.poly as poly
import qtower.tower as tower

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
