"""Exact arithmetic in towers of real quadratic field extensions of Q,
with executable constructibility verdicts for rational cubics."""

from .errors import (
    DivisionByZero,
    InvalidTower,
    LevelMismatch,
    NonRealExtension,
    NotAProperExtension,
    NotASquareInTower,
    ParseError,
    QTowerError,
    TowerFormatError,
)
from .exactnum import divisors, format_rational, parse_rational
from .parser import eval_expr, format_expr, parse_expr, parse_poly, tokenize
from .poly import (
    Outcome,
    Polynomial,
    Verdict,
    conjugate_root,
    constructible_root_verdict,
    descend_cubic_root,
    poly_eval,
    rational_roots_cubic,
    rrt_candidates,
)
from .tower import (
    Tower,
    TowerElement,
    dumps_tower,
    load_tower,
    loads_tower,
    save_tower,
)

__version__ = "0.1.0"
