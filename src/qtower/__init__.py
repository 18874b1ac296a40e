"""Exact arithmetic in towers of real quadratic field extensions of Q,
with executable constructibility verdicts for rational cubics."""

from .errors import (
    CoordinateTooLarge,
    DivisionByZero,
    InvalidTower,
    LevelMismatch,
    NonRealExtension,
    NotAProperExtension,
    NotASquareInTower,
    ParseError,
    QTowerError,
    TowerFormatError,
    TowerTooDeep,
)
from .exactnum import divisors, parse_rational
from .parser import eval_expr, parse_expr, parse_poly, tokenize
from .poly import (
    Outcome,
    Polynomial,
    Verdict,
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
