"""Exception hierarchy shared across the package.

Every domain failure raises a named error so callers (and the CLI, which
renders errors by class name) can distinguish them without string matching.
"""

from __future__ import annotations


class QTowerError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(QTowerError, ZeroDivisionError):
    """Division by an exact zero. Never silently mapped to 0."""


class LevelMismatch(QTowerError):
    """Operands live at different tower levels, or a level is out of range.

    Arithmetic never lifts implicitly; callers lift explicitly.
    """


class NonRealExtension(QTowerError):
    """Adjoining would require the square root of a non-positive value."""


class NotAProperExtension(QTowerError):
    """The value to adjoin is already a square in the current field.

    `witness` carries the in-field square root (or, for quadratic
    adjunction, the in-field root of the quadratic).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CoordinateTooLarge(QTowerError):
    """A result whose coordinates would pass `tower.MAX_COORDINATE_BITS`,
    refused before it is computed."""


class TowerTooDeep(QTowerError):
    """A level past `tower.MAX_LEVELS`, refused by `adjoin_sqrt` before any work."""


class InvalidTower(QTowerError):
    """A level with the wrong number of coordinates, refused by `Tower(levels)`."""


class NotASquareInTower(QTowerError):
    """sqrt() of an expression value that is not a square in the tower."""


class ParseError(QTowerError):
    """Lexical or syntactic error, with a 0-based character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class TowerFormatError(QTowerError):
    """Malformed tower file (bad header, bad rational, bad structure)."""
