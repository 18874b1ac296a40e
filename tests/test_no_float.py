"""No floating point enters the decision path: the modules that decide
signs, squareness, inverses and verdicts, and the parser that feeds them,
use no float or complex value, no math function beyond the integer ones,
and no decimal, cmath or random module. Only the CLI's display uses decimal,
and the CLI uses nothing else from this list.
"""

import ast
from pathlib import Path

import pytest

import qtower

DECISION_MODULES = ["tower.py", "poly.py", "exactnum.py", "parser.py"]
INTEGER_MATH = {"isqrt", "gcd", "lcm"}
BANNED_MODULES = {"decimal", "cmath", "random"}


def float_uses(tree):
    """(line, what) for each floating-point use in the module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            yield node.lineno, f"name {node.id}"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in BANNED_MODULES:
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            if root in BANNED_MODULES:
                yield node.lineno, f"from {node.module} import"
            elif root == "math":
                for alias in node.names:
                    if alias.name not in INTEGER_MATH:
                        yield node.lineno, f"from math import {alias.name}"


@pytest.mark.parametrize("name", DECISION_MODULES)
def test_decision_modules_use_no_floating_point(name):
    path = Path(qtower.__file__).with_name(name)
    assert list(float_uses(ast.parse(path.read_text(), name))) == []


def test_cli_uses_decimal_only_for_display():
    path = Path(qtower.__file__).with_name("cli.py")
    uses = [what for _, what in float_uses(ast.parse(path.read_text(), "cli.py"))]
    assert uses == ["from decimal import"]


def test_the_guard_sees_floating_point():
    source = (
        "import math, cmath\nfrom decimal import Decimal\nfrom math import sqrt\n"
        "x = 0.5 + 1j + float(2) + math.sqrt(2) + math.isqrt(4)\n"
    )
    assert sorted([what for _, what in float_uses(ast.parse(source))]) == [
        "from decimal import",
        "from math import sqrt",
        "import cmath",
        "literal 0.5",
        "literal 1j",
        "math.sqrt",
        "name float",
    ]
