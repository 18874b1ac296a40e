"""Value semantics of qtower's immutable classes: equal fields make equal
objects with equal hashes, fields cannot be assigned or deleted, copies
and pickles are equal to the original, expression nodes take exactly one
value per field, by position, and a session, new or from `replace`, is
checked."""

import copy
import pickle
from fractions import Fraction

import pytest

from qtower.cli import MAX_PRECISION, Session, execute
from qtower.parser import (
    BinOp,
    GeneratorRef,
    Name,
    Neg,
    Pow,
    RationalLiteral,
    Sqrt,
    Token,
)
from qtower.poly import Polynomial, Verdict
from qtower.record import Record
from qtower.tower import Tower, TowerElement


def _session():
    s, _ = execute(Session(tower=Tower([[2]]), precision=200, mode="coords"), "let a = 1 + g1")
    return s


# Each maker builds a fresh object from fresh field values on every call.
MAKERS = {
    "TowerElement": lambda: TowerElement(1, (Fraction(1, 2), 3)),
    "Tower": lambda: Tower([[2], [3, 1]]),
    "Polynomial": lambda: Polynomial((-2, 0, Fraction(1, 3), 1)),
    "Verdict": lambda: Verdict(None, (Fraction(-1), Fraction(1))),
    "Token": lambda: Token("RAT", "1/2", 4, Fraction(1, 2)),
    "RationalLiteral": lambda: RationalLiteral(Fraction(3, 4)),
    "GeneratorRef": lambda: GeneratorRef(2),
    "Sqrt": lambda: Sqrt(Name("x")),
    "Neg": lambda: Neg(Name("x")),
    "Pow": lambda: Pow(GeneratorRef(1), -3),
    "BinOp": lambda: BinOp("+", RationalLiteral(Fraction(1)), Neg(Name("y"))),
    "Name": lambda: Name("x"),
    "Session": _session,
}


@pytest.mark.parametrize("kind", MAKERS)
def test_equal_fields_make_equal_objects_with_equal_hashes(kind):
    a, b = MAKERS[kind](), MAKERS[kind]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("kind", MAKERS)
def test_fields_cannot_be_assigned_or_deleted(kind):
    x = MAKERS[kind]()
    for name in type(x).__match_args__:
        before = getattr(x, name)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(x, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(x, name)
        assert getattr(x, name) is before
    with pytest.raises(AttributeError):
        x.extra = 1


@pytest.mark.parametrize("kind", MAKERS)
def test_copies_and_pickles_are_equal(kind):
    x = MAKERS[kind]()
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x)
        assert repr(y) == repr(x)


def test_classes_with_equal_fields_differ():
    x = Name("x")
    assert Sqrt(x) != Neg(x)
    assert RationalLiteral(Fraction(2)) != GeneratorRef(2)
    assert Token("EOF", "", 0) != ("EOF", "", 0, None)


def test_construction_by_position_or_keyword_with_defaults():
    assert Token("PLUS", "+", 0) == Token(kind="PLUS", text="+", pos=0, value=None)
    assert Tower() == Tower(levels=()) and Tower().depth == 0
    assert TowerElement(level=0, coords=(1,)) == TowerElement(0, (Fraction(1),))
    assert Verdict(root=None, candidates_checked=()) == Verdict(None, ())
    s = Session()
    assert (s.tower, dict(s.bindings), s.precision, s.mode) == (Tower(), {}, 113, "both")
    assert s == Session(tower=Tower(), bindings={}, precision=113, mode="both")
    with pytest.raises(TypeError):
        Token("PLUS", "+")


def test_reprs_name_the_fields():
    assert repr(Token("PLUS", "+", 3)) == "Token(kind='PLUS', text='+', pos=3, value=None)"
    assert repr(Pow(GeneratorRef(1), 2)) == "Pow(child=GeneratorRef(index=1), exponent=2)"
    assert repr(Polynomial((1, 0, 1))) == (
        "Polynomial(coeffs=(Fraction(1, 1), Fraction(0, 1), Fraction(1, 1)))"
    )
    assert repr(Session()) == (
        "Session(tower=Tower([]), bindings=mappingproxy({}), precision=113, mode='both')"
    )


def test_session_replace_changes_fields_and_checks_them():
    s = _session()
    t = s.replace(precision=64, mode="decimal")
    assert (t.tower, t.bindings, t.precision, t.mode) == (s.tower, s.bindings, 64, "decimal")
    assert s.precision == 200 and s.mode == "coords"
    assert s.replace() == s
    assert s.replace(bindings={}).bindings == {}
    for precision in (0, -1, 2.5, "64", True):
        with pytest.raises(ValueError, match="^precision must be a positive number of bits$"):
            s.replace(precision=precision)
    with pytest.raises(ValueError, match=f"^precision exceeds {MAX_PRECISION} bits$"):
        s.replace(precision=MAX_PRECISION + 1)
    with pytest.raises(ValueError, match="^mode must be one of coords, decimal, both$"):
        s.replace(mode="bogus")
    with pytest.raises(ValueError, match="^tower must be a Tower$"):
        s.replace(tower=None)
    with pytest.raises(ValueError, match="^binding 'x' must be a TowerElement$"):
        s.replace(bindings={"x": 1})
    with pytest.raises(TypeError):
        s.replace(colour="red")


def test_sessions_hash_their_bindings_in_any_order():
    one, two = TowerElement(0, (1,)), TowerElement(0, (2,))
    a = Session(bindings={"a": one, "b": two})
    b = Session(bindings={"b": two, "a": one})
    assert a == b and hash(a) == hash(b)
    assert a != Session(bindings={"a": one})


NODES = {
    RationalLiteral: (Fraction(3, 4),),
    GeneratorRef: (2,),
    Sqrt: (Name("x"),),
    Neg: (Name("x"),),
    Pow: (GeneratorRef(1), -3),
    BinOp: ("+", Name("x"), Name("y")),
    Name: ("x",),
}


@pytest.mark.parametrize("node", NODES, ids=lambda node: node.__name__)
def test_nodes_take_exactly_one_value_per_field(node):
    values = NODES[node]
    assert "__init__" not in vars(node) and node.__init__ is Record.__init__
    x = node(*values)
    assert tuple(getattr(x, name) for name in node.__match_args__) == values
    n = len(values)
    for wrong in (values[:-1], values + (values[-1],)):  # e.g. Neg(), Pow(x), BinOp("+", x, x, x)
        message = f"^{node.__name__} takes {n} values, got {len(wrong)}$"
        with pytest.raises(TypeError, match=message):
            node(*wrong)
    with pytest.raises(TypeError):  # no keyword form
        node(**dict(zip(node.__match_args__, values)))


def test_sessions_refuse_bad_fields_with_their_own_texts():
    cases = [
        ({"tower": None}, "tower must be a Tower"),
        ({"tower": ((2,),)}, "tower must be a Tower"),
        ({"bindings": {"x": 1}}, "binding 'x' must be a TowerElement"),
        ({"bindings": {"y": Fraction(1)}}, "binding 'y' must be a TowerElement"),
        ({"precision": 0}, "precision must be a positive number of bits"),
        ({"precision": True}, "precision must be a positive number of bits"),
        ({"precision": 2.5}, "precision must be a positive number of bits"),
        ({"precision": MAX_PRECISION + 1}, f"precision exceeds {MAX_PRECISION} bits"),
        ({"mode": "bogus"}, "mode must be one of coords, decimal, both"),
    ]
    for fields, message in cases:
        with pytest.raises(ValueError) as info:
            Session(**fields)
        assert str(info.value) == message
    s = Session(Tower([[2]]), {"a": TowerElement(0, (1,))}, 64, "coords")
    assert (s.tower.depth, list(s.bindings), s.precision, s.mode) == (1, ["a"], 64, "coords")
    with pytest.raises(TypeError):
        Session(Tower(), {}, 64, "coords", None)
