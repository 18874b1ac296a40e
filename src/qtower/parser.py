"""Expression front end: tokenizer, recursive-descent parser, evaluator.

Grammar (whitespace insensitive, offsets are 0-based characters):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' integer)?
    atom   := rational | 'g' digits | 'sqrt' '(' expr ')' | '(' expr ')'
            | name

Left associative throughout; unary minus binds tighter than '*' and '/'
but looser than '^', so -2^2 is -(2^2). Trees deeper than MAX_DEPTH
levels, a parenthesized group counting as one, are refused. Rationals are
unsigned `p` or `p/q` tokens of ASCII digits; a leading '-' is always the
operator. Names resolve against REPL bindings at evaluation time; parsing
never consults tower state.

Polynomial literals are `[c0, c1, ..., cd]` with rational entries,
constant term first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotASquareInTower, ParseError
from .exactnum import ascii_int
from .poly import Polynomial
from .tower import Tower, TowerElement

MAX_EXPONENT = 64
MAX_DEPTH = 100  # expression tree levels, a parenthesized group counting as one

_TOKEN_CHARS = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
    "^": "CARET",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACKET",
    "]": "RBRACKET",
    ",": "COMMA",
}

_RAT_RE = re.compile(r"[0-9]+(?:/[0-9]+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_GEN_RE = re.compile(r"g([0-9]+)$")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int
    value: object = None


# -- expression nodes ---------------------------------------------------------


@dataclass(frozen=True)
class RationalLiteral:
    value: Fraction


@dataclass(frozen=True)
class GeneratorRef:
    index: int


@dataclass(frozen=True)
class Sqrt:
    child: object


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class Pow:
    child: object
    exponent: int


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Name:
    name: str


def _digits(text: str, pos: int) -> int:
    """ASCII digits as an int, or a ParseError past Python's int-string limit."""
    try:
        return ascii_int(text)
    except ValueError as exc:
        raise ParseError(str(exc), pos) from None


def tokenize(text: str) -> list[Token]:
    """Scan text into tokens, ending with an EOF token at len(text)."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_CHARS:
            tokens.append(Token(_TOKEN_CHARS[c], c, i))
            i += 1
            continue
        m = _RAT_RE.match(text, i)
        if m:
            raw = m.group(0)
            num, _, den = raw.partition("/")
            num, den = _digits(num, i), _digits(den, i) if den else None
            if den == 0:
                raise ParseError(f"zero denominator in {raw!r}", i)
            value = Fraction(num) if den is None else Fraction(num, den)
            tokens.append(Token("RAT", raw, i, value))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            word = m.group(0)
            gen = _GEN_RE.match(word)
            if word == "sqrt":
                tokens.append(Token("SQRT", word, i))
            elif gen:
                tokens.append(Token("GEN", word, i, _digits(gen.group(1), i)))
            else:
                tokens.append(Token("NAME", word, i, word))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(Token("EOF", "", len(text)))
    return tokens


# token kind -> operator, one dict per binary tier, loosest first
_BINARY_OPS = ({"PLUS": "+", "MINUS": "-"}, {"STAR": "*", "SLASH": "/"})

# token kind -> node for the atoms that are a single token
_LEAVES = {"RAT": RationalLiteral, "GEN": GeneratorRef, "NAME": Name}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what}, got {tok.text or 'end of input'!r}", tok.pos
            )
        return self.advance()

    def finish(self):
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)

    # Each rule parses a subtree whose root sits below `depth` levels and
    # returns it with its reach, the deepest level in it. Parsing and
    # evaluation recurse once per level, so a reach past MAX_DEPTH is refused.

    def bounded(self, reach: int, tok: Token) -> int:
        if reach > MAX_DEPTH:
            raise ParseError(f"expression deeper than {MAX_DEPTH} levels", tok.pos)
        return reach

    def expr(self, depth, tier=0):
        """Operands of the next tier joined left to right by this tier's
        operators: tier 0 joins terms by '+' and '-', tier 1 factors by
        '*' and '/'."""
        ops = _BINARY_OPS[tier]
        node, reach = self.factor(depth) if tier else self.expr(depth, 1)
        while self.peek().kind in ops:
            op = self.advance()
            right, right_reach = self.factor(depth) if tier else self.expr(depth, 1)
            node = BinOp(ops[op.kind], node, right)
            reach = self.bounded(max(reach, right_reach) + 1, op)
        return node, reach

    def factor(self, depth):
        self.bounded(depth + 1, self.peek())
        if self.peek().kind == "MINUS":
            self.advance()
            node, reach = self.factor(depth + 1)
            return Neg(node), reach
        node, reach = self.atom(depth)
        if self.peek().kind == "CARET":
            reach = self.bounded(reach + 1, self.advance())
            node = Pow(node, self.exponent())
        return node, reach

    def signed(self, what: str) -> tuple[Fraction, Token]:
        """A rational literal with an optional leading '-', and its token."""
        negative = self.peek().kind == "MINUS"
        if negative:
            self.advance()
        tok = self.expect("RAT", what)
        return (-tok.value if negative else tok.value), tok

    def exponent(self) -> int:
        e, tok = self.signed("integer exponent")
        if e.denominator != 1:
            raise ParseError(f"exponent {tok.text!r} is not an integer", tok.pos)
        if abs(e) > MAX_EXPONENT:
            raise ParseError(f"exponent exceeds {MAX_EXPONENT}", tok.pos)
        return int(e)

    def atom(self, depth):
        tok = self.peek()
        if tok.kind in _LEAVES:
            self.advance()
            return _LEAVES[tok.kind](tok.value), depth + 1
        if tok.kind in ("SQRT", "LPAREN"):
            self.advance()
            if tok.kind == "SQRT":
                self.expect("LPAREN", "'(' after sqrt")
            inner, reach = self.expr(depth + 1)
            self.expect("RPAREN", "')'")
            return (Sqrt(inner) if tok.kind == "SQRT" else inner), reach
        raise ParseError(
            f"expected an atom, got {tok.text or 'end of input'!r}", tok.pos
        )


def parse_expr(text: str):
    """Parse text into an expression tree; the entire input must be
    consumed."""
    parser = _Parser(tokenize(text))
    node = parser.expr(0)[0]
    parser.finish()
    return node


def parse_poly(text: str) -> Polynomial:
    """Parse `[c0, c1, ..., cd]` with rational entries (optional leading
    '-'), constant term first."""
    parser = _Parser(tokenize(text))
    parser.expect("LBRACKET", "'['")
    if parser.peek().kind == "RBRACKET":
        raise ParseError("empty polynomial", parser.peek().pos)
    coeffs = [parser.signed("rational coefficient")[0]]
    while parser.peek().kind == "COMMA":
        parser.advance()
        coeffs.append(parser.signed("rational coefficient")[0])
    parser.expect("RBRACKET", "']' or ','")
    parser.finish()
    return Polynomial(tuple(coeffs))


def eval_expr(node, tower: Tower, bindings=None) -> TowerElement:
    """Evaluate an expression tree to an element of the tower's top level.

    sqrt(e) requires e to already be a square in the tower and is its
    nonnegative root; it never extends the tower.
    """
    if isinstance(node, RationalLiteral):
        return tower.embed(node.value)
    if isinstance(node, GeneratorRef):
        return tower.lift_to(tower.generator(node.index), tower.depth)
    if isinstance(node, Name):
        if bindings is None or node.name not in bindings:
            raise ValueError(f"unknown name {node.name!r}")
        return tower.lift_to(bindings[node.name], tower.depth)
    if isinstance(node, Sqrt):
        root = tower.sqrt(eval_expr(node.child, tower, bindings))
        if root is None:
            raise NotASquareInTower(
                "not a square in the current tower; "
                "use 'adjoin' to extend the tower first"
            )
        return root
    if isinstance(node, Neg):
        return -eval_expr(node.child, tower, bindings)
    if isinstance(node, Pow):
        return tower.power(eval_expr(node.child, tower, bindings), node.exponent)
    if isinstance(node, BinOp):
        left = eval_expr(node.left, tower, bindings)
        right = eval_expr(node.right, tower, bindings)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return tower.mul(left, right)
        return tower.div(left, right)
    raise TypeError(f"not an expression node: {node!r}")
