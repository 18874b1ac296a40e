"""qtower command line: tower sessions, a REPL, and one-shot queries.

Subcommands: repl, run <script>, verdict <poly>, rrt <poly>,
eval [--tower FILE] <expr>. Exit statuses: 0 success, 1 command or
domain error, 2 I/O or file-format error.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context
from fractions import Fraction
from types import MappingProxyType

from .errors import QTowerError
from .exactnum import parse_integer, rationals_text
from .parser import eval_expr, parse_expr, parse_poly, tokenize
from .poly import (
    Outcome,
    constructible_root_verdict,
    descend_cubic_root,
    rational_roots_cubic,
    rrt_candidates,
)
from .tower import Tower, TowerElement, format_coords, load_tower, save_tower, strip_comment

MODES = ("coords", "decimal", "both")
MAX_PRECISION = 65536  # bits; a depth-6 decimal still renders in well under a second

_DECIMAL = Context(prec=15, rounding=ROUND_HALF_UP, Emax=MAX_EMAX, Emin=MIN_EMIN)

HELP_TEXT = f"""\
commands:
  adjoin <expr>              extend the tower by sqrt(<expr>)
  adjoin-root [c0,c1,c2] +|- extend by a root of a quadratic; binds 'last'
  eval <expr>                evaluate in the top field
  sign <expr>                exact sign: -1, 0 or 1
  is-square <expr>           exact square test with witness
  member <expr> <level>      project down to <level> if possible
  rrt [c0,c1,c2,c3]          rational-root candidates of a cubic
  roots [c0,c1,c2,c3]        rational roots of a cubic
  verdict [c0,c1,c2,c3]      constructibility verdict for a cubic
  descend [c0,c1,c2,c3] <e>  walk a tower root of a cubic down to Q
  let <name> = <expr>        bind a name (generators are g1, g2, ...)
  set precision <bits>       approximation precision (default 113, at most {MAX_PRECISION})
  set mode <coords|decimal|both>
  save <path> / load <path>  tower file persistence
note: unary minus binds tighter than * and / but looser than ^,
so -2^2 evaluates to -(2^2)."""


class CommandError(Exception):
    """A failed command, fully rendered; the session is unchanged."""


@dataclass(frozen=True)
class Session:
    tower: Tower = field(default_factory=Tower)
    bindings: MappingProxyType = field(default_factory=dict)  # read-only once checked
    precision: int = 113
    mode: str = "both"

    def __post_init__(self):
        # the one check of a session, for the command line and library callers alike
        if not isinstance(self.tower, Tower):
            raise ValueError("tower must be a Tower")
        for name, value in self.bindings.items():
            if not isinstance(value, TowerElement):
                raise ValueError(f"binding {name!r} must be a TowerElement")
        object.__setattr__(self, "bindings", MappingProxyType(dict(self.bindings)))
        if type(self.precision) is not int or self.precision < 1:
            raise ValueError("precision must be a positive number of bits")
        if self.precision > MAX_PRECISION:
            raise ValueError(f"precision exceeds {MAX_PRECISION} bits")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {', '.join(MODES)}")


def positive_bits(text: str) -> int:
    """Precision bits, a positive ASCII integer; argparse names it in errors."""
    try:
        bits = parse_integer(text)
    except ValueError:
        raise ValueError(f"not a precision: {text!r}") from None
    return Session(precision=bits).precision  # Session checks the value


def _format_decimal(value: Fraction) -> str:
    """15 significant digits, rounded half up, trailing zeros kept: fixed
    point for decimal exponents -5 < e < 15, else d.dddde+N, as mpmath's
    nstr lays them out."""
    if value == 0:
        return "0.000000000000000"
    n, d = abs(value.numerator), value.denominator
    # |value| cut to q*10^-s, q of at least 17 digits: every tie lies on a
    # multiple of 10^-s, so half up rounds q*10^-s as it rounds |value|
    s = 18 - (n.bit_length() - d.bit_length()) * 30103 // 100000
    q = n * 10**s // d if s >= 0 else n // (d * 10**-s)
    sign = "-" if value < 0 else ""
    rounded = _DECIMAL.create_decimal(f"{sign}{q}e{-s}")
    e = rounded.adjusted()
    if not -5 < e < 15:
        return f"{rounded:e}"
    return f"{rounded:f}" + ("." if e == 14 else "")


def format_element(x: TowerElement, session: Session) -> str:
    """Render per the session's output mode and precision."""
    if session.mode == "coords":
        return format_coords(x.coords)
    decimal = _format_decimal(session.tower.approx(x, session.precision))
    if session.mode == "decimal":
        return decimal
    return f"{format_coords(x.coords)} ≈ {decimal}"


def _eval(session: Session, text: str) -> TowerElement:
    return eval_expr(parse_expr(text), session.tower, session.bindings)


def _split_bracket(rest: str, usage: str):
    close = rest.find("]")
    if close < 0 or not rest.lstrip().startswith("["):
        raise CommandError(f"usage: {usage}")
    return rest[: close + 1], rest[close + 1 :].strip()


def _dispatch(session: Session, line: str) -> tuple[Session, str]:
    word, _, rest = line.partition(" ")
    rest = rest.strip()

    if word == "help":
        return session, HELP_TEXT

    if word == "adjoin":
        if not rest:
            raise CommandError("usage: adjoin <expr>")
        square = _eval(session, rest)
        tower = session.tower.adjoin_sqrt(square)
        k = tower.depth
        return (
            replace(session, tower=tower),
            f"adjoined g{k}: g{k}^2 = {format_coords(square.coords)}; depth {k}",
        )

    if word == "adjoin-root":
        usage = "adjoin-root [c0,c1,c2] (+|-)"
        bracket, branch = _split_bracket(rest, usage)
        if branch not in ("+", "-"):
            raise CommandError(f"usage: {usage}")
        entries = [e.strip() for e in bracket.strip()[1:-1].split(",")]
        if len(entries) != 3 or not all(entries):
            raise CommandError(f"usage: {usage}")
        coeffs = tuple(_eval(session, e) for e in entries)
        tower, root = session.tower.adjoin_quadratic_root(coeffs, branch)
        new = replace(session, tower=tower, bindings={**session.bindings, "last": root})
        k = tower.depth
        return new, f"adjoined g{k}; root bound to 'last': {format_element(root, new)}"

    if word == "eval":
        if not rest:
            raise CommandError("usage: eval <expr>")
        return session, format_element(_eval(session, rest), session)

    if word == "sign":
        if not rest:
            raise CommandError("usage: sign <expr>")
        return session, str(session.tower.exact_sign(_eval(session, rest)))

    if word == "is-square":
        if not rest:
            raise CommandError("usage: is-square <expr>")
        witness = session.tower.sqrt(_eval(session, rest))
        if witness is None:
            return session, "not a square in the current tower"
        return session, f"square; witness {format_element(witness, session)}"

    if word == "member":
        parts = rest.rsplit(None, 1)
        if len(parts) != 2:
            raise CommandError("usage: member <expr> <level>")
        try:
            level = parse_integer(parts[1])
        except ValueError:
            raise CommandError(f"not a level: {parts[1]!r}") from None
        projected = session.tower.member_of_level(_eval(session, parts[0]), level)
        if projected is None:
            return session, f"not a member of level {level}"
        return session, f"member of level {level}: {format_element(projected, session)}"

    if word == "rrt":
        return session, "candidates: " + rationals_text(rrt_candidates(parse_poly(rest)))

    if word == "roots":
        roots = rational_roots_cubic(parse_poly(rest))
        return session, "rational roots: " + (rationals_text(roots) if roots else "none")

    if word == "verdict":
        verdict = constructible_root_verdict(parse_poly(rest))
        phrase = verdict.outcome.value
        shown = rationals_text(verdict.candidates_checked)
        if verdict.outcome is Outcome.RATIONAL_ROOT_FOUND:
            return session, f"{phrase}: {verdict.root}; candidates checked: {shown}"
        return session, (
            f"{phrase}; candidates checked: {shown} (all nonzero)\n"
            f"by: no rational root => {phrase}"
        )

    if word == "descend":
        bracket, expr = _split_bracket(rest, "descend [c0,c1,c2,c3] <expr>")
        if not expr:
            raise CommandError("usage: descend [c0,c1,c2,c3] <expr>")
        cubic = parse_poly(bracket)
        root = descend_cubic_root(cubic, session.tower, _eval(session, expr))
        return session, f"rational root: {root}"

    if word == "save":
        if not rest:
            raise CommandError("usage: save <path>")
        save_tower(session.tower, rest)
        return session, f"saved {rest}"

    if word == "load":
        if not rest:
            raise CommandError("usage: load <path>")
        tower = load_tower(rest)
        return replace(session, tower=tower, bindings={}), f"loaded {rest}: depth {tower.depth}"

    if word == "set":
        key, _, value = rest.partition(" ")
        value = value.strip()
        try:
            if key == "precision":
                bits = positive_bits(value)
                return replace(session, precision=bits), f"precision = {bits}"
            if key == "mode":
                return replace(session, mode=value), f"mode = {value}"
        except ValueError as exc:  # Session's own message, without its class name
            raise CommandError(str(exc)) from None
        raise CommandError("usage: set precision <bits> | set mode <coords|decimal|both>")

    if word == "let":
        name, eq, expr = rest.partition("=")
        name = name.strip()
        expr = expr.strip()
        # a name is what the parser reads as one NAME token
        kinds = [tok.kind for tok in tokenize(name)] if eq and expr else []
        if kinds[1:] != ["EOF"] or kinds[0] not in ("NAME", "SQRT", "GEN"):
            raise CommandError("usage: let <name> = <expr>")
        if kinds[0] != "NAME":
            raise CommandError(f"{name!r} is reserved")
        value = _eval(session, expr)
        new = replace(session, bindings={**session.bindings, name: value})
        return new, f"{name} = {format_element(value, new)}"

    raise CommandError(f"unknown command {word!r}; try 'help'")


def execute(session: Session, command: str) -> tuple[Session, str]:
    """Run one command; returns the next session and the rendered output.

    Failures raise CommandError with the underlying error rendered by
    name; the input session is never modified."""
    stripped = strip_comment(command)
    if not stripped:
        return session, ""
    try:
        return _dispatch(session, stripped)
    except (QTowerError, ValueError, OSError) as exc:
        raise CommandError(f"{type(exc).__name__}: {exc}") from exc


def run_batch(
    script_path,
    tower_path=None,
    precision=None,
    mode=None,
    quiet=False,
    out=None,
) -> int:
    """Execute a script of newline-separated commands, echoing each with
    its output (--quiet drops the echo). Stops at the first error."""
    out = sys.stdout if out is None else out
    try:
        with open(script_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read script: {exc}", file=sys.stderr)
        return 2
    session, status = _initial_session(tower_path, precision, mode)
    if session is None:
        return status
    for line in filter(None, map(strip_comment, text.splitlines())):
        if not quiet:
            print(f"> {line}", file=out)
        try:
            session, output = execute(session, line)
        except CommandError as exc:
            print(str(exc), file=out)
            return 1
        if output:
            print(output, file=out)
    return 0


def _initial_session(tower_path, precision, mode):
    options = {"precision": precision, "mode": mode}
    try:
        session = Session(**{key: value for key, value in options.items() if value is not None})
    except ValueError as exc:
        print(f"cannot start session: {exc}", file=sys.stderr)
        return None, 2
    if tower_path is not None:
        try:
            session = replace(session, tower=load_tower(tower_path))
        except (OSError, QTowerError) as exc:
            print(f"cannot load tower: {exc}", file=sys.stderr)
            return None, 2
    return session, 0


def repl(session: Session | None = None, infile=None, out=None) -> int:
    session = Session() if session is None else session
    infile = sys.stdin if infile is None else infile
    out = sys.stdout if out is None else out
    print("qtower: exact arithmetic in towers of real quadratic extensions.", file=out)
    print("Type 'help' for commands, 'quit' to leave.", file=out)
    while True:
        print("qtower> ", end="", file=out, flush=True)
        line = infile.readline()
        if not line:
            print("", file=out)
            return 0
        line = strip_comment(line)
        if line in ("quit", "exit"):
            return 0
        try:
            session, output = execute(session, line)
        except CommandError as exc:
            print(str(exc), file=out)
            continue
        if output:
            print(output, file=out)


def _one_shot(command: str, session: Session | None = None) -> int:
    session = Session() if session is None else session
    try:
        _, output = execute(session, command)
    except CommandError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(output)
    return 0


def main(argv=None) -> int:
    import argparse  # only the command line needs it, not sessions or the REPL loop

    parser = argparse.ArgumentParser(
        prog="qtower",
        description="Exact arithmetic in towers of real quadratic field "
        "extensions, with constructibility verdicts for rational cubics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_repl = sub.add_parser("repl", help="interactive session")
    p_run = sub.add_parser("run", help="run a command script")
    p_run.add_argument("script")
    p_run.add_argument("--quiet", action="store_true", help="do not echo commands")
    p_verdict = sub.add_parser("verdict", help="constructibility verdict for a cubic")
    p_verdict.add_argument("poly", help="e.g. '[-2, 0, 0, 1]' for x^3 - 2")
    p_rrt = sub.add_parser("rrt", help="rational-root candidates of a cubic")
    p_rrt.add_argument("poly")
    p_eval = sub.add_parser("eval", help="evaluate one expression")
    p_eval.add_argument("expr")
    for p in (p_repl, p_run, p_eval):
        p.add_argument("--tower", help="tower file to preload")
        p.add_argument("--precision", type=positive_bits, help="approximation bits (default 113)")
        p.add_argument("--mode", choices=MODES, help="output mode (default both)")

    args = parser.parse_args(argv)

    if args.command in ("verdict", "rrt"):
        return _one_shot(f"{args.command} {args.poly}")
    if args.command == "run":
        return run_batch(args.script, args.tower, args.precision, args.mode, args.quiet)
    session, status = _initial_session(args.tower, args.precision, args.mode)
    if session is None:
        return status
    if args.command == "repl":
        return repl(session)
    return _one_shot(f"eval {args.expr}", session)


if __name__ == "__main__":
    sys.exit(main())
