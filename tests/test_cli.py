import io
import os
import random
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from helpers import random_element, random_tower
from qtower.cli import (
    MAX_PRECISION,
    CommandError,
    Session,
    _format_decimal,
    execute,
    format_element,
    main,
    repl,
    run_batch,
)
from qtower.tower import Tower, TowerElement


def session_with_sqrt2():
    s = Session()
    s, _ = execute(s, "adjoin 2")
    return s


# -- format_element -------------------------------------------------------------


def test_format_element_coords_mode():
    s = session_with_sqrt2()
    s, _ = execute(s, "set mode coords")
    x = TowerElement(1, (Fraction(-16, 23), Fraction(17, 23)))
    assert format_element(x, s) == "[-16/23, 17/23]"


def test_format_element_decimal_mode():
    s = Session(mode="decimal")
    assert format_element(s.tower.embed(Fraction(1, 4)), s) == "0.250000000000000"
    assert format_element(s.tower.embed(0), s) == "0.000000000000000"


def _exact(v):
    return Fraction(*mpmath.libmp.to_rational(v._mpf_))


def _rounds_half_up(text, exact):
    """True when text is exact rounded half up to its 15 significant digits."""
    shown = Decimal(text)
    half_ulp = Fraction(10) ** shown.as_tuple().exponent / 2
    err = abs(Fraction(shown) - exact)
    return len(shown.as_tuple().digits) == 15 and (
        err < half_ulp or (err == half_ulp and abs(Fraction(shown)) > abs(exact))
    )


def test_format_decimal_is_mpmath_at_15_digits():
    # the exact value of each mpf prints as mpmath's nstr prints it, except
    # where nstr is off: it rounds a truncated 18-digit expansion, which can
    # land on the wrong side of a decimal tie
    assert _format_decimal(Fraction(0)) == "0.000000000000000"
    rng = random.Random(5)
    for bits in list(range(1, 65)) + [113, 200, 1000, 4096]:
        with mpmath.workprec(bits):
            for exp10 in range(-40, 41, 4):
                value = mpmath.mpf(rng.randint(1, 10**20)) * mpmath.mpf(10) ** (exp10 - 20)
                for v in (value, -value):
                    text, want = _format_decimal(_exact(v)), mpmath.nstr(v, 15, strip_zeros=False)
                    if text != want:
                        assert _rounds_half_up(text, _exact(v)), (bits, text)
                        assert not _rounds_half_up(want, _exact(v)), (bits, want)


@pytest.mark.parametrize(
    "literal, bits, text",
    [
        ("-9283978771915.635", 256, "-9283978771915.64"),
        ("0.123456789012345500", 113, "0.123456789012346"),
    ],
)
def test_format_decimal_rounds_ties_nstr_misses(literal, bits, text):
    # the mpf lies just beyond the decimal tie, so half up rounds away from
    # zero; nstr, working from an expansion cut short, rounds toward zero
    with mpmath.workprec(bits):
        v = mpmath.mpf(literal)
    exact = _exact(v)
    assert abs(exact) > abs(Fraction(literal))
    assert _format_decimal(exact) == text
    assert _rounds_half_up(text, exact)
    nstr = mpmath.nstr(v, 15, strip_zeros=False)
    assert nstr != text and not _rounds_half_up(nstr, exact)


def test_format_decimal_layout():
    # fixed point for -5 < e < 15, also where rounding carries into the next
    # decade, as nstr lays it out
    for e in range(-8, 19):
        for mantissa in ("1", "9.9999999999999996", "1.23456789012345678", "4.5"):
            with mpmath.workprec(200):
                v = mpmath.mpf(f"-{mantissa}e{e}")
            assert _format_decimal(_exact(v)) == mpmath.nstr(v, 15, strip_zeros=False)
    assert _format_decimal(Fraction(123456789012345)) == "123456789012345."
    assert _format_decimal(Fraction(10**16 - 1)) == "1.00000000000000e+16"
    assert _format_decimal(Fraction(-123, 10**6)) == "-0.000123000000000000"
    assert _format_decimal(Fraction(123, 10**7)) == "1.23000000000000e-5"
    assert _format_decimal(Fraction(1, 3 * 10**400)) == "3.33333333333333e-401"
    assert _format_decimal(Fraction(2) ** 5000).endswith("e+1505")


@pytest.mark.parametrize(
    "e, text",
    [(4, "6.46982078388202e-48"), (8, "4.18585809755517e-95"), (16, "1.75214080128682e-189")],
)
def test_decimal_of_a_cancelling_power_agrees_with_sign(e, text):
    # (sqrt2 - 665857/470832)^e cancels in every fixed working precision
    # below its size; the enclosure widens until the digits are right
    s = replace(session_with_sqrt2(), mode="decimal")
    expr = f"(g1 - 665857/470832)^{e}"
    assert execute(s, f"eval {expr}")[1] == text
    assert execute(s, f"sign {expr}")[1] == "1"


def test_printed_decimal_has_the_exact_sign():
    rng = random.Random(61)
    for depth in (1, 2, 3, 4):
        t = random_tower(rng, depth)
        s = Session(tower=t, mode="decimal")
        for _ in range(15):
            x = random_element(rng, depth, bound=50)
            if rng.random() < 0.5:  # cancel the leading bits
                x = t.power(x - t.embed(t.approx(x, 30)), rng.randint(1, 4))
            for y in (x, -x, x - x):
                text, sign = format_element(y, s), t.exact_sign(y)
                assert text.startswith("-") == (sign < 0)
                assert (text == "0.000000000000000") == (sign == 0)


def test_format_element_both_mode():
    s = session_with_sqrt2()
    assert format_element(s.tower.generator(1), s) == "[0, 1] ≈ 1.41421356237310"


# -- execute ----------------------------------------------------------------------


def test_execute_adjoin_and_eval():
    s = Session()
    s, out = execute(s, "adjoin 2")
    assert s.tower.depth == 1
    assert out == "adjoined g1: g1^2 = [2]; depth 1"
    s, out = execute(s, "eval (3 - sqrt(2)) * sqrt(2) / (sqrt(2) + 5)")
    assert out.startswith("[-16/23, 17/23] ≈ 0.349636")


def test_execute_adjoin_square_error():
    s = Session()
    with pytest.raises(CommandError) as info:
        execute(s, "adjoin 4")
    assert str(info.value) == "NotAProperExtension: 4 is a square (witness 2)"
    assert s.tower.depth == 0  # session unchanged


def test_execute_adjoin_negative_error():
    with pytest.raises(CommandError) as info:
        execute(Session(), "adjoin -2")
    assert str(info.value).startswith("NonRealExtension:")


def test_execute_verdict_double_cube():
    _, out = execute(Session(), "verdict [-2, 0, 0, 1]")
    lines = out.splitlines()
    assert lines[0] == (
        "no root in any quadratic extension tower; "
        "candidates checked: -2, -1, 1, 2 (all nonzero)"
    )
    assert lines[1] == "by: no rational root => no root in any quadratic extension tower"


def test_execute_verdict_rational_root():
    _, out = execute(Session(), "verdict [2, -2, -1, 1]")
    assert out == "rational root found: 1; candidates checked: -2, -1, 1, 2"


def test_execute_rrt_trisect():
    _, out = execute(Session(), "rrt [-1, -6, 0, 8]")
    assert out == "candidates: -1, -1/2, -1/4, -1/8, 1/8, 1/4, 1/2, 1"


def test_execute_roots():
    _, out = execute(Session(), "roots [2, -2, -1, 1]")
    assert out == "rational roots: 1"
    _, out = execute(Session(), "roots [-2, 0, 0, 1]")
    assert out == "rational roots: none"


def test_execute_sign_and_is_square():
    s = session_with_sqrt2()
    _, out = execute(s, "sign 1 - sqrt(2)")
    assert out == "-1"
    _, out = execute(s, "sign 0")
    assert out == "0"
    s2, _ = execute(s, "set mode coords")
    _, out = execute(s2, "is-square 3 + 2 * g1")
    assert out == "square; witness [1, 1]"
    _, out = execute(s2, "is-square 3")
    assert out == "not a square in the current tower"


def test_execute_member():
    s = session_with_sqrt2()
    s, _ = execute(s, "set mode coords")
    _, out = execute(s, "member 5 0")
    assert out == "member of level 0: [5]"
    _, out = execute(s, "member g1 0")
    assert out == "not a member of level 0"


def test_execute_descend():
    s = session_with_sqrt2()
    _, out = execute(s, "descend [2, -2, -1, 1] g1")
    assert out == "rational root: 1"


def test_execute_adjoin_root():
    s = Session()
    s, out = execute(s, "adjoin-root [-2, 0, 1] +")
    assert s.tower.depth == 1
    assert "root bound to 'last'" in out
    _, out = execute(s, "eval last * last")
    assert out.startswith("[2, 0]")
    # the paper-style quadratic over Q(sqrt2), coefficients as expressions
    s, _ = execute(Session(), "adjoin 2")
    s, out = execute(s, "adjoin-root [-1, -g1, 1] +")
    assert s.tower.depth == 2
    assert s.bindings["last"] == TowerElement(
        2, (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(0))
    )


def test_execute_adjoin_root_in_field():
    with pytest.raises(CommandError) as info:
        execute(Session(), "adjoin-root [-9/4, 0, 1] +")
    assert "NotAProperExtension" in str(info.value)
    assert "3/2" in str(info.value)


@pytest.mark.parametrize(
    "command, usage",
    [
        ("adjoin-root [1,2] +", "usage: adjoin-root [c0,c1,c2] (+|-)"),
        ("adjoin-root [1,0,1] x", "usage: adjoin-root [c0,c1,c2] (+|-)"),
        ("descend [2,-2,-1,1]", "usage: descend [c0,c1,c2,c3] <expr>"),
    ],
)
def test_bracket_commands_print_their_usage(command, usage):
    with pytest.raises(CommandError) as info:
        execute(session_with_sqrt2(), command)
    assert str(info.value) == usage


def test_numbers_past_the_digit_limit_are_named_when_written(tmp_path):
    # 2^262144 has 78,914 digits: its sign and decimal are fine, its text is not
    big = "((2^64)^64)^64"
    limit = "ValueError: number exceeds the 4300-digit limit"
    s, s2 = Session(), session_with_sqrt2()
    for session, command in (
        (s, f"eval {big}"),
        (s, f"let a = {big}"),
        (s2, "adjoin ((3^64)^64)^64 + g1"),
    ):
        with pytest.raises(CommandError) as info:
            execute(session, command)
        assert str(info.value) == limit
    assert s == Session() and s2 == session_with_sqrt2()
    assert execute(s, f"sign {big}")[1] == "1"
    decimal, _ = execute(s, "set mode decimal")
    assert execute(decimal, f"eval {big}")[1] == "1.61132571748576e+78913"
    # a square of 6,166 digits reaches the tower only through adjoin-root,
    # and save refuses it before the file is touched
    path = tmp_path / "t.qt"
    execute(s2, f"save {path}")
    before = path.read_bytes()
    big_square, out = execute(s, "adjoin-root [-(((2^64)^64)^5 + 1), 0, 1] +")
    assert out == "adjoined g1; root bound to 'last': [0, 1] ≈ 3.52497141210838e+3082"
    with pytest.raises(CommandError) as info:
        execute(big_square, f"save {path}")
    assert str(info.value) == limit
    assert path.read_bytes() == before


def test_execute_let_and_bindings():
    s = session_with_sqrt2()
    s, out = execute(s, "let a = 1 + g1")
    assert out.startswith("a = [1, 1]")
    _, out = execute(s, "eval a * a")
    assert out.startswith("[3, 2]")
    with pytest.raises(CommandError):
        execute(s, "let g1 = 2")
    with pytest.raises(CommandError):
        execute(s, "let sqrt = 2")
    with pytest.raises(CommandError):
        execute(s, "let a 2")
    # a session holds only elements, and its bindings change only by command
    with pytest.raises(TypeError):
        s.bindings["x"] = 1
    with pytest.raises(ValueError, match="^binding 'x' must be a TowerElement$"):
        Session(bindings={"x": 1})
    with pytest.raises(ValueError, match="^tower must be a Tower$"):
        Session(tower=((2,),))


def test_execute_set():
    s = Session()
    s, out = execute(s, "set precision 64")
    assert out == "precision = 64"
    assert s.precision == 64
    s, out = execute(s, "set mode decimal")
    assert s.mode == "decimal"
    with pytest.raises(CommandError, match="^mode must be one of coords, decimal, both$"):
        execute(s, "set mode loud")
    with pytest.raises(CommandError):
        execute(s, "set precision zero")
    with pytest.raises(CommandError):
        execute(s, "set precision 0")


def test_execute_save_load(tmp_path):
    path = tmp_path / "t.qt"
    s = session_with_sqrt2()
    s, _ = execute(s, "let a = g1")
    s, out = execute(s, f"save {path}")
    assert out == f"saved {path}"
    s2, out = execute(Session(), f"load {path}")
    assert out == f"loaded {path}: depth 1"
    assert s2.tower == s.tower
    assert s2.bindings == {}  # bindings are tower-relative; load resets them


def test_execute_load_invalid(tmp_path):
    path = tmp_path / "bad.qt"
    path.write_text("QTOWER 1\nlevels 1\nsquare 1: 4\n")
    with pytest.raises(CommandError) as info:
        execute(Session(), f"load {path}")
    assert "NotAProperExtension" in str(info.value)


def test_adjoin_and_load_validate_each_level_once(tmp_path, monkeypatch):
    # each level is validated once and rescaled once, when it is added
    calls, rescaled = [], []
    adjoin_sqrt, extended = Tower.adjoin_sqrt, Tower._extended

    def counted(tower, square):
        calls.append(square)
        return adjoin_sqrt(tower, square)

    def counted_extension(tower, square):
        rescaled.append(square)
        return extended(tower, square)

    monkeypatch.setattr(Tower, "adjoin_sqrt", counted)
    monkeypatch.setattr(Tower, "_extended", counted_extension)
    s = Session()
    for square in ("2", "3", "5"):
        s, _ = execute(s, f"adjoin {square}")
    assert len(calls) == len(rescaled) == 3
    path = tmp_path / "t.qt"
    execute(s, f"save {path}")
    calls.clear()
    rescaled.clear()
    loaded, _ = execute(Session(), f"load {path}")
    assert loaded.tower == s.tower
    assert len(calls) == len(rescaled) == 3


def test_execute_errors_and_noise():
    s = Session()
    with pytest.raises(CommandError) as info:
        execute(s, "frobnicate 12")
    assert "unknown command" in str(info.value)
    with pytest.raises(CommandError) as info:
        execute(s, "eval 1 / 0")
    assert str(info.value).startswith("DivisionByZero:")
    with pytest.raises(CommandError) as info:
        execute(s, "eval 3@4")
    assert str(info.value).startswith("ParseError:")
    assert "offset 7" not in str(info.value)  # offsets are expression-relative
    same, out = execute(s, "   ")
    assert same is s and out == ""
    same, out = execute(s, "# comment")
    assert same is s and out == ""
    s = session_with_sqrt2()
    for i in (3, 0):
        with pytest.raises(CommandError) as info:
            execute(s, f"eval g{i}")
        assert str(info.value) == f"LevelMismatch: g{i} does not exist (tower depth 1)"


def test_execute_rejects_non_ascii_digits():
    with pytest.raises(CommandError) as info:
        execute(Session(), "eval ²")
    assert str(info.value) == "ParseError: unexpected character '²' (offset 0)"
    with pytest.raises(CommandError) as info:
        execute(Session(), "verdict [²]")
    assert str(info.value) == "ParseError: unexpected character '²' (offset 1)"


def test_numbers_are_ascii_digits(tmp_path):
    # '٣' (ARABIC-INDIC DIGIT THREE) is a digit to Python's \d and int(),
    # but not to the expression grammar or the tower file format
    with pytest.raises(CommandError) as info:
        execute(Session(), "eval ٣/٤")
    assert str(info.value) == "ParseError: unexpected character '٣' (offset 0)"
    refused = {
        "levels 1\nsquare 1: ٣": "TowerFormatError: square 1: not a rational: '٣'",
        "levels ١\nsquare 1: 3": "TowerFormatError: bad level count: 'levels ١'",
        "levels 0_1\nsquare 1: 3": "TowerFormatError: bad level count: 'levels 0_1'",
        "levels -1": "TowerFormatError: negative level count -1",
        # past Python's int-string limit the message names the limit, not a setting
        f"levels 1\nsquare 1: {'7' * 5000}": (
            "TowerFormatError: square 1: number exceeds the 4300-digit limit"
        ),
    }
    path = tmp_path / "t.qt"
    for body, error in refused.items():
        path.write_text(f"QTOWER 1\n{body}\n", encoding="utf-8")
        with pytest.raises(CommandError) as info:
            execute(Session(), f"load {path}")
        assert str(info.value) == error, body


def test_cli_integers_are_ascii_digits(capsys):
    # int() reads all three; the grammar's integers are ASCII -?[0-9]+
    for value in ("١٢٨", "1_0", "+5"):
        with pytest.raises(CommandError) as info:
            execute(Session(), f"set precision {value}")
        assert str(info.value) == f"not a precision: {value!r}"
    assert execute(Session(), "set precision 64")[1] == "precision = 64"
    with pytest.raises(CommandError) as info:
        execute(session_with_sqrt2(), "member 3 ٠")
    assert str(info.value) == "not a level: '٠'"
    assert execute(session_with_sqrt2(), "member 3 0")[1].startswith("member of level 0: [3]")
    with pytest.raises(SystemExit) as info:
        main(["eval", "--precision", "١٢", "1/3"])
    assert info.value.code == 2
    assert "argument --precision: invalid positive_bits value: '١٢'" in capsys.readouterr().err


def test_inline_comments_in_sessions():
    s = session_with_sqrt2()
    assert execute(s, "eval 1/3 # third") == execute(s, "eval 1/3")
    _, out = execute(s, "adjoin 3  # g2")
    assert out == "adjoined g2: g2^2 = [3, 0]; depth 2"
    out = io.StringIO()
    assert repl(infile=io.StringIO("eval 1/3 # third\nquit # done\neval 2\n"), out=out) == 0
    text = out.getvalue()
    assert "[1/3] ≈ 0.333333333333333" in text
    assert "ParseError" not in text and "[2]" not in text  # quit ended the loop


def test_let_binds_only_names_expressions_can_read():
    s = Session()
    for name, char in (("é", "é"), ("x٣", "٣")):
        with pytest.raises(CommandError) as info:
            execute(s, f"let {name} = 2")
        assert str(info.value).startswith(f"ParseError: unexpected character {char!r}")
    s, _ = execute(s, "let x_3 = 2")
    assert execute(s, "eval x_3 + 1")[1].startswith("[3]")
    for name in ("g1", "g01", "sqrt"):
        with pytest.raises(CommandError) as info:
            execute(s, f"let {name} = 2")
        assert str(info.value) == f"{name!r} is reserved"
    usage = ("let g1 =", "let é =", "let = 2", "let 1x = 2", "let a b = 2", "let a+1 = 2")
    for command in usage:
        with pytest.raises(CommandError) as info:
            execute(s, command)
        assert str(info.value) == "usage: let <name> = <expr>", command


@pytest.mark.parametrize(
    "command",
    [
        "eval " + "(" * 3000 + "1" + ")" * 3000,
        "eval " + "-" * 3000 + "1",
        "eval " + "sqrt(" * 400 + "1" + ")" * 400,
        "eval " + "+".join(["1"] * 3000),
    ],
    ids=["parentheses", "unary-minus", "sqrt", "flat-sum"],
)
def test_execute_refuses_deep_expressions(command):
    with pytest.raises(CommandError) as info:
        execute(session_with_sqrt2(), command)
    assert str(info.value).startswith("ParseError: expression deeper than 100 levels")


def test_execute_help():
    _, out = execute(Session(), "help")
    assert "adjoin" in out and "verdict" in out


# -- batch mode ---------------------------------------------------------------------


def test_run_batch_verdict(tmp_path):
    script = tmp_path / "script.qt"
    script.write_text("verdict [-2,0,0,1]\n")
    out = io.StringIO()
    status = run_batch(script, out=out)
    assert status == 0
    text = out.getvalue()
    assert "> verdict [-2,0,0,1]" in text
    assert "no root in any quadratic extension tower" in text


def test_run_batch_stops_on_error(tmp_path):
    script = tmp_path / "script.qt"
    script.write_text("adjoin 4\neval 1\n")
    out = io.StringIO()
    status = run_batch(script, out=out)
    assert status == 1
    text = out.getvalue()
    assert "NotAProperExtension: 4 is a square (witness 2)" in text
    assert "eval 1" not in text  # stopped at the first error


def test_run_batch_empty_script(tmp_path):
    script = tmp_path / "empty.qt"
    script.write_text("")
    out = io.StringIO()
    assert run_batch(script, out=out) == 0
    assert out.getvalue() == ""


def test_run_batch_quiet_and_deterministic(tmp_path):
    script = tmp_path / "script.qt"
    script.write_text("adjoin 2  # comment\neval sqrt(2)\n\n")
    first, second = io.StringIO(), io.StringIO()
    assert run_batch(script, quiet=True, out=first) == 0
    assert run_batch(script, quiet=True, out=second) == 0
    assert first.getvalue() == second.getvalue()
    assert "> " not in first.getvalue()


def test_run_batch_missing_script(tmp_path):
    assert run_batch(tmp_path / "absent.qt", out=io.StringIO()) == 2


def test_run_batch_bad_tower_preload(tmp_path):
    script = tmp_path / "script.qt"
    script.write_text("eval 1\n")
    bad = tmp_path / "bad.qt"
    bad.write_text("QTOWER 1\nlevels 1\nsquare 1: 4\n")
    assert run_batch(script, tower_path=bad, out=io.StringIO()) == 2
    assert run_batch(script, tower_path=tmp_path / "nope.qt", out=io.StringIO()) == 2


@pytest.mark.parametrize("precision", [0, -3, 2.5, "113", True])
def test_library_sessions_refuse_non_positive_precision(tmp_path, capsys, precision):
    with pytest.raises(ValueError, match="^precision must be a positive number of bits$"):
        Session(precision=precision)
    with pytest.raises(ValueError, match="^precision must be a positive number of bits$"):
        replace(Session(), precision=precision)
    script = tmp_path / "script.qt"
    script.write_text("eval 1/3\n")
    out = io.StringIO()
    assert run_batch(script, precision=precision, out=out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err == (
        "cannot start session: precision must be a positive number of bits\n"
    )


def test_library_sessions_refuse_unknown_mode(tmp_path, capsys):
    message = "mode must be one of coords, decimal, both"
    with pytest.raises(ValueError, match=f"^{message}$"):
        Session(mode="bogus")
    with pytest.raises(ValueError, match=f"^{message}$"):
        replace(Session(), mode="bogus")
    script = tmp_path / "script.qt"
    script.write_text("eval 1/3\n")
    out = io.StringIO()
    assert run_batch(script, mode="bogus", out=out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err == f"cannot start session: {message}\n"


def test_precision_is_capped(tmp_path, capsys):
    message = f"precision exceeds {MAX_PRECISION} bits"
    with pytest.raises(ValueError, match=f"^{message}$"):
        Session(precision=10**6)
    s = Session()
    with pytest.raises(FrozenInstanceError):
        s.precision = 10**6
    assert s.precision == 113
    with pytest.raises(CommandError, match=f"^{message}$"):
        execute(Session(), "set precision 1000000")
    script = tmp_path / "script.qt"
    script.write_text("eval 1/3\n")
    assert run_batch(script, precision=10**6, out=io.StringIO()) == 2
    assert capsys.readouterr().err == f"cannot start session: {message}\n"
    with pytest.raises(SystemExit) as info:
        main(["eval", "--precision", "1000000", "1/3"])
    assert info.value.code == 2
    assert "argument --precision: invalid positive_bits value: '1000000'" in capsys.readouterr().err
    s, out = execute(Session(), f"set precision {MAX_PRECISION}")
    assert out == f"precision = {MAX_PRECISION}"
    s, out = execute(s, "set precision 4096")
    assert out == "precision = 4096"
    s, out = execute(s, "adjoin 2")
    assert execute(s, "eval 1/g1")[1] == "[0, 1/2] ≈ 0.707106781186548"


def test_run_batch_with_tower_and_flags(tmp_path):
    towerfile = tmp_path / "t.qt"
    towerfile.write_text("QTOWER 1\nlevels 1\nsquare 1: 2\n")
    script = tmp_path / "script.qt"
    script.write_text("eval g1\n")
    out = io.StringIO()
    status = run_batch(script, tower_path=towerfile, mode="coords", out=out)
    assert status == 0
    assert "[0, 1]" in out.getvalue()


# -- repl -------------------------------------------------------------------------


def test_repl_handles_errors_and_quit():
    infile = io.StringIO("adjoin 4\nadjoin 2\neval g1\nquit\n")
    out = io.StringIO()
    assert repl(infile=infile, out=out) == 0
    text = out.getvalue()
    assert "NotAProperExtension" in text  # error did not end the loop
    assert "adjoined g1" in text
    assert "1.41421356237310" in text


def test_repl_eof_exits():
    assert repl(infile=io.StringIO(""), out=io.StringIO()) == 0


def test_main_repl_reads_stdin_until_quit(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("quit\n"))
    assert main(["repl"]) == 0
    assert capsys.readouterr().out.endswith("qtower> ")


def test_main_repl_with_a_missing_tower_file(tmp_path, capsys):
    missing = tmp_path / "absent.qt"
    assert main(["repl", "--tower", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot load tower: ")
    assert str(missing) in captured.err


# -- main --------------------------------------------------------------------------


def test_main_verdict(capsys):
    assert main(["verdict", "[-2, 0, 0, 1]"]) == 0
    captured = capsys.readouterr()
    assert "no root in any quadratic extension tower" in captured.out


def test_main_rrt(capsys):
    assert main(["rrt", "[-1,-6,0,8]"]) == 0
    assert "candidates: -1, -1/2, -1/4, -1/8, 1/8, 1/4, 1/2, 1" in capsys.readouterr().out


# recorded from the trial-division `divisors`; factoring must not change a byte
TRANSCRIPTS_NEAR_10_12 = [
    (
        ["verdict", "[-999962000357,999979,-999983,1]"],  # (x - 999983)(x^2 + 999979)
        "rational root found: 999983; candidates checked: -999962000357, -999983, "
        "-999979, -1, 1, 999979, 999983, 999962000357\n",
    ),
    (
        ["verdict", "[999999999989,1,0,6]"],
        "no root in any quadratic extension tower; candidates checked: -999999999989, "
        "-999999999989/2, -999999999989/3, -999999999989/6, -1, -1/2, -1/3, -1/6, 1/6, "
        "1/3, 1/2, 1, 999999999989/6, 999999999989/3, 999999999989/2, 999999999989 "
        "(all nonzero)\nby: no rational root => no root in any quadratic extension tower\n",
    ),
    (
        ["rrt", "[-999966000289,0,0,12]"],  # 999983^2
        "candidates: -999966000289, -999966000289/2, -999966000289/3, -999966000289/4, "
        "-999966000289/6, -999966000289/12, -999983, -999983/2, -999983/3, -999983/4, "
        "-999983/6, -999983/12, -1, -1/2, -1/3, -1/4, -1/6, -1/12, 1/12, 1/6, 1/4, 1/3, "
        "1/2, 1, 999983/12, 999983/6, 999983/4, 999983/3, 999983/2, 999983, "
        "999966000289/12, 999966000289/6, 999966000289/4, 999966000289/3, "
        "999966000289/2, 999966000289\n",
    ),
]


@pytest.mark.parametrize(
    "argv, expected", TRANSCRIPTS_NEAR_10_12, ids=["verdict-root", "verdict-no-root", "rrt"]
)
def test_main_transcripts_near_10_12(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_main_bad_poly(capsys):
    assert main(["verdict", "[1, 2]"]) == 1
    assert "ValueError" in capsys.readouterr().err


def test_main_eval_with_tower(tmp_path, capsys):
    towerfile = tmp_path / "t.qt"
    towerfile.write_text("QTOWER 1\nlevels 1\nsquare 1: 2\n")
    assert main(["eval", "--tower", str(towerfile), "--mode", "coords", "sqrt(2) + 1"]) == 0
    assert capsys.readouterr().out.strip() == "[1, 1]"


@pytest.mark.parametrize("value", ["0", "-3"])
def test_main_refuses_non_positive_precision(tmp_path, capsys, value):
    script = tmp_path / "s.qts"
    script.write_text("eval 1/3\n")
    for argv in (
        ["run", "--precision", value, str(script)],
        ["repl", "--precision", value],
        ["eval", "--precision", value, "1/3"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --precision: invalid positive_bits value: '{value}'" in err


def test_main_run(tmp_path, capsys):
    script = tmp_path / "s.qt"
    script.write_text("rrt [-2,0,0,1]\n")
    assert main(["run", str(script)]) == 0
    assert "candidates: -2, -1, 1, 2" in capsys.readouterr().out


def test_cli_imports_no_test_only_package():
    # sympy, hypothesis and mpmath are test oracles (the `test` extra), never
    # runtime imports, not even to render a decimal
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, qtower.cli as cli; "
        "print(cli.execute(cli.Session(mode='decimal'), 'eval 1/3')[1]); "
        "print(sorted({m.partition('.')[0] for m in sys.modules}"
        " & {'sympy', 'hypothesis', 'mpmath'}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "0.333333333333333\n[]\n"
