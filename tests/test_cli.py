import io
import random
import re
from fractions import Fraction

import mpmath
import pytest

from qtower.cli import (
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


def test_format_decimal_is_mpmath_at_15_digits():
    # nstr rounds the mantissa to exactly 15 digits and always writes a '.',
    # at any working precision and magnitude; a format change must fail here
    assert _format_decimal(mpmath.mpf(0)) == "0.000000000000000"
    shape = re.compile(r"-?(\d+)\.(\d*)(e[+-]\d+)?$")
    rng = random.Random(5)
    for bits in list(range(1, 65)) + [113, 200, 1000, 4096]:
        with mpmath.workprec(bits):
            for exp10 in range(-40, 41, 4):
                value = mpmath.mpf(rng.randint(1, 10**20)) * mpmath.mpf(10) ** (exp10 - 20)
                for v in (value, -value):
                    text = _format_decimal(v)
                    m = shape.match(text)
                    assert m, (bits, text)
                    assert len((m.group(1) + m.group(2)).lstrip("0")) == 15, (bits, text)


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


def test_execute_set():
    s = Session()
    s, out = execute(s, "set precision 64")
    assert out == "precision = 64"
    assert s.precision == 64
    s, out = execute(s, "set mode decimal")
    assert s.mode == "decimal"
    with pytest.raises(CommandError):
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
    calls = []
    adjoin_sqrt = Tower.adjoin_sqrt

    def counted(tower, square):
        calls.append(square)
        return adjoin_sqrt(tower, square)

    monkeypatch.setattr(Tower, "adjoin_sqrt", counted)
    s = Session()
    for square in ("2", "3", "5"):
        s, _ = execute(s, f"adjoin {square}")
    assert len(calls) == 3
    path = tmp_path / "t.qt"
    execute(s, f"save {path}")
    calls.clear()
    loaded, _ = execute(Session(), f"load {path}")
    assert loaded.tower == s.tower
    assert len(calls) == 3


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
    }
    path = tmp_path / "t.qt"
    for body, error in refused.items():
        path.write_text(f"QTOWER 1\n{body}\n", encoding="utf-8")
        with pytest.raises(CommandError) as info:
            execute(Session(), f"load {path}")
        assert str(info.value) == error, body


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


# -- main --------------------------------------------------------------------------


def test_main_verdict(capsys):
    assert main(["verdict", "[-2, 0, 0, 1]"]) == 0
    captured = capsys.readouterr()
    assert "no root in any quadratic extension tower" in captured.out


def test_main_rrt(capsys):
    assert main(["rrt", "[-1,-6,0,8]"]) == 0
    assert "candidates: -1, -1/2, -1/4, -1/8, 1/8, 1/4, 1/2, 1" in capsys.readouterr().out


def test_main_bad_poly(capsys):
    assert main(["verdict", "[1, 2]"]) == 1
    assert "ValueError" in capsys.readouterr().err


def test_main_eval_with_tower(tmp_path, capsys):
    towerfile = tmp_path / "t.qt"
    towerfile.write_text("QTOWER 1\nlevels 1\nsquare 1: 2\n")
    assert main(["eval", "--tower", str(towerfile), "--mode", "coords", "sqrt(2) + 1"]) == 0
    assert capsys.readouterr().out.strip() == "[1, 1]"


def test_main_run(tmp_path, capsys):
    script = tmp_path / "s.qt"
    script.write_text("rrt [-2,0,0,1]\n")
    assert main(["run", str(script)]) == 0
    assert "candidates: -2, -1, 1, 2" in capsys.readouterr().out
