"""The README's examples and claims hold for the current code: the Library
block executes and gives the results its comments state, the REPL
transcript replays byte for byte, the command list agrees with `help` and
with the commands the session dispatches, and importing qtower loads
nothing outside the standard library."""

import inspect
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from qtower import cli
from qtower.cli import HELP_TEXT, CommandError, Session, execute
from qtower.poly import Outcome

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PROMPT = "qtower> "


def library_block():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block in the README's Library section"
    return match.group(1)


def repl_transcript():
    """The README's REPL session as (command, output) pairs."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(rf"^```\n({PROMPT}.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1, "expected one REPL session block in the README"
    pairs = []
    for line in blocks[0].splitlines():
        if line.startswith(PROMPT):
            pairs.append((line[len(PROMPT):], []))
        else:
            pairs[-1][1].append(line)
    return [(command, "\n".join(lines)) for command, lines in pairs]


def test_readme_library_block_runs():
    block = library_block()
    namespace = {}
    exec(compile(block, "README.md (Library)", "exec"), namespace)
    # every expression statement of the block, by its source text
    results = {}
    for line in block.splitlines():
        code = line.partition("#")[0].strip()
        if code and not code.startswith(("from ", "import ")) and " = " not in code:
            results[code] = eval(code, namespace)
    t, g = namespace["t"], namespace["g"]
    one = t.one()
    assert results == {
        "x.coords": (Fraction(-16, 23), Fraction(17, 23)),
        "t.exact_sign(t.embed(1) - g)": -1,
        "t.is_square(t.embed(2))": g,
        "t.sqrt(t.embed(3) - g.scale(2))": g - one,
        "poly_eval(Polynomial((-2, 0, 1)), g, t).is_zero": True,
        "t.approx(g, 10)": Fraction(181, 128),
        "constructible_root_verdict(Polynomial((-2, 0, 0, 1))).outcome": (
            Outcome.NO_ROOT_IN_ANY_TOWER
        ),
    }
    assert t.is_square(t.embed(3) - g.scale(2)) == one - g
    # the comments name these results
    for text in ("# (Fraction(-16, 23), Fraction(17, 23))", "# -1,", "witness g1", "# g1 - 1,",
                 "is_square gives 1 - g1", "# True", "# Fraction(181, 128)",
                 "# Outcome.NO_ROOT_IN_ANY_TOWER"):
        assert text in block, text


def test_readme_repl_transcript_replays():
    session = Session()
    transcript = repl_transcript()
    assert len(transcript) == 6
    for command, documented in transcript:
        session, output = execute(session, command)
        assert output == documented, command


def help_commands():
    """The command words HELP_TEXT lists: the first word of each indented
    line and of each alternative after ' / '."""
    return {
        usage.split()[0]
        for line in HELP_TEXT.splitlines()
        if line.startswith("  ")
        for usage in line.split(" / ")
    }


def readme_commands():
    """The first word of each item in the README's `Commands:` list."""
    text = README.read_text(encoding="utf-8")
    listed = text.split("\nCommands: ", 1)[1].split(".\n", 1)[0]
    return {item.split()[0] for item in re.findall(r"`([^`]+)`", listed)}


def test_help_readme_and_dispatch_name_the_same_commands():
    commands = help_commands() | {"help"}  # help does not list itself
    assert len(commands) == 15
    assert readme_commands() == commands
    dispatched = re.findall(r'word == "([a-z-]+)"', inspect.getsource(cli._dispatch))
    assert set(dispatched) == commands
    for word in commands:
        # a bare command word gets its own reply or usage error, never "unknown"
        try:
            execute(Session(), word)
        except CommandError as exc:
            assert "unknown command" not in str(exc), word


def test_qtower_has_no_runtime_dependency():
    # modules loaded before the import (site .pth hooks) are not its doing;
    # dataclasses and inspect are stdlib, but they double qtower's set-up time
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qtower, qtower.cli\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names)))\n"
        "print(sorted(loaded & {'dataclasses', 'inspect'}))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split("\n") == ["['qtower']", "[]", ""]
