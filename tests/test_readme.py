"""The README's examples run against the current code: the Library block
executes, and the REPL transcript replays byte for byte."""

import re
from pathlib import Path

from qtower.cli import Session, execute

README = Path(__file__).resolve().parents[1] / "README.md"
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
    exec(compile(library_block(), "README.md (Library)", "exec"), {})


def test_readme_repl_transcript_replays():
    session = Session()
    transcript = repl_transcript()
    assert len(transcript) == 6
    for command, documented in transcript:
        session, output = execute(session, command)
        assert output == documented, command
