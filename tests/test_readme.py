"""The README's Library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block in the README's Library section"
    return match.group(1)


def test_readme_library_block_runs():
    exec(compile(library_block(), "README.md (Library)", "exec"), {})
