"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    """The first Python block under the README's "## Library" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_library_example_runs_as_written(capsys):
    exec(compile(library_block(), str(README), "exec"), {"__name__": "readme"})
    # the block ends by printing the report's max relative residual
    assert float(capsys.readouterr().out.strip().splitlines()[-1]) < 1e-6
