"""The README's code runs as written."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first ``python`` block under the README's "## Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [len(line.split()) for line in lines] == [1, 1, 2]
    values = [float(x) for line in lines for x in line.split()]
    assert values == pytest.approx([3.5, 3.5, 3.5, 3.5], abs=1e-9)
