"""The README's code runs as written, and its CLI sessions print what it shows."""

import pathlib
import re
import shlex

import pytest

from gurevich import automaton_to_document, pair_cost_to_document, save_document
from gurevich.cli import main

from conftest import aut, linlen_doc

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


def transcripts() -> list[str]:
    """The README's fenced ``$ gurevich`` sessions in text mode; the
    ``--json`` ones elide their output and are left out."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(\$ gurevich .*?)^```$", text, re.S | re.M)
    return [block for block in blocks if "--json" not in block]


@pytest.mark.parametrize("block", transcripts(), ids=lambda block: block.split("\n", 1)[0][2:])
def test_cli_transcript(
    block, tmp_path, monkeypatch, capsys, branchy_nfa, dna_m1, dna_m2, ab_star, u_ab
):
    two_cycle = aut(["a", "b"], ["B", "C"], "B", ["B"], [("B", "b", "C", 2.0), ("C", "a", "B", 5.0)])
    documents = {
        "two_cycle.json": automaton_to_document(two_cycle),
        "branchy.json": automaton_to_document(branchy_nfa),
        "m1.json": automaton_to_document(dna_m1),
        "m2.json": automaton_to_document(dna_m2),
        "ab_cycle.json": automaton_to_document(ab_star),
        "u.json": pair_cost_to_document(u_ab),
        "linlen.json": linlen_doc(),
    }
    for name, doc in documents.items():
        save_document(str(tmp_path / name), doc)
    monkeypatch.chdir(tmp_path)
    # each session starts at a "$ " line; the lines up to the next are its output
    for session in re.split(r"^\$ ", block, flags=re.M)[1:]:
        command, *want = session.rstrip("\n").split("\n")
        program, *argv = shlex.split(command)
        assert program == "gurevich"
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == want
