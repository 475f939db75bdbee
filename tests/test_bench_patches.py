"""The benchmark's tracer (``bench/tracing.py``) times the package by
replacing module attributes by name and reads sizes from the values they
return, so a refactor that drops or renames one of them breaks
``bench/run.py --trace 1``.  These tests read its ``PATCHES`` table, then
load the tracer by path and run it over small commands; no other
benchmark code runs."""

import ast
import importlib
import importlib.util
import pathlib
import sys

import pytest

from gurevich import automaton_to_document, pair_cost_to_document, save_document
from gurevich.cli import main

from conftest import linlen_doc

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def patched_names() -> list[tuple[str, str]]:
    """(module, attribute) of every entry of ``PATCHES``."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["PATCHES"]:
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"{TRACING} defines no PATCHES")


def test_patches_table_is_read():
    assert len(patched_names()) > 10


@pytest.mark.parametrize("module, attr", patched_names())
def test_patched_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def load_tracing(monkeypatch):
    """``bench/tracing.py`` as a module, registered for the test only
    (its dataclasses look their module up in ``sys.modules``)."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_sizes_are_read(
    tmp_path, capsys, monkeypatch, branchy_nfa, dna_m1, dna_m2, ab_star, u_ab
):
    """One small command per subcommand under the tracer: every size
    callback must find the views it reads (``states``, ``transitions``)."""
    tracing = load_tracing(monkeypatch)

    def write(name, doc):
        path = str(tmp_path / name)
        save_document(path, doc)
        return path

    branchy = write("branchy.json", automaton_to_document(branchy_nfa))
    commands = [
        ["energy", branchy],
        ["nondet", "--exact", branchy],
        ["similarity", write("m1.json", automaton_to_document(dna_m1)),
         write("m2.json", automaton_to_document(dna_m2))],
        ["implement", write("ab.json", automaton_to_document(ab_star)),
         write("u.json", pair_cost_to_document(u_ab)), str(tmp_path / "impl.json")],
        ["oracle", "--kind", "accepting-runs", "--max-n", "12", branchy],
        ["linlen", write("linlen.json", linlen_doc())],
    ]
    recorder = tracing.Recorder()
    with recorder.installed():
        for argv in commands:
            assert main(argv) == 0, argv
    capsys.readouterr()
    totals = tracing.pass_totals(recorder.spans)
    for key in (
        "energy.components",
        "automata.product_states",
        "automata.product_transitions",
        "automata.determinize_states",
        "langcost.implement_states",
        "linlen.block_states",
        "oracle.dp_steps",
    ):
        assert totals[key] > 0, key
