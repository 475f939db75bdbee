"""The benchmark's tracer (``bench/tracing.py``) times the package by
replacing module attributes by name, so a refactor that drops or renames
one of them breaks ``bench/run.py --trace 1``.  These tests read its
``PATCHES`` table without running any benchmark code."""

import ast
import importlib
import pathlib

import pytest

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
