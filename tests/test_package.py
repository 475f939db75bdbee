"""The package's public names are exactly its modules' ``__all__`` lists,
each declared once, in the module that defines it."""

import importlib
import os
import subprocess
import sys

import pytest

import gurevich

MODULES = [
    "automata",
    "documents",
    "energy",
    "errors",
    "langcost",
    "linlen",
    "nondet",
    "oracle",
    "similarity",
    "spectral",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_names_are_the_package_names(name):
    module = importlib.import_module(f"gurevich.{name}")
    for public in module.__all__:
        assert getattr(gurevich, public) is getattr(module, public)
        assert public in gurevich.__all__


def test_package_lists_nothing_else():
    listed = {public for name in MODULES for public in importlib.import_module(f"gurevich.{name}").__all__}
    assert len(gurevich.__all__) == len(set(gurevich.__all__))
    assert set(gurevich.__all__) == listed | {"__version__"}


def test_import_leaves_scipy_and_cli_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gurevich.__file__)))
    code = "import sys, gurevich; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'gurevich.cli'))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"
