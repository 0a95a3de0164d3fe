"""The docstring examples of every twinbuild module, run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import twinbuild

# twinbuild.__main__ is left out: importing it runs the CLI.
MODULES = ["twinbuild"] + [
    f"twinbuild.{info.name}"
    for info in pkgutil.iter_modules(twinbuild.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
