"""The docstring examples of every np3kit module print what the code prints."""

import doctest
import importlib
import pkgutil

import pytest

import np3kit

MODULES = ["np3kit", *(f"np3kit.{m.name}" for m in pkgutil.iter_modules(np3kit.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_run_as_written(name):
    failed, attempted = doctest.testmod(importlib.import_module(name))
    assert failed == 0
    assert attempted or name != "np3kit"  # the package's quick tour is examples
