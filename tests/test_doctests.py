"""The `>>>` examples in the package's docstrings and in the README."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import handlecalc

MODULES = sorted(m.name for m in pkgutil.iter_modules(handlecalc.__path__, "handlecalc."))
WITH_EXAMPLES = {"handlecalc.words", "handlecalc.surfaces", "handlecalc.twists", "handlecalc.trace",
                 "handlecalc.verify"}


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"
    assert result.attempted > 0 or name not in WITH_EXAMPLES


def test_readme_library_example_passes():
    result = doctest.testfile(str(Path(__file__).resolve().parents[1] / "README.md"), module_relative=False)
    assert result.failed == 0, f"{result.failed} of {result.attempted} README examples failed"
    assert result.attempted > 0
