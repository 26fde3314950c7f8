"""The `>>>` examples in the package's docstrings and in the README."""

import ast
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


def _loaded_names(source: str) -> set[str]:
    """Every name and attribute the code reads."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_besides_the_tests():
    # A name in a module's `__all__` is read somewhere in the package other
    # than `__init__.py`, in the benchmark's code or in the README's Library
    # example, so no public name is kept alive by its own tests alone.
    root = Path(__file__).resolve().parents[1]
    sources = [p for p in (root / "src" / "handlecalc").glob("*.py") if p.name != "__init__.py"]
    sources += sorted(root.glob("bench/*.py"))
    loaded = set().union(*(_loaded_names(p.read_text(encoding="utf-8")) for p in sources))
    readme = (root / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    for example in doctest.DocTestParser().get_examples(library):
        loaded |= _loaded_names(example.source)
    unused = sorted(f"{name}.{attr}" for name in MODULES
                    for attr in getattr(importlib.import_module(name), "__all__", ()) if attr not in loaded)
    assert unused == []
