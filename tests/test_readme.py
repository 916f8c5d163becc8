"""README.md: its `>>>` examples run as written, and the package root exports
exactly the names they import from it."""

import doctest
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import costpcf

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run_as_written():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def readme_root_imports():
    """The names the README's examples import from the `costpcf` package
    itself, leaving out its submodules (`machine as mc`)."""
    submodules = {m.name for m in pkgutil.iter_modules(costpcf.__path__)}
    names, text = set(), README.read_text()
    for package, items in re.findall(r"^>>> from (\S+) import (.+)$", text, re.M):
        if package != "costpcf":
            continue
        for item in items.split(","):
            name = item.split(" as ")[0].strip()
            if name not in submodules:
                names.add(name)
    return names


def test_package_root_exports_exactly_what_the_readme_imports():
    names = readme_root_imports()
    assert names
    assert costpcf.__all__ == sorted(names)
    public = {n for n, v in vars(costpcf).items()
              if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == names
    for name in costpcf.__all__:
        obj = getattr(costpcf, name)
        assert obj.__module__ != "costpcf"
        assert getattr(importlib.import_module(obj.__module__), name) is obj
