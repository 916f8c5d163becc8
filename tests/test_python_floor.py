"""The declared Python floor: every source and test file parses with
`ast.parse(feature_version=...)` set to the oldest Python that pyproject.toml
admits.  CPython applies feature_version best-effort, so this is not a run
under that Python; it checks syntax only, and a standard-library name added
after the floor goes unnoticed."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("src/costpcf/*.py")) + sorted(ROOT.glob("tests/*.py"))


def declared_floor():
    """(major, minor) of pyproject.toml's `requires-python = ">=X.Y"`."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_the_floor_grammar_refuses_newer_syntax():
    """`except*` (3.11) and a type alias (3.12) are refused, so the check
    below does not read the running interpreter's full grammar."""
    assert declared_floor() == (3, 10)
    for source in ("try:\n    pass\nexcept* ValueError:\n    pass\n", "type Pair = tuple\n"):
        with pytest.raises(SyntaxError):
            ast.parse(source, feature_version=declared_floor())


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_source_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=declared_floor())
