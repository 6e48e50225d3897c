"""Every Python file keeps to the oldest grammar the project supports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# pyproject.toml declares requires-python >= 3.10.
FILES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
