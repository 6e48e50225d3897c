"""No module of the package imports a name that it neither reads nor exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "tsmon").rglob("*.py"))


def _bound(alias: ast.alias) -> str:
    """The name an import binds: ``import a.b`` binds ``a``."""
    return alias.asname or alias.name.partition(".")[0]


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports but neither reads nor lists in ``__all__``.
    A quoted annotation is read as the expression it spells."""
    tree = ast.parse(source)
    imported = [
        _bound(alias)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    annotations = [
        node.annotation if isinstance(node, (ast.arg, ast.AnnAssign)) else node.returns
        for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    quoted = [
        ast.parse(node.value, mode="eval")
        for annotation in annotations if annotation is not None
        for node in ast.walk(annotation)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    read = {node.id for part in (tree, *quoted) for node in ast.walk(part) if isinstance(node, ast.Name)}
    read |= _exported(tree)
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\nimport os.path\nfrom typing import Optional, Union\n"
        "from json import dumps as f, loads\n__all__ = ['f']\n"
        "def g(x: 'Optional[int]') -> None:\n    return os.sep\n"
    )
    assert unused_imports(source) == ["Union", "loads"]
