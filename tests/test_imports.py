"""No module of the package imports a name that it neither reads nor exports,
and every private name that the package defines is read in it."""

import ast
from collections import Counter
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


def _parts(tree: ast.AST) -> list[ast.AST]:
    """``tree`` and the expressions that its quoted annotations spell."""
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
    return [tree, *quoted]


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
    read = {node.id for part in _parts(tree) for node in ast.walk(part) if isinstance(node, ast.Name)}
    read |= _exported(tree)
    return [name for name in imported if name not in read]


def _private_defs(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """The private names that ``tree`` defines at module level or as methods,
    each with the statement that defines it."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs += [(n.id, node) for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        if isinstance(node, ast.ClassDef):
            defs += [
                (item.name, item) for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    return [(name, node) for name, node in defs if name.startswith("_") and not name.startswith("__")]


def _loads(tree: ast.AST) -> Counter:
    """How often ``tree`` reads each name, as a name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for part in _parts(tree)
        for node in ast.walk(part)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def unread_private_names(sources: list[str]) -> list[str]:
    """The private names that ``sources`` define at module level or as methods
    but read nowhere outside the definition itself.  A name is matched by its
    spelling alone, in any of the sources."""
    trees = [ast.parse(source) for source in sources]
    loads = sum(map(_loads, trees), Counter())
    return [name for tree in trees for name, node in _private_defs(tree) if loads[name] == _loads(node)[name]]


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


def test_every_private_name_is_read():
    assert unread_private_names([path.read_text(encoding="utf-8") for path in FILES]) == []


def test_an_unread_private_name_is_found():
    source = (
        "import re\n_USED = re.compile('x')\n_UNUSED, _N = 1, 2\n"
        "def _helper():\n    return _USED, _N\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Box:\n    def _get(self):\n        return self._put()\n"
        "    def _put(self):\n        return _helper()\n    def __len__(self):\n        return 0\n"
        "def f(x: '_Box') -> None:\n    return x._get()\n"
    )
    assert unread_private_names([source]) == ["_UNUSED", "_recursive"]
