"""No module imports a name it never uses, unless it re-exports it in
`__all__`: an ast walk standing in for a linter's unused-import check."""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_FILES = sorted([*(_ROOT / "src" / "cubictrace").glob("*.py"),
                 *(_ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded; `from
    __future__` imports and names listed in `__all__` count as used."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_walk_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\n"
              "from functools import cached_property, lru_cache as cache\n"
              "from math import gcd\n__all__ = ['gcd']\n"
              "@cache\ndef f(): return sys.argv\n")
    assert unused_imports(source) == ["os", "cached_property"]


@pytest.mark.parametrize("path", _FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
