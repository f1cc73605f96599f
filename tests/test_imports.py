"""No module imports a name it never uses, unless it re-exports it in
`__all__`: an ast walk standing in for a linter's unused-import check.  The
same walk keeps `padic` a leaf: the classification never imports it, finds
top-level names of the package that no code refers to, and lists every
memoized function and every module-level name a function rebinds, so that
a new cache is added on purpose.  A fresh interpreter checks what importing
the CLI loads."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

_ROOT = Path(__file__).resolve().parent.parent
_SRC = sorted((_ROOT / "src" / "cubictrace").glob("*.py"))
_FILES = sorted([*_SRC, *(_ROOT / "tests").glob("*.py")])
_USERS = [*_FILES, *(_ROOT / "bench").glob("*.py")]


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


def imported_modules(source: str) -> set[str]:
    """Last dotted component of every module an import statement names:
    `from .padic import x` and `from . import padic` both give "padic"."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.rsplit(".", 1)[-1] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.rsplit(".", 1)[-1])
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


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


def test_star_import_gives_every_name_in_all():
    # the unused-import walk counts a name in __all__ as used, so a stale
    # entry would pass it: the star import fails on one that is missing
    import cubictrace
    namespace = {}
    exec("from cubictrace import *", namespace)
    assert len(set(cubictrace.__all__)) == len(cubictrace.__all__)
    assert all(hasattr(cubictrace, name) for name in cubictrace.__all__)
    assert set(cubictrace.__all__) <= set(namespace)


def test_walk_finds_imported_modules():
    source = ("from .padic import roots_mod_p\nfrom . import fields\n"
              "import cubictrace.poly as p\nfrom .arith import factorize\n")
    assert imported_modules(source) == {"padic", "fields", "poly", "arith"}


def test_only_the_package_imports_padic():
    importers = [path.name for path in _SRC
                 if path.name not in ("__init__.py", "padic.py")
                 and "padic" in imported_modules(path.read_text())]
    assert importers == []


def defined_names(source: str) -> list[str]:
    """Top-level functions, classes and UPPER_CASE constants of a module."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets
                      if isinstance(t, ast.Name) and t.id.isupper()]
    return names


def referenced_names(source: str) -> set[str]:
    """Names loaded, read as an attribute or imported by name; a definition
    (a def, a class or an assignment) is not a reference."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_walk_finds_defined_and_referenced_names():
    source = ("import m\nLIMIT = 3\nlower = 4\nclass C: pass\n"
              "def f(x): return m.g(x) + LIMIT\nfrom .k import h\n")
    assert defined_names(source) == ["LIMIT", "C", "f"]
    assert referenced_names(source) == {"m", "g", "x", "LIMIT", "h"}


def test_no_dead_top_level_names():
    used = set().union(*(referenced_names(p.read_text()) for p in _USERS))
    dead = [f"{path.stem}.{name}" for path in _SRC
            for name in defined_names(path.read_text()) if name not in used]
    assert dead == []


_MEMOS = ("lru_cache", "cache")


def memoized_functions(source: str) -> list[str]:
    """Functions decorated by functools.lru_cache or functools.cache, bare or
    called, by attribute or by a (possibly renamed) from-import."""
    tree = ast.parse(source)
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "functools"
               for a in node.names if a.name in _MEMOS}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                if (isinstance(dec, ast.Attribute) and dec.attr in _MEMOS
                        or isinstance(dec, ast.Name) and dec.id in aliases):
                    found.append(node.name)
    return found


def test_walk_finds_memoized_functions():
    source = ("import functools\nfrom functools import lru_cache as memo, wraps\n"
              "@functools.cache\ndef f(): pass\n"
              "@memo(maxsize=8)\ndef g(): pass\n"
              "@wraps(f)\ndef h(): pass\n"
              "class C:\n    @functools.lru_cache\n    def m(self): pass\n")
    assert memoized_functions(source) == ["f", "g", "m"]


def test_only_the_listed_functions_are_memoized():
    # build_parser: one parser per process.  _factor_row: Cornacchia and the
    # 3e + 1 factors at a split prime power p^e, 4096 entries; the census
    # walk hits 766 of 1162 calls on a in [-2000, 0] (census-near) and 6512
    # of 11 913 on 20 000 a near -10^6.  census-near's wall_s is 0.0075 s
    # with it and 0.0098 s without, slower in 6 of 6 pairs (bench/run.py
    # --seconds 5, medians of 6 alternated pairs, no bytecode cache, Python
    # 3.11, 2 vCPUs).  A new memo joins this list with a measurement that
    # it pays for itself.
    memos = sorted(f"{path.stem}.{name}" for path in _SRC
                   for name in memoized_functions(path.read_text()))
    assert memos == ["cli.build_parser", "enumeration._factor_row"]


def rebound_globals(source: str) -> list[str]:
    """Module-level names that a function declares `global`, at any depth."""
    return [name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Global) for name in node.names]


def test_walk_finds_rebound_globals():
    source = ("TABLE = []\ncount = 0\n"
              "def f():\n    global count\n    count += 1\n"
              "class C:\n    def m(self):\n        global TABLE, other\n")
    assert rebound_globals(source) == ["count", "TABLE", "other"]


def test_only_the_listed_globals_are_rebound():
    # _oracle_table: d_N by N, regrown by ideal_count_oracle.  _count_table:
    # d_N by N below 2^20, regrown by ideal_count; against the walk over the
    # least-factor table it replaced, the bench's verify workload read
    # op_p50_ms 0.453 -> 0.209 and wall_s 0.0577 -> 0.0453 (medians of 10
    # alternated pairs, better in 10 of 10; Python 3.11.7, 2 vCPUs), and
    # peak_rss_mb 20.06 -> 20.08.  Sieving the large primes first and
    # reading a hit with one index then took it to op_p50_ms 0.210 -> 0.137
    # and wall_s 0.0454 -> 0.0262 (the same way), and peak_rss_mb
    # 20.08 -> 20.18.  A cache kept in a module variable joins this list on
    # the same terms as a memo.
    rebound = sorted(f"{path.stem}.{name}" for path in _SRC
                     for name in rebound_globals(path.read_text()))
    assert rebound == ["eisenstein._count_table", "eisenstein._oracle_table"]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the modules that `import cubictrace.cli` adds in a fresh interpreter,
    # compared inside the child, so what `site` loads first does not count;
    # dataclasses and the inspect it imports cost about 6 ms of start-up.
    # No command calls padic, so the package root does not import it.
    script = ("import sys\nbefore = set(sys.modules)\nimport cubictrace.cli\n"
              "print(*sorted(set(sys.modules) - before))\n")
    added = subprocess.run([sys.executable, "-c", script], env=child_env(),
                           check=True, capture_output=True,
                           text=True).stdout.split()
    assert "cubictrace.cli" in added
    assert not {"dataclasses", "inspect", "cubictrace.padic"} & set(added)


def test_package_root_exports_nothing_of_padic():
    import cubictrace
    padic = _ROOT / "src" / "cubictrace" / "padic.py"
    padic_names = defined_names(padic.read_text())
    assert {"splitting_type", "roots_mod_p", "SplittingType"} <= set(padic_names)
    assert not set(padic_names) & set(cubictrace.__all__)
