"""Static checks on src/ and tests/: every imported name is used, no module
defines the same top-level function or class name twice (the later
definition silently replaces the earlier one, so a test defined twice runs
once), every top-level name of a package module is referenced somewhere
in src/, tests/, bench/ or demos/, ``zsforest.__all__`` lists exactly
the names the package ``__init__.py`` imports, every function it lists
has a caller outside tests/ (a module of src/ other than ``__init__.py``,
bench/ or demos/), every name that
bench/*.py imports from ``zsforest`` exists there, so a deletion under src/
that would break the benchmark fails here first, and the package holds no
``assert`` statement, which ``python -O`` would strip, and no
``functools.cache`` or ``functools.lru_cache``, which would keep tables
across calls.

No linter is a project dependency, so these are small stdlib ``ast`` scans.
``from __future__`` imports are skipped, and so are the package
``__init__.py`` files, whose imports are re-exports.
"""

import ast
import importlib
import inspect
from pathlib import Path

import zsforest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests")


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside a string annotation such as ``"Residue"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            tree = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) for each imported name that the module never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
    return sorted((name, line) for name, line in imported.items()
                  if name not in used)


def duplicate_definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) for each module-level def or class whose name an earlier
    one in the same module already took."""
    seen: set[str] = set()
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if node.name in seen:
                out.append((node.name, node.lineno))
            seen.add(node.name)
    return out


def top_level_names(source: str) -> list[tuple[str, int]]:
    """(name, line) for each module-level def, class or assigned name."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            out += [(n.id, node.lineno) for t in targets
                    for n in ast.walk(t) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Store)]
    return out


def referenced_names(source: str) -> set[str]:
    """Names read, attributes taken and names imported anywhere in a module."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _modules(skip_init: bool, tops=SCANNED):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            if not (skip_init and path.name == "__init__.py"):
                yield path.relative_to(ROOT), path.read_text()


def test_scanner_sees_each_import_form():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import numpy.linalg\n"
        "from typing import Optional, Sequence\n"
        "from .core import Forest, Residue\n"
        "def f(x: 'Optional[int]') -> 'Residue':\n"
        "    return numpy.linalg.norm(Forest)\n")
    assert unused_imports(source) == [("Sequence", 5), ("os", 2),
                                      ("osp", 3)]


def test_no_unused_imports():
    problems = [f"{path}:{line}: {name}"
                for path, source in _modules(skip_init=True)
                for name, line in unused_imports(source)]
    assert not problems, "unused imports:\n" + "\n".join(problems)


def test_duplicate_scanner_sees_defs_and_classes():
    source = (
        "def a():\n    def inner(): pass\n    def inner(): pass\n"
        "class B: pass\n"
        "async def c(): pass\n"
        "def a(): pass\n"
        "B = 1\n"
        "class B: pass\n"
        "def c(): pass\n")
    assert duplicate_definitions(source) == [("a", 6), ("B", 8), ("c", 9)]


def test_no_duplicate_definitions():
    problems = [f"{path}:{line}: {name}"
                for path, source in _modules(skip_init=False)
                for name, line in duplicate_definitions(source)]
    assert not problems, "defined twice:\n" + "\n".join(problems)


def test_reference_scanner_sees_each_form():
    defined = (
        "import os\n"
        "A, (B, C) = 1, (2, 3)\n"
        "D: int = 4\n"
        "E = 5\n"
        "E[0] = os.sep\n"
        "def f(): pass\n"
        "class G: pass\n"
        "if os: H = 6\n")
    assert top_level_names(defined) == [
        ("A", 2), ("B", 2), ("C", 2), ("D", 3), ("E", 4), ("f", 6),
        ("G", 7)]
    user = "from m import A\nimport m\nprint(m.B, C)\nD = 1\nE += 1\n"
    assert referenced_names(user) == {"A", "B", "C", "m", "print"}


def test_every_package_name_is_referenced():
    used = set()
    for _, source in _modules(False, ("src", "tests", "bench", "demos")):
        used |= referenced_names(source)
    problems = [f"{path}:{line}: {name}"
                for path, source in _modules(True, ("src/zsforest",))
                for name, line in top_level_names(source)
                if name not in used]
    assert not problems, "never referenced:\n" + "\n".join(problems)


def test_every_public_function_has_a_program_caller():
    used = set()
    for _, source in _modules(True, ("src", "bench", "demos")):
        used |= referenced_names(source)
    problems = [name for name in zsforest.__all__
                if inspect.isfunction(getattr(zsforest, name))
                and name not in used]
    assert not problems, "called only by tests: " + ", ".join(problems)


def test_all_lists_exactly_the_reexports():
    tree = ast.parse((ROOT / "src" / "zsforest" / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    listed = next(node.value for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets))
    names = [ast.literal_eval(elt) for elt in listed.elts]
    assert len(names) == len(set(names)), "__all__ repeats a name"
    assert set(names) == imported


def assert_statements(source: str) -> list[int]:
    """The line of each ``assert`` statement, at any depth of the module."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_assert_scanner_sees_nested_asserts():
    source = (
        "assert x\n"
        "def f():\n"
        "    if x:\n"
        "        assert y, 'why'\n"
        "class C:\n"
        "    def g(self):\n"
        "        return 'assert z'\n")
    assert assert_statements(source) == [1, 4]


def test_package_has_no_assert_statements():
    problems = [f"{path}:{line}"
                for path, source in _modules(False, ("src/zsforest",))
                for line in assert_statements(source)]
    assert not problems, "assert in the package:\n" + "\n".join(problems)


CACHES = ("cache", "lru_cache")


def cache_uses(source: str) -> list[tuple[str, int]]:
    """(name, line) for each use of ``functools.cache`` or
    ``functools.lru_cache``: imported by name, or read as an attribute of
    ``functools`` under any alias."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "functools"}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            uses += [(alias.name, node.lineno) for alias in node.names
                     if alias.name in CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            uses.append((node.attr, node.lineno))
    return sorted(uses, key=lambda use: use[1])


def test_cache_scanner_sees_each_form():
    source = (
        "import functools\n"
        "import functools as ft\n"
        "from functools import cached_property, lru_cache\n"
        "from functools import cache as memo\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f(): pass\n"
        "g = ft.cache(f)\n"
        "h = other.cache\n")
    assert cache_uses(source) == [("lru_cache", 3), ("cache", 4),
                                  ("lru_cache", 5), ("cache", 7)]


def test_package_keeps_no_caches():
    # structure is computed when a call needs it and dropped with the call
    # or the object that asked for it: no table outlives them in a cache
    problems = [f"{path}:{line}: functools.{name}"
                for path, source in _modules(False, ("src/zsforest",))
                for name, line in cache_uses(source)]
    assert not problems, "caches in the package:\n" + "\n".join(problems)


def zsforest_imports(source: str) -> list[tuple[str, str, int]]:
    """(module, name, line) for each name that a ``from zsforest...
    import`` statement takes, at any depth of the module."""
    return [(node.module, alias.name, node.lineno)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "zsforest"
            for alias in node.names]


def test_zsforest_import_scanner_sees_each_form():
    source = (
        "from zsforest import A, B as C\n"
        "import zsforest\n"
        "from zsforest.oracle import (D,\n"
        "                             E)\n"
        "from zsforestry import F\n"
        "from . import G\n"
        "def f():\n"
        "    from zsforest.cli import H\n")
    assert zsforest_imports(source) == [
        ("zsforest", "A", 1), ("zsforest", "B", 1),
        ("zsforest.oracle", "D", 3), ("zsforest.oracle", "E", 3),
        ("zsforest.cli", "H", 8)]


def test_bench_imports_resolve():
    problems = [f"bench/{path.name}:{line}: {module}.{name}"
                for path in sorted((ROOT / "bench").glob("*.py"))
                for module, name, line in zsforest_imports(path.read_text())
                if not hasattr(importlib.import_module(module), name)]
    assert not problems, "missing in zsforest:\n" + "\n".join(problems)
